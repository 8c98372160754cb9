#include "recovery/restart_recovery.h"

#include <unordered_set>

#include "btree/btree_log.h"
#include "common/coding.h"

namespace spf {

bool RestartRecovery::IsPageRedoType(LogRecordType type) {
  switch (type) {
    case LogRecordType::kPageFormat:
    case LogRecordType::kBTreeInsert:
    case LogRecordType::kBTreeMarkGhost:
    case LogRecordType::kBTreeUpdate:
    case LogRecordType::kBTreeReclaimGhost:
    case LogRecordType::kBTreeSplit:
    case LogRecordType::kBTreeAdopt:
    case LogRecordType::kBTreeGrowRoot:
    case LogRecordType::kPageMigrate:
    case LogRecordType::kCompensation:
      return true;
    default:
      return false;
  }
}

StatusOr<RestartStats> RestartRecovery::Run() {
  RestartStats stats;
  dpt_.clear();
  losers_.clear();
  redo_scan_floor_ = kInvalidLsn;

  // The PRI must be available before redo so that single-page failures
  // encountered while reading pages for redo can be repaired online
  // (section 5.2.5).
  if (pri_manager_ != nullptr) {
    SPF_RETURN_IF_ERROR(pri_manager_->LoadAllWindows());
  }

  {
    SimTimer t(clock_);
    SPF_RETURN_IF_ERROR(Analysis(&stats));
    stats.analysis_sim_seconds = t.ElapsedSeconds();
  }
  {
    SimTimer t(clock_);
    SPF_RETURN_IF_ERROR(Redo(&stats));
    stats.redo_sim_seconds = t.ElapsedSeconds();
  }
  {
    SimTimer t(clock_);
    SPF_RETURN_IF_ERROR(Undo(&stats));
    stats.undo_sim_seconds = t.ElapsedSeconds();
  }
  return stats;
}

Status RestartRecovery::Analysis(RestartStats* stats) {
  Lsn start = log_->GetMasterRecord();
  if (start == kInvalidLsn) start = log_->first_lsn();
  stats->analysis_start = start;

  // Transactions whose finish record (commit, or an abort's end) the scan
  // has already passed. A checkpoint's txn table is snapshotted before its
  // end record is appended, so a transaction that finished in that window
  // can appear in the table even though its finish record precedes the
  // checkpoint record — without this set, the table would resurrect it as
  // a loser and undo a committed transaction.
  std::unordered_set<TxnId> finished;

  for (auto it = log_->Scan(start); it.Valid(); it.Next()) {
    const LogRecord& rec = it.record();
    stats->analysis_records++;

    // Loser tracking (user transactions only; system transactions are
    // redo-only and never undone — see docs/ARCHITECTURE.md, "System
    // transactions are redo-only").
    if (rec.txn_id != kInvalidTxnId && !rec.is_system_txn()) {
      switch (rec.type) {
        case LogRecordType::kCommitTxn:
        case LogRecordType::kEndTxn:
          losers_.erase(rec.txn_id);
          finished.insert(rec.txn_id);
          break;
        default: {
          LoserInfo& info = losers_[rec.txn_id];
          info.last_lsn = rec.lsn;
          info.undo_next = rec.type == LogRecordType::kCompensation
                               ? rec.undo_next_lsn
                               : rec.lsn;
          break;
        }
      }
      if (rec.txn_id != kInvalidTxnId) {
        txns_->SetNextTxnId(rec.txn_id + 1);
      }
    }

    switch (rec.type) {
      case LogRecordType::kCheckpointEnd: {
        SPF_ASSIGN_OR_RETURN(CheckpointEndBody body,
                             CheckpointEndBody::Decode(rec.body));
        for (const auto& e : body.dpt) {
          auto cur = dpt_.find(e.page_id);
          if (cur == dpt_.end() || e.rec_lsn < cur->second) {
            dpt_[e.page_id] = e.rec_lsn;
          }
          if (redo_scan_floor_ == kInvalidLsn || e.rec_lsn < redo_scan_floor_) {
            redo_scan_floor_ = e.rec_lsn;
          }
        }
        for (const auto& t : body.txn_table) {
          if (t.is_system) continue;
          if (finished.count(t.txn_id)) continue;
          if (losers_.find(t.txn_id) == losers_.end()) {
            LoserInfo info;
            info.last_lsn = t.last_lsn;
            info.undo_next = t.last_lsn;
            losers_[t.txn_id] = info;
          }
        }
        SPF_RETURN_IF_ERROR(alloc_->Deserialize(body.allocator_image));
        SPF_RETURN_IF_ERROR(bbl_->Deserialize(body.bad_blocks_image));
        txns_->SetNextTxnId(body.next_txn_id);
        break;
      }
      case LogRecordType::kPriUpdate: {
        stats->write_certifications_seen++;
        Lsn certified = kInvalidLsn;
        PageId data_page = kInvalidPageId;
        if (pri_manager_ != nullptr) {
          SPF_RETURN_IF_ERROR(pri_manager_->ApplyPriUpdateRecord(rec));
        }
        auto body_or = DecodePriUpdate(rec.body);
        if (body_or.ok()) {
          certified = body_or->page_lsn;
          data_page = body_or->data_page_id;
        }
        // Figure 12: the certified write cancels recovery requirements up
        // to the certified PageLSN. Implemented as raising the recLSN past
        // it (records after the write still replay).
        if (data_page != kInvalidPageId) {
          auto cur = dpt_.find(data_page);
          if (cur != dpt_.end() && cur->second <= certified) {
            cur->second = certified + 1;
          }
        }
        break;
      }
      case LogRecordType::kPageWriteCompleted: {
        stats->write_certifications_seen++;
        size_t off = 0;
        uint64_t certified;
        if (GetFixed64(rec.body, &off, &certified)) {
          auto cur = dpt_.find(rec.page_id);
          if (cur != dpt_.end() && cur->second <= certified) {
            cur->second = certified + 1;
          }
        }
        break;
      }
      case LogRecordType::kPageFormat:
        alloc_->MarkAllocated(rec.page_id);
        if (dpt_.find(rec.page_id) == dpt_.end()) {
          dpt_[rec.page_id] = rec.lsn;
          if (redo_scan_floor_ == kInvalidLsn ||
              rec.lsn < redo_scan_floor_) {
            redo_scan_floor_ = rec.lsn;
          }
        }
        // The formatting record is the page's first backup source
        // (section 5.2.1); re-register it in the PRI.
        if (pri_manager_ != nullptr) {
          pri_manager_->pri()->RecordBackup(
              rec.page_id, {BackupKind::kFormatRecord, rec.lsn});
        }
        break;
      case LogRecordType::kPageFree:
        alloc_->MarkFree(rec.page_id);
        dpt_.erase(rec.page_id);
        break;
      case LogRecordType::kBadBlock:
        bbl_->Add(rec.page_id);
        break;
      default:
        if (IsPageRedoType(rec.type) && rec.page_id != kInvalidPageId) {
          if (dpt_.find(rec.page_id) == dpt_.end()) {
            dpt_[rec.page_id] = rec.lsn;
            if (redo_scan_floor_ == kInvalidLsn ||
                rec.lsn < redo_scan_floor_) {
              redo_scan_floor_ = rec.lsn;
            }
          }
        }
        break;
    }
  }
  stats->dpt_entries_after_analysis = dpt_.size();
  stats->losers = losers_.size();
  return Status::OK();
}

Status RestartRecovery::Redo(RestartStats* stats) {
  if (dpt_.empty()) return Status::OK();
  // The scan must start at a record boundary that is <= every record any
  // DPT entry still demands. Raised (certified) recLSNs are mid-record
  // markers used only for per-record filtering below; the floor tracks
  // the boundary minimum.
  Lsn redo_start = redo_scan_floor_;
  if (redo_start == kInvalidLsn || redo_start >= log_->tail_lsn()) {
    return Status::OK();
  }
  if (redo_start < log_->first_lsn()) redo_start = log_->first_lsn();

  BufferPoolStats pool_before = pool_->stats();
  std::set<PageId> lost_updates_regenerated;

  for (auto it = log_->Scan(redo_start); it.Valid(); it.Next()) {
    const LogRecord& rec = it.record();
    if (!IsPageRedoType(rec.type) || rec.page_id == kInvalidPageId) continue;
    stats->redo_records_considered++;

    auto dpt_it = dpt_.find(rec.page_id);
    if (dpt_it == dpt_.end() || rec.lsn < dpt_it->second) {
      // The write-certification optimization (Figure 4): no page read at
      // all for this record.
      stats->redo_skipped_by_dpt++;
      continue;
    }

    // Fix the page. Formats rebuild the frame without a device read; any
    // other record reads (and, if necessary, repairs) the current image.
    PageGuard guard;
    if (rec.type == LogRecordType::kPageFormat && !pool_->IsCached(rec.page_id)) {
      SPF_ASSIGN_OR_RETURN(guard, pool_->FixNewPage(rec.page_id));
    } else {
      SPF_ASSIGN_OR_RETURN(guard,
                           pool_->FixPage(rec.page_id, LatchMode::kExclusive));
    }

    PageView page = guard.view();
    if (rec.type != LogRecordType::kPageFormat &&
        page.page_lsn() >= rec.lsn) {
      stats->redo_skipped_by_page_lsn++;
      // Figure 12, third row: the page reflects the update although
      // analysis saw no certification that raised the recLSN past it —
      // the write completed but its PRI update was lost. Generate it.
      if (pri_manager_ != nullptr &&
          lost_updates_regenerated.insert(rec.page_id).second) {
        pri_manager_->RecordLostWrite(rec.page_id, page.page_lsn());
        stats->lost_pri_updates_regenerated++;
      }
      continue;
    }
    if (rec.type != LogRecordType::kPageFormat) {
      // Defensive redo-sequence check (section 5.1.4): the per-page chain
      // pointer must match the PageLSN about to be overwritten.
      if (rec.page_prev_lsn != page.page_lsn()) {
        return Status::Corruption(
            "redo sequence check failed on page " +
            std::to_string(rec.page_id) + ": PageLSN " +
            std::to_string(page.page_lsn()) + ", record expects " +
            std::to_string(rec.page_prev_lsn));
      }
    }
    guard.MarkDirtyForRedo(rec.lsn);
    SPF_RETURN_IF_ERROR(btree_log::RedoBTreeRecord(rec, page));
    page.set_page_lsn(rec.lsn);
    // Match the live path's per-record bump so the redone image is
    // byte-identical to the pre-crash one.
    page.bump_update_count();
    stats->redo_applied++;
  }

  BufferPoolStats pool_after = pool_->stats();
  stats->redo_page_reads = pool_after.misses - pool_before.misses;
  stats->pages_repaired_during_redo =
      pool_after.repairs_succeeded - pool_before.repairs_succeeded;
  return Status::OK();
}

Status RestartRecovery::Undo(RestartStats* stats) {
  RollbackExecutor rollback(log_, tree_, txns_);
  for (const auto& [txn_id, info] : losers_) {
    Transaction* txn = txns_->AdoptLoser(txn_id, info.last_lsn, info.undo_next);
    SPF_ASSIGN_OR_RETURN(RollbackStats rb, rollback.Rollback(txn));
    stats->undo_records += rb.records_undone;
  }
  return Status::OK();
}

}  // namespace spf
