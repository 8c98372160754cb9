#include "recovery/restart_recovery.h"

#include <algorithm>
#include <unordered_set>

#include "common/coding.h"
#include "recovery/page_redo.h"

namespace spf {

PendingRedo::Owed RedoPlan::Lookup(PageId id) const {
  MutexLock g(mu_);
  if (cancelled_) return Owed::kNothing;
  auto it = entries_.find(id);
  if (it == entries_.end()) return Owed::kNothing;
  return planned_[it->second.first].type == LogRecordType::kPageFormat
             ? Owed::kRedoFromFormat
             : Owed::kRedo;
}

StatusOr<Lsn> RedoPlan::Apply(PageId id, PageView page, bool repaired) {
  std::pair<size_t, size_t> range;
  {
    MutexLock g(mu_);
    auto it = entries_.find(id);
    if (it == entries_.end()) return kInvalidLsn;
    range = it->second;
  }
  if (planned_[range.first].type != LogRecordType::kPageFormat) {
    page_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  if (repaired) repaired_.fetch_add(1, std::memory_order_relaxed);
  Lsn first_applied = kInvalidLsn;
  uint64_t applied = 0, skipped = 0;
  for (size_t i = range.first; i < range.second; ++i) {
    const Planned& p = planned_[i];
    SPF_ASSIGN_OR_RETURN(
        LogRecord rec,
        ParseLogRecord(std::string_view(arena_.data() + p.offset, p.size)));
    rec.lsn = p.lsn;
    const Lsn image_lsn = page.page_lsn();
    SPF_ASSIGN_OR_RETURN(bool done, ApplyPageRedo(rec, page));
    if (done) {
      if (first_applied == kInvalidLsn) first_applied = rec.lsn;
      applied++;
      continue;
    }
    // Figure 12, third row: the page reflects the update although
    // analysis saw no certification that raised the recLSN past it —
    // the write completed but its PRI update was lost. Generate it.
    if (pri_manager_ != nullptr && skipped == 0) {
      pri_manager_->RecordLostWrite(id, image_lsn);
      lost_pri_updates_.fetch_add(1, std::memory_order_relaxed);
    }
    skipped++;
  }
  applied_.fetch_add(applied, std::memory_order_relaxed);
  skipped_by_page_lsn_.fetch_add(skipped, std::memory_order_relaxed);
  return first_applied;
}

void RedoPlan::Retire(PageId id) {
  MutexLock g(mu_);
  if (entries_.erase(id) > 0 && !cancelled_) {
    pending_.fetch_sub(1, std::memory_order_release);
  }
}

PageId RedoPlan::NextOwed(PageId from) const {
  MutexLock g(mu_);
  if (cancelled_) return kInvalidPageId;
  auto it = entries_.lower_bound(from);
  return it == entries_.end() ? kInvalidPageId : it->first;
}

void RedoPlan::Cancel() {
  MutexLock g(mu_);
  cancelled_ = true;
  pending_.store(0, std::memory_order_release);
}

void RedoPlan::CopyRedoCounts(RestartStats* stats) const {
  stats->redo_applied = applied_.load(std::memory_order_relaxed);
  stats->redo_skipped_by_page_lsn =
      skipped_by_page_lsn_.load(std::memory_order_relaxed);
  stats->redo_page_reads = page_reads_.load(std::memory_order_relaxed);
  stats->lost_pri_updates_regenerated =
      lost_pri_updates_.load(std::memory_order_relaxed);
  stats->pages_repaired_during_redo = repaired_.load(std::memory_order_relaxed);
}

void RestartRecovery::Keep(const LogRecord& rec, std::string_view raw,
                           RedoPlan* plan) {
  kept_.push_back({rec.page_id,
                   {rec.lsn, plan->arena_.size(),
                    static_cast<uint32_t>(raw.size()), rec.type}});
  plan->arena_.append(raw);
}

StatusOr<RestartStats> RestartRecovery::Run(RedoPlan* plan) {
  RestartStats stats;
  dpt_.clear();
  losers_.clear();
  kept_.clear();
  redo_scan_floor_ = kInvalidLsn;

  // The PRI must be available before redo so that single-page failures
  // encountered while reading pages for redo can be repaired online
  // (section 5.2.5).
  if (pri_manager_ != nullptr) {
    SPF_RETURN_IF_ERROR(pri_manager_->LoadAllWindows());
  }

  {
    SimTimer t(clock_);
    SPF_RETURN_IF_ERROR(Analysis(plan, &stats));
    SPF_RETURN_IF_ERROR(BuildPlan(plan, &stats));
    stats.analysis_sim_seconds = t.ElapsedSeconds();
  }
  // From here on every page load applies the page's planned redo first —
  // undo's own fixes included.
  pool_->SetPendingRedo(plan);
  {
    SimTimer t(clock_);
    SPF_RETURN_IF_ERROR(Undo(&stats));
    stats.undo_sim_seconds = t.ElapsedSeconds();
  }
  return stats;
}

Status RestartRecovery::Analysis(RedoPlan* plan, RestartStats* stats) {
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
    if (IsPageReplayRecord(rec.type) && rec.page_id != kInvalidPageId) {
      Keep(rec, it.raw(), plan);
    }

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
        if (IsPageReplayRecord(rec.type) && rec.page_id != kInvalidPageId) {
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

Status RestartRecovery::BuildPlan(RedoPlan* plan, RestartStats* stats) {
  if (dpt_.empty() || redo_scan_floor_ == kInvalidLsn ||
      redo_scan_floor_ >= log_->tail_lsn()) {
    kept_.clear();  // nothing is owed
    return Status::OK();
  }
  // Redo starts at the floor, a record boundary at or below every record
  // a DPT entry still demands. Raised (certified) recLSNs are mid-record
  // markers used only to cut the per-page lists below.
  const Lsn floor = std::max(redo_scan_floor_, log_->first_lsn());
  if (floor < stats->analysis_start) {
    // A checkpoint's DPT can reach below the checkpoint itself — a page
    // dirtied before the checkpoint and not flushed by it — even when no
    // page record follows the checkpoint: read the older records the
    // analysis scan started after.
    for (auto it = log_->Scan(floor, stats->analysis_start); it.Valid();
         it.Next()) {
      const LogRecord& rec = it.record();
      if (IsPageReplayRecord(rec.type) && rec.page_id != kInvalidPageId) {
        Keep(rec, it.raw(), plan);
      }
    }
  }
  // Each page's records, in LSN order.
  std::sort(kept_.begin(), kept_.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second.lsn < b.second.lsn;
  });

  // Cut each page's list at its final recLSN — the write-certification
  // optimization (Figure 4): records below it need no page read at all.
  std::map<PageId, std::pair<size_t, size_t>> entries;
  for (size_t i = 0; i < kept_.size();) {
    const PageId page = kept_[i].first;
    size_t end = i;
    while (end < kept_.size() && kept_[end].first == page) end++;
    while (i < end && kept_[i].second.lsn < floor) i++;
    stats->redo_records_considered += end - i;
    auto dpt_it = dpt_.find(page);
    // A page still cached (a restart without a crash) is current.
    if (dpt_it != dpt_.end() && !pool_->IsCached(page)) {
      const size_t first = i;
      while (i < end && kept_[i].second.lsn < dpt_it->second) i++;
      stats->redo_skipped_by_dpt += i - first;
      if (i < end) {
        entries.emplace_hint(entries.end(), page,
                             std::make_pair(plan->planned_.size(),
                                            plan->planned_.size() + end - i));
        for (; i < end; ++i) plan->planned_.push_back(kept_[i].second);
      }
    } else {
      stats->redo_skipped_by_dpt += end - i;
    }
    i = end;
  }
  kept_.clear();
  stats->redo_plan_pages = entries.size();
  MutexLock g(plan->mu_);
  plan->entries_ = std::move(entries);
  plan->pending_.store(plan->entries_.size(), std::memory_order_release);
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
