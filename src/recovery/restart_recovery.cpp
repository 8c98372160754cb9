#include "recovery/restart_recovery.h"

#include <algorithm>
#include <chrono>

#include "common/coding.h"
#include "core/pri.h"
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

// --- RestartRecovery::LoserTable --------------------------------------------------

size_t RestartRecovery::LoserTable::Probe(TxnId id) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Home(id);
  while (slots_[i].txn_id != id && slots_[i].txn_id != kInvalidTxnId) {
    i = (i + 1) & mask;
  }
  return i;
}

RestartRecovery::LoserInfo& RestartRecovery::LoserTable::FindOrInsert(
    TxnId id) {
  size_t i = Probe(id);
  if (slots_[i].txn_id == id) return slots_[i];
  if (2 * (size_ + 1) > slots_.size()) {
    std::vector<LoserInfo> old(slots_.size() * 2);
    old.swap(slots_);
    shift_--;
    for (const LoserInfo& e : old) {
      if (e.txn_id != kInvalidTxnId) slots_[Probe(e.txn_id)] = e;
    }
    i = Probe(id);
  }
  size_++;
  slots_[i] = LoserInfo();
  slots_[i].txn_id = id;
  return slots_[i];
}

void RestartRecovery::LoserTable::Erase(TxnId id) {
  size_t hole = Probe(id);
  if (slots_[hole].txn_id != id) return;
  // Backward shift: move each later entry of the probe run into the hole
  // unless its home lies cyclically in (hole, j].
  const size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; slots_[j].txn_id != kInvalidTxnId;
       j = (j + 1) & mask) {
    if (((j - Home(slots_[j].txn_id)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = LoserInfo();
  size_--;
}

std::vector<RestartRecovery::LoserInfo> RestartRecovery::LoserTable::Sorted()
    const {
  std::vector<LoserInfo> out;
  out.reserve(size_);
  for (const LoserInfo& e : slots_) {
    if (e.txn_id != kInvalidTxnId) out.push_back(e);
  }
  std::sort(out.begin(), out.end(), [](const LoserInfo& a, const LoserInfo& b) {
    return a.txn_id < b.txn_id;
  });
  return out;
}

// --- RestartRecovery ----------------------------------------------------------------

Status RestartRecovery::CheckPage(PageId id) const {
  if (id < rec_lsn_.size()) return Status::OK();
  return Status::Corruption("log record names page " + std::to_string(id) +
                            " beyond the data device's " +
                            std::to_string(rec_lsn_.size()) + " pages");
}

void RestartRecovery::Keep(const LogRecord& rec, std::string_view raw,
                           RedoPlan* plan) {
  kept_.push_back({rec.page_id,
                   {rec.lsn, plan->arena_.size(),
                    static_cast<uint32_t>(raw.size()), rec.type}});
  plan->arena_.append(raw);
}

void RestartRecovery::MarkDirty(PageId id, Lsn lsn) {
  if (rec_lsn_[id] != kInvalidLsn) return;
  rec_lsn_[id] = lsn;
  dpt_size_++;
  if (redo_scan_floor_ == kInvalidLsn || lsn < redo_scan_floor_) {
    redo_scan_floor_ = lsn;
  }
}

void RestartRecovery::Certify(PageId id, Lsn certified) {
  // Figure 12: the certified write cancels recovery requirements up to
  // the certified PageLSN. Implemented as raising the recLSN past it
  // (records after the write still replay).
  if (id < rec_lsn_.size() && rec_lsn_[id] != kInvalidLsn &&
      rec_lsn_[id] <= certified) {
    rec_lsn_[id] = certified + 1;
  }
}

void RestartRecovery::ApplyPageEvents() {
  for (const PageEvent& e : page_events_) {
    if (e.format_lsn == kInvalidLsn) {
      alloc_->MarkFree(e.page);
      continue;
    }
    alloc_->MarkAllocated(e.page);
    // The formatting record is the page's first backup source
    // (section 5.2.1); re-register it in the PRI.
    if (pri_manager_ != nullptr) {
      pri_manager_->pri()->RecordBackup(
          e.page, {BackupKind::kFormatRecord, e.format_lsn});
    }
  }
  page_events_.clear();
}

StatusOr<RestartStats> RestartRecovery::Run(RedoPlan* plan) {
  RestartStats stats;
  rec_lsn_.assign(alloc_->capacity(), kInvalidLsn);
  dpt_size_ = 0;
  losers_ = LoserTable();
  page_events_.clear();
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
    auto wall = std::chrono::steady_clock::now();
    SPF_RETURN_IF_ERROR(Analysis(plan, &stats));
    const auto analysed = std::chrono::steady_clock::now();
    SPF_RETURN_IF_ERROR(BuildPlan(plan, &stats));
    stats.analysis_wall_seconds =
        std::chrono::duration<double>(analysed - wall).count();
    stats.plan_wall_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - analysed)
                                  .count();
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
  const Lsn end = log_->tail_lsn();
  // The arena and the kept list are sized once from the scan span: a
  // record is at least a header long, and only page records are kept.
  const uint64_t span = end > start ? end - start : 0;
  plan->arena_.reserve(span);
  kept_.reserve(span / kLogRecordHeaderSize);

  // Transactions whose finish record (commit, or an abort's end) the scan
  // has already passed. A checkpoint's txn table is snapshotted before its
  // end record is appended, so a transaction that finished in that window
  // can appear in the table even though its finish record precedes the
  // checkpoint record — without this list, the table would resurrect it
  // as a loser and undo a committed transaction. Only checkpoint-end
  // records search it.
  std::vector<TxnId> finished;
  // The id sequence resumes above every id the scan saw, raised once
  // after the scan.
  TxnId next_txn_id = kInvalidTxnId + 1;

  for (auto it = log_->Scan(start, end); it.Valid(); it.Next()) {
    const LogRecord& rec = it.record();
    stats->analysis_records++;
    next_txn_id = std::max(next_txn_id, rec.txn_id + 1);
    const bool page_redo =
        IsPageReplayRecord(rec.type) && rec.page_id != kInvalidPageId;
    if (page_redo) {
      SPF_RETURN_IF_ERROR(CheckPage(rec.page_id));
      Keep(rec, it.raw(), plan);
    }

    // Loser tracking (user transactions only; system transactions are
    // redo-only and never undone — see docs/ARCHITECTURE.md, "System
    // transactions are redo-only").
    if (rec.txn_id != kInvalidTxnId && !rec.is_system_txn()) {
      switch (rec.type) {
        case LogRecordType::kCommitTxn:
        case LogRecordType::kEndTxn:
          losers_.Erase(rec.txn_id);
          finished.push_back(rec.txn_id);
          break;
        default: {
          LoserInfo& info = losers_.FindOrInsert(rec.txn_id);
          info.last_lsn = rec.lsn;
          info.undo_next = rec.type == LogRecordType::kCompensation
                               ? rec.undo_next_lsn
                               : rec.lsn;
          break;
        }
      }
    }

    switch (rec.type) {
      case LogRecordType::kCheckpointEnd: {
        SPF_ASSIGN_OR_RETURN(CheckpointEndBody body,
                             CheckpointEndBody::Decode(rec.body));
        for (const auto& e : body.dpt) {
          SPF_RETURN_IF_ERROR(CheckPage(e.page_id));
          Lsn& cur = rec_lsn_[e.page_id];
          if (cur == kInvalidLsn) dpt_size_++;
          if (cur == kInvalidLsn || e.rec_lsn < cur) cur = e.rec_lsn;
          if (redo_scan_floor_ == kInvalidLsn || e.rec_lsn < redo_scan_floor_) {
            redo_scan_floor_ = e.rec_lsn;
          }
        }
        for (const auto& t : body.txn_table) {
          if (t.is_system || std::find(finished.begin(), finished.end(),
                                       t.txn_id) != finished.end()) {
            continue;
          }
          // A transaction the scan has seen log keeps what it logged.
          LoserInfo& info = losers_.FindOrInsert(t.txn_id);
          if (info.last_lsn == kInvalidLsn) {
            info.last_lsn = t.last_lsn;
            info.undo_next = t.last_lsn;
          }
        }
        ApplyPageEvents();
        SPF_RETURN_IF_ERROR(alloc_->Deserialize(body.allocator_image));
        SPF_RETURN_IF_ERROR(bbl_->Deserialize(body.bad_blocks_image));
        next_txn_id = std::max(next_txn_id, body.next_txn_id);
        break;
      }
      case LogRecordType::kPriUpdate: {
        stats->write_certifications_seen++;
        SPF_ASSIGN_OR_RETURN(PriUpdateBody body, DecodePriUpdate(rec.body));
        if (pri_manager_ != nullptr) {
          ApplyPageEvents();
          pri_manager_->ApplyPriUpdate(rec.page_id, rec.lsn, body);
        }
        Certify(body.data_page_id, body.page_lsn);
        break;
      }
      case LogRecordType::kPageWriteCompleted: {
        stats->write_certifications_seen++;
        size_t off = 0;
        uint64_t certified;
        if (GetFixed64(rec.body, &off, &certified)) {
          Certify(rec.page_id, certified);
        }
        break;
      }
      case LogRecordType::kPageFormat:
        if (!page_redo) break;
        page_events_.push_back({rec.page_id, rec.lsn});
        MarkDirty(rec.page_id, rec.lsn);
        break;
      case LogRecordType::kPageFree:
        SPF_RETURN_IF_ERROR(CheckPage(rec.page_id));
        page_events_.push_back({rec.page_id, kInvalidLsn});
        if (rec_lsn_[rec.page_id] != kInvalidLsn) {
          rec_lsn_[rec.page_id] = kInvalidLsn;
          dpt_size_--;
        }
        break;
      case LogRecordType::kBadBlock:
        bbl_->Add(rec.page_id);
        break;
      default:
        if (page_redo) MarkDirty(rec.page_id, rec.lsn);
        break;
    }
  }
  ApplyPageEvents();
  txns_->SetNextTxnId(next_txn_id);
  stats->dpt_entries_after_analysis = dpt_size_;
  stats->losers = losers_.size();
  return Status::OK();
}

Status RestartRecovery::BuildPlan(RedoPlan* plan, RestartStats* stats) {
  if (dpt_size_ == 0 || redo_scan_floor_ == kInvalidLsn ||
      redo_scan_floor_ >= log_->tail_lsn()) {
    kept_.clear();  // nothing is owed
    return Status::OK();
  }
  // Redo starts at the floor, a record boundary at or below every record
  // a DPT entry still demands. Raised (certified) recLSNs are mid-record
  // markers used only to cut the per-page lists below.
  const Lsn floor = std::max(redo_scan_floor_, log_->first_lsn());
  const size_t analysis_kept = kept_.size();
  if (floor < stats->analysis_start) {
    // A checkpoint's DPT can reach below the checkpoint itself — a page
    // dirtied before the checkpoint and not flushed by it — even when no
    // page record follows the checkpoint: read the older records the
    // analysis scan started after.
    const uint64_t span = stats->analysis_start - floor;
    plan->arena_.reserve(plan->arena_.size() + span);
    kept_.reserve(kept_.size() + span / kLogRecordHeaderSize);
    for (auto it = log_->Scan(floor, stats->analysis_start); it.Valid();
         it.Next()) {
      const LogRecord& rec = it.record();
      if (IsPageReplayRecord(rec.type) && rec.page_id != kInvalidPageId) {
        SPF_RETURN_IF_ERROR(CheckPage(rec.page_id));
        Keep(rec, it.raw(), plan);
      }
    }
  }

  // A stable counting sort by page id: the older records first, then the
  // analysis scan's, so each page's list is in LSN order. A record is owed
  // when its page is in the DPT and it lies at or above the page's final
  // recLSN — the write-certification cut of Figure 4: records below it
  // need no page read at all. The recLSN is never below the floor.
  const auto older = kept_.begin() + analysis_kept;
  std::vector<uint32_t> next(rec_lsn_.size(), 0);  // counts, then cursors
  uint64_t owed = 0;
  for (const Kept& k : kept_) {
    if (k.planned.lsn < floor) continue;
    stats->redo_records_considered++;
    const Lsn rec_lsn = rec_lsn_[k.page];
    if (rec_lsn != kInvalidLsn && k.planned.lsn >= rec_lsn) {
      next[k.page]++;
      owed++;
    }
  }
  std::map<PageId, std::pair<size_t, size_t>> entries;
  size_t at = 0;
  for (PageId page = 0; page < rec_lsn_.size(); ++page) {
    const uint32_t count = next[page];
    // A page still cached (a restart without a crash) is current.
    if (count > 0 && pool_->IsCached(page)) {
      rec_lsn_[page] = kInvalidLsn;
      owed -= count;
    } else if (count > 0) {
      entries.emplace_hint(entries.end(), page,
                           std::make_pair(at, at + count));
    }
    next[page] = static_cast<uint32_t>(at);
    if (rec_lsn_[page] != kInvalidLsn) at += count;
  }
  stats->redo_skipped_by_dpt = stats->redo_records_considered - owed;
  plan->planned_.resize(owed);
  auto place = [&](std::vector<Kept>::const_iterator from,
                   std::vector<Kept>::const_iterator to) {
    for (; from != to; ++from) {
      const Lsn rec_lsn = rec_lsn_[from->page];
      if (rec_lsn != kInvalidLsn && from->planned.lsn >= rec_lsn) {
        plan->planned_[next[from->page]++] = from->planned;
      }
    }
  };
  place(older, kept_.end());
  place(kept_.begin(), older);
  kept_.clear();
  stats->redo_plan_pages = entries.size();
  MutexLock g(plan->mu_);
  plan->entries_ = std::move(entries);
  plan->pending_.store(plan->entries_.size(), std::memory_order_release);
  return Status::OK();
}

Status RestartRecovery::Undo(RestartStats* stats) {
  RollbackExecutor rollback(log_, tree_, txns_);
  for (const LoserInfo& loser : losers_.Sorted()) {
    Transaction* txn =
        txns_->AdoptLoser(loser.txn_id, loser.last_lsn, loser.undo_next);
    SPF_ASSIGN_OR_RETURN(RollbackStats rb, rollback.Rollback(txn));
    stats->undo_records += rb.records_undone;
  }
  return Status::OK();
}

}  // namespace spf
