#include "recovery/media_recovery.h"

#include <algorithm>
#include <numeric>

#include "recovery/page_redo.h"

namespace spf {

Status MediaRecovery::RestoreSegment(
    BackupId backup, uint64_t first, uint64_t count, Lsn backup_lsn,
    Lsn tail_plan_start,
    const std::unordered_map<PageId, std::vector<Lsn>>& plan, char* seg_buf,
    MediaRecoveryStats* stats) {
  const uint32_t page_size = data_->page_size();
  std::vector<PageId> ids(count);
  std::iota(ids.begin(), ids.end(), first);
  std::vector<char*> frames(count);
  for (uint64_t i = 0; i < count; ++i) frames[i] = seg_buf + i * page_size;

  {
    SimTimer t(clock_);
    SPF_RETURN_IF_ERROR(
        backups_->ReadPagesFromFullBackup(backup, ids, frames.data()).status());
    stats->restore_sim_seconds += t.ElapsedSeconds();
  }

  SimTimer t(clock_);

  // Archived history for this segment's page range arrives as one k-way
  // range fetch over the sorted runs — sequential archive reads carrying
  // full payloads, so nothing below tail_plan_start is re-read from the
  // log. Run-major emission in log order keeps each page's records
  // ascending by LSN. The cap at tail_plan_start keeps this disjoint from
  // the tail plan even if the archiver advanced mid-restore.
  std::unordered_map<PageId, std::vector<LogRecord>> archived;
  if (archive_ != nullptr && tail_plan_start > backup_lsn) {
    const Lsn min_ex = backup_lsn > 0 ? backup_lsn - 1 : 0;  // include ==
    SPF_RETURN_IF_ERROR(archive_
                            ->FetchRange(first, first + count - 1, min_ex,
                                         [&](LogRecord&& rec) {
                                           if (rec.lsn < tail_plan_start) {
                                             archived[rec.page_id].push_back(
                                                 std::move(rec));
                                           }
                                         })
                            .status());
  }

  for (uint64_t i = 0; i < count; ++i) {
    PageId pid = first + i;
    PageView page(frames[i], page_size);
    Lsn format_lsn = kInvalidLsn;
    Lsn final_lsn = kInvalidLsn;

    // Archived records first (all strictly below tail_plan_start), then
    // the unarchived tail plan — one globally ascending redo pass.
    std::vector<LogRecord> records;
    auto ait = archived.find(pid);
    if (ait != archived.end()) records = std::move(ait->second);
    auto pit = plan.find(pid);
    if (pit != plan.end()) {
      for (Lsn lsn : pit->second) {
        // Re-read each tail plan record (random log read): the unarchived
        // remainder stays random-log-read bound like the paper's
        // baseline, and the plan itself holds only LSNs, not payloads.
        SPF_ASSIGN_OR_RETURN(LogRecord rec, log_->Read(lsn));
        records.push_back(std::move(rec));
      }
    }
    for (const LogRecord& rec : records) {
      SPF_ASSIGN_OR_RETURN(bool applied, ApplyPageRedo(rec, page));
      if (!applied) {
        // Image already reflects this record (also makes a re-served
        // segment idempotent).
        stats->redo_skipped++;
        continue;
      }
      // Pages born after the backup: the format record is the backup
      // (section 5.2.1).
      if (rec.type == LogRecordType::kPageFormat) format_lsn = rec.lsn;
      final_lsn = rec.lsn;
      stats->redo_applied++;
    }
    if (final_lsn != kInvalidLsn) page.UpdateChecksum();
    SPF_RETURN_IF_ERROR(data_->WritePage(pid, frames[i]));
    stats->pages_restored++;
    if (pri_manager_ != nullptr) {
      if (format_lsn != kInvalidLsn) {
        pri_manager_->pri()->RecordBackup(
            pid, {BackupKind::kFormatRecord, format_lsn});
      }
      if (final_lsn != kInvalidLsn) {
        pri_manager_->pri()->RecordWrite(pid, final_lsn);
      }
    }
  }
  stats->replay_sim_seconds += t.ElapsedSeconds();
  return Status::OK();
}

StatusOr<MediaRecoveryStats> MediaRecovery::Run(
    const FullRestoreOptions& options) {
  MediaRecoveryStats stats;
  SimTimer total(clock_);

  auto backup = backups_->latest_full_backup();
  if (!backup) {
    return Status::MediaFailure("media recovery impossible: no full backup");
  }

  RestoreGate* gate = options.gate;
  // Seal admission BEFORE dropping the pool and scanning the log. Writes
  // (exclusive fixes, cache hits included): frames that stay cached
  // across DiscardAllUnpinned (pinned by parked readers, or re-fixed by
  // a doomed straggler's in-flight operation) must not take new logged
  // updates after the plan scan while their segment is unswept — the
  // sweep would overwrite an eventual write-back with the pre-update
  // image, or the post-sweep rollback would compensate a record the
  // restored page never received. Reads (buffer faults): the revived
  // device serves checksum-valid pre-failure images whose latest updates
  // may exist only in the log (dirty frames were just discarded, not
  // written back) — loading one would poison the cache with a stale copy
  // that outlives the restore. Every exit below goes through EndRestore,
  // which lifts the seal.
  if (gate != nullptr) gate->SealAdmission();

  // Every buffered page belonged to the failed device; drop them all.
  // Pinned frames are kept: those are readers parked in the failure
  // funnel whose damaged page escalated to this full restore — they
  // re-read the restored device copy once their repair resolves.
  pool_->DiscardAllUnpinned();
  data_->ReviveDevice();

  const uint64_t num_pages = data_->num_pages();
  const uint64_t seg_pages =
      options.segment_pages == 0 ? num_pages
                                 : std::min(options.segment_pages, num_pages);
  const uint64_t num_segments = (num_pages + seg_pages - 1) / seg_pages;

  // One sequential log pass builds the per-page replay plan (the LSNs
  // each page needs, in log order). With an archiver wired in, the scan
  // covers only the UNARCHIVED tail: everything below the watermark is
  // served per segment from the sorted runs (the instant-restore design
  // proper), so the scan — and the random re-reads at apply time — shrink
  // as the archive catches up. New transactions are still parked at the
  // admission gate here and page admission is sealed (buffer misses AND
  // exclusive cache hits), so the plan is complete: records appended by
  // early-admitted transactions later only ever touch pages that were
  // already restored.
  const Lsn tail_plan_start =
      archive_ != nullptr
          ? std::max(backup->backup_lsn, archive_->archived_upto())
          : backup->backup_lsn;
  std::unordered_map<PageId, std::vector<Lsn>> plan;
  {
    SimTimer t(clock_);
    for (auto it = log_->Scan(tail_plan_start); it.Valid(); it.Next()) {
      const LogRecord& rec = it.record();
      stats.records_scanned++;
      if (!IsPageReplayRecord(rec.type)) continue;
      if (rec.page_id == kInvalidPageId) continue;
      plan[rec.page_id].push_back(rec.lsn);
    }
    stats.replay_sim_seconds += t.ElapsedSeconds();
  }

  // Rebuild the PRI's baseline to the restored full backup up front;
  // per-page entries (format-record backups, final replayed LSNs) are
  // published per segment BEFORE the segment is admitted.
  if (pri_manager_ != nullptr) {
    pri_manager_->OnFullBackup(backup->id);
  }

  if (gate != nullptr) gate->BeginRestore(num_pages, seg_pages);
  if (options.on_sweep_begin) options.on_sweep_begin();

  // One loop for both modes: with a gate, the claim order honors the
  // on-demand queue; without one, it degrades to the sequential cursor.
  std::vector<char> seg_buf(seg_pages * data_->page_size());
  uint64_t seq = 0;
  for (;;) {
    uint64_t seg = 0;
    bool on_demand = false;
    if (gate != nullptr) {
      if (!gate->ClaimNextSegment(&seg, &on_demand)) break;
    } else {
      if (seq >= num_segments) break;
      seg = seq++;
    }
    uint64_t first = seg * seg_pages;
    uint64_t count = std::min(seg_pages, num_pages - first);
    Status s = RestoreSegment(backup->id, first, count, backup->backup_lsn,
                              tail_plan_start, plan, seg_buf.data(), &stats);
    if (!s.ok()) {
      // Fail every still-parked fault with the sweep's error instead of
      // hanging it; the caller escalates.
      if (gate != nullptr) gate->EndRestore(s);
      return s;
    }
    if (gate != nullptr) gate->MarkSegmentRestored(seg);
    stats.segments++;
    if (on_demand) stats.on_demand_segments++;
  }
  if (gate != nullptr) gate->EndRestore(Status::OK());

  stats.total_sim_seconds = total.ElapsedSeconds();
  return stats;
}

StatusOr<MediaRecoveryStats> MediaRecovery::RunPartial(
    std::vector<PageId> pages, RecoveryScheduler* scheduler) {
  MediaRecoveryStats stats;
  SimTimer total(clock_);

  if (scheduler == nullptr) {
    return Status::InvalidArgument("partial restore needs a scheduler");
  }
  if (pri_manager_ == nullptr) {
    return Status::MediaFailure(
        "partial restore needs the page recovery index for per-page chain "
        "anchors; escalate to full media recovery");
  }
  auto backup = backups_->latest_full_backup();
  if (!backup) {
    return Status::MediaFailure("partial restore impossible: no full backup");
  }
  if (data_->device_failed()) {
    return Status::MediaFailure(
        "whole device failed: damage is unbounded, full restore required");
  }
  for (PageId p : pages) {
    if (p >= data_->num_pages()) {
      return Status::InvalidArgument("page id out of range");
    }
  }
  if (pages.empty()) {
    stats.total_sim_seconds = total.ElapsedSeconds();
    return stats;
  }

  PartialRestoreBreakdown breakdown;
  SPF_ASSIGN_OR_RETURN(
      BatchRepairResult result,
      scheduler->RepairBatchFromBackup(std::move(pages), backup->id,
                                       &breakdown));
  stats.pages_restored =
      breakdown.backup_pages_loaded + breakdown.per_page_loads;
  // Chain replay reads exactly the records it applies (the point of the
  // partial path: no scan over unrelated log records).
  stats.records_scanned = breakdown.records_applied;
  stats.redo_applied = breakdown.records_applied;
  stats.restore_sim_seconds = breakdown.restore_sim_seconds;
  stats.replay_sim_seconds = breakdown.replay_sim_seconds;
  stats.total_sim_seconds = total.ElapsedSeconds();

  if (result.failed > 0) {
    // All-or-escalate: pages already healed stay healed, but the ladder
    // must fall through to a full restore for the remainder.
    return Status::MediaFailure(
        "partial restore could not heal " + std::to_string(result.failed) +
        " of " + std::to_string(result.failed + result.repaired) +
        " pages (first: " + result.failures.front().status.ToString() + ")");
  }
  return stats;
}

}  // namespace spf
