// RecoveryScheduler: coordinated repair of MANY failed pages at once.
//
// The paper notes (section 5.2) that "it is perfectly possible that
// multiple pages fail and that they be recovered at the same time", and
// that coordinated recovery of a large failed set converges to the access
// patterns of media recovery. Serial single-page recovery repairs a burst
// of N latent faults with N independent walks of per-page log chains —
// N × chain-length random log reads. "Instant restore after a media
// failure" (Sauer, Graefe & Härder, 2017) shows the coordinated fix, which
// this scheduler implements for batches:
//
//   1. group the failed pages by BACKUP SOURCE (all pages restored from
//      the same full backup are read in page-id order — sequential backup
//      I/O, like a partial restore);
//   2. cluster the per-page chains by OVERLAPPING LOG RANGES
//      (backup-LSN .. target-LSN) and walk each cluster's chains together:
//      a max-heap over every page's next chain pointer pops records in
//      globally descending LSN order, so the log is read in SEGMENTS, each
//      fetched once per batch (LogSegmentReader) instead of once per
//      record;
//   3. apply each page's collected chain and heal the device copy, fanned
//      out over a small worker pool (stats are sharded in
//      SinglePageRecovery, so concurrent repairs do not serialize).
//
// These phases are the only single-page repair path. A read-path repair
// (RepairPage: the buffer pool's repairer when the funnel is off, and the
// funnel's inline fallback) runs them on a batch of one, on the calling
// thread; batches from Database::Scrub(), the background Scrubber, the
// funnel's ladder and partial restore run them under batch_mu_ on the
// worker pool.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/sync.h"
#include "core/single_page_recovery.h"
#include "log/log_archive.h"

namespace spf {

/// Tuning knobs for the RecoveryScheduler.
struct RecoverySchedulerOptions {
  /// Worker threads for the fan-out phases. 0 runs every phase inline.
  uint32_t num_workers = 4;
  /// Segment size for shared log reads in the batched path.
  uint64_t log_segment_bytes = 256 * 1024;
};

/// Cumulative counters across all batches (RecoveryScheduler::stats()).
struct RecoverySchedulerStats {
  uint64_t batches = 0;             ///< RepairBatch invocations
  uint64_t pages_requested = 0;     ///< distinct pages across all batches
  uint64_t pages_repaired = 0;      ///< pages healed
  uint64_t pages_failed = 0;        ///< pages that escalated
  uint64_t backup_groups = 0;       ///< backup-source groups formed
  uint64_t chain_clusters = 0;      ///< overlapping-log-range clusters walked
  uint64_t segment_fetches = 0;     ///< log segment reads
  uint64_t archive_fetches = 0;     ///< batched sorted-run range fetches
  uint64_t single_repairs = 0;      ///< foreground (read-path) repairs
  uint64_t partial_restores = 0;    ///< RepairBatchFromBackup invocations
};

/// Phase breakdown of one RepairBatchFromBackup call (feeds the partial
/// rows of MediaRecoveryStats).
struct PartialRestoreBreakdown {
  uint64_t backup_pages_loaded = 0;  ///< images read from the full backup
  uint64_t backup_runs = 0;          ///< sequential backup read streams
  /// Images loaded from a per-page source newer than the full backup
  /// (individual copy, in-log image, or format record — the latter being
  /// the only source for a page born after the backup).
  uint64_t per_page_loads = 0;
  uint64_t records_applied = 0;      ///< chain records replayed
  uint64_t segment_fetches = 0;      ///< shared log segment reads
  double restore_sim_seconds = 0;    ///< backup-read / rebuild phase
  double replay_sim_seconds = 0;     ///< chain walk + apply + heal phase
};

/// One page's terminal repair status within a batch.
struct PageRepairOutcome {
  PageId page_id = kInvalidPageId;  ///< the page
  Status status;                    ///< why it could not be repaired
};

/// Result of one RepairBatch / RepairBatchFromBackup call.
struct BatchRepairResult {
  uint64_t repaired = 0;  ///< pages healed
  uint64_t failed = 0;    ///< pages that could not be healed
  /// One entry per page that could not be repaired (escalations).
  std::vector<PageRepairOutcome> failures;
};

/// Batched multi-page repair coordinator (see the file comment for the
/// three-phase algorithm). Also the PageRepairer installed on the buffer
/// pool when the failure funnel is disabled.
class RecoveryScheduler : public PageRepairer {
 public:
  /// `spr` provides the per-page building blocks; `options` is copied.
  RecoveryScheduler(SinglePageRecovery* spr, RecoverySchedulerOptions options);
  /// Joins the worker pool (if one was ever spawned).
  ~RecoveryScheduler() override;

  SPF_DISALLOW_COPY(RecoveryScheduler);

  /// PageRepairer hook (buffer pool read path): a foreground fault is a
  /// batch of one, repaired on the calling thread and copied into
  /// `frame`. Runs beside batches in flight: it takes neither batch_mu_
  /// nor the worker pool.
  Status RepairPage(PageId id, char* frame) override;

  /// Repairs every page in `pages` (deduplicated). Individual failures do
  /// not abort the rest of the batch; they are reported in the result —
  /// and, when an escalation sink is installed, also handed to it so
  /// unrepairable pages flow into the failure funnel automatically.
  /// Thread-safe; concurrent batches are serialized.
  StatusOr<BatchRepairResult> RepairBatch(std::vector<PageId> pages);

  /// RepairBatch without notifying the escalation sink. The recovery
  /// ladder (Database::RecoverPages) uses this: it escalates leftovers to
  /// partial restore itself, and feeding them back into the funnel that
  /// invoked the ladder would loop.
  StatusOr<BatchRepairResult> RepairBatchNoEscalation(
      std::vector<PageId> pages);

  /// Installs the escalation sink (the failure funnel's Report). Called
  /// with the page ids a RepairBatch could not heal, after the batch
  /// completes. Install during startup; not thread-safe vs. in-flight
  /// batches.
  void SetEscalationSink(std::function<void(std::vector<PageId>)> sink);

  /// Partial media restore (the "instant restore" bridge between the
  /// single-page path and full media recovery): repairs `pages` by reading
  /// every page whose latest image source is full backup `backup` — or
  /// whose PRI backup reference was LOST (BackupKind::kNone, where
  /// RepairBatch must escalate) — with sequential scans of just the
  /// damaged id ranges; pages with a newer per-page source (individual
  /// copy, in-log image, or the format record of a page born after the
  /// backup, which the backup does not contain) load from that source
  /// instead. All per-page chains are then replayed through one
  /// shared-segment cluster walk.
  StatusOr<BatchRepairResult> RepairBatchFromBackup(
      std::vector<PageId> pages, BackupId backup,
      PartialRestoreBreakdown* breakdown = nullptr);

  /// Wires the sorted log archive in: cluster walks then stop their tail
  /// reads at the archiver's watermark and fetch the archived remainder
  /// of every chain in the cluster as one k-way range fetch over the
  /// runs. nullptr (the default) keeps the pure tail walk. Install during
  /// startup; not thread-safe vs. in-flight batches.
  void SetArchive(LogArchiver* archive) { archive_ = archive; }

  /// Cumulative counters snapshot.
  RecoverySchedulerStats stats() const;
  /// Zeroes the cumulative counters.
  void ResetStats();

 private:
  struct PageTask;
  class WorkerPool;

  /// Builds the deduplicated task list and bumps the request counters.
  std::vector<PageTask> PrepareBatch(std::vector<PageId>* pages);

  /// The worker pool, spawned on first use.
  WorkerPool* BatchWorkers() SPF_REQUIRES(batch_mu_);
  /// Runs fn(0) .. fn(count - 1) on `workers`, or inline when null.
  static void ForEach(WorkerPool* workers, size_t count,
                      const std::function<void(size_t)>& fn);

  StatusOr<BatchRepairResult> RepairBatchImpl(std::vector<PageId> pages,
                                              bool notify_sink);

  /// The repair phases over `tasks`; `workers` null runs them inline.
  BatchRepairResult RepairBatched(std::vector<PageTask>* tasks,
                                  WorkerPool* workers);
  BatchRepairResult RestoreBatched(std::vector<PageTask>* tasks,
                                   BackupId backup,
                                   PartialRestoreBreakdown* breakdown,
                                   WorkerPool* workers);

  /// Phase 0 (shared): PRI lookups + frame allocation. `anchor_only`
  /// (partial restore) tolerates entries whose backup reference was lost.
  void LookupPhase(std::vector<PageTask>* tasks, bool anchor_only);
  /// Phase 2 (shared): clusters overlapping chain ranges and walks each.
  /// Adds this batch's segment fetch count to `*fetches` when non-null;
  /// returns the number of clusters walked.
  size_t WalkClusters(std::vector<PageTask>* tasks, uint64_t* fetches);
  /// Phase 3 (shared): applies collected chains, verifies, heals.
  void ApplyPhase(std::vector<PageTask>* tasks, WorkerPool* workers);
  /// Outcome collection (shared): merges per-task stats, publishes the
  /// amortized per-page cost, fills the result.
  BatchRepairResult CollectOutcomes(std::vector<PageTask>* tasks,
                                    const SimTimer& timer);

  /// Phase 2 core: walks one cluster of overlapping chains via a max-heap
  /// of per-page next pointers, reading shared log segments once each.
  /// With an archive wired in, the walk stops at the watermark and the
  /// archived remainders arrive via FetchArchivedChains. Returns the
  /// cluster's segment fetch count.
  uint64_t WalkCluster(std::vector<PageTask>* tasks,
                       const std::vector<size_t>& members);

  /// One k-way sorted-run range fetch completing every cluster member
  /// whose chain crossed the archive watermark (archived_hi[m] set).
  /// Adds the archive data pages read to `*archive_pages`.
  void FetchArchivedChains(std::vector<PageTask>* tasks,
                           const std::vector<size_t>& members,
                           const std::vector<Lsn>& archived_hi,
                           uint64_t* archive_pages);

  SinglePageRecovery* const spr_;
  LogArchiver* archive_ = nullptr;  ///< optional sorted-run chain source
  const RecoverySchedulerOptions options_;
  /// Receives the unrepairable page ids of a completed RepairBatch.
  std::function<void(std::vector<PageId>)> escalation_sink_;
  OrderedMutex batch_mu_{LockRank::kRepairBatch};  ///< one batch in flight
  /// Created by the first batch.
  std::unique_ptr<WorkerPool> workers_ SPF_GUARDED_BY(batch_mu_);

  mutable OrderedMutex stats_mu_{LockRank::kStats};  ///< guards stats_
  RecoverySchedulerStats stats_ SPF_GUARDED_BY(stats_mu_);
};

}  // namespace spf
