// Single-page recovery (paper section 5.2.3, Figure 10) and the
// read-time detection hooks (section 4.2 / 5.2.2, Figure 8).
//
// Recovery procedure for one failed page:
//   1. look up the page in the page recovery index;
//   2. fetch the most recent backup (individual copy, full backup, in-log
//      image, or the page's formatting log record) into the buffer frame;
//   3. follow the per-page log chain from the PRI's PageLSN back to the
//      backup, pushing record pointers onto a last-in-first-out stack;
//   4. pop and apply the "redo" actions in order through ApplyPageRedo,
//      the redo rule restart redo and media restore share, with the
//      defensive check that each record's page_prev_lsn equals the
//      current PageLSN (section 5.1.4);
//   5. verify the result; the page is up to date in the buffer pool and
//      the affected transaction merely waited — no abort.
// If anything fails, the error escalates (the caller treats it as a media
// failure, exactly the paper's fallback).
//
// This class holds the per-page steps (1, 2, 4 and 5) and the cumulative
// counters. The RecoveryScheduler drives them: it collects the chains of
// step 3 from shared log segments and archive runs, for a batch of pages
// or for the read path's batch of one. The steps only touch thread-safe
// components (PRI, log, backups, device), so many repairs may run at
// once; the counters are sharded by page id so concurrent repairs do not
// serialize on one stats mutex.

#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "backup/backup_manager.h"
#include "buffer/buffer_pool.h"
#include "common/sync.h"
#include "core/pri_manager.h"
#include "log/log_manager.h"
#include "storage/sim_device.h"

namespace spf {

/// Cumulative counters plus the most recent repair's breakdown (benches
/// read the latter right after inducing one failure).
struct SinglePageRecoveryStats {
  uint64_t repairs_attempted = 0;
  uint64_t repairs_succeeded = 0;
  uint64_t escalations = 0;
  uint64_t log_records_applied = 0;
  uint64_t log_reads = 0;
  uint64_t archive_reads = 0;  ///< sequential archive data pages read
  uint64_t backup_reads = 0;

  // Most recent successful repair:
  uint64_t last_chain_length = 0;
  uint64_t last_sim_ns = 0;
  BackupKind last_backup_kind = BackupKind::kNone;
};

/// The per-page steps of Figure 10 and their counters.
class SinglePageRecovery {
 public:
  SinglePageRecovery(PriManager* pri_manager, LogManager* log,
                     BackupManager* backups, SimDevice* data_device,
                     SimClock* clock);

  SPF_DISALLOW_COPY(SinglePageRecovery);

  // Each step accumulates its I/O counters into `*acc` (a caller-local
  // stats struct) instead of the shared shards; the caller merges once
  // with MergeStats. This keeps a batch's worth of repairs off any shared
  // lock.

  /// PRI lookup; MediaFailure if the index knows nothing about the page.
  StatusOr<PriEntry> LookupEntry(PageId id) const;

  /// Chain-anchor lookup for partial restore: tolerates a lost backup
  /// reference (the image comes from the full backup instead).
  StatusOr<PriEntry> LookupChainAnchor(PageId id) const;

  /// Step 2: fetches the most recent backup image of `id` into `frame`.
  Status LoadBackupImage(PageId id, const PriEntry& entry, char* frame,
                         SinglePageRecoveryStats* acc);

  /// Step 4: pops a collected chain (newest-first LIFO) and applies each
  /// record through ApplyPageRedo. A record the page already reflects
  /// cannot be on a chain above the backup, so a skip is Corruption, as
  /// is a failed redo-sequence check. Consumes `*chain`.
  Status ApplyChain(std::vector<LogRecord>* chain, char* frame,
                    SinglePageRecoveryStats* acc);

  /// Figure 10's escalation wrap: any non-media failure becomes a
  /// MediaFailure naming the page.
  static Status Escalate(PageId id, const Status& s);

  /// Step 5: verifies the recovered image against the PRI target LSN and
  /// heals the stored copy (device write-back).
  Status FinishRepair(PageId id, const PriEntry& entry, char* frame,
                      SinglePageRecoveryStats* acc);

  /// Adds a batch-local accumulator into the shard owning `shard_key`.
  void MergeStats(const SinglePageRecoveryStats& acc, PageId shard_key);

  /// Publishes the "most recent successful repair" snapshot.
  void NoteLastRepair(uint64_t chain_length, uint64_t sim_ns, BackupKind kind);

  SinglePageRecoveryStats stats() const;  ///< aggregated over all shards
  void ResetStats();

  LogManager* log() const { return log_; }
  BackupManager* backups() const { return backups_; }
  SimClock* clock() const { return clock_; }
  uint32_t page_size() const { return page_size_; }

 private:
  static constexpr size_t kStatShards = 8;
  struct alignas(64) StatShard {
    mutable OrderedMutex mu{LockRank::kStats};
    SinglePageRecoveryStats s SPF_GUARDED_BY(mu);
  };

  PriManager* const pri_manager_;
  LogManager* const log_;
  BackupManager* const backups_;
  SimDevice* const data_device_;
  SimClock* const clock_;
  const uint32_t page_size_;

  StatShard shards_[kStatShards];
  mutable OrderedMutex last_mu_{LockRank::kStats};  // last_* snapshot
  uint64_t last_chain_length_ SPF_GUARDED_BY(last_mu_) = 0;
  uint64_t last_sim_ns_ SPF_GUARDED_BY(last_mu_) = 0;
  BackupKind last_backup_kind_ SPF_GUARDED_BY(last_mu_) = BackupKind::kNone;
};

/// ReadVerifier implementation: the PageLSN-vs-PRI cross-check credited to
/// Gary Smith in the paper's acknowledgements (section 5.2.2: "comparing
/// the PageLSN in the data page with the information in the page recovery
/// index is an additional consistency check that could prevent the
/// nightmare recounted in the introduction"). Catches stale pages whose
/// in-page checksum is valid.
///
/// A PageLSN NEWER than the PRI certifies, but inside the durable log, is
/// accepted: it is Figure 12's third row — the write completed and the
/// crash lost its PriUpdate with the log tail. Such a page owes restart
/// redo, and the load's redo regenerates the PriUpdate once
/// (RedoPlan::Apply). An older PageLSN, or one past the durable log (an
/// image no logged update can explain), fails the check.
class PageLsnCrossCheck : public ReadVerifier {
 public:
  PageLsnCrossCheck(PriManager* pri_manager, const LogManager* log)
      : pri_manager_(pri_manager), log_(log) {}

  Status VerifyOnRead(PageView page) override;

  uint64_t checks() const { return checks_.load(std::memory_order_relaxed); }
  uint64_t mismatches() const {
    return mismatches_.load(std::memory_order_relaxed);
  }

 private:
  PriManager* const pri_manager_;
  const LogManager* const log_;
  std::atomic<uint64_t> checks_{0};
  std::atomic<uint64_t> mismatches_{0};
};

}  // namespace spf
