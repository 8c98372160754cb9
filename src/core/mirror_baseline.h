// SQL-Server-style database-mirroring page repair — the prior-art baseline
// of the paper's section 2.
//
// The mirror keeps an ENTIRE second copy of the database current by
// applying the full recovery-log stream (log shipping). When a page in the
// principal is found inconsistent, it is replaced by the corresponding
// page from the mirror. The paper's criticisms, both reproduced here and
// measured by bench_e10_mirror_baseline:
//   * "the recovery log is applied to the entire mirror database, not just
//     the individual page that requires repair" — CatchUp() replays every
//     page record, not one per-page chain;
//   * "the recovery process completely fails to exploit the per-page log
//     chain already present in the recovery log";
//   * it requires "keeping an entire mirror database current at all times"
//     — double the storage and continuous apply bandwidth.
// CatchUp applies each record through ApplyPageRedo, the redo rule every
// other replay path uses, so a mirror page equals the principal's byte
// for byte.

#pragma once

#include "common/sim_clock.h"
#include "common/sync.h"
#include "log/log_manager.h"
#include "storage/sim_device.h"

namespace spf {

struct MirrorStats {
  uint64_t records_applied = 0;
  uint64_t records_scanned = 0;
  uint64_t pages_served = 0;
  uint64_t mirror_writes = 0;
  uint64_t apply_sim_ns = 0;
};

/// A full mirror of the data device, kept current by whole-stream log
/// application.
class MirrorBaseline {
 public:
  /// `mirror_device` must match the data device's geometry and start as an
  /// identical copy (use SeedFromPrincipal).
  MirrorBaseline(LogManager* log, SimDevice* mirror_device, SimClock* clock)
      : log_(log), mirror_(mirror_device), clock_(clock) {}

  /// Initializes the mirror as a byte copy of the principal (the initial
  /// full synchronization of mirroring setups).
  Status SeedFromPrincipal(SimDevice* principal);

  /// Applies the entire log stream from the last applied position to the
  /// current durable end — the continuous "redo on the mirror".
  Status CatchUp();

  /// Serves the mirror's copy of `id` after catching up (the repair path:
  /// the principal's bad page is replaced by the mirror's).
  Status RepairFrom(PageId id, char* out);

  MirrorStats stats() const {
    MutexLock g(mu_);
    return stats_;
  }

 private:
  LogManager* const log_;
  SimDevice* const mirror_;
  SimClock* const clock_;

  // Held across mirror-device reads/writes during catch-up, so it must
  // order BELOW kDevice — the rank checker caught the original kStats
  // (leaf) ranking as an inversion the first time CatchUp() ran.
  mutable OrderedMutex mu_{LockRank::kMirror};
  Lsn applied_upto_ SPF_GUARDED_BY(mu_) = kInvalidLsn;
  MirrorStats stats_ SPF_GUARDED_BY(mu_);
};

}  // namespace spf
