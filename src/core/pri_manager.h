// PriManager: maintenance and persistence of the page recovery index.
//
// Implements the paper's update protocol (section 5.2.4, Figure 11):
// after the buffer pool completes a data-page write — and before the frame
// may be evicted — PriManager logs ONE PriUpdate record (a system
// transaction's worth of work that is never forced; it reaches stable
// storage with the next forced log write). That single record per
// completed write is exactly the cost of the classic "log completed
// writes" optimization (section 5.1.2), which the PRI subsumes.
//
// PRI pages themselves: each in-memory window maps to one PRI page placed
// by the two-partition scheme (see pri.h). PRI pages are NOT routed
// through the buffer pool; dirty windows are serialized and written
// directly at checkpoints, each write accompanied by an in-log page image
// (its backup) and a PriUpdate for the COVERING entry in the other
// partition — making PRI pages recoverable by the same single-page
// mechanism they implement.

#pragma once

#include <cstdint>
#include <vector>

#include "backup/backup_manager.h"
#include "buffer/buffer_pool.h"
#include "common/sync.h"
#include "core/pri.h"
#include "log/log_manager.h"
#include "storage/sim_device.h"
#include "txn/txn_manager.h"

namespace spf {

/// How completed writes are tracked — the ablation axis of experiments
/// E4/E6.
enum class WriteTrackingMode {
  kNone,             ///< plain ARIES: nothing logged after a write
  kCompletedWrites,  ///< section 5.1.2: kPageWriteCompleted records only
  kPri,              ///< section 5.2.4: full PRI maintenance (default)
};

/// Geometry of the two PRI partitions on the data device.
struct PriLayout {
  uint64_t num_pages = 0;
  uint64_t num_windows = 0;
  uint64_t lower_windows = 0;   ///< windows covering the lower half
  PageId pri_a_start = 0;       ///< partition A extent (covers upper windows)
  uint64_t pri_a_pages = 0;
  PageId pri_b_start = 0;       ///< partition B extent (covers lower windows)
  uint64_t pri_b_pages = 0;

  static PriLayout Compute(uint64_t num_pages);

  /// PRI page that stores window `w`.
  PageId PriPageOfWindow(uint64_t w) const;
  /// Window stored on PRI page `pid`; kInvalidPageId-safe (CHECKs range).
  uint64_t WindowOfPriPage(PageId pid) const;
  bool IsPriPage(PageId pid) const;
  /// First data page id usable by the allocator.
  uint64_t reserved_prefix() const { return pri_a_start + pri_a_pages; }
};

struct PriManagerStats {
  uint64_t pri_updates_logged = 0;
  uint64_t completed_write_records = 0;
  uint64_t page_backups_triggered = 0;
  uint64_t pri_pages_written = 0;
  uint64_t pri_pages_recovered = 0;
};

/// Ties the in-memory PRI to the log, the backup manager, and the buffer
/// pool's write-completion hook.
class PriManager : public WriteCompletionListener {
 public:
  PriManager(PriLayout layout, WriteTrackingMode mode, BackupPolicy policy,
             PageRecoveryIndex* pri, LogManager* log, TxnManager* txns,
             BackupManager* backups, SimDevice* data_device);

  SPF_DISALLOW_COPY(PriManager);

  // --- WriteCompletionListener (Figure 11) -----------------------------------

  bool OnPageWritten(PageId id, Lsn page_lsn, uint32_t update_count,
                     const char* page_data) override;

  /// Announces the backup policy's decision ahead of the device write so
  /// the pool can restart the per-page cadence BEFORE the image (and the
  /// copy OnPageWritten takes from it) is materialized — a repaired page
  /// then carries the same update count as the live frame it replaces.
  bool BackupImminent(uint32_t update_count) const override {
    return mode_ == WriteTrackingMode::kPri &&
           policy_.updates_threshold > 0 &&
           update_count >= policy_.updates_threshold;
  }

  // --- lookups ----------------------------------------------------------------

  PageRecoveryIndex* pri() { return pri_; }
  const PriLayout& layout() const { return layout_; }
  WriteTrackingMode mode() const { return mode_; }

  // --- checkpoint & restart support -------------------------------------------

  /// Writes every dirty window's PRI page directly to the data device,
  /// logging an in-log image (the page's backup) and a covering PriUpdate
  /// in the other partition. Section 5.2.6: only windows dirty at entry
  /// are written (snapshot-then-write; cascading updates wait for the next
  /// checkpoint).
  Status WriteDirtyWindows();

  /// Loads all PRI pages from the device at restart; PRI pages that fail
  /// verification are recovered via the other partition (single-page
  /// recovery of the PRI itself). MediaFailure if both partitions lost
  /// overlapping information.
  Status LoadAllWindows();

  /// Applies one kPriUpdate log record — logged at `lsn` on PRI page
  /// `pri_page`, with the decoded `body` — to the in-memory PRI (restart
  /// analysis).
  void ApplyPriUpdate(PageId pri_page, Lsn lsn, const PriUpdateBody& body);

  /// Records a full backup: collapses the PRI to range entries.
  void OnFullBackup(BackupId id);

  /// Explicitly takes a page backup now (used by tests and the scrubber).
  Status ForcePageBackup(PageId id, const char* page_data, Lsn page_lsn);

  /// Figure 12, third case: restart redo found a page already reflecting a
  /// logged update although no PriUpdate record was seen — the write
  /// completed but its PRI update was lost in the crash. Generates the
  /// missing record now.
  void RecordLostWrite(PageId id, Lsn page_lsn);

  PriManagerStats stats() const;

  /// Per-PRI-page chain head (newest PriUpdate record touching that PRI
  /// page). Exposed for tests.
  Lsn pri_page_lsn(uint64_t window) const;

 private:
  /// Logs a PriUpdate for `data_page_id` on the covering PRI page's chain
  /// and applies it to the in-memory index.
  void LogAndApplyPriUpdate(PageId data_page_id, Lsn page_lsn, bool has_backup,
                            BackupRef backup);

  /// Rebuilds one lost PRI page/window from the other partition's entry.
  Status RecoverPriWindow(uint64_t window);

  /// Builds the on-disk image of a window's PRI page.
  void BuildPriPageImage(uint64_t window, char* out);

  const PriLayout layout_;
  const WriteTrackingMode mode_;
  const BackupPolicy policy_;
  PageRecoveryIndex* const pri_;
  LogManager* const log_;
  TxnManager* const txns_;
  BackupManager* const backups_;
  SimDevice* const data_device_;
  const uint32_t page_size_;

  mutable OrderedMutex mu_{LockRank::kPri};
  /// Per-window chain heads. mu_ is held ACROSS the log append that
  /// extends a chain (rank kPri < kLogState makes that legal): the chain
  /// head must advance atomically with the append or two concurrent
  /// PriUpdate writers would fork the window's chain.
  std::vector<Lsn> pri_page_lsns_ SPF_GUARDED_BY(mu_);
  PriManagerStats stats_ SPF_GUARDED_BY(mu_);
};

}  // namespace spf
