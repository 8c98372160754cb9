// Buffer pool with the two hooks the paper's mechanism hangs off:
//
//  * Read path (Figure 8): after a buffer fault reads a page from the
//    device, the page is verified (in-page checks plus an optional
//    cross-check hook, e.g. PageLSN vs. page recovery index). If
//    verification fails, the failure is a single-page failure and the
//    registered PageRepairer is invoked to rebuild the frame contents
//    online; only if repair fails does the error propagate (escalation
//    toward media recovery).
//
//  * Write-back path (Figure 11): after a dirty page is written to the
//    device — and before the frame may be evicted — the registered
//    WriteCompletionListener runs, which is where PRI maintenance logs its
//    PriUpdate record (section 5.2.4). The WAL rule (force log up to
//    PageLSN before the write) is enforced here as well.
//
// Concurrency layout: the id→frame mapping is sharded by page id, so the
// hot path (a cache hit) takes only its shard's mutex for the lookup+pin
// and then the per-frame latch — two fixes of pages in different shards
// share no lock at all. The miss/eviction path additionally serializes on
// a single victim_mu_ that owns the clock hand; faults are device-bound
// anyway, so one victim chooser costs nothing and keeps the clock sweep
// race-free. Per-frame metadata read outside any mutex (pin_count, dirty,
// referenced, rec_lsn) is atomic; page_id mutates only under victim_mu_
// plus the owning shard's mutex, so either lock (or a held pin) makes it
// stable. A pin can go 0→1 only under the shard mutex while the mapping
// exists (hits) or under victim_mu_ (the evictor's private write-back
// pin), which is what makes the evictor's pin==0 checks sound. Unpins
// release and the pin==0 checks that unmap a frame acquire, so whatever
// a pin holder read (page_id included) happens before the unmap.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/sync.h"
#include "log/log_manager.h"
#include "storage/page.h"
#include "storage/restore_admission.h"
#include "storage/sim_device.h"

namespace spf {

/// Cross-check hook run after in-page verification on every buffer fault.
/// The core module implements this with the PageLSN-vs-PRI comparison that
/// catches stale (plausible-but-wrong) pages (section 5.2.2).
class ReadVerifier {
 public:
  virtual ~ReadVerifier() = default;
  virtual Status VerifyOnRead(PageView page) = 0;
};

/// Online repair hook for pages that fail verification or cannot be read.
/// The core module implements this with single-page recovery (Figure 10).
/// On success, `frame` holds the up-to-date page image.
class PageRepairer {
 public:
  virtual ~PageRepairer() = default;
  virtual Status RepairPage(PageId id, char* frame) = 0;
};

/// Redo a page still owes after a system failure (instant restart). The
/// recovery module's restart plan implements this; the pool consults it
/// on every miss and applies a page's redo on that page's first load,
/// under the frame's exclusive latch. Loads of one page never overlap
/// (a miss reserves the frame before loading), so a page's entry is used
/// by one thread at a time. Once nothing is owed, a miss pays one atomic
/// load.
class PendingRedo {
 public:
  virtual ~PendingRedo() = default;

  /// What page `id` owes: nothing, redo on its device image, or redo
  /// that starts with a format record (the frame is formatted, not read).
  enum class Owed { kNothing, kRedo, kRedoFromFormat };

  /// True while any page still owes redo.
  virtual bool Pending() const = 0;
  /// What page `id` owes right now.
  virtual Owed Lookup(PageId id) const = 0;
  /// Applies page `id`'s owed redo to the loaded (or zeroed) image.
  /// `repaired`: the image came from online repair. Returns the first
  /// applied LSN, or kInvalidLsn when the image already reflected every
  /// record. The entry stays owed until Retire.
  virtual StatusOr<Lsn> Apply(PageId id, PageView page, bool repaired) = 0;
  /// Retires page `id`'s entry once the frame carries the redo (and is
  /// marked dirty when any record was applied).
  virtual void Retire(PageId id) = 0;
};

/// Invoked after each completed write of a dirty page, before eviction
/// (Figure 11). The core module logs the PRI update here; a baseline
/// implementation logs a plain PageWriteCompleted record (section 5.1.2);
/// a no-op implementation reproduces unoptimized ARIES.
///
/// `page_data` is the just-written image (page_size bytes, checksummed);
/// backup policies copy from it (section 5.2.1 "normal transaction
/// processing might occasionally take copies of data pages"). Returns true
/// if a new backup copy was taken, in which case the buffer pool resets
/// the frame's update counter (section 6).
class WriteCompletionListener {
 public:
  virtual ~WriteCompletionListener() = default;
  virtual bool OnPageWritten(PageId id, Lsn page_lsn, uint32_t update_count,
                             const char* page_data) = 0;

  /// Asked just before the device write when the frame's counter stands at
  /// `update_count`: return true when the upcoming OnPageWritten would take
  /// a new per-page backup copy at this count. The pool then resets the
  /// frame's counter BEFORE checksumming and writing, so the device image,
  /// the backup copy, and the live frame all record the cadence restart at
  /// this write — a repair that replays k chain records on top of the copy
  /// lands on exactly the live frame's count k, keeping repaired images
  /// byte-identical to never-failed ones.
  virtual bool BackupImminent(uint32_t update_count) const {
    (void)update_count;
    return false;
  }
};

/// Latch mode for fixing a page in the pool.
enum class LatchMode { kShared, kExclusive };

/// Entry of the dirty page table used by checkpoints and restart analysis.
struct DirtyPageEntry {
  PageId page_id;
  Lsn rec_lsn;  ///< LSN of the first record that dirtied the page
};

struct BufferPoolStats {
  uint64_t fixes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t write_backs = 0;
  uint64_t verify_failures = 0;
  uint64_t repairs_attempted = 0;
  uint64_t repairs_succeeded = 0;
};

struct BufferPoolOptions {
  uint32_t page_size = kDefaultPageSize;
  size_t num_frames = 256;
  /// Run in-page verification plus the ReadVerifier on every buffer fault.
  bool verify_on_read = true;
  /// Shards of the id→frame mapping (hit-path concurrency).
  size_t table_shards = 16;
};

class BufferPool;

/// RAII handle to a fixed (pinned + latched) page. Unpins and unlatches on
/// destruction. Movable, not copyable.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  ~PageGuard() { Release(); }

  SPF_DISALLOW_COPY(PageGuard);

  bool valid() const { return pool_ != nullptr; }
  PageView view();
  PageId page_id() const { return page_id_; }
  Lsn page_lsn();

  /// Marks the frame dirty. Must be called (before logging the change)
  /// whenever the caller modifies page bytes. Requires kExclusive mode.
  /// Re-checks write admission (restore seal) under the latch, so a fix
  /// admitted just before a restore sealed writes still cannot slip a
  /// logged update past the restore's replay-plan scan.
  void MarkDirty();

  /// Restart-redo variant: marks dirty with an explicit recLSN (the redone
  /// record's LSN) instead of the current log tail, keeping the dirty page
  /// table conservative across a crash during recovery.
  void MarkDirtyForRedo(Lsn rec_lsn);

  /// Explicitly releases the fix early (idempotent).
  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, size_t frame_index, PageId id, LatchMode mode)
      : pool_(pool), frame_(frame_index), page_id_(id), mode_(mode) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId page_id_ = kInvalidPageId;
  LatchMode mode_ = LatchMode::kShared;
};

/// Fixed-size page cache over one data device. Thread-safe.
class BufferPool {
 public:
  /// `frame_memory` holds the frames' bytes, num_frames * page_size of
  /// them; the caller owns it, and it outlives the pool. No frame is read
  /// before a load or FixNewPage writes it, so the block may hold
  /// anything, such as a crashed pool's frames.
  BufferPool(BufferPoolOptions options, SimDevice* device, LogManager* log,
             char* frame_memory);
  ~BufferPool();

  SPF_DISALLOW_COPY(BufferPool);

  /// Optional hooks; may be null. Not thread-safe vs. concurrent fixes —
  /// install during startup.
  void SetReadVerifier(ReadVerifier* v) { verifier_ = v; }
  void SetPageRepairer(PageRepairer* r) { repairer_ = r; }
  void SetWriteCompletionListener(WriteCompletionListener* l) { listener_ = l; }
  void SetRestoreAdmission(RestoreAdmission* a) { admission_ = a; }
  void SetPendingRedo(PendingRedo* r) { pending_redo_ = r; }

  /// Fixes page `id` in the pool, reading (and verifying, and if necessary
  /// repairing) it on a miss. Figure 8's retrieval logic.
  StatusOr<PageGuard> FixPage(PageId id, LatchMode mode);

  /// Fixes a frame for a freshly allocated page without reading the device
  /// (the caller formats it and logs a PageFormat record).
  StatusOr<PageGuard> FixNewPage(PageId id);

  /// Writes the page back if dirty (WAL force, device write, completion
  /// listener). The page stays cached and clean.
  Status FlushPage(PageId id);

  /// Flushes every dirty page (checkpoint; section 5.2.6 writes the pages
  /// dirty at checkpoint start — snapshot via DirtyPages() first).
  Status FlushAll();

  /// Drops a clean page from the pool; flushes first if dirty.
  Status EvictPage(PageId id);

  /// Simulated crash: discard all frames without writing anything.
  /// CHECK-fails if any frame is pinned.
  void DiscardAll();

  /// Discards every UNPINNED frame without writing anything; pinned
  /// frames survive with their page-table entries. Full media recovery
  /// uses this: a pinned frame there is a reader parked in the failure
  /// funnel whose page is being rebuilt — it re-reads the restored device
  /// copy once its repair resolves. Returns the number of frames kept.
  size_t DiscardAllUnpinned();

  /// Drops a page from the pool WITHOUT flushing (test hook: lose the
  /// buffered copy of one page). Returns false (and does nothing) if the
  /// page is currently pinned.
  bool DiscardPage(PageId id);

  /// Snapshot of the dirty page table (page id + recLSN).
  std::vector<DirtyPageEntry> DirtyPages() const;

  bool IsCached(PageId id) const;
  bool IsDirty(PageId id) const;

  /// Number of frames currently pinned. During a full restore these are
  /// the readers parked in the failure funnel whose frames survive
  /// DiscardAllUnpinned (the pinned-frame drain).
  size_t PinnedFrames() const;

  /// Best-effort PageLSN of the cached frame for `id`. Returns nullopt
  /// when the page is not cached; returns kInvalidLsn when the frame is
  /// exclusively latched (contents in flux). Never blocks. Used by the
  /// scrubber to tell a transiently stale device image (write-back racing
  /// the scan) from a genuinely damaged page.
  std::optional<Lsn> CachedPageLsn(PageId id) const;

  BufferPoolStats stats() const;
  void ResetStats();

  uint32_t page_size() const { return options_.page_size; }
  SimDevice* device() { return device_; }

 private:
  friend class PageGuard;

  struct Frame {
    /// page_size bytes of the caller's frame memory; meaningless until
    /// the frame's load or FixNewPage writes it.
    char* data = nullptr;
    /// Mutated only under victim_mu_ + the owning shard's mutex; stable
    /// while either is held or while the reader holds a pin.
    PageId page_id = kInvalidPageId;
    /// MarkDirty stores rec_lsn BEFORE the dirty release-store; readers
    /// pair an acquire load of dirty with the rec_lsn load, and treat
    /// dirty==true with rec_lsn==kInvalidLsn as a write-back race (the
    /// page just reached the device — skip it).
    std::atomic<bool> dirty{false};
    std::atomic<bool> referenced{false};  // clock bit
    std::atomic<uint32_t> pin_count{0};
    std::atomic<Lsn> rec_lsn{kInvalidLsn};
    OrderedSharedMutex latch{LockRank::kFrameLatch};
  };

  /// One slice of the id→frame mapping.
  struct Shard {
    mutable OrderedMutex mu{LockRank::kBufferShard};
    std::unordered_map<PageId, size_t> map SPF_GUARDED_BY(mu);
  };

  Shard& ShardFor(PageId id) const { return shards_[id % shards_.size()]; }

  /// Looks `id` up in its shard and, if mapped, pins the frame and sets
  /// its reference bit. Returns the frame or nullptr.
  Frame* TryPin(PageId id, size_t* index);

  /// Completes a cache hit after TryPin: exclusive-mode admission, then
  /// the latch. On admission failure the pin is dropped.
  StatusOr<PageGuard> FinishHit(Frame* f, size_t index, PageId id,
                                LatchMode mode);

  /// Fills frame `f` with page `id`: reads, verifies and (if needed)
  /// repairs the device image, then applies any redo the page still owes
  /// from a restart. No pool mutex may be held (device I/O and repair
  /// are slow).
  Status LoadPage(PageId id, Frame* f);

  /// LoadPage's read half: read + verify + repair. `*repaired` tells
  /// whether online repair produced the image.
  Status ReadPage(PageId id, Frame* f, bool* repaired);

  /// Finds a victim frame with pin_count == 0 (clock); flushes it if
  /// dirty. Returns the frame index with the frame unmapped and reset.
  /// victim_mu_ held on entry and exit but released around write-back
  /// I/O (an evictor blocking on a latch while holding victim_mu_ could
  /// deadlock against a latch holder faulting another page).
  StatusOr<size_t> FindVictim(UniqueLock* victim_lock);

  /// Write-back of frame `f` (caller holds the exclusive latch):
  /// checksum, WAL force, device write, completion listener, mark clean.
  Status WriteBack(Frame* f);

  void Unfix(size_t frame_index, LatchMode mode);

  BufferPoolOptions options_;
  SimDevice* device_;
  LogManager* log_;
  ReadVerifier* verifier_ = nullptr;
  PageRepairer* repairer_ = nullptr;
  WriteCompletionListener* listener_ = nullptr;
  RestoreAdmission* admission_ = nullptr;
  PendingRedo* pending_redo_ = nullptr;

  std::vector<std::unique_ptr<Frame>> frames_;
  mutable std::vector<Shard> shards_;

  /// Serializes victim choice, page_id reassignment, and whole-pool
  /// sweeps (DirtyPages, DiscardAll*, PinnedFrames). Never held across
  /// device I/O; acquired BEFORE any shard mutex, never after.
  mutable OrderedMutex victim_mu_{LockRank::kBufferVictim};
  size_t clock_hand_ SPF_GUARDED_BY(victim_mu_) = 0;

  struct AtomicStats {
    std::atomic<uint64_t> fixes{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> write_backs{0};
    std::atomic<uint64_t> verify_failures{0};
    std::atomic<uint64_t> repairs_attempted{0};
    std::atomic<uint64_t> repairs_succeeded{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace spf
