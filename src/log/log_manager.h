// Log manager: append, force, and read paths of the recovery log.
//
// The log lives on a SimLogDevice and is assumed stable once forced
// (section 5: "once a log page has been written, it is not subsequently
// lost"). Unforced tail bytes are lost at a simulated crash, which is how
// the unforced-commit semantics of system transactions (section 5.1.5) and
// the lost-PRI-update cases of section 5.2.5 are exercised.
//
// LSNs are byte offsets into the log; the log starts with a small file
// header so that no valid record has LSN 0 (= kInvalidLsn).
//
// Group commit: Append only RESERVES the record's LSN — a brief critical
// section advances the reserved tail and stages the pre-serialized payload
// in an in-memory queue. A background drainer publishes staged batches to
// the device and syncs them when committers are waiting, so N concurrent
// Force(commit_lsn) calls are amortized into one device sync instead of N.
// Readers (Read/Scan/ReadRaw) first publish any staged bytes they need, so
// the log's contents are always observable at the reserved tail; only
// durability lags, exactly as with an OS page cache. DropUnsynced at a
// simulated crash still loses everything past the last sync — staged bytes
// are strictly MORE volatile than published-unsynced bytes, and Crash()
// discards them without publishing so a crash cannot resurrect them.

#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/macros.h"
#include "common/sync.h"
#include "common/status.h"
#include "common/statusor.h"
#include "log/log_record.h"
#include "storage/page.h"
#include "storage/restore_admission.h"
#include "storage/sim_device.h"

namespace spf {

/// Counters for log-volume experiments (bench E4; docs/ARCHITECTURE.md,
/// "Paper-to-code map", §6).
struct LogStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  /// Device syncs (each is one log-device round trip in simulated time).
  uint64_t forces = 0;
  uint64_t records_read = 0;
  /// Staged-batch publications to the device (>= forces; size-threshold
  /// publishes need no sync).
  uint64_t publishes = 0;
  /// Syncs that released at least one Force waiter — the group-commit
  /// batches of E14.
  uint64_t group_commit_batches = 0;
  /// Force waiters released by those syncs; the mean group size is
  /// group_commit_commits / group_commit_batches.
  uint64_t group_commit_commits = 0;
  /// Bytes below the archive-truncation watermark (archived AND covered
  /// by the most recent checkpoint ⇒ recyclable). Bookkeeping only: the
  /// simulated device never actually shrinks, so late readers (PRI window
  /// recovery, in-log page images) keep working.
  uint64_t truncated_log_bytes = 0;
  /// Per-type record counts, keyed by LogRecordType.
  std::map<LogRecordType, uint64_t> per_type;
};

/// Batching knobs for the drainer. The defaults publish-and-sync as soon
/// as a committer waits (no added latency — right for the single-threaded
/// paths); multi-writer workloads set max_wait to a small window so
/// concurrent commits coalesce into one sync.
struct GroupCommitOptions {
  /// Publish the staged queue once it holds this many bytes, even with no
  /// committer waiting.
  uint64_t max_batch_bytes = 64 * 1024;
  /// With committers waiting, linger up to this long for more of them
  /// before syncing. Zero = sync immediately.
  std::chrono::microseconds max_wait{0};
};

/// Append/force/read interface over the recovery log. Thread-safe.
class LogManager {
 public:
  explicit LogManager(SimLogDevice* device,
                      GroupCommitOptions gc = GroupCommitOptions());
  /// Joins the drainer and publishes (without syncing) any staged bytes,
  /// preserving the pre-group-commit invariant that a destroyed manager's
  /// appends are all on the device. Call Crash() first to model a failure.
  ~LogManager();

  SPF_DISALLOW_COPY(LogManager);

  /// Optional write-side restore admission; may be null. Install during
  /// startup (not thread-safe vs. concurrent appends). See
  /// AppendPageRecord for the seal interaction.
  void SetWriteAdmission(RestoreAdmission* a) { write_admission_ = a; }

  /// Appends `rec`, assigning rec.lsn and rec.length. The record is staged
  /// in the log buffer after this call; it is durable only after
  /// Force(rec.lsn).
  Lsn Append(LogRecord* rec);

  /// Helper for records that modify a page: fills the per-page chain from
  /// the page's current PageLSN, appends, then advances the page's PageLSN
  /// to the new record's LSN and bumps its update counter. This is the one
  /// place invariant L1 (PageLSN anchors the per-page chain, Figure 6) is
  /// maintained.
  ///
  /// Seal interaction (closes the write-side TOCTOU the MarkDirty re-check
  /// only narrowed): after reserving the record's slot, this call parks on
  /// the write admission until the page's segment is restored. The
  /// reservation fixes which side of a restore's replay-plan scan the
  /// record falls on — a record reserved before the scan reads the tail is
  /// staged by then and the scan's publish-on-read covers it; a record
  /// reserved after the tail read happens-after the seal (both orders run
  /// under this manager's reservation mutex) and therefore observes
  /// sealed admission HERE, parking until the segment is final. Either
  /// way no logged update can slip between the plan and the sweep.
  /// Parking holds no log-manager lock; the caller's exclusive page latch
  /// keeps the updated frame pinned and un-evictable, and the sweep needs
  /// neither that latch nor any pool or log mutex to make progress.
  Lsn AppendPageRecord(LogRecord* rec, PageView page);

  /// Forces the log to stable storage up to and including `lsn`: wakes the
  /// drainer and waits until the batch containing `lsn` is synced. With
  /// concurrent callers this is the group-commit wait.
  void Force(Lsn lsn);

  /// Forces everything appended so far.
  void ForceAll();

  /// Simulated crash: stops the drainer and DISCARDS all staged-but-
  /// unpublished records. Staged bytes are more volatile than the device's
  /// unsynced tail, so they must never reach the device once the crash is
  /// declared — the caller drops the device's unsynced tail afterwards.
  void Crash();

  /// Reads and parses the record at `lsn`. Charges log-device I/O
  /// (one random access per record — the dominant cost of single-page
  /// recovery, section 6). Publishes staged bytes first if `lsn` has not
  /// reached the device yet.
  StatusOr<LogRecord> Read(Lsn lsn) const;

  /// LSN one past the last reserved byte (the next record's LSN).
  Lsn tail_lsn() const;

  /// Highest LSN known durable.
  Lsn durable_lsn() const;

  /// First valid LSN in this log.
  Lsn first_lsn() const { return kLogFileHeaderSize; }

  /// Master record: stable pointer to the most recent complete checkpoint
  /// (conventionally stored at a fixed location outside the log stream).
  void SetMasterRecord(Lsn checkpoint_begin_lsn);
  Lsn GetMasterRecord() const;

  /// Archive-truncation watermark: every byte below it is both archived
  /// (the log archiver's sorted runs cover it) and checkpointed (the
  /// master record points past it), so the prefix is recyclable. Advances
  /// monotonically; regress attempts are ignored. Bookkeeping only — the
  /// simulated log device keeps its bytes, so consumers that legitimately
  /// reach below the watermark (PRI window recovery of kPriUpdate chains,
  /// in-log kFullPageImage backups, format-record backup sources) still
  /// read fine; a production system would pin the watermark below such
  /// references (and below the checkpoint's oldest dirty-page rec_lsn)
  /// before reclaiming segments.
  void AdvanceTruncationWatermark(Lsn lsn);
  Lsn truncation_watermark() const;

  LogStats stats() const;
  void ResetStats();

  /// Forward scan over [start_lsn, tail). Skips nothing; stops cleanly at
  /// the durable end or on a truncated/corrupt tail record (which marks the
  /// end of the log after a crash).
  ///
  /// A scan costs in proportion to the bytes it reads: one device read
  /// per window into a buffer that is reused and never zero-filled, each
  /// record parsed into one reused LogRecord, and no lock per record — the
  /// records it returns reach LogStats::records_read once, when the scan
  /// ends or the iterator is destroyed.
  class Iterator {
   public:
    Iterator(const LogManager* log, Lsn start, Lsn end);
    ~Iterator();
    SPF_DISALLOW_COPY(Iterator);

    /// False when the scan is exhausted.
    bool Valid() const { return valid_; }
    /// The current record; valid until Next().
    const LogRecord& record() const { return rec_; }
    /// The current record's bytes as they lie in the log (what
    /// LogRecord::Serialize() would rebuild); valid until Next().
    std::string_view raw() const { return raw_; }
    void Next();

    /// Most log bytes one device read brings in (less near `end`).
    static constexpr uint64_t kWindowBytes = 256 * 1024;

   private:
    void ReadCurrent();
    /// Makes log bytes [pos_, pos_ + n) available in window_, reading on
    /// from the window's end when they are not. False when unreadable.
    bool Cover(uint64_t n);
    /// Adds the records returned since the last call to records_read.
    void PublishReads();

    const LogManager* log_;
    Lsn pos_;
    Lsn end_;
    bool valid_ = false;
    LogRecord rec_;
    std::string_view raw_;  ///< rec_'s bytes inside window_
    /// Log bytes [window_start_, window_start_ + window_len_).
    std::unique_ptr<char[]> window_;
    uint64_t window_cap_ = 0;
    uint64_t window_len_ = 0;
    uint64_t window_start_ = 0;
    uint64_t reads_ = 0;  ///< records returned, not yet in records_read
  };

  /// Scans from `start` to the current tail (or `end` if given).
  Iterator Scan(Lsn start, Lsn end = kInvalidLsn) const;

  static constexpr uint64_t kLogFileHeaderSize = 8;

  /// Raw byte read from the underlying log device (charged like any other
  /// log read). Building block for LogSegmentReader. Publishes staged
  /// bytes first when the range extends past the device's current end.
  Status ReadRaw(uint64_t offset, uint64_t n, char* out) const;

 private:
  /// Publishes every staged record to the device, in reservation order.
  /// flush_mu_ serializes publishers (the drainer and publish-on-read
  /// callers) so batches land at their reserved offsets; mu_ is taken only
  /// to detach the queue, never across device I/O.
  void Publish() const;

  /// Makes [0, end) of the log readable from the device, publishing the
  /// staged queue if the reserved-but-unpublished region overlaps it.
  void EnsureReadable(uint64_t end) const;

  void DrainerLoop();

  /// A Force waiter is PENDING only while the durable watermark has not
  /// reached its requested LSN; force_waiters_ alone is not enough (see
  /// the force_target_ comment below).
  bool PendingForceLocked() const SPF_REQUIRES(mu_) {
    return force_waiters_ > 0 && synced_ <= force_target_;
  }

  SimLogDevice* const device_;
  const GroupCommitOptions gc_;
  RestoreAdmission* write_admission_ = nullptr;

  // Reservation + staging + waiter state.
  mutable OrderedMutex mu_{LockRank::kLogState};
  Lsn next_lsn_ SPF_GUARDED_BY(mu_) = 0;  // reserved tail (device end + staged)
  mutable std::deque<std::string> staged_ SPF_GUARDED_BY(mu_);  // LSN order
  mutable uint64_t staged_bytes_ SPF_GUARDED_BY(mu_) = 0;
  uint64_t synced_ SPF_GUARDED_BY(mu_) = 0;  // durable watermark
  uint64_t force_waiters_ SPF_GUARDED_BY(mu_) = 0;
  /// Highest LSN any Force waiter has asked for. The drainer treats
  /// waiters as pending only while `synced_ <= force_target_`: a
  /// satisfied waiter decrements force_waiters_ only after re-acquiring
  /// mu_, and without the target check the drainer could read the stale
  /// count and run a spurious publish+sync — which, racing a crash,
  /// would resurrect staged records the crash is about to discard.
  Lsn force_target_ SPF_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point oldest_force_ SPF_GUARDED_BY(mu_){};
  bool stop_ SPF_GUARDED_BY(mu_) = false;
  mutable CondVar drain_cv_;    // wakes the drainer
  mutable CondVar durable_cv_;  // wakes Force waiters
  Lsn master_record_ SPF_GUARDED_BY(mu_) = kInvalidLsn;  // stable storage
  Lsn truncation_watermark_ SPF_GUARDED_BY(mu_) = 0;  // archived prefix end
  mutable LogStats stats_ SPF_GUARDED_BY(mu_);

  /// Publisher order lock: held across detach-and-append so staged batches
  /// cannot land on the device out of reservation order. Always acquired
  /// BEFORE mu_ (rank kLogFlush < kLogState); never held while parking.
  mutable OrderedMutex flush_mu_{LockRank::kLogFlush};

  std::thread drainer_;
};

/// Buffered record reader for coordinated multi-page chain walks.
///
/// Walking one per-page chain with LogManager::Read pays one random log
/// access per record. When many failed pages are repaired together their
/// chains interleave within the same region of the log, so the batched
/// recovery scheduler reads the log in fixed-size SEGMENTS instead: each
/// segment is fetched with one device access and every record inside it is
/// then served from memory. Because the scheduler pops chain LSNs in
/// descending order, segments are fetched once each — the "replay shared
/// log segments once per batch" idea of instant restore (Sauer et al.).
///
/// Not thread-safe; one reader per walking thread.
class LogSegmentReader {
 public:
  explicit LogSegmentReader(const LogManager* log,
                            uint64_t segment_bytes = 256 * 1024);

  /// Reads the record at `lsn`, fetching its containing segment if it is
  /// not already buffered. The segment is placed so that `lsn` sits near
  /// its end (descending walks then hit the buffer).
  StatusOr<LogRecord> Read(Lsn lsn);

  /// Device fetches performed so far (the batched analog of per-record
  /// log_reads).
  uint64_t segment_fetches() const { return segment_fetches_; }
  /// Records parsed out of buffered segments.
  uint64_t records_served() const { return records_served_; }

 private:
  /// Window overshoot past the requested LSN on a miss, sized to cover a
  /// typical record so one fetch suffices.
  static constexpr uint64_t kRecordPeekBytes = 4096;

  /// Ensures [begin, end) is buffered, fetching one segment if not.
  Status Fetch(uint64_t begin, uint64_t end);

  const LogManager* const log_;
  const uint64_t segment_bytes_;
  std::string buf_;
  uint64_t buf_start_ = 0;
  uint64_t segment_fetches_ = 0;
  uint64_t records_served_ = 0;
};

}  // namespace spf
