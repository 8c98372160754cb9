// Log archiver: background partitioning of the recovery log into sorted
// runs ("Instant restore after a media failure", Sauer, Graefe & Härder,
// arXiv:1702.08042; the single-page-failure paper's section 6 cost model
// likewise assumes indexed/sorted access to the per-page log history).
//
// The archiver continuously drains the DURABLE log into runs stored on a
// SimDevice-backed archive volume. Each run holds the page-modifying
// records (IsPageReplayRecord) of one contiguous log interval, re-sorted
// by (page-id, LSN), with a header page carrying LSN bounds, page-range
// bounds, and a fence index for positioned sequential reads. A bounded
// merge ladder (merge_fanin runs of a level k-way merge into one run of
// the next) keeps the run count O(log N), so fetching one page's full
// archived history costs O(runs) positioned sequential reads instead of
// one random log read per record.
//
// Volume layout (pages of the archive device):
//   page 0, 1   double-buffered directory: magic, epoch, archived_upto,
//               run extent list, CRC. Published alternately; recovery
//               picks the valid directory with the higher epoch.
//   page 2...   run extents: 1 header page + data pages, allocated
//               first-fit in the gaps left by merged-away runs.
//
// Run data is a flat byte stream chunked into pages; each entry is
//   [u64 lsn][u32 len][len bytes: LogRecord::Serialize() output]
// (the LSN is explicit because the on-log serialization derives it from
// the record's byte offset, which a re-sorted run no longer preserves).
//
// Crash safety: data pages are written first, the header next, the
// directory last. A crash anywhere mid-run leaves the previous directory
// intact, so the archive is always a prefix-valid set of runs; the next
// tick re-archives from the directory's archived_upto (idempotent) and
// later runs simply overwrite the orphaned extent.
//
// Invariants the offline fsck (tools/check_archive.py) verifies:
//   * entries within a run strictly ascend by (page_id, lsn);
//   * every entry's page id / LSN lies within the header's bounds;
//   * run log ranges tile [first_lsn, archived_upto) with no gaps or
//     overlaps (merges always consume the oldest log-contiguous prefix
//     of a level, so the tiling survives the ladder);
//   * fences point at real entry boundaries in ascending order.
//
// Coordination: like the scrubber, background ticks skip while a full
// restore owns the device (SetRestorePause). After each publish the
// archiver advances the log's truncation watermark to
// min(archived_upto, master record): archived AND checkpointed ⇒
// recyclable (bookkeeping only; see LogManager).
//
// Thread safety: consumers (FetchRange) may run concurrently with each
// other and with the background tick; run writes and directory publishes
// take the writer side of one RW lock so a reader never observes a
// half-written extent.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/sync.h"
#include "log/log_manager.h"
#include "log/log_record.h"
#include "storage/sim_device.h"

namespace spf {

/// Cumulative archiver counters (StatsSnapshot v2).
struct ArchiveStats {
  uint64_t ticks = 0;           ///< drain attempts (incl. empty/skipped)
  uint64_t runs_written = 0;    ///< level-0 runs cut from the tail
  uint64_t runs_merged = 0;     ///< input runs consumed by the ladder
  uint64_t merges = 0;          ///< ladder merge operations
  uint64_t archived_bytes = 0;  ///< entry bytes written into level-0 runs
  uint64_t records_archived = 0;  ///< page-replay records archived
  /// Archive data pages read in service of consumers and merges (the
  /// sequential-read currency repair/restore pays instead of random log
  /// reads).
  uint64_t merge_reads = 0;
  /// Log bytes the drain scanned (every byte is scanned exactly once on
  /// its way into the archive).
  uint64_t tail_scan_bytes = 0;
  /// Background ticks skipped while a restore owned the device.
  uint64_t restore_skips = 0;
  /// Recyclable log prefix published to the LogManager (archived AND
  /// checkpointed), in bytes.
  uint64_t truncated_log_bytes = 0;
  Lsn archived_upto = 0;    ///< exclusive watermark snapshot
  uint64_t active_runs = 0; ///< runs currently in the directory
};

/// One run's metadata as recovered from its header page (introspection,
/// tests, and the fsck tool's cross-check).
struct ArchiveRunInfo {
  uint64_t start_page = 0;  ///< header page; data follows at +1
  uint32_t data_pages = 0;  ///< data extent length in pages
  uint32_t level = 0;       ///< ladder level (0 = cut from the tail)
  uint64_t seq = 0;          ///< unique, monotonically assigned
  uint64_t data_bytes = 0;   ///< payload bytes across the data pages
  uint64_t record_count = 0;  ///< entries in the run
  PageId min_page_id = kInvalidPageId;  ///< lowest page id in the run
  PageId max_page_id = kInvalidPageId;  ///< highest page id in the run
  Lsn min_lsn = kInvalidLsn;  ///< lowest entry LSN
  Lsn max_lsn = kInvalidLsn;  ///< highest entry LSN
  Lsn log_start = 0;  ///< archived log interval [log_start, log_end)
  Lsn log_end = 0;    ///< exclusive end of the archived log interval
};

/// Tuning knobs (DatabaseOptions archive_* knobs map onto these).
struct ArchiverOptions {
  /// Target entry bytes per level-0 run: a drain cuts a run once this
  /// much sorted payload has accumulated (or the durable tail ends).
  uint64_t run_bytes = 256 * 1024;
  /// Wall-clock cadence of the background loop; 0 drains continuously.
  uint64_t interval_wall_ms = 0;
  /// Runs per level that trigger a k-way merge into the next level.
  size_t merge_fanin = 8;
};

/// Background log archiver + sorted-run store. See the file comment.
class LogArchiver {
 public:
  /// Binds the archiver to its volume and the log it drains. Call
  /// Recover() before first use.
  LogArchiver(SimDevice* archive_device, LogManager* log,
              ArchiverOptions options);
  /// Stops the background thread if it is still running.
  ~LogArchiver();

  SPF_DISALLOW_COPY(LogArchiver);

  /// Loads the directory from the archive volume (picks the valid epoch)
  /// and re-reads every referenced run header. A fresh (all-zero) volume
  /// recovers to an empty archive. Call before Start / first use.
  Status Recover();

  /// Pause predicate consulted before each background tick (install the
  /// restore gate's active() here, as the scrubber does). May be empty.
  void SetRestorePause(std::function<bool()> paused) {
    paused_ = std::move(paused);
  }

  /// One drain increment: scans the durable log from archived_upto, cuts
  /// at most one sorted run (~run_bytes of payload), publishes it, and
  /// runs the merge ladder to quiescence. Returns true when the archive
  /// advanced, false when there was nothing to drain (or a restore pause
  /// deferred the tick). Safe to call concurrently with consumers; ticks
  /// themselves serialize.
  StatusOr<bool> ArchiveTick();

  /// Drains until the archive covers the entire durable log (test/bench
  /// convenience; loops ArchiveTick).
  Status ArchiveAll();

  /// Starts the background drain loop. Idempotent.
  void Start();
  /// Stops and joins the background thread.
  void Stop();
  /// Whether the background drain loop is running.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Exclusive archive watermark: every page-modifying record with
  /// lsn < archived_upto() is in some run. Never regresses (survives
  /// crashes via the directory).
  Lsn archived_upto() const;

  /// Streams every archived record of pages in [lo, hi] with
  /// lsn > min_lsn_exclusive through `emit`. Emission is run-major in
  /// log order, so each individual page's records arrive ascending by
  /// LSN. Returns the number of archive data pages read. The k-way
  /// building block for batched repair and segment restore.
  StatusOr<uint64_t> FetchRange(
      PageId lo, PageId hi, Lsn min_lsn_exclusive,
      const std::function<void(LogRecord&&)>& emit);

  /// Cumulative counters plus a consistent watermark/run-count snapshot.
  ArchiveStats stats() const;
  /// Snapshot of the directory's runs (tests, fsck cross-checks).
  std::vector<ArchiveRunInfo> runs() const;

  /// Test hook: the next run write completes its data and header pages
  /// but fails before the directory publish — a crash mid-run-write.
  /// The directory (and archived_upto) stay at their previous state.
  void FailNextPublishForTest() { fail_next_publish_.store(true); }

  /// Volume pages reserved for the double-buffered directory.
  static constexpr uint64_t kDirectoryPages = 2;

 private:
  struct Fence {
    PageId page_id;
    Lsn lsn;
    uint64_t offset;  ///< entry boundary within the run's data stream
  };
  struct Run {
    ArchiveRunInfo info;
    std::vector<Fence> fences;
  };
  struct Entry {
    PageId page_id;
    Lsn lsn;
    std::string payload;  ///< the record's log bytes (Serialize() format)
  };

  std::string EncodeDirectoryLocked() const;
  Status PublishDirectoryLocked();
  Status LoadRunHeader(uint64_t start_page, Run* run) const;

  /// First-fit extent allocation among the gaps of the current run list.
  StatusOr<uint64_t> AllocateExtentLocked(uint64_t pages) const;

  /// Writes one run (data pages, fences, header) WITHOUT publishing it.
  /// io_mu_ (writer) must be held.
  Status WriteRun(std::vector<Entry>* entries, uint32_t level, Lsn log_start,
                  Lsn log_end, Run* out);

  /// Walks a run's raw entries from `start_offset` (an entry boundary),
  /// loading data pages on demand; `fn` returning false stops the walk.
  /// The page id is decoded from the payload's fixed header without a
  /// full (CRC-checked) parse. io_mu_ must be held.
  Status ForEachRawEntry(
      const Run& run, uint64_t start_offset,
      const std::function<bool(PageId, Lsn, std::string_view)>& fn,
      uint64_t* pages_read) const;

  /// Reads a run's entries for pages in [lo, hi] with
  /// lsn > min_lsn_exclusive, starting from the best fence. Returns data
  /// pages read. io_mu_ (reader or writer) must be held.
  StatusOr<uint64_t> StreamRun(const Run& run, PageId lo, PageId hi,
                               Lsn min_lsn_exclusive,
                               const std::function<void(LogRecord&&)>& emit)
      const;

  /// Runs the merge ladder until no level holds merge_fanin runs.
  Status MergeLadderLocked() SPF_REQUIRES(tick_mu_);

  void AdvanceLogWatermark();
  void BackgroundLoop();

  uint64_t max_fences() const;

  SimDevice* const device_;
  LogManager* const log_;
  const ArchiverOptions options_;
  std::function<bool()> paused_;

  /// Serializes drains/merges (the directory's single writer).
  OrderedMutex tick_mu_{LockRank::kDaemonCadence};
  /// Readers stream run extents; the writer holds it across run writes
  /// and directory publishes so readers never see a half-written extent.
  mutable OrderedSharedMutex io_mu_{LockRank::kArchiveIo};

  mutable OrderedMutex mu_{LockRank::kArchiveDir};  ///< directory + stats
  std::vector<Run> runs_ SPF_GUARDED_BY(mu_);
  Lsn archived_upto_ SPF_GUARDED_BY(mu_) = 0;
  uint64_t epoch_ SPF_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ SPF_GUARDED_BY(mu_) = 1;
  ArchiveStats stats_ SPF_GUARDED_BY(mu_);

  std::atomic<bool> fail_next_publish_{false};
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
};

}  // namespace spf
