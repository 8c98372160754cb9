// Database: the public facade assembling the full stack — simulated
// devices, recovery log, buffer pool, transactions, Foster B-tree, backup
// subsystem, page recovery index, single-page detection and recovery, and
// the restart / media recovery machinery.
//
// Typical use (the v2 client API — RAII handles, see db/session.h):
//
//   DatabaseOptions options;
//   auto db = Database::Create(options).value();
//   Txn txn = db->BeginTxn();
//   txn.Insert("key", "value");
//   txn.Commit();              // dropping an uncommitted txn auto-aborts
//
//   // Inject a single-page failure and watch it heal on the next read:
//   db->data_device()->InjectSilentCorruption(page_id);
//   db->Get("key");            // detected + repaired inline (Figure 8/10)
//
// Crash testing:
//
//   db->SimulateCrash();       // loses buffer pool + unforced log tail
//   db->Restart();             // analysis + undo; redo runs page by page
//   db->AwaitRestartRedo();    // optional: every page redone
//
// The v1 raw-pointer entry points (Begin() -> Transaction*, Commit(txn),
// Insert(txn, ...)) are gone: the one-release deprecation window closed
// and the shims were deleted. CI's deprecation firewall now fails on any
// reintroduced raw-pointer entry point, in src/db as well as in tests,
// examples, and benches.

#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "backup/backup_manager.h"
#include "btree/btree.h"
#include "buffer/buffer_pool.h"
#include "common/sim_clock.h"
#include "common/sync.h"
#include "core/pri_manager.h"
#include "core/recovery_coordinator.h"
#include "core/recovery_scheduler.h"
#include "core/scrubber.h"
#include "core/single_page_recovery.h"
#include "db/restart_sweep.h"
#include "db/session.h"
#include "db/stats_snapshot.h"
#include "db/txn_error.h"
#include "db/write_batch.h"
#include "log/log_archive.h"
#include "log/log_manager.h"
#include "recovery/checkpoint.h"
#include "recovery/media_recovery.h"
#include "recovery/restart_recovery.h"
#include "recovery/restore_gate.h"
#include "recovery/rollback.h"
#include "storage/allocation.h"
#include "storage/db_meta.h"
#include "storage/sim_device.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace spf {

/// Every tuning knob of a Database instance; see the README's options
/// reference table for the full knob/default/consumer matrix.
struct DatabaseOptions {
  uint32_t page_size = kDefaultPageSize;  ///< bytes per page
  uint64_t num_pages = 16384;  ///< 128 MiB at the default page size
  size_t buffer_frames = 1024;  ///< buffer-pool capacity in frames

  DeviceProfile data_profile = DeviceProfile::Ssd();      ///< data device timing
  DeviceProfile log_profile = DeviceProfile::Ssd();       ///< log device timing
  DeviceProfile backup_profile = DeviceProfile::Hdd100(); ///< backup device timing

  /// How completed writes are tracked (E4/E6 ablation axis).
  WriteTrackingMode tracking = WriteTrackingMode::kPri;
  /// When per-page backup copies / in-log images are taken.
  BackupPolicy backup_policy;

  /// In-page verification + PageLSN cross-check on every buffer fault.
  bool verify_on_read = true;
  /// Fence-key verification on every B-tree pointer traversal.
  bool verify_traversals = true;
  /// Online single-page repair (Figure 8). When false, a failed page read
  /// escalates straight to a media failure — the "traditional system"
  /// baseline of Figure 1.
  bool enable_single_page_repair = true;

  // --- recovery scheduler / scrubber knobs ------------------------------------

  /// Worker threads the RecoveryScheduler fans batched repairs out to
  /// (0 = repair inline on the requesting thread).
  uint32_t recovery_workers = 4;
  /// Background scrubber cadence in SIMULATED time: a started scrubber
  /// (scrubber()->Start()) re-sweeps `scrub_pages_per_tick` pages whenever
  /// this much simulated time has passed. Zero ticks continuously.
  std::chrono::milliseconds scrub_interval{0};
  /// Background scrubber cadence in WALL-CLOCK time; overrides
  /// `scrub_interval` when nonzero. Use with Instant device profiles,
  /// where simulated time never advances and the simulated cadence would
  /// degrade to continuous ticking.
  std::chrono::milliseconds scrub_wall_interval{0};
  /// Page budget per background scrub tick (the incremental quantum).
  uint64_t scrub_pages_per_tick = 256;

  // --- failure funnel (self-healing) knobs ------------------------------------

  /// Automatic escalation through the failure funnel: the buffer pool's
  /// read path, background scrubber ticks, and batch-repair escalations
  /// all report damaged pages into the RecoveryCoordinator, whose worker
  /// drains them through the RecoverPages ladder — the system heals
  /// itself end to end with no caller involvement. When false, each
  /// detection site repairs inline and escalation beyond batched repair
  /// is the caller's job (the pre-funnel behavior). Only effective when
  /// single-page repair is wired (PRI tracking + enable_single_page_repair).
  bool auto_escalate = true;
  /// Worker threads draining the funnel. One maximizes batch coalescing.
  uint32_t funnel_workers = 1;
  /// Pending-queue bound of the funnel: reports beyond it are rejected
  /// (backpressure). A rejected scrubber report is re-detected on the
  /// next sweep; a rejected foreground reader repairs inline.
  uint64_t funnel_queue_limit = 1024;

  // --- full-restore gate (rung 5 under live traffic) ---------------------------

  /// Drain deadline of the restore-gate protocol: when a full restore
  /// starts, new transactions park at the admission gate and in-flight
  /// transactions get this much wall time to run to commit on their
  /// cached working sets. Stragglers still active at the deadline are
  /// force-aborted (the pre-gate abort-everything path, now a fallback
  /// branch; their handles stay valid but only ever return Aborted).
  std::chrono::milliseconds restore_drain_timeout{200};
  /// Pages per full-restore segment: the sweep restores the device in
  /// page-id segments of this size, publishing progress through the
  /// RestoreGate so parked readers resume as soon as THEIR segment is
  /// back. 0 restores the whole device as one segment (no incremental
  /// admission).
  uint64_t restore_segment_pages = 64;
  /// Early readmission: reopen the transaction admission gate as soon as
  /// the restore sweep starts (reads wait per page, hot pages restore on
  /// demand ahead of the sweep) instead of when the whole device is back.
  bool restore_early_admission = true;

  /// RecoverPages escalation policy: batches of at most this many pages
  /// are first attempted as coordinated single-page repairs (per-page
  /// backup sources); larger bounded batches go straight to partial media
  /// restore, whose sequential backup-range reads win once the damaged
  /// set is big enough. Pages single-page repair cannot handle (e.g. a
  /// lost backup reference) also escalate to partial restore. 0 routes
  /// every batch to partial restore directly.
  uint64_t spr_batch_limit = 64;

  // --- sorted log archive knobs -------------------------------------------------

  /// Target payload bytes per level-0 archive run: each archiver tick
  /// drains about this much durable log into one (page-id, LSN)-sorted
  /// run. Smaller runs archive sooner; larger runs merge less often.
  uint64_t archive_run_bytes = 256 * 1024;
  /// Background archiver cadence in WALL-CLOCK time (the log is a
  /// wall-clock artifact; there is no simulated-time variant). Zero ticks
  /// continuously while the archiver is started. The archiver never runs
  /// unless archiver()->Start() is called (or ArchiveAll() is driven by
  /// hand), so the default costs nothing.
  std::chrono::milliseconds archive_interval{0};
  /// Merge fan-in of the archive's compaction ladder: when a level
  /// accumulates this many runs, its oldest `archive_merge_fanin` runs
  /// merge into one run on the next level — run count stays O(log N).
  uint32_t archive_merge_fanin = 8;

  /// Lock-acquisition timeout before a transaction gives up (deadlock
  /// avoidance by timeout).
  std::chrono::milliseconds lock_timeout{200};

  // --- hot-path concurrency knobs ----------------------------------------------

  /// Shards of the lock manager's key table (per-shard mutex + wait list);
  /// disjoint-key writers on different shards never contend. 0 means 1.
  size_t lock_shards = 16;
  /// Shards of the buffer pool's page-table mapping (per-shard mutex over
  /// the id→frame map; frame latches are separate). 0 means 1.
  size_t pool_shards = 16;
  /// Group commit: the log drainer publishes+syncs a staged batch once it
  /// reaches this many bytes even with no committer waiting.
  uint64_t group_commit_bytes = 64 * 1024;
  /// Group commit linger: with committers waiting, the drainer holds the
  /// batch open this long (from the oldest waiter's arrival) so more
  /// commits can join one device sync. 0 syncs as soon as a waiter
  /// appears — the right default for single-threaded callers.
  std::chrono::microseconds group_commit_interval{0};
};

/// Which rung of the recovery ladder ultimately healed a RecoverPages
/// batch (in-place single-page repair → partial restore → full restore).
enum class RecoveryPath : uint8_t {
  kNone = 0,        ///< nothing to recover (empty batch / all dirty-skipped)
  kSinglePage,      ///< coordinated single-page repairs sufficed
  kPartialRestore,  ///< bounded media damage: partial restore-and-replay
  kFullRestore,     ///< unbounded (or unrepairable) damage: full restore
};

/// Outcome of one RecoverPages climb.
struct RecoverPagesResult {
  /// The rung that ultimately certified the batch.
  RecoveryPath path = RecoveryPath::kNone;
  /// Distinct pages in the request.
  uint64_t pages_requested = 0;
  /// Pages with a dirty buffered copy: nothing was lost, write-back will
  /// overwrite the device image, so they are not "damaged" at all.
  uint64_t skipped_dirty = 0;
  /// Pages healed by the coordinated single-page rung.
  uint64_t repaired_single_page = 0;
  /// Pages routed to partial restore (whole batch or single-page leftovers).
  uint64_t escalated_to_partial = 0;
  /// Populated when the partial- or full-restore rung ran.
  MediaRecoveryStats media;
};

/// One database instance over simulated storage. Thread-safe for
/// concurrent transactions; Create/SimulateCrash/Restart/RecoverMedia are
/// administrative and must not race data operations.
class Database {
 public:
  /// Builds the full stack over fresh simulated devices, formats the meta
  /// page, creates the B-tree, and takes the first checkpoint.
  static StatusOr<std::unique_ptr<Database>> Create(DatabaseOptions options);
  /// Stops the background components (scrubber, funnel) and tears down.
  ~Database();

  SPF_DISALLOW_COPY(Database);

  // --- transactions (v2: RAII handles) -----------------------------------------

  /// Starts a user transaction and returns the owning RAII handle:
  /// member Put/Get/Insert/Update/Delete/Scan/Apply/Commit, auto-abort
  /// on destruction, and the retry-aware TxnError taxonomy. Parks while
  /// a full restore holds the admission gate closed (with early
  /// admission, only until the restore sweep starts).
  Txn BeginTxn();

  // --- non-transactional reads --------------------------------------------------

  /// Unlocked point read (no transaction, no locks): sees the latest
  /// committed-or-in-flight value. Use Txn::Get for a locked read.
  StatusOr<std::string> Get(std::string_view key);
  /// Unlocked range scan: visits [start, end) in key order until `fn`
  /// returns false; an empty `end` means "to the last key". Use
  /// Txn::Scan for the locked, transaction-consistent variant.
  Status Scan(std::string_view start, std::string_view end,
              const std::function<bool(std::string_view, std::string_view)>& fn);

  // --- operations ---------------------------------------------------------------

  /// Takes a fuzzy checkpoint (dirty pages, dirty PRI windows, active
  /// transactions, allocator + bad-block snapshots; master record). Waits
  /// first for a restart's pending redo: a page that still owes redo is
  /// in no dirty page table, so the new master record would skip it. If
  /// the restart sweep ended with a page still owed (its load failed),
  /// returns the sweep's error until a later Restart() or RecoverMedia()
  /// settles that redo; TakeFullBackup and CheckOffline do the same.
  StatusOr<CheckpointStats> Checkpoint();
  /// Flushes everything and takes a full backup (media recovery baseline +
  /// PRI range compression). Waits first for a restart's pending redo,
  /// which a pending page's device image lacks.
  StatusOr<FullBackupInfo> TakeFullBackup();
  /// Writes every dirty buffered page back to the device.
  Status FlushAll() { return pool_->FlushAll(); }

  // --- failure & recovery ---------------------------------------------------------

  /// Simulated system failure: the buffer pool and all in-memory state
  /// vanish; the unforced log tail is lost. Outstanding Txn handles are
  /// doomed (every operation returns kDoomed; restart undo — not the
  /// handle — owns the rollback) and should be dropped. A restart sweep
  /// still running is stopped: the next restart plans its pages again.
  /// Follow with Restart().
  void SimulateCrash();

  /// Instant restart after a system failure. Runs ARIES analysis, which
  /// also builds the redo plan (each page's records from its recLSN on),
  /// installs the plan in the buffer pool and undoes the losers, then
  /// admits transactions. From then on a page is redone by whichever
  /// thread loads it first, and a background sweep redoes the rest in
  /// page order before it takes the end-of-restart checkpoint.
  /// Waits first for a previous restart's sweep; redo that one still
  /// owes (a failed page load, or a failed undo) is planned again.
  /// @return analysis and undo counts and the plan's size; the redo
  ///         counts are zero here (see AwaitRestartRedo).
  StatusOr<RestartStats> Restart();

  /// Blocks until the last Restart()'s sweep has redone every planned
  /// page and taken the end-of-restart checkpoint.
  /// @return that restart's stats with the redo counts filled in, or the
  ///         first error the sweep met (a failed page load, or the
  ///         checkpoint's). A page whose load failed is left to its
  ///         readers while the sweep redoes the rest; the sweep then ends
  ///         without a checkpoint. Returns zeroed stats when no restart
  ///         ran.
  StatusOr<RestartStats> AwaitRestartRedo();

  /// Full media recovery under the restore-gate protocol (rung 5 of the
  /// ladder, live-traffic safe): (1) gate — new transactions park at the
  /// TxnManager's admission gate; (2) drain — in-flight transactions run
  /// to commit on their cached working sets within
  /// `restore_drain_timeout`, stragglers are force-aborted (the old
  /// abort-everything behavior, now the fallback branch; their handles
  /// stay valid but return Aborted forever after); (3) restore — the
  /// device is restored from the latest full backup in
  /// `restore_segment_pages`-sized segments with per-segment log-chain
  /// replay, progress published through the RestoreGate; (4) readmit —
  /// with `restore_early_admission` the gate reopens at sweep start and a
  /// buffer fault waits only for ITS page's segment (restored on demand
  /// ahead of the sweep), otherwise at completion. Per-phase counters
  /// land in the returned stats' `phases` and in the funnel's totals.
  StatusOr<MediaRecoveryStats> RecoverMedia();

  /// Recovers an explicit damaged set by climbing the recovery ladder:
  /// batches of at most `spr_batch_limit` pages are repaired in place
  /// through the RecoveryScheduler (per-page backup sources); larger
  /// bounded batches — and pages single-page repair could not heal — go
  /// through partial media restore (sequential backup-range reads + one
  /// shared-segment chain replay, device online); only unbounded damage
  /// (the device failed as a whole, or partial restore itself failed)
  /// falls back to full restore-and-replay. Pages with a dirty buffered
  /// copy are skipped: nothing was lost, write-back overwrites the device
  /// image. This is also the ladder the failure funnel's worker drains
  /// into, so with auto_escalate on, calling it by hand is rarely needed;
  /// the page-wise rungs tolerate concurrent traffic, and the bottom
  /// (full-restore) rung runs the RecoverMedia restore-gate protocol —
  /// in-flight transactions drain to commit and traffic readmits while
  /// the restore sweep is still running.
  StatusOr<RecoverPagesResult> RecoverPages(std::vector<PageId> pages);

  /// Synchronous whole-database scrub: reads and verifies every allocated
  /// page against the device and repairs every detected single-page
  /// failure as ONE coordinated batch through the RecoveryScheduler
  /// ("disk scrubbing" with automatic repair). Thin wrapper over
  /// scrubber()->SweepAll(); use scrubber()->Start() for the incremental
  /// background variant.
  StatusOr<ScrubStats> Scrub();

  /// Batched repair of an explicit set of failed pages (multi-page
  /// failure bursts, escalation paths, benches). Pages the scheduler
  /// cannot repair are reported in the result, not thrown.
  StatusOr<BatchRepairResult> RepairPages(std::vector<PageId> pages);

  /// Offline verification utility (section 2 DBCC analog): reads every
  /// allocated page once directly from the device, verifies in-page
  /// invariants, then checks all B-tree invariants. Read-only; returns
  /// the first violation. Waits first for a restart's pending redo.
  Status CheckOffline(uint64_t* pages_checked);

  // --- introspection (benches, tests, examples) -----------------------------------

  SimClock* clock() { return &clock_; }                  ///< simulated clock
  SimDevice* data_device() { return data_.get(); }       ///< data device (fault injection)
  SimDevice* backup_device() { return backup_dev_.get(); }  ///< backup device
  SimLogDevice* log_device() { return wal_.get(); }      ///< log device
  LogManager* log() { return log_.get(); }               ///< recovery log
  BufferPool* pool() { return pool_.get(); }             ///< buffer pool
  BTree* tree() { return tree_.get(); }                  ///< Foster B-tree
  TxnManager* txns() { return txns_.get(); }             ///< transaction manager
  PageAllocator* allocator() { return alloc_.get(); }    ///< page allocator
  BadBlockList* bad_blocks() { return &bbl_; }           ///< retired locations
  BackupManager* backups() { return backups_.get(); }    ///< backup subsystem
  PriManager* pri_manager() { return pri_manager_.get(); }  ///< PRI maintenance
  PageRecoveryIndex* pri() { return pri_index_.get(); }  ///< the PRI itself
  SinglePageRecovery* single_page_recovery() { return spr_.get(); }  ///< per-page repair
  RecoveryScheduler* recovery_scheduler() { return scheduler_.get(); }  ///< batch repair
  Scrubber* scrubber() { return scrubber_.get(); }       ///< background scrubber
  /// The failure funnel; null when auto_escalate is off (or single-page
  /// repair is not wired).
  RecoveryCoordinator* funnel() { return funnel_.get(); }
  /// The sorted log archive (always wired; its background drain only runs
  /// between archiver()->Start()/Stop() or explicit ArchiveAll() calls).
  LogArchiver* archiver() { return archiver_.get(); }
  SimDevice* archive_device() { return archive_dev_.get(); }  ///< archive volume
  /// Restore-progress gate of the rung-5 protocol (always wired; active
  /// only while a full restore sweep runs).
  RestoreGate* restore_gate() { return restore_gate_.get(); }
  /// Background redo sweep of instant restart (tests hold it with
  /// Pause/Resume).
  RestartSweep* restart_sweep() { return &restart_sweep_; }

  /// True when the self-healing read path is wired (PRI tracking +
  /// single-page repair): a single-page-failure candidate surfacing to a
  /// client is then transient — the funnel heals it, a retry rides the
  /// repaired page. Feeds TxnError::Classify.
  bool repair_wired() const {
    return options_.tracking == WriteTrackingMode::kPri &&
           options_.enable_single_page_repair;
  }

  PageLsnCrossCheck* cross_check() { return cross_check_.get(); }  ///< read-time cross-check
  const DatabaseOptions& options() const { return options_; }  ///< effective options

  /// Aggregated counters across the whole stack in one versioned struct
  /// (pool, repair machinery, scrubber, funnel, lock shards, group-commit
  /// log, restore gate, cross-check). See db/stats_snapshot.h.
  StatsSnapshot Stats() const;

  /// Leaf page currently holding `key` (test/bench helper for targeting
  /// fault injection).
  StatusOr<PageId> LeafPageOf(std::string_view key);

  /// Moves a B-tree page's content to a freshly allocated location and
  /// retires the old one to the bad-block list (section 5.2.3: after
  /// recovering a failing location, "the page can be moved to a new
  /// location. The old, failed location can be ... registered in an
  /// appropriate data structure to prevent future use"). The Foster
  /// B-tree's single-incoming-pointer property makes this a one-pointer
  /// swap (section 5.1.3). The old page's retained image remains a valid
  /// backup source via the new page's format record. Returns the new page
  /// id. NotSupported for the root and for nodes with a foster child
  /// (adopt first).
  StatusOr<PageId> RelocatePage(PageId old_pid);

 private:
  friend class Txn;  // the RAII handle drives the *Op internals below

  explicit Database(DatabaseOptions options);

  /// Builds all volatile components (everything lost in a crash) and
  /// wires the hooks. Called at Create and again inside SimulateCrash.
  void BuildVolatileState();

  // --- v2 internals (driven by the Txn handle) ---------------------------------

  /// Begins a user transaction, returning its shared control block. The
  /// TxnManager's active table holds a second reference; whichever side
  /// lets go last frees the object — there is no zombie retention.
  std::shared_ptr<Transaction> BeginShared();
  Status CommitTxn(Transaction* txn);
  Status AbortTxn(Transaction* txn);
  Status InsertOp(Transaction* txn, std::string_view key, std::string_view value);
  Status UpdateOp(Transaction* txn, std::string_view key, std::string_view value);
  Status PutOp(Transaction* txn, std::string_view key, std::string_view value);
  /// Insert-or-update against the tree, outside any facade bracket —
  /// the single home of the upsert fallback rule (PutOp + batches).
  Status PutTree(Transaction* txn, std::string_view key, std::string_view value);
  Status DeleteOp(Transaction* txn, std::string_view key);
  StatusOr<std::string> GetOp(Transaction* txn, std::string_view key);
  Status ScanOp(Transaction* txn, std::string_view start, std::string_view end,
                const std::function<bool(std::string_view, std::string_view)>& fn);
  /// Applies the whole batch under ONE facade bracket; a mid-batch
  /// failure rolls the chain back to the pre-batch savepoint
  /// (RollbackExecutor::RollbackTo) and leaves the transaction active.
  Status ApplyBatchOp(Transaction* txn, const WriteBatch& batch);

  Status Bootstrap();  // format meta page, create tree, first checkpoint

  /// Checkpoint without waiting for restart redo: the sweep's own
  /// end-of-restart checkpoint, and full restore's, whose replay covers
  /// every planned record.
  StatusOr<CheckpointStats> TakeCheckpoint();
  /// Waits for the restart sweep; an error when redo is still owed.
  Status AwaitPendingRedo();

  /// Runs the deferred compensating rollback of a doomed straggler on
  /// the owner's thread, if this transaction still needs one (one-shot
  /// claim — never races the restore's own rollback phase). Called from
  /// every facade entry that observes a doomed handle and after every
  /// data operation, so a straggler whose in-flight operation outlived
  /// the restore's rollback deadline is compensated the moment that
  /// operation drains out of the facade.
  void ReapDoomedTxn(Transaction* txn);

  /// The facade bracket every data operation runs through: rejects
  /// doomed handles, counts the operation in flight on `txn` so a
  /// restore's rollback phase can see and wait out a straggler's last
  /// operation (Transaction::busy()), and reaps a deferred rollback on
  /// the way out. `fn` returns Status or StatusOr<...>. Defined in
  /// database.cpp (used only there).
  template <typename Fn>
  auto RunTxnOp(Transaction* txn, Fn&& fn) -> decltype(fn());

  DatabaseOptions options_;
  SimClock clock_;

  // Non-volatile: simulated devices survive crashes.
  std::unique_ptr<SimDevice> data_;
  std::unique_ptr<SimDevice> backup_dev_;
  std::unique_ptr<SimDevice> archive_dev_;  ///< sorted-run archive volume
  std::unique_ptr<SimLogDevice> wal_;
  BadBlockList bbl_;

  // The buffer pool's frame bytes. A crash loses their contents, not the
  // memory: every rebuilt pool reuses this block, so it is allocated and
  // touched once instead of once per crash.
  std::unique_ptr<char[]> frame_memory_;

  // Volatile: rebuilt by SimulateCrash + Restart.
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<TxnManager> txns_;
  std::unique_ptr<PageAllocator> alloc_;
  std::unique_ptr<BackupManager> backups_;
  std::unique_ptr<RestoreGate> restore_gate_;
  std::unique_ptr<PageRecoveryIndex> pri_index_;
  std::unique_ptr<PriManager> pri_manager_;
  std::unique_ptr<SinglePageRecovery> spr_;
  std::unique_ptr<PageLsnCrossCheck> cross_check_;
  std::unique_ptr<BTree> tree_;
  // Declared after (so destroyed before) the components they drive; the
  // scrubber reports into the funnel, so it is destroyed first.
  std::unique_ptr<RecoveryScheduler> scheduler_;
  std::unique_ptr<RecoveryCoordinator> funnel_;
  std::unique_ptr<Scrubber> scrubber_;
  // The archiver drains log_, so it is declared after it (destroyed
  // first).
  std::unique_ptr<LogArchiver> archiver_;
  PriLayout layout_;
  // Serializes rung-5 climbs: a manual RecoverMedia must not overlap a
  // funnel-driven one (the RestoreGate supports one sweep at a time).
  // The generation counter lets a climb that blocked behind a completed
  // restore skip re-restoring a healthy device.
  OrderedMutex recover_media_mu_{LockRank::kRecoverMedia};
  std::atomic<uint64_t> restore_generation_{0};
  // Survives crash (stable storage). Atomic: the restart sweep's
  // checkpoint can overlap full restore's.
  std::atomic<Lsn> master_record_stash_{kInvalidLsn};

  // Instant restart: the last Restart()'s plan (installed in pool_) and
  // stats, and the sweep that finishes the plan. The sweep is declared
  // last so it stops before anything it uses is destroyed.
  std::unique_ptr<RedoPlan> redo_plan_;
  RestartStats restart_stats_;
  RestartSweep restart_sweep_;
};

}  // namespace spf
