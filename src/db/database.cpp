#include "db/database.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace spf {

namespace {

/// The status every operation on a doomed (drain-deadline force-aborted)
/// transaction handle returns. The restore owns the rollback; the owner
/// must drop the handle.
Status DoomedTxnStatus() {
  return Status::Aborted(
      "transaction was force-aborted by a full-restore drain deadline");
}

bool TxnDoomed(Transaction* txn) { return txn != nullptr && txn->doomed(); }

/// Brackets one facade data operation on `txn` (null-safe) so the
/// restore's fallback rollback can wait out an operation that was
/// already executing when the drain deadline fired.
class TxnOpGuard {
 public:
  explicit TxnOpGuard(Transaction* txn) : txn_(txn) {
    if (txn_ != nullptr) txn_->BeginOp();
  }
  ~TxnOpGuard() {
    if (txn_ != nullptr) txn_->EndOp();
  }
  SPF_DISALLOW_COPY(TxnOpGuard);

 private:
  Transaction* const txn_;
};

}  // namespace

Database::Database(DatabaseOptions options) : options_(options) {}

Database::~Database() = default;

StatusOr<std::unique_ptr<Database>> Database::Create(DatabaseOptions options) {
  if (options.num_pages < 4 * kPriEntriesPerWindow) {
    return Status::InvalidArgument(
        "num_pages too small for the two-partition PRI layout (need >= " +
        std::to_string(4 * kPriEntriesPerWindow) + ")");
  }
  std::unique_ptr<Database> db(new Database(options));

  db->data_ = std::make_unique<SimDevice>("data", options.page_size,
                                          options.num_pages,
                                          options.data_profile, &db->clock_);
  // Backup device: room for one full backup plus a page-copy pool.
  db->backup_dev_ = std::make_unique<SimDevice>(
      "backup", options.page_size, options.num_pages + options.num_pages / 2 + 64,
      options.backup_profile, &db->clock_);
  // Archive volume: the sorted-run log archive (same device class as the
  // log — sequential writes, sequential merge reads). Sized for the full
  // archived history plus merge headroom: a merge writes its output
  // before freeing its inputs.
  db->archive_dev_ = std::make_unique<SimDevice>(
      "archive", options.page_size,
      options.num_pages + options.num_pages / 2 + 64, options.log_profile,
      &db->clock_);
  db->wal_ =
      std::make_unique<SimLogDevice>("wal", options.log_profile, &db->clock_);
  db->layout_ = PriLayout::Compute(options.num_pages);

  db->BuildVolatileState();
  // The backup catalog models stable storage; it is created once and
  // survives simulated crashes (only its log pointer is volatile).
  SPF_RETURN_IF_ERROR(db->Bootstrap());
  return db;
}

void Database::BuildVolatileState() {
  // The scrubber, funnel, and scheduler reference everything below; take
  // them down first — in that order (the scrubber reports into the
  // funnel; the funnel's ladder drives the scheduler) — before any
  // component is replaced.
  if (scrubber_ != nullptr) scrubber_->Stop();
  scrubber_.reset();
  if (funnel_ != nullptr) funnel_->Stop();
  funnel_.reset();
  scheduler_.reset();
  // The archiver's drain thread reads the old log manager; stop and drop
  // it before the log is replaced below.
  if (archiver_ != nullptr) archiver_->Stop();
  archiver_.reset();

  // Destroy the old manager FIRST: its destructor publishes any staged
  // bytes onto the device, and the new manager reads the device size as
  // its starting LSN — constructing before destroying would corrupt the
  // LSN space.
  log_.reset();
  GroupCommitOptions gc;
  gc.max_batch_bytes = options_.group_commit_bytes;
  gc.max_wait = options_.group_commit_interval;
  log_ = std::make_unique<LogManager>(wal_.get(), gc);
  const Lsn master = master_record_stash_.load(std::memory_order_acquire);
  if (master != kInvalidLsn) log_->SetMasterRecord(master);

  BufferPoolOptions bp;
  bp.page_size = options_.page_size;
  bp.num_frames = options_.buffer_frames;
  bp.verify_on_read = options_.verify_on_read;
  bp.table_shards = options_.pool_shards;
  if (frame_memory_ == nullptr) {
    // Zeroed once, so that its pages are touched here and not by the
    // first loads into each frame.
    frame_memory_.reset(new char[bp.num_frames * bp.page_size]());
  }
  pool_.reset();  // the old pool's frames live in the same block
  pool_ = std::make_unique<BufferPool>(bp, data_.get(), log_.get(),
                                       frame_memory_.get());

  // Restore gate (rung-5 protocol): installed on the pool permanently;
  // inactive (one atomic load per fault) outside full restores. The log
  // manager's write path parks on the same gate AFTER reserving its log
  // slot, which is what closes the admission-seal TOCTOU (see
  // LogManager::AppendPageRecord).
  restore_gate_ = std::make_unique<RestoreGate>(&clock_);
  pool_->SetRestoreAdmission(restore_gate_.get());
  log_->SetWriteAdmission(restore_gate_.get());

  locks_ = std::make_unique<LockManager>(options_.lock_timeout,
                                         options_.lock_shards);
  txns_ = std::make_unique<TxnManager>(log_.get(), locks_.get());

  alloc_ = std::make_unique<PageAllocator>(options_.num_pages,
                                           layout_.reserved_prefix());
  // Reserve the tail extent of PRI partition B as well.
  for (PageId p = layout_.pri_b_start;
       p < layout_.pri_b_start + layout_.pri_b_pages; ++p) {
    alloc_->MarkAllocated(p);
  }

  if (backups_ == nullptr) {
    backups_ = std::make_unique<BackupManager>(data_.get(), backup_dev_.get(),
                                               log_.get());
    // Full backups must never copy a broken page image over the only
    // backup of that page (section 5.2.2): verify every data page that
    // carries the standard page format, and heal the ones that read bad
    // through the repair ladder before copying. The hooks capture only
    // `this` — the components they touch are the current volatile set.
    backups_->SetFullBackupVerification(
        [this](PageId p) {
          return alloc_->IsAllocated(p) && !layout_.IsPriPage(p) &&
                 !bbl_.Contains(p) && !pool_->IsDirty(p);
        },
        [this](PageId p) {
          SPF_ASSIGN_OR_RETURN(BatchRepairResult r, RepairPages({p}));
          if (!r.failures.empty()) return r.failures.front().status;
          return Status::OK();
        });
  } else {
    backups_->RewireLog(log_.get());
  }
  pri_index_ = std::make_unique<PageRecoveryIndex>(options_.num_pages);
  pri_manager_ = std::make_unique<PriManager>(
      layout_, options_.tracking, options_.backup_policy, pri_index_.get(),
      log_.get(), txns_.get(), backups_.get(), data_.get());
  spr_ = std::make_unique<SinglePageRecovery>(pri_manager_.get(), log_.get(),
                                              backups_.get(), data_.get(),
                                              &clock_);
  cross_check_ =
      std::make_unique<PageLsnCrossCheck>(pri_manager_.get(), log_.get());

  RecoverySchedulerOptions rs_opts;
  rs_opts.num_workers = options_.recovery_workers;
  scheduler_ = std::make_unique<RecoveryScheduler>(spr_.get(), rs_opts);

  // Sorted log archive: the background drain of the durable log into
  // (page-id, LSN)-sorted runs. The archive volume models stable storage
  // (it survives crashes); Recover() re-reads its directory so runs
  // published before the crash keep serving repairs. Every log consumer
  // below reads archived history through it: page repair via the
  // scheduler's range merge, and full restore via MediaRecovery's
  // per-segment run fetch.
  ArchiverOptions ar;
  ar.run_bytes = options_.archive_run_bytes;
  ar.interval_wall_ms =
      static_cast<uint64_t>(options_.archive_interval.count());
  ar.merge_fanin = options_.archive_merge_fanin;
  archiver_ = std::make_unique<LogArchiver>(archive_dev_.get(), log_.get(), ar);
  RestoreGate* gate = restore_gate_.get();
  archiver_->SetRestorePause([gate] { return gate->active(); });
  SPF_CHECK_OK(archiver_->Recover());
  scheduler_->SetArchive(archiver_.get());

  // Wire the hooks (Figure 8 read path; Figure 11 write path). All repair
  // work — foreground read-path detections included — funnels through the
  // scheduler.
  if (options_.tracking != WriteTrackingMode::kNone) {
    pool_->SetWriteCompletionListener(pri_manager_.get());
  }
  bool repair_wired = false;
  if (options_.tracking == WriteTrackingMode::kPri) {
    if (options_.verify_on_read) {
      pool_->SetReadVerifier(cross_check_.get());
    }
    if (options_.enable_single_page_repair) {
      pool_->SetPageRepairer(scheduler_.get());
      repair_wired = true;
    }
  }

  // The failure funnel: every detection site reports damaged pages here,
  // and its worker drains them through the RecoverPages ladder — the
  // self-healing pipeline. The foreground read path goes through the
  // funnel too (concurrent readers of one damaged page share a repair),
  // falling back to an inline scheduler repair under backpressure.
  if (repair_wired && options_.auto_escalate) {
    RecoveryCoordinatorOptions fo;
    fo.num_workers = options_.funnel_workers;
    fo.queue_limit = options_.funnel_queue_limit;
    funnel_ = std::make_unique<RecoveryCoordinator>(
        [this](std::vector<PageId> pages) -> StatusOr<FunnelBatchOutcome> {
          SPF_ASSIGN_OR_RETURN(RecoverPagesResult rec,
                               RecoverPages(std::move(pages)));
          FunnelBatchOutcome out;
          out.repaired_spr = rec.repaired_single_page;
          out.skipped_dirty = rec.skipped_dirty;
          if (rec.path == RecoveryPath::kPartialRestore) {
            out.repaired_partial = rec.escalated_to_partial;
          } else if (rec.path == RecoveryPath::kFullRestore) {
            out.full_restores = 1;
            // The whole-device restore healed everything the upper rungs
            // left over (the batch resolves OK; count the heals).
            out.repaired_full = rec.pages_requested - rec.skipped_dirty -
                                rec.repaired_single_page;
          }
          return out;
        },
        data_.get(), fo);
    funnel_->SetInlineFallback(scheduler_.get());
    funnel_->Start();
    pool_->SetPageRepairer(funnel_.get());
    // Pages a direct RepairBatch (sync scrub sweeps, Database::RepairPages)
    // could not heal flow into the funnel instead of stopping at the
    // caller. The ladder itself uses RepairBatchNoEscalation.
    RecoveryCoordinator* funnel = funnel_.get();
    scheduler_->SetEscalationSink([funnel](std::vector<PageId> pages) {
      for (PageId p : pages) {
        (void)funnel->Report(p, FailureOrigin::kEscalation);
      }
    });
  }

  ScrubberOptions sc_opts;
  sc_opts.pages_per_tick = options_.scrub_pages_per_tick;
  sc_opts.interval_sim_ms =
      static_cast<uint64_t>(options_.scrub_interval.count());
  sc_opts.interval_wall_ms =
      static_cast<uint64_t>(options_.scrub_wall_interval.count());
  sc_opts.verify = options_.verify_on_read;
  // Without the repair hook a detected failure escalates, matching the
  // "traditional system" baseline of Figure 1.
  sc_opts.repair = repair_wired;
  scrubber_ = std::make_unique<Scrubber>(
      scheduler_.get(), alloc_.get(), pool_.get(), data_.get(),
      (options_.tracking == WriteTrackingMode::kPri && options_.verify_on_read)
          ? cross_check_.get()
          : nullptr,
      &bbl_, layout_, &clock_, sc_opts);
  if (funnel_ != nullptr) scrubber_->SetFunnel(funnel_.get());
  scrubber_->SetRestoreGate(restore_gate_.get());

  BTreeOptions bt;
  bt.verify_traversals = options_.verify_traversals;
  if (options_.tracking == WriteTrackingMode::kPri) {
    PriManager* pm = pri_manager_.get();
    bt.format_listener = [pm](PageId pid, Lsn format_lsn) {
      pm->pri()->RecordBackup(pid, {BackupKind::kFormatRecord, format_lsn});
    };
  }
  tree_ = std::make_unique<BTree>(bt, pool_.get(), log_.get(), txns_.get(),
                                  alloc_.get(), /*meta_pid=*/0);
}

Status Database::Bootstrap() {
  // Format the meta page directly (the one unlogged write of a database's
  // life); everything after is logged.
  PageBuffer buf(options_.page_size);
  PageView page = buf.view();
  page.Format(0, PageType::kMeta);
  MetaView meta(page);
  DbMetaData* m = meta.mutable_meta();
  m->magic = kDbMetaMagic;
  m->root_pid = kInvalidPageId;
  m->pri_a_start = layout_.pri_a_start;
  m->pri_a_pages = layout_.pri_a_pages;
  m->pri_b_start = layout_.pri_b_start;
  m->pri_b_pages = layout_.pri_b_pages;
  m->num_pages = options_.num_pages;
  m->reserved_pages = layout_.reserved_prefix();
  page.UpdateChecksum();
  SPF_RETURN_IF_ERROR(data_->WritePage(0, buf.data()));

  SPF_RETURN_IF_ERROR(tree_->Create());
  SPF_ASSIGN_OR_RETURN(CheckpointStats ckpt, Checkpoint());
  (void)ckpt;
  return Status::OK();
}

// --- transactions ---------------------------------------------------------------

Txn Database::BeginTxn() { return Txn(this, BeginShared()); }

std::shared_ptr<Transaction> Database::BeginShared() { return txns_->Begin(); }

void Database::ReapDoomedTxn(Transaction* txn) {
  if (txn == nullptr || !txn->doomed() || txn->busy()) return;
  // busy() above: a sibling operation still in flight on this handle
  // defers the reap to that operation's own trailing reap — the rollback
  // must never run concurrently with forward work on the same chain.
  if (!txn->TryClaimRollback()) return;
  RollbackExecutor rollback(log_.get(), tree_.get(), txns_.get());
  if (!rollback.Rollback(txn).ok()) {
    // Mid-undo failure (e.g. the device died again): release the claim
    // so the next restore's doom phase — or the owner's next call —
    // resumes the compensation (CLR chains skip what was already undone).
    txn->RevertRollbackClaim();
  }
}

Status Database::CommitTxn(Transaction* txn) {
  if (TxnDoomed(txn)) {
    ReapDoomedTxn(txn);
    return DoomedTxnStatus();
  }
  return txns_->Commit(txn);
}

Status Database::AbortTxn(Transaction* txn) {
  if (txn != nullptr && !txn->is_system() && !txn->TryClaimFinalize()) {
    if (txn->doomed()) {
      // The drain deadline doomed this transaction first; its rollback
      // belongs to the restore — or, if that deferred, runs right here.
      ReapDoomedTxn(txn);
      return DoomedTxnStatus();
    }
    return Status::Aborted("transaction finalization already in progress");
  }
  RollbackExecutor rollback(log_.get(), tree_.get(), txns_.get());
  auto stats = rollback.Rollback(txn);
  if (!stats.ok()) {
    // The rollback could not run to completion (e.g. the device died
    // mid-undo). Release the claim so the owner can retry once the
    // device heals — or so the next full restore's doom phase picks the
    // transaction up and compensates it (CLR chains make the resumed
    // rollback skip what this attempt already undid).
    if (txn != nullptr && !txn->is_system()) txn->RevertFinalizeClaim();
    return stats.status();
  }
  return Status::OK();
}

// --- data -----------------------------------------------------------------------

template <typename Fn>
auto Database::RunTxnOp(Transaction* txn, Fn&& fn) -> decltype(fn()) {
  auto result = [&]() -> decltype(fn()) {
    // Bracket BEFORE the doomed check: once this operation is visible in
    // ops_in_flight_ (sequentially consistent against TryDoom), a doom
    // that lands after the check can no longer let the restore's
    // rollback phase treat the transaction as idle and race this forward
    // operation — its busy() wait covers the whole window.
    TxnOpGuard op(txn);
    if (TxnDoomed(txn)) return DoomedTxnStatus();
    return fn();
  }();
  // Doomed mid-operation, past the restore's rollback deadline: this
  // thread compensates now that its operation has drained out.
  ReapDoomedTxn(txn);
  return result;
}

Status Database::InsertOp(Transaction* txn, std::string_view key,
                          std::string_view value) {
  return RunTxnOp(txn, [&] { return tree_->Insert(txn, key, value); });
}

Status Database::UpdateOp(Transaction* txn, std::string_view key,
                          std::string_view value) {
  return RunTxnOp(txn, [&] { return tree_->Update(txn, key, value); });
}

Status Database::PutTree(Transaction* txn, std::string_view key,
                         std::string_view value) {
  // Insert-or-update: the one place the upsert fallback rule lives
  // (shared by the point op and the WriteBatch loop).
  Status s = tree_->Insert(txn, key, value);
  if (s.IsFailedPrecondition()) {
    return tree_->Update(txn, key, value);
  }
  return s;
}

Status Database::PutOp(Transaction* txn, std::string_view key,
                       std::string_view value) {
  return RunTxnOp(txn, [&] { return PutTree(txn, key, value); });
}

Status Database::DeleteOp(Transaction* txn, std::string_view key) {
  return RunTxnOp(txn, [&] { return tree_->Delete(txn, key); });
}

StatusOr<std::string> Database::GetOp(Transaction* txn, std::string_view key) {
  return RunTxnOp(
      txn, [&]() -> StatusOr<std::string> { return tree_->Get(txn, key); });
}

Status Database::ScanOp(
    Transaction* txn, std::string_view start, std::string_view end,
    const std::function<bool(std::string_view, std::string_view)>& fn) {
  return RunTxnOp(txn, [&] { return tree_->Scan(txn, start, end, fn); });
}

Status Database::ApplyBatchOp(Transaction* txn, const WriteBatch& batch) {
  SPF_CHECK(txn != nullptr) << "batches require a transaction";
  // ONE facade bracket for the whole batch: the in-flight registration,
  // doomed-handle admission check, and trailing deferred-rollback reap
  // are paid once instead of once per operation (bench E13's axis).
  return RunTxnOp(txn, [&]() -> Status {
    // Savepoint: the chain head before the batch's first record. A
    // mid-batch failure compensates exactly the records after it, so
    // the batch applies atomically while the transaction stays active.
    const Lsn savepoint = txn->last_lsn();
    for (const WriteBatch::Op& op : batch.ops()) {
      Status s;
      switch (op.kind) {
        case WriteBatch::OpKind::kPut:
          s = PutTree(txn, op.key, op.value);
          break;
        case WriteBatch::OpKind::kInsert:
          s = tree_->Insert(txn, op.key, op.value);
          break;
        case WriteBatch::OpKind::kUpdate:
          s = tree_->Update(txn, op.key, op.value);
          break;
        case WriteBatch::OpKind::kDelete:
          s = tree_->Delete(txn, op.key);
          break;
      }
      if (!s.ok()) {
        RollbackExecutor rollback(log_.get(), tree_.get(), txns_.get());
        auto undone = rollback.RollbackTo(txn, savepoint);
        if (!undone.ok()) {
          // The pre-batch state cannot be restored in place (e.g. the
          // device died mid-undo): atomicity now requires taking the
          // whole transaction down. AbortTxn resumes the compensation
          // (CLR chains skip what RollbackTo already undid); if even
          // that fails, the next restore's doom phase finishes the job.
          (void)AbortTxn(txn);
          return undone.status();
        }
        return s;
      }
    }
    return Status::OK();
  });
}

Status Database::Scan(
    std::string_view start, std::string_view end,
    const std::function<bool(std::string_view, std::string_view)>& fn) {
  return tree_->Scan(nullptr, start, end, fn);
}

StatusOr<std::string> Database::Get(std::string_view key) {
  return GetOp(nullptr, key);
}

// --- operations -------------------------------------------------------------------

StatusOr<CheckpointStats> Database::Checkpoint() {
  SPF_RETURN_IF_ERROR(AwaitPendingRedo());
  return TakeCheckpoint();
}

StatusOr<CheckpointStats> Database::TakeCheckpoint() {
  Checkpointer ckpt(log_.get(), pool_.get(), txns_.get(), alloc_.get(), &bbl_,
                    options_.tracking == WriteTrackingMode::kPri
                        ? pri_manager_.get()
                        : nullptr);
  auto stats = ckpt.Take();
  if (stats.ok()) {
    master_record_stash_.store(log_->GetMasterRecord(),
                               std::memory_order_release);
  }
  return stats;
}

Status Database::AwaitPendingRedo() {
  Status s = restart_sweep_.Wait();
  if (redo_plan_ == nullptr || !redo_plan_->Pending()) return Status::OK();
  return s.ok() ? Status::Busy("restart redo still pending") : s;
}

StatusOr<FullBackupInfo> Database::TakeFullBackup() {
  // A page still owing restart redo has a device image without it, and
  // no dirty frame for the flush below to write.
  SPF_RETURN_IF_ERROR(AwaitPendingRedo());
  // Capture the backup LSN BEFORE the flush: restores replay the log from
  // this point, so every update at or below it must be in the image —
  // which the flush guarantees only for updates that existed when it
  // began. Capturing after the flush leaves a window where a commit lands
  // below the backup LSN on an already-flushed page; its effect would
  // then be in neither the image nor the replayed log range. Updates
  // racing in after this capture carry higher LSNs and are covered by
  // replay (conditional redo makes the flushed ones no-ops).
  log_->ForceAll();
  const Lsn backup_lsn = log_->durable_lsn();
  SPF_RETURN_IF_ERROR(pool_->FlushAll());
  if (options_.tracking == WriteTrackingMode::kPri) {
    SPF_RETURN_IF_ERROR(pri_manager_->WriteDirtyWindows());
  }
  SPF_ASSIGN_OR_RETURN(FullBackupInfo info, backups_->TakeFullBackup(backup_lsn));
  if (options_.tracking == WriteTrackingMode::kPri) {
    pri_manager_->OnFullBackup(info.id);
  }
  return info;
}

// --- failure & recovery ---------------------------------------------------------------

void Database::SimulateCrash() {
  // The restart sweep goes first: it holds page fixes and appends log.
  // What it did not reach is planned again by the next restart.
  restart_sweep_.Stop();
  // Kill the group-commit drainer FIRST and discard its staged (never
  // published) records: staged bytes are strictly more volatile than the
  // unforced device tail, and a drainer still running would republish
  // them after the DropUnsynced below.
  log_->Crash();
  // The unforced log tail is lost; devices keep their contents.
  wal_->DropUnsynced();
  pool_->DiscardAll();
  // Outstanding handles survive the crash as objects (their control
  // blocks are shared), but their transactions die with the volatile
  // state: doom them so every later call on a stale handle reports
  // kDoomed, and claim their rollbacks — restart undo owns the
  // compensation via the LOG, not via these in-memory chains.
  txns_->DoomAllForCrash();
  // All in-memory state vanishes; rebuild empty shells. The master record
  // survives in master_record_stash_ (it models stable storage).
  BuildVolatileState();
  redo_plan_.reset();
  restart_stats_ = RestartStats();
}

StatusOr<RestartStats> Database::Restart() {
  // A previous restart's sweep finishes first. Redo it still owes (a page
  // load failed, or that restart's undo did) is planned again below; the
  // pages it did redo are cached and current.
  (void)restart_sweep_.Wait();
  PriManager* pri = options_.tracking == WriteTrackingMode::kPri
                        ? pri_manager_.get()
                        : nullptr;
  pool_->SetPendingRedo(nullptr);
  redo_plan_ = std::make_unique<RedoPlan>(pri);
  RestartRecovery restart(log_.get(), pool_.get(), txns_.get(), tree_.get(),
                          alloc_.get(), &bbl_, pri, &clock_);
  SPF_ASSIGN_OR_RETURN(restart_stats_, restart.Run(redo_plan_.get()));
  // Standard practice: checkpoint at the end of restart so the next crash
  // does not re-run this recovery — here once the sweep has redone every
  // planned page, since a page still owing redo is in no dirty page table.
  restart_sweep_.Start(redo_plan_.get(), pool_.get(), &clock_,
                       [this] { return TakeCheckpoint().status(); });
  return restart_stats_;
}

StatusOr<RestartStats> Database::AwaitRestartRedo() {
  SPF_RETURN_IF_ERROR(restart_sweep_.Wait());
  RestartStats stats = restart_stats_;
  if (redo_plan_ != nullptr) redo_plan_->CopyRedoCounts(&stats);
  stats.redo_sim_seconds = restart_sweep_.redo_sim_seconds();
  return stats;
}

StatusOr<MediaRecoveryStats> Database::RecoverMedia() {
  // The restore-gate protocol (gate → drain → segmented restore →
  // readmit): instead of aborting every active transaction up front
  // (section 5.1.3's baseline, the pre-gate behavior), in-flight
  // transactions run to commit on their cached working sets while new
  // ones park at the admission gate; only the stragglers a bounded drain
  // deadline catches take the old forced-abort path. Their updates were
  // replayed from the log during the restore, so they are compensated by
  // restart-style undo after the replay.

  // One sweep at a time: the funnel's ladder serializes its own climbs,
  // but a manual call must not overlap a funnel-driven one. If another
  // restore completed while this call waited for the lock and the device
  // came back healthy, the damage this climb was escalating is already
  // healed (or will re-detect through the ladder's cheaper rungs) — do
  // not run a second whole-device restore back to back.
  uint64_t generation = restore_generation_.load(std::memory_order_acquire);
  MutexLock restore_lock(recover_media_mu_);
  if (restore_generation_.load(std::memory_order_acquire) != generation &&
      !data_->device_failed()) {
    return MediaRecoveryStats{};
  }

  // Mark the whole protocol on the gate so the background scrubber
  // pauses through the gate/drain window too, not just the sweep.
  restore_gate_->BeginProtocol();

  // Phase 1 — gate: park new user transactions. Scope order matters at
  // exit: EndProtocol runs BEFORE OpenGate (protocol declared later =
  // destroyed first), so a transaction released by the reopening gate
  // never observes a stale "restore in progress".
  txns_->CloseGate();
  struct GateReopener {
    TxnManager* txns;
    ~GateReopener() { txns->OpenGate(); }
  } reopener{txns_.get()};  // every exit path readmits
  struct ProtocolScope {
    RestoreGate* gate;
    ~ProtocolScope() { gate->EndProtocol(); }
  } protocol{restore_gate_.get()};

  RestorePhases phases;
  phases.early_admission = options_.restore_early_admission;
  phases.active_at_gate = txns_->ActiveUserCount();

  // Phase 2 — drain: let in-flight transactions finish on cached pages.
  auto drain_start = std::chrono::steady_clock::now();
  size_t remaining = txns_->WaitForUserDrain(options_.restore_drain_timeout);
  phases.drain_wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                drain_start)
          .count();
  std::vector<std::shared_ptr<Transaction>> doomed;
  if (remaining > 0) doomed = txns_->DoomActiveUserTxns();
  phases.doomed = doomed.size();
  phases.drained = phases.active_at_gate - phases.doomed;

  // Redo a restart still owes is given up, not waited for: the replay
  // below covers every planned record, and the restart sweep may itself
  // be parked in the repair ladder that called this restore.
  if (redo_plan_ != nullptr) redo_plan_->Cancel();

  // Phase 3 — segmented restore, publishing progress through the gate;
  // phase 4 — early readmission happens inside the sweep (on_sweep_begin)
  // so transactions resume while the restore is still running.
  MediaRecovery media(log_.get(), backups_.get(), data_.get(), pool_.get(),
                      options_.tracking == WriteTrackingMode::kPri
                          ? pri_manager_.get()
                          : nullptr,
                      &clock_, archiver_.get());
  FullRestoreOptions fr;
  fr.gate = restore_gate_.get();
  fr.segment_pages = options_.restore_segment_pages;
  if (options_.restore_early_admission) {
    TxnManager* txns = txns_.get();
    fr.on_sweep_begin = [txns] { txns->OpenGate(); };
  }
  SPF_ASSIGN_OR_RETURN(MediaRecoveryStats stats, media.Run(fr));

  // Fallback branch: compensate the replayed updates of the stragglers
  // the drain deadline caught. The shared_ptrs returned by the doom
  // phase keep their objects alive through this loop even if an owner
  // thread observes Aborted and drops its handle concurrently (the
  // owner's handle likewise stays readable for as long as it is held —
  // ordinary shared-state teardown, no zombie retention). An operation
  // that was already executing inside the tree when the deadline fired
  // may still be draining out (it resumes via early admission); wait it
  // out — bounded — so the rollback never races the owner's last
  // operation. A straggler still busy past the deadline (e.g. parked in
  // the failure funnel on a batch that resolves only when THIS call
  // returns) is not rolled back concurrently: its compensation defers to
  // the owner's thread, which runs it the moment the operation drains
  // out of the facade (ReapDoomedTxn). The one-shot rollback claim makes
  // the two agents mutually exclusive.
  RollbackExecutor rollback(log_.get(), tree_.get(), txns_.get());
  auto busy_deadline =
      std::chrono::steady_clock::now() + options_.restore_drain_timeout;
  for (const std::shared_ptr<Transaction>& txn : doomed) {
    // One shared bound across all stragglers: the wait exists to drain a
    // last in-flight operation, not to serialize N full timeouts.
    while (txn->busy() && std::chrono::steady_clock::now() < busy_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (txn->busy()) {
      phases.deferred_rollbacks++;
      continue;
    }
    if (!txn->TryClaimRollback()) continue;  // owner already compensated
    auto rb = rollback.Rollback(txn.get());
    if (!rb.ok()) {
      txn->RevertRollbackClaim();  // next doom phase resumes via CLRs
      return rb.status();
    }
  }

  phases.segments = stats.segments;
  phases.on_demand_segments = stats.on_demand_segments;
  phases.admission_waits = restore_gate_->admission_waits();
  phases.first_admission_sim_s = restore_gate_->first_admission_sim_seconds();
  stats.phases = phases;
  if (funnel_ != nullptr) funnel_->NoteGatedRestore(phases);

  SPF_RETURN_IF_ERROR(TakeCheckpoint().status());
  restore_generation_.fetch_add(1, std::memory_order_acq_rel);
  return stats;
}

StatusOr<RecoverPagesResult> Database::RecoverPages(std::vector<PageId> pages) {
  RecoverPagesResult result;
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  result.pages_requested = pages.size();

  // Unbounded damage: the device failed as a whole — there is nothing the
  // page-wise rungs can even read back. Straight to the bottom rung.
  if (data_->device_failed()) {
    SPF_ASSIGN_OR_RETURN(result.media, RecoverMedia());
    result.path = RecoveryPath::kFullRestore;
    return result;
  }

  // A dirty buffered copy supersedes the device image; the "damage" is a
  // stale-on-purpose device page that the next write-back overwrites.
  auto dirty_end = std::remove_if(pages.begin(), pages.end(), [&](PageId p) {
    return pool_->IsDirty(p);
  });
  result.skipped_dirty = static_cast<uint64_t>(pages.end() - dirty_end);
  pages.erase(dirty_end, pages.end());
  if (pages.empty()) return result;

  // Rung 1: coordinated single-page repairs for small batches.
  std::vector<PageId> remaining = pages;
  if (options_.enable_single_page_repair &&
      options_.tracking == WriteTrackingMode::kPri &&
      pages.size() <= options_.spr_batch_limit) {
    // NoEscalation: this ladder escalates leftovers to partial restore
    // itself; reporting them into the funnel (which calls this ladder)
    // would loop.
    SPF_ASSIGN_OR_RETURN(BatchRepairResult batch,
                         scheduler_->RepairBatchNoEscalation(std::move(pages)));
    result.repaired_single_page = batch.repaired;
    if (batch.failed == 0) {
      result.path = RecoveryPath::kSinglePage;
      return result;
    }
    remaining.clear();
    for (const PageRepairOutcome& f : batch.failures) {
      remaining.push_back(f.page_id);
    }
  }

  // Rung 2: bounded media damage — partial restore through the scheduler.
  result.escalated_to_partial = remaining.size();
  MediaRecovery media(log_.get(), backups_.get(), data_.get(), pool_.get(),
                      options_.tracking == WriteTrackingMode::kPri
                          ? pri_manager_.get()
                          : nullptr,
                      &clock_, archiver_.get());
  auto partial = media.RunPartial(std::move(remaining), scheduler_.get());
  if (partial.ok()) {
    result.media = *partial;
    result.path = RecoveryPath::kPartialRestore;
    return result;
  }

  // Rung 3: partial restore could not certify the set — full restore.
  SPF_ASSIGN_OR_RETURN(result.media, RecoverMedia());
  result.path = RecoveryPath::kFullRestore;
  return result;
}

StatusOr<ScrubStats> Database::Scrub() { return scrubber_->SweepAll(); }

StatusOr<BatchRepairResult> Database::RepairPages(std::vector<PageId> pages) {
  return scheduler_->RepairBatch(std::move(pages));
}

Status Database::CheckOffline(uint64_t* pages_checked) {
  SPF_RETURN_IF_ERROR(AwaitPendingRedo());
  // Read each allocated page once, directly from the device (section 4.1:
  // scalable offline algorithms read each page only once).
  PageBuffer buf(options_.page_size);
  uint64_t checked = 0;
  for (PageId p = 0; p < options_.num_pages; ++p) {
    if (!alloc_->IsAllocated(p)) continue;
    if (layout_.IsPriPage(p)) continue;
    if (bbl_.Contains(p)) continue;  // retired locations are not data
    // Skip pages that are dirty in the buffer pool: the device copy is
    // legitimately stale (offline checks assume a quiesced database).
    if (pool_->IsDirty(p)) continue;
    SPF_RETURN_IF_ERROR(data_->ReadPage(p, buf.data()));
    PageView page = buf.view();
    SPF_RETURN_IF_ERROR(page.Verify(p));
    checked++;
  }
  // Cross-page invariants via the comprehensive B-tree check.
  uint64_t tree_pages = 0;
  SPF_RETURN_IF_ERROR(tree_->VerifyAll(&tree_pages));
  if (pages_checked != nullptr) *pages_checked = checked;
  return Status::OK();
}

StatusOr<PageId> Database::RelocatePage(PageId old_pid) {
  // Locate the single incoming pointer by descending toward the node's
  // low fence key. Latch order is top-down, so take the owner exclusively
  // before the victim.
  std::string probe_key;
  bool probe_neg_inf = false;
  {
    SPF_ASSIGN_OR_RETURN(PageGuard g, pool_->FixPage(old_pid, LatchMode::kShared));
    PageType type = g.view().type();
    if (type != PageType::kBTreeLeaf && type != PageType::kBTreeBranch) {
      return Status::NotSupported("relocation supports B-tree pages only");
    }
    BTreeNode node(g.view());
    if (node.has_foster_child()) {
      return Status::NotSupported("relocating a foster parent: adopt first");
    }
    KeyBound low = node.low_fence();
    probe_neg_inf = low.infinite;
    probe_key = low.key;
  }

  SPF_ASSIGN_OR_RETURN(PageId root, tree_->root_pid());
  if (root == old_pid) {
    return Status::NotSupported("root relocation not supported");
  }

  // Walk from the root toward the probe key, keeping only the candidate
  // owner latched.
  PageId owner = kInvalidPageId;
  bool owner_is_foster = false;
  PageGuard owner_guard;
  PageId cur = root;
  for (int depth = 0; depth < 64 && owner == kInvalidPageId; ++depth) {
    SPF_ASSIGN_OR_RETURN(PageGuard g, pool_->FixPage(cur, LatchMode::kExclusive));
    BTreeNode node(g.view());
    if (node.has_foster_child() && node.foster_child() == old_pid) {
      owner = cur;
      owner_is_foster = true;
      owner_guard = std::move(g);
      break;
    }
    if (node.has_foster_child() && !probe_neg_inf &&
        !node.CoversKey(probe_key)) {
      cur = node.foster_child();
      continue;
    }
    if (node.is_leaf()) {
      return Status::NotFound("page has no incoming pointer (orphan?)");
    }
    uint16_t slot = probe_neg_inf ? 0 : node.FindChildSlot(probe_key);
    PageId child = node.ChildAt(slot);
    if (child == old_pid) {
      owner = cur;
      owner_is_foster = false;
      owner_guard = std::move(g);
      break;
    }
    cur = child;
  }
  if (owner == kInvalidPageId) {
    return Status::NotFound("owner of page not found");
  }

  SPF_ASSIGN_OR_RETURN(PageGuard victim_guard,
                       pool_->FixPage(old_pid, LatchMode::kExclusive));
  BTreeNode victim(victim_guard.view());
  if (victim.has_foster_child()) {
    return Status::NotSupported("relocating a foster parent: adopt first");
  }

  SPF_ASSIGN_OR_RETURN(PageId new_pid, alloc_->Allocate());
  Transaction* sys = txns_->BeginSystem();

  // New location: format with the victim's full content; the format
  // record is simultaneously the new page's backup (section 5.2.1 "page
  // copies might also remain after a page migration").
  auto new_guard_or = pool_->FixNewPage(new_pid);
  if (!new_guard_or.ok()) {
    alloc_->Free(new_pid);
    txns_->Commit(sys);
    return new_guard_or.status();
  }
  PageGuard new_guard = std::move(new_guard_or).value();
  PageView new_page = new_guard.view();
  new_page.Format(new_pid, victim_guard.view().type());
  std::string content = victim.SerializeContent();
  SPF_RETURN_IF_ERROR(BTreeNode::InitFromContent(new_page, content));
  new_guard.MarkDirty();
  btree_log::FormatBody format;
  format.page_type = static_cast<uint16_t>(new_page.type());
  format.node_content = content;
  LogRecord format_rec;
  format_rec.type = LogRecordType::kPageFormat;
  format_rec.page_id = new_pid;
  format_rec.body = btree_log::Encode(format);
  Lsn format_lsn = sys->LogPage(log_.get(), &format_rec, new_page);
  if (options_.tracking == WriteTrackingMode::kPri) {
    pri_manager_->pri()->RecordBackup(new_pid,
                                      {BackupKind::kFormatRecord, format_lsn});
  }

  // Swap the single incoming pointer.
  owner_guard.MarkDirty();
  btree_log::MigrateBody mig;
  mig.old_child = old_pid;
  mig.new_child = new_pid;
  LogRecord mig_rec;
  mig_rec.type = LogRecordType::kPageMigrate;
  mig_rec.page_id = owner;
  mig_rec.body = btree_log::Encode(mig);
  sys->LogPage(log_.get(), &mig_rec, owner_guard.view());
  BTreeNode owner_node(owner_guard.view());
  if (owner_is_foster) {
    owner_node.ReplaceFosterChild(new_pid);
  } else {
    uint16_t slot = probe_neg_inf ? 0 : owner_node.FindChildSlot(probe_key);
    SPF_CHECK_EQ(owner_node.ChildAt(slot), old_pid);
    owner_node.ReplaceChild(slot, new_pid);
  }

  // Retire the old location: ban it and log the fact. (The id stays
  // allocated so the bad location is never handed out again.)
  LogRecord bad_rec;
  bad_rec.type = LogRecordType::kBadBlock;
  bad_rec.page_id = old_pid;
  sys->Log(log_.get(), &bad_rec);
  bbl_.Add(old_pid);

  SPF_RETURN_IF_ERROR(txns_->Commit(sys));

  victim_guard.Release();
  new_guard.Release();
  owner_guard.Release();
  // Drop the stale frame for the retired location.
  pool_->DiscardPage(old_pid);
  return new_pid;
}

StatsSnapshot Database::Stats() const {
  StatsSnapshot s;
  s.pool = pool_->stats();
  s.spr = spr_->stats();
  s.scheduler = scheduler_->stats();
  s.scrubber = scrubber_->totals();
  if (funnel_ != nullptr) s.funnel = funnel_->totals();
  s.locks = locks_->stats();
  s.log = log_->stats();
  s.archive = archiver_->stats();
  s.restore_admission_waits = restore_gate_->admission_waits();
  if (cross_check_ != nullptr) {
    s.cross_checks = cross_check_->checks();
    s.cross_check_mismatches = cross_check_->mismatches();
  }
  return s;
}

StatusOr<PageId> Database::LeafPageOf(std::string_view key) {
  SPF_ASSIGN_OR_RETURN(PageId cur, tree_->root_pid());
  for (int depth = 0; depth < 64; ++depth) {
    auto guard = pool_->FixPage(cur, LatchMode::kShared);
    if (!guard.ok()) return guard.status();
    BTreeNode node(guard->view());
    if (node.has_foster_child() && !node.CoversKey(key)) {
      cur = node.foster_child();
      continue;
    }
    if (node.is_leaf()) return cur;
    cur = node.ChildAt(node.FindChildSlot(key));
  }
  return Status::Internal("tree too deep");
}

}  // namespace spf
