#include "common/sync.h"
#include "core/recovery_scheduler.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <queue>
#include <thread>
#include <unordered_map>

namespace spf {

// --- worker pool ------------------------------------------------------------

/// Minimal persistent parallel-for pool. One job at a time (the scheduler
/// serializes batches); the coordinating thread participates in the work,
/// so num_workers == 0 degenerates to an inline loop.
///
/// Each job is its own heap object: a worker that wakes late snapshots
/// whatever job_ points to under the mutex, and can only claim indices
/// from THAT job's exhausted counter — never from a newer job — so a
/// laggard neither dereferences a cleared function pointer nor steals
/// work from the next ParallelFor.
class RecoveryScheduler::WorkerPool {
 public:
  explicit WorkerPool(size_t n) {
    threads_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this] { Loop(); });
    }
  }

  ~WorkerPool() {
    {
      MutexLock g(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void ParallelFor(size_t count, const std::function<void(size_t)>& fn) {
    if (threads_.empty() || count <= 1) {
      for (size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->count = count;

    UniqueLock lk(mu_);
    job_ = job;
    generation_++;
    cv_.notify_all();
    lk.Unlock();

    Run(*job);

    lk.Lock();
    while (active_ != 0) done_cv_.wait(lk);
    // `fn` dies with this frame; laggards holding the old job see its
    // counter exhausted and never touch fn again.
  }

 private:
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    std::atomic<size_t> next{0};
  };

  static void Run(Job& job) {
    size_t i;
    while ((i = job.next.fetch_add(1, std::memory_order_relaxed)) <
           job.count) {
      (*job.fn)(i);
    }
  }

  void Loop() {
    uint64_t seen = 0;
    UniqueLock lk(mu_);
    while (true) {
      while (!shutdown_ && generation_ == seen) cv_.wait(lk);
      if (shutdown_) return;
      seen = generation_;
      std::shared_ptr<Job> job = job_;
      active_++;
      lk.Unlock();
      Run(*job);
      lk.Lock();
      if (--active_ == 0) done_cv_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  OrderedMutex mu_{LockRank::kRepairWorkers};
  CondVar cv_;
  CondVar done_cv_;
  /// Current (or most recent) job.
  std::shared_ptr<Job> job_ SPF_GUARDED_BY(mu_);
  uint64_t generation_ SPF_GUARDED_BY(mu_) = 0;
  size_t active_ SPF_GUARDED_BY(mu_) = 0;
  bool shutdown_ SPF_GUARDED_BY(mu_) = false;
};

// --- per-page task ----------------------------------------------------------

struct RecoveryScheduler::PageTask {
  PageId id = kInvalidPageId;
  PriEntry entry;
  std::unique_ptr<char[]> frame;
  Lsn backup_lsn = kInvalidLsn;       ///< PageLSN of the loaded backup image
  std::vector<LogRecord> chain;       ///< collected descending (LIFO stack)
  Lsn next_lsn = kInvalidLsn;         ///< walk cursor (descending)
  SinglePageRecoveryStats acc;        ///< batch-local counters
  Status status;                      ///< first error, if any
  bool done = false;                  ///< no further phases needed

  void Fail(Status s) {
    if (status.ok()) status = std::move(s);
    done = true;
  }

  /// Sets the chain-walk cursor once `frame` holds the backup image whose
  /// PageLSN is `backup`. A page not updated since that image skips the
  /// walk entirely.
  void SetChainTarget(Lsn backup) {
    backup_lsn = backup;
    if (entry.last_lsn == kInvalidLsn || entry.last_lsn <= backup) {
      next_lsn = kInvalidLsn;
    } else {
      next_lsn = entry.last_lsn;
    }
  }
};

// --- scheduler --------------------------------------------------------------

RecoveryScheduler::RecoveryScheduler(SinglePageRecovery* spr,
                                     RecoverySchedulerOptions options)
    : spr_(spr), options_(options) {}

RecoveryScheduler::~RecoveryScheduler() = default;

Status RecoveryScheduler::RepairPage(PageId id, char* frame) {
  {
    MutexLock g(stats_mu_);
    stats_.single_repairs++;
  }
  // A batch of one on the calling thread. It takes neither batch_mu_ nor
  // the worker pool: the funnel worker re-enters here mid-ladder, and a
  // reader holding a frame latch must not queue behind a whole batch.
  std::vector<PageTask> tasks(1);
  tasks[0].id = id;
  tasks[0].acc.repairs_attempted++;
  BatchRepairResult result = RepairBatched(&tasks, /*workers=*/nullptr);
  if (result.failed != 0) return result.failures.front().status;
  std::memcpy(frame, tasks[0].frame.get(), spr_->page_size());
  return Status::OK();
}

RecoverySchedulerStats RecoveryScheduler::stats() const {
  MutexLock g(stats_mu_);
  return stats_;
}

void RecoveryScheduler::ResetStats() {
  MutexLock g(stats_mu_);
  stats_ = RecoverySchedulerStats();
}

std::vector<RecoveryScheduler::PageTask> RecoveryScheduler::PrepareBatch(
    std::vector<PageId>* pages) {
  std::sort(pages->begin(), pages->end());
  pages->erase(std::unique(pages->begin(), pages->end()), pages->end());

  std::vector<PageTask> tasks(pages->size());
  for (size_t i = 0; i < pages->size(); ++i) {
    tasks[i].id = (*pages)[i];
    tasks[i].acc.repairs_attempted++;
  }

  MutexLock g(stats_mu_);
  stats_.batches++;
  stats_.pages_requested += pages->size();
  return tasks;
}

RecoveryScheduler::WorkerPool* RecoveryScheduler::BatchWorkers() {
  // Spawn the worker threads on first batch only: most Database
  // instances (tests, crash/restart cycles) never repair a batch.
  if (workers_ == nullptr) {
    workers_ = std::make_unique<WorkerPool>(options_.num_workers);
  }
  return workers_.get();
}

void RecoveryScheduler::ForEach(WorkerPool* workers, size_t count,
                                const std::function<void(size_t)>& fn) {
  if (workers == nullptr) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  workers->ParallelFor(count, fn);
}

StatusOr<BatchRepairResult> RecoveryScheduler::RepairBatch(
    std::vector<PageId> pages) {
  return RepairBatchImpl(std::move(pages), /*notify_sink=*/true);
}

StatusOr<BatchRepairResult> RecoveryScheduler::RepairBatchNoEscalation(
    std::vector<PageId> pages) {
  return RepairBatchImpl(std::move(pages), /*notify_sink=*/false);
}

void RecoveryScheduler::SetEscalationSink(
    std::function<void(std::vector<PageId>)> sink) {
  escalation_sink_ = std::move(sink);
}

StatusOr<BatchRepairResult> RecoveryScheduler::RepairBatchImpl(
    std::vector<PageId> pages, bool notify_sink) {
  BatchRepairResult result;
  {
    MutexLock batch_guard(batch_mu_);

    std::vector<PageTask> tasks = PrepareBatch(&pages);
    result = RepairBatched(&tasks, BatchWorkers());

    MutexLock g(stats_mu_);
    stats_.pages_repaired += result.repaired;
    stats_.pages_failed += result.failed;
  }
  // Sink outside batch_mu_: the funnel's drain may start another batch.
  if (notify_sink && escalation_sink_ != nullptr && !result.failures.empty()) {
    std::vector<PageId> unhealed;
    unhealed.reserve(result.failures.size());
    for (const PageRepairOutcome& f : result.failures) {
      unhealed.push_back(f.page_id);
    }
    escalation_sink_(std::move(unhealed));
  }
  return result;
}

StatusOr<BatchRepairResult> RecoveryScheduler::RepairBatchFromBackup(
    std::vector<PageId> pages, BackupId backup,
    PartialRestoreBreakdown* breakdown) {
  MutexLock batch_guard(batch_mu_);

  std::vector<PageTask> tasks = PrepareBatch(&pages);
  BatchRepairResult result =
      RestoreBatched(&tasks, backup, breakdown, BatchWorkers());

  {
    MutexLock g(stats_mu_);
    stats_.partial_restores++;
    stats_.pages_repaired += result.repaired;
    stats_.pages_failed += result.failed;
  }
  return result;
}

void RecoveryScheduler::LookupPhase(std::vector<PageTask>* tasks,
                                    bool anchor_only) {
  const uint32_t page_size = spr_->page_size();
  for (PageTask& task : *tasks) {
    auto entry_or = anchor_only ? spr_->LookupChainAnchor(task.id)
                                : spr_->LookupEntry(task.id);
    if (!entry_or.ok()) {
      task.Fail(entry_or.status());
      continue;
    }
    task.entry = *entry_or;
    task.frame = std::make_unique<char[]>(page_size);
  }
}

BatchRepairResult RecoveryScheduler::RepairBatched(
    std::vector<PageTask>* tasks, WorkerPool* workers) {
  SimTimer timer(spr_->clock());
  const uint32_t page_size = spr_->page_size();

  // --- phase 0: PRI lookups (in-memory) -------------------------------------
  LookupPhase(tasks, /*anchor_only=*/false);

  // --- phase 1: backup loads, grouped by backup source ----------------------
  // Pages restored from the same source are read in ascending location
  // order (for a full backup that is page-id order — sequential backup
  // I/O, a partial restore). Groups fan out across the worker pool; each
  // group runs in order on one worker to keep its access pattern.
  std::vector<size_t> order;
  for (size_t i = 0; i < tasks->size(); ++i) {
    if (!(*tasks)[i].done) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const PriEntry& ea = (*tasks)[a].entry;
    const PriEntry& eb = (*tasks)[b].entry;
    if (ea.backup.kind != eb.backup.kind) return ea.backup.kind < eb.backup.kind;
    if (ea.backup.value != eb.backup.value) return ea.backup.value < eb.backup.value;
    return (*tasks)[a].id < (*tasks)[b].id;
  });
  std::vector<std::vector<size_t>> groups;
  for (size_t idx : order) {
    const BackupRef& ref = (*tasks)[idx].entry.backup;
    // Pages restored from the SAME full backup stay in one group (in-order
    // reads are sequential, a partial restore); every other backup kind is
    // an independent point read, so each page fans out as its own group.
    bool join = !groups.empty() && ref.kind == BackupKind::kFullBackup;
    if (join) {
      const BackupRef& prev = (*tasks)[groups.back().back()].entry.backup;
      join = prev.kind == ref.kind && prev.value == ref.value;
    }
    if (!join) groups.emplace_back();
    groups.back().push_back(idx);
  }
  ForEach(workers, groups.size(), [&](size_t g) {
    for (size_t idx : groups[g]) {
      PageTask& task = (*tasks)[idx];
      Status s = spr_->LoadBackupImage(task.id, task.entry, task.frame.get(),
                                       &task.acc);
      if (!s.ok()) {
        task.Fail(std::move(s));
        continue;
      }
      task.SetChainTarget(PageView(task.frame.get(), page_size).page_lsn());
    }
  });
  {
    MutexLock g(stats_mu_);
    stats_.backup_groups += groups.size();
  }

  // --- phase 2: coordinated chain walk over shared log segments -------------
  WalkClusters(tasks, nullptr);

  // --- phase 3: apply chains + verify + heal, fanned out --------------------
  ApplyPhase(tasks, workers);

  return CollectOutcomes(tasks, timer);
}

BatchRepairResult RecoveryScheduler::RestoreBatched(
    std::vector<PageTask>* tasks, BackupId backup,
    PartialRestoreBreakdown* breakdown, WorkerPool* workers) {
  SimTimer timer(spr_->clock());
  const uint32_t page_size = spr_->page_size();
  PartialRestoreBreakdown local;
  PartialRestoreBreakdown* bd = breakdown != nullptr ? breakdown : &local;

  LookupPhase(tasks, /*anchor_only=*/true);

  // --- restore phase: sequential range reads of the damaged set -------------
  // Any per-page reference (individual copy, in-log image, format record)
  // is NEWER than the full backup — the index collapses to kFullBackup at
  // every OnFullBackup — and for a page born after the backup it is the
  // ONLY valid source: the page's full-backup slot holds pre-birth bytes.
  // Those load per-page. Pages still covered by the backup (kFullBackup)
  // and pages whose reference was LOST (kNone — where RepairBatch has to
  // escalate) take the sequential range read of the full backup.
  SimTimer restore_timer(spr_->clock());
  std::vector<size_t> from_backup;
  std::vector<size_t> from_per_page;
  for (size_t i = 0; i < tasks->size(); ++i) {
    if ((*tasks)[i].done) continue;
    BackupKind kind = (*tasks)[i].entry.backup.kind;
    if (kind == BackupKind::kFullBackup || kind == BackupKind::kNone) {
      from_backup.push_back(i);
    } else {
      from_per_page.push_back(i);
    }
  }
  if (!from_backup.empty()) {
    // Tasks are in ascending id order (PrepareBatch sorted the pages), so
    // the backup is read in one ascending pass of sequential runs. Runs
    // one thread: fanning ranges out would break the access pattern.
    std::vector<PageId> ids;
    std::vector<char*> frames;
    for (size_t idx : from_backup) {
      ids.push_back((*tasks)[idx].id);
      frames.push_back((*tasks)[idx].frame.get());
    }
    auto runs_or =
        spr_->backups()->ReadPagesFromFullBackup(backup, ids, frames.data());
    if (!runs_or.ok()) {
      for (size_t idx : from_backup) (*tasks)[idx].Fail(runs_or.status());
    } else {
      bd->backup_runs += *runs_or;
      for (size_t idx : from_backup) {
        PageTask& task = (*tasks)[idx];
        task.acc.backup_reads++;
        task.acc.last_backup_kind = BackupKind::kFullBackup;
        PageView page(task.frame.get(), page_size);
        Status s = page.Verify(task.id);
        if (!s.ok()) {
          task.Fail(std::move(s));
          continue;
        }
        bd->backup_pages_loaded++;
        task.SetChainTarget(page.page_lsn());
      }
    }
  }
  if (!from_per_page.empty()) {
    ForEach(workers, from_per_page.size(), [&](size_t i) {
      PageTask& task = (*tasks)[from_per_page[i]];
      Status s = spr_->LoadBackupImage(task.id, task.entry, task.frame.get(),
                                       &task.acc);
      if (!s.ok()) {
        task.Fail(std::move(s));
        return;
      }
      task.SetChainTarget(PageView(task.frame.get(), page_size).page_lsn());
    });
    for (size_t idx : from_per_page) {
      if ((*tasks)[idx].status.ok()) bd->per_page_loads++;
    }
  }
  bd->restore_sim_seconds = restore_timer.ElapsedSeconds();

  // --- replay phase: shared-segment cluster walk + apply + heal -------------
  SimTimer replay_timer(spr_->clock());
  WalkClusters(tasks, &bd->segment_fetches);
  ApplyPhase(tasks, workers);
  bd->replay_sim_seconds = replay_timer.ElapsedSeconds();

  BatchRepairResult result = CollectOutcomes(tasks, timer);
  for (const PageTask& task : *tasks) {
    bd->records_applied += task.acc.log_records_applied;
  }
  return result;
}

size_t RecoveryScheduler::WalkClusters(std::vector<PageTask>* tasks,
                                       uint64_t* fetches) {
  // Cluster pages whose chain ranges (backup_lsn, target] overlap; each
  // cluster is walked once, popping records in descending LSN order so
  // every shared log segment is fetched exactly once.
  struct Range {
    Lsn lo, hi;
    size_t idx;
  };
  std::vector<Range> ranges;
  for (size_t i = 0; i < tasks->size(); ++i) {
    PageTask& task = (*tasks)[i];
    if (task.done || task.next_lsn == kInvalidLsn) continue;
    Lsn lo = task.backup_lsn == kInvalidLsn ? 0 : task.backup_lsn;
    ranges.push_back({lo, task.entry.last_lsn, i});
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.lo < b.lo; });
  size_t cluster_count = 0;
  uint64_t total_fetches = 0;
  size_t pos = 0;
  while (pos < ranges.size()) {
    std::vector<size_t> members{ranges[pos].idx};
    Lsn hi = ranges[pos].hi;
    size_t end = pos + 1;
    while (end < ranges.size() && ranges[end].lo <= hi) {
      hi = std::max(hi, ranges[end].hi);
      members.push_back(ranges[end].idx);
      end++;
    }
    total_fetches += WalkCluster(tasks, members);
    cluster_count++;
    pos = end;
  }
  if (fetches != nullptr) *fetches += total_fetches;
  {
    MutexLock g(stats_mu_);
    stats_.chain_clusters += cluster_count;
    stats_.segment_fetches += total_fetches;
  }
  return cluster_count;
}

void RecoveryScheduler::ApplyPhase(std::vector<PageTask>* tasks,
                                   WorkerPool* workers) {
  ForEach(workers, tasks->size(), [&](size_t i) {
    PageTask& task = (*tasks)[i];
    if (task.done) return;
    Status s = spr_->ApplyChain(&task.chain, task.frame.get(), &task.acc);
    if (s.ok()) {
      s = spr_->FinishRepair(task.id, task.entry, task.frame.get(),
                             &task.acc);
    }
    if (!s.ok()) task.Fail(std::move(s));
  });
}

BatchRepairResult RecoveryScheduler::CollectOutcomes(
    std::vector<PageTask>* tasks, const SimTimer& timer) {
  // The batch shares one clock, so per-page timing is not separable;
  // publish the amortized per-page cost as the last-repair snapshot.
  BatchRepairResult result;
  uint64_t succeeded = 0;
  for (const PageTask& task : *tasks) {
    if (task.status.ok()) succeeded++;
  }
  uint64_t per_page_ns = succeeded > 0 ? timer.ElapsedNanos() / succeeded : 0;
  for (PageTask& task : *tasks) {
    if (task.status.ok()) {
      result.repaired++;
      spr_->NoteLastRepair(task.acc.last_chain_length, per_page_ns,
                           task.acc.last_backup_kind);
    } else {
      result.failed++;
      task.acc.escalations++;
      result.failures.push_back(
          {task.id, SinglePageRecovery::Escalate(task.id, task.status)});
    }
    spr_->MergeStats(task.acc, task.id);
  }
  return result;
}

uint64_t RecoveryScheduler::WalkCluster(std::vector<PageTask>* tasks,
                                        const std::vector<size_t>& members) {
  // Snapshot the archive watermark once per cluster: it only advances, so
  // every chain pointer below it is guaranteed to be in a published run.
  const Lsn archived_upto =
      archive_ != nullptr ? archive_->archived_upto() : 0;
  // Per-member newest archived chain LSN, kInvalidLsn while the walk is
  // still in the tail. Set when a chain pointer drops below the watermark;
  // the archived remainder is fetched in one batch after the heap drains.
  std::vector<Lsn> archived_hi(members.size(), kInvalidLsn);

  // Max-heap over every member's next chain pointer: records pop in
  // globally descending LSN order, so the segment reader's window slides
  // monotonically backward through the log and fetches each segment once.
  using HeapItem = std::pair<Lsn, size_t>;  // (next lsn, member position)
  std::priority_queue<HeapItem> heap;
  for (size_t m = 0; m < members.size(); ++m) {
    PageTask& task = (*tasks)[members[m]];
    if (task.done || task.next_lsn == kInvalidLsn) continue;
    if (task.next_lsn < archived_upto) {
      archived_hi[m] = task.next_lsn;
    } else {
      heap.push({task.next_lsn, m});
    }
  }

  LogSegmentReader reader(spr_->log(), options_.log_segment_bytes);
  while (!heap.empty()) {
    auto [lsn, m] = heap.top();
    heap.pop();
    PageTask& task = (*tasks)[members[m]];
    if (task.done) continue;
    auto rec_or = reader.Read(lsn);
    if (!rec_or.ok()) {
      task.Fail(rec_or.status());
      continue;
    }
    LogRecord rec = std::move(rec_or).value();
    if (rec.page_id != task.id) {
      task.Fail(Status::Corruption("per-page chain contains foreign record"));
      continue;
    }
    Lsn prev = rec.page_prev_lsn;
    task.chain.push_back(std::move(rec));
    if (prev != kInvalidLsn && prev > task.backup_lsn) {
      if (prev < archived_upto) {
        archived_hi[m] = prev;  // leave the tail; finish from sorted runs
      } else {
        heap.push({prev, m});
      }
    } else if (prev != task.backup_lsn && prev != kInvalidLsn) {
      task.Fail(
          Status::Corruption("per-page chain does not reach the backup"));
    }
  }

  uint64_t archive_pages = 0;
  FetchArchivedChains(tasks, members, archived_hi, &archive_pages);

  // Attribute the shared segment fetches (and the cluster's archive range
  // fetch) to the cluster's first member's accumulator (the aggregate is
  // what the counters are for).
  if (!members.empty()) {
    (*tasks)[members.front()].acc.log_reads += reader.segment_fetches();
    (*tasks)[members.front()].acc.archive_reads += archive_pages;
  }
  return reader.segment_fetches();
}

void RecoveryScheduler::FetchArchivedChains(
    std::vector<PageTask>* tasks, const std::vector<size_t>& members,
    const std::vector<Lsn>& archived_hi, uint64_t* archive_pages) {
  // Completes every cluster member whose chain walk crossed the archive
  // watermark: ONE k-way range fetch over the sorted runs covers the whole
  // cluster's archived remainders — the run store's analogue of the shared
  // segment reads above.
  std::unordered_map<PageId, size_t> want;  // page id -> member position
  PageId lo = kInvalidPageId, hi = 0;
  Lsn min_ex = kInvalidLsn;
  for (size_t m = 0; m < members.size(); ++m) {
    if (archived_hi[m] == kInvalidLsn) continue;
    PageTask& task = (*tasks)[members[m]];
    if (task.done) continue;
    want.emplace(task.id, m);
    lo = std::min(lo, task.id);
    hi = std::max(hi, task.id);
    min_ex = min_ex == kInvalidLsn ? task.backup_lsn
                                   : std::min(min_ex, task.backup_lsn);
  }
  if (want.empty()) return;
  SPF_CHECK(archive_ != nullptr) << "archived chain without an archive";

  // Run-major emission in log order means each page's records arrive
  // ascending by LSN.
  std::vector<std::vector<LogRecord>> got(members.size());
  auto pages_or = archive_->FetchRange(
      lo, hi, min_ex, [&](LogRecord&& rec) {
        auto it = want.find(rec.page_id);
        if (it == want.end()) return;  // foreign page caught in the range
        const size_t m = it->second;
        const PageTask& task = (*tasks)[members[m]];
        if (rec.lsn > task.backup_lsn && rec.lsn <= archived_hi[m]) {
          got[m].push_back(std::move(rec));
        }
      });
  if (!pages_or.ok()) {
    for (const auto& [id, m] : want) {
      (void)id;
      (*tasks)[members[m]].Fail(pages_or.status());
    }
    return;
  }
  *archive_pages += pages_or.value();

  for (const auto& [id, m] : want) {
    (void)id;
    PageTask& task = (*tasks)[members[m]];
    std::vector<LogRecord>& recs = got[m];
    if (recs.empty() || recs.back().lsn != archived_hi[m]) {
      task.Fail(Status::Corruption(
          "archived per-page chain is missing its newest record"));
      continue;
    }
    const Lsn anchor = recs.front().page_prev_lsn;
    if (anchor != task.backup_lsn && anchor != kInvalidLsn) {
      task.Fail(
          Status::Corruption("per-page chain does not reach the backup"));
      continue;
    }
    // task.chain is newest-first; the archived records are older than
    // everything already collected, so append them reversed.
    for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
      task.chain.push_back(std::move(*it));
    }
  }

  MutexLock g(stats_mu_);
  stats_.archive_fetches++;
}

}  // namespace spf
