#include "chaos/chaos_driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/random.h"

namespace spf {
namespace chaos {

namespace {

constexpr uint32_t kMaxAttemptsPerTxn = 4000;

std::string Ordinal(uint64_t i, size_t width) {
  std::string s(width, '0');
  for (size_t p = width; p-- > 0 && i != 0; i /= 10) {
    s[p] = char('0' + i % 10);
  }
  return s;
}

}  // namespace

std::string SeedKey(uint64_t i) { return "seed" + Ordinal(i, 8); }

std::string WriterKey(uint32_t writer, uint64_t i) {
  return "w" + Ordinal(writer, 2) + "-" + Ordinal(i, 6);
}

std::string HotKey(uint64_t i) { return "hot" + Ordinal(i, 4); }

/// One deterministic transaction plan (retried unchanged until acked).
struct ChaosDriver::Plan {
  struct Op {
    bool del = false;
    std::string key;
    std::string value;
  };
  uint32_t writer = 0;
  uint32_t txn_index = 0;
  bool contended = false;  ///< single hot-key Put under hot_mu_
  bool use_batch = false;  ///< apply ops as one WriteBatch
  bool do_scan = false;    ///< verify the whole private range first
  std::string probe_key;   ///< read-check target (own range)
  std::vector<Op> ops;
};

ChaosDriver::ChaosDriver(ChaosSchedule schedule)
    : sched_(std::move(schedule)) {}

void ChaosDriver::AddViolation(std::string what) {
  MutexLock g(violations_mu_);
  if (verbose_) std::fprintf(stderr, "[chaos] VIOLATION: %s\n", what.c_str());
  if (violations_.size() < 200) violations_.push_back(std::move(what));
}

void ChaosDriver::Note(const std::string& what) {
  if (verbose_) std::fprintf(stderr, "[chaos] %s\n", what.c_str());
}

StatusOr<PageId> ChaosDriver::PageOfSeedKey(uint64_t ordinal) {
  return db_->LeafPageOf(SeedKey(ordinal % sched_.seed_records));
}

// --- writer side -------------------------------------------------------------

ChaosDriver::Plan ChaosDriver::MakePlan(Random* rng, uint32_t writer,
                                        uint32_t txn_index,
                                        const ShadowMap& shadow) const {
  Plan p;
  p.writer = writer;
  p.txn_index = txn_index;
  if (sched_.contended_keys > 0 &&
      rng->Uniform(100) < sched_.contended_pct) {
    p.contended = true;
    Plan::Op op;
    op.key = HotKey(rng->Uniform(sched_.contended_keys));
    op.value = rng->NextString(sched_.value_len);
    p.ops.push_back(std::move(op));
    return p;
  }
  p.use_batch = rng->Uniform(100) < sched_.batch_pct;
  p.do_scan = sched_.scan_every != 0 && txn_index != 0 &&
              txn_index % sched_.scan_every == 0;
  p.probe_key = WriterKey(writer, rng->Uniform(sched_.keys_per_writer));
  // Deletes target keys that will be present at execution time: presence
  // is tracked through the plan itself on top of the committed shadow,
  // so a plan never stages an op that must fail (kUser) — every plan is
  // committable, which is what makes retry-until-acked converge.
  std::map<std::string, bool> overlay;
  for (uint32_t i = 0; i < sched_.ops_per_txn; ++i) {
    Plan::Op op;
    op.key = WriterKey(writer, rng->Uniform(sched_.keys_per_writer));
    auto it = overlay.find(op.key);
    const bool present = it != overlay.end() ? it->second : shadow.Has(op.key);
    op.del = present && rng->Uniform(100) < sched_.delete_pct;
    if (!op.del) op.value = rng->NextString(sched_.value_len);
    overlay[op.key] = !op.del;
    p.ops.push_back(std::move(op));
  }
  return p;
}

bool ChaosDriver::AttemptPlan(const Plan& plan, ShadowMap* shadow) {
  Txn txn = db_->BeginTxn();
  if (!txn.active()) return false;

  if (!plan.contended) {
    // Online byte-identity read check: a locked read of an own-range key
    // must return exactly the committed shadow value (or NotFound).
    const std::string* want = shadow->Find(plan.probe_key);
    StatusOr<std::string> got = txn.Get(plan.probe_key);
    if (got.ok()) {
      if (want == nullptr) {
        AddViolation("read-check: deleted key resurrected: " +
                     plan.probe_key + " = '" + *got + "'");
      } else if (*got != *want) {
        AddViolation("read-check: wrong bytes for " + plan.probe_key +
                     ": got '" + *got + "' want '" + *want + "'");
      }
    } else if (got.status().IsNotFound()) {
      if (want != nullptr) {
        AddViolation("read-check: committed key lost: " + plan.probe_key);
      }
    } else {
      return false;  // transient (repair/restore/timeout): retry the plan
    }

    if (plan.do_scan) {
      // The private range scan must deliver exactly the shadow, in order.
      auto it = shadow->entries().begin();
      const auto end = shadow->entries().end();
      bool mismatch = false;
      Status s = txn.Scan(
          WriterKey(plan.writer, 0), "w" + Ordinal(plan.writer, 2) + ".",
          [&](std::string_view k, std::string_view v) {
            if (it == end || it->first != k || it->second != v) {
              mismatch = true;
              return false;
            }
            ++it;
            return true;
          });
      if (!s.ok()) return false;  // transient: retry
      if (mismatch || it != end) {
        AddViolation("scan divergence in w" + Ordinal(plan.writer, 2) +
                     " txn " + std::to_string(plan.txn_index));
      }
    }
  }

  if (plan.use_batch) {
    WriteBatch batch;
    for (const Plan::Op& op : plan.ops) {
      if (op.del) {
        batch.Delete(op.key);
      } else {
        batch.Put(op.key, op.value);
      }
    }
    if (!txn.Apply(std::move(batch)).ok()) return false;
  } else {
    for (const Plan::Op& op : plan.ops) {
      TxnError e = op.del ? txn.Delete(op.key) : txn.Put(op.key, op.value);
      if (!e.ok()) return false;
    }
  }

  if (!txn.Commit().ok()) return false;

  for (const Plan::Op& op : plan.ops) {
    if (op.del) {
      shadow->Delete(op.key);
    } else {
      shadow->Put(op.key, op.value);
    }
  }
  ProbeLockLeak(plan);
  return true;
}

void ChaosDriver::ProbeLockLeak(const Plan& plan) {
  // RAII accounting check after retirement: Commit released everything,
  // so no key this transaction touched may still be tracked. Key ranges
  // are private (and hot attempts hold hot_mu_), so a hit is a leak, not
  // a neighbor's lock.
  LockManager* lm = db_->txns()->lock_manager();
  for (const Plan::Op& op : plan.ops) {
    if (lm->IsLocked(op.key)) {
      AddViolation("lock leaked after retirement: " + op.key);
    }
  }
  if (!plan.probe_key.empty() && lm->IsLocked(plan.probe_key)) {
    AddViolation("lock leaked after retirement (read): " + plan.probe_key);
  }
}

void ChaosDriver::MaybePark(uint32_t writer) {
  (void)writer;
  UniqueLock g(mu_);
  while (pause_) {
    parked_++;
    cv_.notify_all();
    while (pause_) cv_.wait(g);
    parked_--;
  }
}

void ChaosDriver::WriterBody(uint32_t writer) {
  Random rng(sched_.seed * 0x9E3779B97F4A7C15ull +
             (writer + 1) * 0xD1B54A32D192ED03ull);
  ShadowMap& shadow = writer_shadows_[writer];
  for (uint32_t t = 0; t < sched_.txns_per_writer && !abort_.load(); ++t) {
    Plan plan = MakePlan(&rng, writer, t, shadow);
    bool acked = false;
    for (uint32_t attempt = 0; attempt < kMaxAttemptsPerTxn; ++attempt) {
      MaybePark(writer);
      if (abort_.load()) break;
      if (plan.contended) {
        MutexLock g(hot_mu_);
        acked = AttemptPlan(plan, &hot_shadow_);
      } else {
        acked = AttemptPlan(plan, &shadow);
      }
      if (acked) break;
      if (attempt % 8 == 7) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (!acked) {
      if (!abort_.load()) {
        AddViolation("writer " + std::to_string(writer) + " starved at txn " +
                     std::to_string(t));
      }
      break;
    }
    acked_total_.fetch_add(1);
  }
  MutexLock g(mu_);
  finished_++;
  cv_.notify_all();
}

// --- driver side -------------------------------------------------------------

void ChaosDriver::RequestPause() {
  UniqueLock g(mu_);
  pause_ = true;
  while (parked_ + finished_ < sched_.writers) cv_.wait(g);
}

void ChaosDriver::ReleasePause() {
  MutexLock g(mu_);
  pause_ = false;
  cv_.notify_all();
}

bool ChaosDriver::AllWritersDone() {
  MutexLock g(mu_);
  return finished_ >= sched_.writers;
}

void ChaosDriver::RestartDaemons() {
  if (sched_.scrubber) db_->scrubber()->Start();
  if (sched_.archiver) db_->archiver()->Start();
}

void ChaosDriver::CrashAndRestart() {
  // SimulateCrash must not race data operations: writers are parked (the
  // caller holds the pause barrier) and the background daemons are
  // stopped/drained here before the volatile state is torn down.
  if (db_->scrubber()->running()) db_->scrubber()->Stop();
  if (db_->archiver()->running()) db_->archiver()->Stop();
  if (db_->funnel() != nullptr) db_->funnel()->WaitIdle();
  monotonicity_.NoteReset();
  db_->SimulateCrash();
  auto rs = db_->Restart();
  if (!rs.ok()) {
    AddViolation("restart failed: " + rs.status().ToString());
    abort_.store(true);
    return;
  }
  RestartDaemons();
}

void ChaosDriver::NeutralizeWornPages() {
  for (PageId pid : worn_pages_) {
    // Retire the worn location (the paper's section 5.2.3 move) or, when
    // relocation is unsupported for this node, lift the wear budget and
    // repair whatever the last scrambled write left on the device.
    auto moved = db_->RelocatePage(pid);
    db_->data_device()->ClearFault(pid);  // drops the wear budget
    if (!moved.ok()) {
      auto r = db_->RecoverPages({pid});
      if (!r.ok()) {
        AddViolation("worn page " + std::to_string(pid) +
                     " unrecoverable: " + r.status().ToString());
      }
    }
  }
  worn_pages_.clear();
}

void ChaosDriver::ShadowSweepPaused() {
  auto check = [&](const std::string& key, const std::string* want,
                   const char* space) {
    StatusOr<std::string> got = db_->Get(key);
    if (got.ok()) {
      if (want == nullptr) {
        AddViolation(std::string("sweep(") + space +
                     "): deleted key resurrected: " + key);
      } else if (*got != *want) {
        AddViolation(std::string("sweep(") + space + "): wrong bytes for " +
                     key + ": got '" + *got + "' want '" + *want + "'");
      }
    } else if (got.status().IsNotFound()) {
      if (want != nullptr) {
        AddViolation(std::string("sweep(") + space +
                     "): committed key lost: " + key);
      }
    } else {
      AddViolation(std::string("sweep(") + space + "): read of " + key +
                   " failed: " + got.status().ToString());
    }
  };
  for (uint64_t i = 0; i < sched_.seed_records; ++i) {
    std::string key = SeedKey(i);
    check(key, seed_shadow_.Find(key), "seed");
  }
  for (uint32_t w = 0; w < sched_.writers; ++w) {
    for (uint64_t i = 0; i < sched_.keys_per_writer; ++i) {
      std::string key = WriterKey(w, i);
      check(key, writer_shadows_[w].Find(key), "writer");
    }
  }
  for (uint64_t i = 0; i < sched_.contended_keys; ++i) {
    std::string key = HotKey(i);
    check(key, hot_shadow_.Find(key), "hot");
  }
}

void ChaosDriver::QuiescePaused() {
  NeutralizeWornPages();
  Status flush = db_->FlushAll();
  if (!flush.ok()) {
    AddViolation("quiesce flush failed: " + flush.ToString());
  }
  if (db_->funnel() != nullptr) db_->funnel()->WaitIdle();
  auto scrub = db_->Scrub();
  if (!scrub.ok()) {
    AddViolation("quiesce scrub failed: " + scrub.status().ToString());
  }
  if (db_->funnel() != nullptr) db_->funnel()->WaitIdle();

  StatsSnapshot s = db_->Stats();
  for (auto& v : monotonicity_.Check(s)) AddViolation(std::move(v));
  if (db_->funnel() != nullptr) {
    for (auto& v : CheckFunnelConservation(s.funnel)) AddViolation(std::move(v));
  }
  // Trivially clean on a db-only snapshot (all-zero server block), but a
  // future serving-layer chaos scenario inherits the law for free.
  for (auto& v : CheckServerConservation(s.server)) AddViolation(std::move(v));
  if (s.locks.keys_tracked != 0) {
    AddViolation("lock leak at quiesce: keys_tracked=" +
                 std::to_string(s.locks.keys_tracked));
  }
  if (sched_.archiver) {
    for (auto& v : CheckArchiveTiling(db_->archiver()->runs(),
                                      db_->archiver()->archived_upto())) {
      AddViolation(std::move(v));
    }
  }
  ShadowSweepPaused();
  uint64_t pages_checked = 0;
  Status off = db_->CheckOffline(&pages_checked);
  if (!off.ok()) {
    AddViolation("CheckOffline failed at quiesce: " + off.ToString());
  }
}

void ChaosDriver::FireEvent(const ChaosEvent& e) {
  Note(std::string("event at=") + std::to_string(e.at) + " " +
       EventKindName(e.kind));
  switch (e.kind) {
    case EventKind::kCorrupt:
    case EventKind::kReadError:
    case EventKind::kWearOut: {
      auto pid = PageOfSeedKey(e.key);
      if (!pid.ok()) return;  // page unresolvable mid-fault; skip
      if (e.kind == EventKind::kWearOut) {
        db_->data_device()->SetWearOutLimit(*pid, uint32_t(e.writes));
        worn_pages_.push_back(*pid);
      }
      if (e.kind == EventKind::kReadError) {
        db_->data_device()->InjectReadError(*pid, /*permanent=*/false);
      } else if (!db_->pool()->IsDirty(*pid) && db_->pool()->DiscardPage(*pid)) {
        db_->data_device()->InjectSilentCorruption(*pid);
      }
      // Trigger detection through the read path; the funnel (or the
      // inline repairer) must hand back the exact seed bytes.
      std::string key = SeedKey(e.key % sched_.seed_records);
      const std::string* want = seed_shadow_.Find(key);
      StatusOr<std::string> got = db_->Get(key);
      for (int i = 0; i < 2 && !got.ok(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        got = db_->Get(key);
      }
      if (!got.ok()) {
        AddViolation("seed key unreadable after injected fault: " + key +
                     ": " + got.status().ToString());
      } else if (want == nullptr || *got != *want) {
        AddViolation("seed key diverged after repair: " + key);
      }
      return;
    }
    case EventKind::kFailRange: {
      auto pid = PageOfSeedKey(e.key);
      if (!pid.ok()) return;
      uint64_t count =
          std::min<uint64_t>(std::max<uint64_t>(e.count, 1),
                             db_->options().num_pages - *pid);
      db_->data_device()->FailPageRange(*pid, count);
      (void)db_->Get(SeedKey(e.key % sched_.seed_records));
      return;  // the rest of the range heals via scrubber/funnel/quiesce
    }
    case EventKind::kStaleCapture: {
      auto pid = db_->LeafPageOf(HotKey(e.key % sched_.contended_keys));
      if (!pid.ok()) return;
      db_->data_device()->CapturePageVersion(*pid);
      stale_pages_[e.key] = *pid;
      return;
    }
    case EventKind::kStaleRevert: {
      auto it = stale_pages_.find(e.key);
      if (it == stale_pages_.end()) return;  // capture never resolved
      PageId pid = it->second;
      if (!db_->pool()->IsDirty(pid)) db_->pool()->DiscardPage(pid);
      db_->data_device()->InjectStaleVersion(pid);
      // Unlocked read to trigger the PageLSN cross-check; the value is
      // NOT verified here (hot keys change under live commits) — the
      // quiesce sweep owns that comparison.
      (void)db_->Get(HotKey(e.key % sched_.contended_keys));
      return;
    }
    case EventKind::kFullRestore:
    case EventKind::kBackToBackRestore: {
      int rounds = e.kind == EventKind::kBackToBackRestore ? 2 : 1;
      for (int i = 0; i < rounds; ++i) {
        db_->data_device()->FailDevice();
        auto r = db_->RecoverMedia();
        if (!r.ok()) {
          AddViolation("live full restore failed: " + r.status().ToString());
          abort_.store(true);
          return;
        }
      }
      return;
    }
    case EventKind::kCrash: {
      RequestPause();
      CrashAndRestart();
      if (!abort_.load()) ShadowSweepPaused();
      ReleasePause();
      return;
    }
    case EventKind::kCrashDuringRestart: {
      RequestPause();
      // With the restart sweep held, every planned page still owes redo
      // once the first restart returns. Reading every other seed key
      // redoes about half of them on load; the second crash then lands
      // on a half-redone database (and stops the held sweep), and the
      // second restart must plan the rest again from the old checkpoint.
      db_->restart_sweep()->Pause();
      CrashAndRestart();
      if (!abort_.load()) {
        for (uint64_t i = 0; i < sched_.seed_records; i += 2) {
          (void)db_->Get(SeedKey(i));
        }
        CrashAndRestart();
      }
      db_->restart_sweep()->Resume();
      if (!abort_.load()) ShadowSweepPaused();
      ReleasePause();
      return;
    }
    case EventKind::kCrashDuringRestore: {
      RequestPause();
      // The whole sequence runs against parked writers: the restore that
      // fails mid-sweep, the crash on top of the half-restored device,
      // and the second restore that must finish the job.
      if (db_->scrubber()->running()) db_->scrubber()->Stop();
      if (db_->archiver()->running()) db_->archiver()->Stop();
      if (db_->funnel() != nullptr) db_->funnel()->WaitIdle();
      db_->data_device()->FailDevice();
      const uint64_t total = db_->options().num_pages;
      uint64_t seg = sched_.restore_segment_pages != 0
                         ? sched_.restore_segment_pages
                         : total;
      // Segment 0's bytes are genuinely lost (the failed restore must
      // really rebuild them from backup + log)...
      std::string zeros(db_->options().page_size, '\0');
      for (PageId p = 0; p < std::min<uint64_t>(seg, total); ++p) {
        db_->data_device()->RawWrite(p, zeros.data());
      }
      // ...and the backup image of a mid-device segment is unreadable,
      // so the sweep fails after segment 0 but before the end.
      uint64_t mid = std::min(total - 1, (total / 2 / seg) * seg);
      uint64_t cnt = std::min<uint64_t>(seg, total - mid);
      db_->backup_device()->FailPageRange(mid, cnt);
      auto r1 = db_->RecoverMedia();
      if (r1.ok()) {
        AddViolation(
            "crash-during-restore: poisoned restore unexpectedly succeeded");
      }
      for (PageId p = mid; p < mid + cnt; ++p) {
        db_->backup_device()->ClearFault(p);
      }
      CrashAndRestart();
      if (!abort_.load()) {
        auto r2 = db_->RecoverMedia();
        if (!r2.ok()) {
          AddViolation("restore after crash-during-restore failed: " +
                       r2.status().ToString());
          abort_.store(true);
        } else {
          ShadowSweepPaused();
        }
      }
      ReleasePause();
      return;
    }
    case EventKind::kRelocate: {
      RequestPause();
      auto pid = PageOfSeedKey(e.key);
      if (pid.ok()) {
        auto moved = db_->RelocatePage(*pid);
        // NotSupported (root / foster parent) is a legitimate outcome.
        if (!moved.ok() && !moved.status().IsNotSupported()) {
          AddViolation("relocate failed: " + moved.status().ToString());
        }
      }
      ReleasePause();
      return;
    }
    case EventKind::kCheckpoint: {
      auto c = db_->Checkpoint();
      if (!c.ok()) {
        AddViolation("checkpoint failed: " + c.status().ToString());
      }
      return;
    }
    case EventKind::kBackup: {
      // A worn location re-scrambles every repair write, so no backup can
      // succeed while one remains in service — retire worn pages first
      // (the operator move the paper prescribes), then demand success.
      NeutralizeWornPages();
      auto b = db_->TakeFullBackup();
      if (!b.ok()) {
        AddViolation("backup failed: " + b.status().ToString());
      }
      return;
    }
    case EventKind::kQuiesce: {
      RequestPause();
      QuiescePaused();
      ReleasePause();
      return;
    }
  }
}

ChaosReport ChaosDriver::Run(bool verbose) {
  verbose_ = verbose;
  ChaosReport report;
  const std::string serialized = SerializeSchedule(sched_);
  report.schedule_digest = DigestBytes(serialized);
  Note("schedule digest " + std::to_string(report.schedule_digest));

  DatabaseOptions o;
  o.num_pages = 4096;
  o.buffer_frames = 512;
  o.data_profile = DeviceProfile::Instant();
  o.log_profile = DeviceProfile::Instant();
  o.backup_profile = DeviceProfile::Instant();
  o.restore_segment_pages = sched_.restore_segment_pages;
  o.restore_drain_timeout =
      std::chrono::milliseconds(sched_.drain_timeout_ms);
  o.backup_policy.updates_threshold = 0;  // the full backup is the source
  o.lock_timeout = std::chrono::milliseconds(100);
  o.scrub_wall_interval = std::chrono::milliseconds(5);
  o.archive_interval = std::chrono::milliseconds(2);
  auto created = Database::Create(o);
  if (!created.ok()) {
    AddViolation("database create failed: " + created.status().ToString());
    report.violations = std::move(violations_);
    return report;
  }
  db_ = std::move(created).value();

  // Preload: immutable seed records (fault-injection anchors) and the
  // initial hot keys, then the full backup every restore replays from.
  bool loaded = true;
  for (uint64_t i = 0; i < sched_.seed_records && loaded; i += 64) {
    Txn txn = db_->BeginTxn();
    for (uint64_t j = i; j < std::min<uint64_t>(i + 64, sched_.seed_records);
         ++j) {
      std::string key = SeedKey(j);
      std::string value = "seedval:" + Ordinal(j, 8);
      if (!txn.Put(key, value).ok()) {
        loaded = false;
        break;
      }
      seed_shadow_.Put(key, value);
    }
    if (loaded) loaded = txn.Commit().ok();
  }
  if (loaded) {
    Txn txn = db_->BeginTxn();
    for (uint64_t i = 0; i < sched_.contended_keys; ++i) {
      std::string key = HotKey(i);
      std::string value = "hot-init:" + Ordinal(i, 4);
      if (!txn.Put(key, value).ok()) {
        loaded = false;
        break;
      }
      hot_shadow_.Put(key, value);
    }
    if (loaded) loaded = txn.Commit().ok();
  }
  if (!loaded || !db_->FlushAll().ok() || !db_->TakeFullBackup().ok()) {
    AddViolation("seed load / initial backup failed");
    report.violations = std::move(violations_);
    return report;
  }
  monotonicity_.Check(db_->Stats());
  RestartDaemons();

  writer_shadows_.resize(sched_.writers);
  std::vector<std::thread> writers;
  writers.reserve(sched_.writers);
  for (uint32_t w = 0; w < sched_.writers; ++w) {
    writers.emplace_back([this, w] { WriterBody(w); });
  }

  for (const ChaosEvent& e : sched_.events) {
    while (acked_total_.load() < e.at && !AllWritersDone() &&
           !abort_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (abort_.load()) break;
    FireEvent(e);
    events_fired_++;
  }
  for (auto& th : writers) th.join();

  RequestPause();
  if (!abort_.load()) QuiescePaused();
  ReleasePause();

  if (db_->scrubber()->running()) db_->scrubber()->Stop();
  if (db_->archiver()->running()) db_->archiver()->Stop();

  uint64_t h = DigestBytes("spf-chaos-shadow-v1");
  h = seed_shadow_.Digest(h);
  for (uint32_t w = 0; w < sched_.writers; ++w) {
    h = writer_shadows_[w].Digest(h);
  }
  report.committed_txns = acked_total_.load();
  h = DigestBytes("committed=" + std::to_string(report.committed_txns), h);
  report.shadow_digest = h;
  report.events_fired = events_fired_;
  report.final_stats = db_->Stats();
  {
    MutexLock g(violations_mu_);
    report.violations = violations_;
  }
  return report;
}

}  // namespace chaos
}  // namespace spf
