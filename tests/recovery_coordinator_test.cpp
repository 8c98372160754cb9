// Tests for the RecoveryCoordinator (failure funnel): end-to-end
// self-healing with ZERO caller involvement — damage detected by the
// running background scrubber or by a foreground read is repaired to
// byte-identity without any explicit RecoverPages/Scrub call — plus the
// funnel mechanics themselves: dedup of concurrent reporters,
// backpressure at the queue limit, routing to partial restore above
// spr_batch_limit, and the scheduler's escalation sink.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "db/database.h"

namespace spf {
namespace {

using bench::Key;

DatabaseOptions FastOptions() {
  DatabaseOptions o;
  o.num_pages = 2048;
  o.buffer_frames = 256;
  o.data_profile = DeviceProfile::Instant();
  o.log_profile = DeviceProfile::Instant();
  o.backup_profile = DeviceProfile::Instant();
  o.backup_policy.updates_threshold = 0;  // full backup is the only source
  return o;
}

constexpr int kRecords = 3000;

std::unique_ptr<Database> MakeChainedDb(DatabaseOptions options,
                                        std::vector<PageId>* victims) {
  return bench::MakeChainedBurstDb(std::move(options), kRecords,
                                   /*burst=*/SIZE_MAX, victims,
                                   /*rounds=*/4, /*stride=*/150);
}

std::vector<std::string> SnapshotPages(Database* db,
                                       const std::vector<PageId>& pages) {
  std::vector<std::string> images;
  const uint32_t page_size = db->options().page_size;
  for (PageId p : pages) {
    std::string img(page_size, '\0');
    db->data_device()->RawRead(p, img.data());
    images.push_back(std::move(img));
  }
  return images;
}

/// A key MakeChainedDb updated that lives on leaf `page`, or "" if none.
std::string KeyOnLeaf(Database* db, PageId page) {
  for (int i = 0; i < kRecords; i += 150) {
    auto leaf = db->LeafPageOf(Key(i));
    if (leaf.ok() && *leaf == page) return Key(i);
  }
  return "";
}

/// Spin until `pred` holds or `sec` wall seconds elapse.
template <typename Pred>
bool WaitFor(Pred pred, int sec = 30) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(sec);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The headline scenario: pages silently corrupt under a RUNNING
// background scrubber and come back byte-identical — the test never
// calls RecoverPages, Scrub, or RepairPages.
TEST(RecoveryCoordinatorTest, ScrubberDetectedDamageSelfHeals) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  ASSERT_GE(victims.size(), 4u);
  ASSERT_NE(db->funnel(), nullptr);
  victims.resize(4);

  std::vector<std::string> before = SnapshotPages(db.get(), victims);
  for (PageId v : victims) db->data_device()->InjectSilentCorruption(v);

  db->scrubber()->Start();
  ASSERT_TRUE(WaitFor([&] {
    FunnelTotals t = db->funnel()->totals();
    return t.repaired_spr + t.repaired_partial + t.repaired_full >=
           victims.size();
  })) << "funnel never drained the scrubber's reports";
  db->scrubber()->Stop();
  db->funnel()->WaitIdle();

  std::vector<std::string> after = SnapshotPages(db.get(), victims);
  for (size_t i = 0; i < victims.size(); ++i) {
    EXPECT_EQ(before[i], after[i])
        << "page " << victims[i] << " not byte-identical after self-heal";
  }

  FunnelTotals totals = db->funnel()->totals();
  EXPECT_GE(totals.from_scrubber, victims.size());
  EXPECT_GE(totals.enqueued, victims.size());
  EXPECT_EQ(totals.failed, 0u);
  ScrubberTotals scrub = db->scrubber()->totals();
  EXPECT_GE(scrub.failures_reported, victims.size());
  EXPECT_EQ(scrub.escalations, 0u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// A foreground read of a damaged page routes through the funnel (the
// read path's PageRepairer) and succeeds with nothing explicit.
TEST(RecoveryCoordinatorTest, ForegroundReadSelfHeals) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  ASSERT_NE(db->funnel(), nullptr);

  PageId victim = victims.front();
  std::string key = KeyOnLeaf(db.get(), victim);
  ASSERT_FALSE(key.empty());
  db->pool()->DiscardAll();

  std::string before = SnapshotPages(db.get(), {victim}).front();
  db->data_device()->InjectSilentCorruption(victim);

  auto v = db->Get(key);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "r3");  // MakeChainedBurstDb's last round

  db->funnel()->WaitIdle();
  std::string after = SnapshotPages(db.get(), {victim}).front();
  EXPECT_EQ(before, after) << "device copy not byte-identical after heal";

  StatsSnapshot stats = db->Stats();
  EXPECT_GE(stats.funnel.from_foreground, 1u);
  EXPECT_GE(stats.funnel.repaired_spr, 1u);
  EXPECT_EQ(stats.funnel.failed, 0u);
  EXPECT_GE(stats.pool.repairs_succeeded, 1u);
}

// N concurrent readers of ONE damaged page must trigger exactly one
// repair: the buffer pool serializes them onto one frame load, and the
// funnel dedups the single report.
TEST(RecoveryCoordinatorTest, ConcurrentReadersShareOneRepair) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  ASSERT_NE(db->funnel(), nullptr);

  PageId victim = victims.front();
  std::string key;
  for (int i = 0; i < kRecords; i += 150) {
    auto leaf = db->LeafPageOf(Key(i));
    ASSERT_TRUE(leaf.ok());
    if (*leaf == victim) {
      key = Key(i);
      break;
    }
  }
  ASSERT_FALSE(key.empty());
  db->pool()->DiscardAll();
  db->data_device()->InjectSilentCorruption(victim);

  constexpr int kReaders = 8;
  std::atomic<int> ok_reads{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      auto v = db->Get(key);
      if (v.ok() && *v == "r3") ok_reads.fetch_add(1);
    });
  }
  for (auto& t : readers) t.join();
  db->funnel()->WaitIdle();

  EXPECT_EQ(ok_reads.load(), kReaders);
  StatsSnapshot stats = db->Stats();
  EXPECT_EQ(stats.spr.repairs_attempted, 1u);
  EXPECT_EQ(stats.spr.repairs_succeeded, 1u);
  EXPECT_EQ(stats.funnel.enqueued, 1u);
  EXPECT_EQ(stats.pool.repairs_attempted, 1u);
}

// Reports for a page already pending/in-flight coalesce onto one repair:
// a scrubber-style report plus a blocked foreground reader plus another
// report all resolve from one ladder trip.
TEST(RecoveryCoordinatorTest, DedupAcrossReporters) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  RecoveryCoordinator* funnel = db->funnel();
  ASSERT_NE(funnel, nullptr);

  PageId victim = victims.front();
  db->data_device()->InjectSilentCorruption(victim);

  funnel->Pause();
  EXPECT_EQ(funnel->Report(victim, FailureOrigin::kScrubber),
            ReportResult::kAccepted);
  EXPECT_EQ(funnel->Report(victim, FailureOrigin::kScrubber),
            ReportResult::kCoalesced);

  Status waited;
  std::thread waiter([&] {
    waited = funnel->ReportAndWait(victim, FailureOrigin::kExplicit);
  });
  // The waiter coalesces onto the pending entry; give it a moment to park.
  ASSERT_TRUE(WaitFor([&] { return funnel->totals().coalesced >= 2; }));

  funnel->Resume();
  waiter.join();
  funnel->WaitIdle();

  EXPECT_TRUE(waited.ok()) << waited.ToString();
  FunnelTotals totals = funnel->totals();
  EXPECT_EQ(totals.enqueued, 1u);
  EXPECT_EQ(totals.coalesced, 2u);
  EXPECT_EQ(totals.batches, 1u);
  EXPECT_EQ(totals.repaired_spr, 1u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// The pending queue is bounded: reports beyond funnel_queue_limit are
// rejected, and the rejected pages heal on a later report.
TEST(RecoveryCoordinatorTest, BackpressureAtQueueLimit) {
  DatabaseOptions options = FastOptions();
  options.funnel_queue_limit = 4;
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);
  RecoveryCoordinator* funnel = db->funnel();
  ASSERT_NE(funnel, nullptr);
  ASSERT_GE(victims.size(), 6u);
  for (size_t i = 0; i < 6; ++i) {
    db->data_device()->InjectSilentCorruption(victims[i]);
  }

  funnel->Pause();
  int accepted = 0, rejected = 0;
  for (size_t i = 0; i < 6; ++i) {
    ReportResult r = funnel->Report(victims[i], FailureOrigin::kScrubber);
    (r == ReportResult::kRejected ? rejected : accepted)++;
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(rejected, 2);
  // A rejected page re-reports fine once the queue drains.
  funnel->Resume();
  funnel->WaitIdle();
  EXPECT_EQ(funnel->Report(victims[4], FailureOrigin::kScrubber),
            ReportResult::kAccepted);
  EXPECT_EQ(funnel->Report(victims[5], FailureOrigin::kScrubber),
            ReportResult::kAccepted);
  funnel->WaitIdle();

  FunnelTotals totals = funnel->totals();
  EXPECT_EQ(totals.rejected, 2u);
  EXPECT_EQ(totals.enqueued, 6u);
  EXPECT_EQ(totals.repaired_spr, 6u);
  EXPECT_EQ(totals.failed, 0u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// A coalesced batch above spr_batch_limit routes to partial media
// restore (the sequential-read rung), not per-page repair.
TEST(RecoveryCoordinatorTest, LargeBatchRoutesToPartialRestore) {
  DatabaseOptions options = FastOptions();
  options.spr_batch_limit = 4;
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);
  RecoveryCoordinator* funnel = db->funnel();
  ASSERT_NE(funnel, nullptr);
  ASSERT_GT(victims.size(), 4u);

  for (PageId v : victims) db->data_device()->FailPageRange(v, 1);
  funnel->Pause();
  for (PageId v : victims) {
    EXPECT_EQ(funnel->Report(v, FailureOrigin::kScrubber),
              ReportResult::kAccepted);
  }
  funnel->Resume();
  funnel->WaitIdle();

  FunnelTotals totals = funnel->totals();
  EXPECT_EQ(totals.batches, 1u);
  EXPECT_EQ(totals.repaired_spr, 0u);
  EXPECT_EQ(totals.repaired_partial, victims.size());
  EXPECT_EQ(totals.failed, 0u);
  RecoverySchedulerStats sched = db->recovery_scheduler()->stats();
  EXPECT_EQ(sched.partial_restores, 1u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// Unbounded damage (the device failed as a whole) drains through the
// ladder's bottom rung automatically and is accounted as repaired_full.
TEST(RecoveryCoordinatorTest, WholeDeviceFailureEscalatesToFullRestore) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  RecoveryCoordinator* funnel = db->funnel();
  ASSERT_NE(funnel, nullptr);

  db->log()->ForceAll();
  db->data_device()->FailDevice();
  db->pool()->DiscardAll();
  Status healed =
      funnel->ReportAndWait(victims.front(), FailureOrigin::kExplicit);
  ASSERT_TRUE(healed.ok()) << healed.ToString();

  FunnelTotals totals = funnel->totals();
  EXPECT_EQ(totals.escalated_full, 1u);
  EXPECT_EQ(totals.repaired_full, 1u);
  EXPECT_EQ(totals.failed, 0u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// A page a direct RepairBatch cannot heal (lost PRI backup reference)
// flows through the scheduler's escalation sink into the funnel and is
// healed by partial restore — no caller escalation.
TEST(RecoveryCoordinatorTest, SchedulerEscalationsFlowIntoFunnel) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  RecoveryCoordinator* funnel = db->funnel();
  ASSERT_NE(funnel, nullptr);

  PageId orphan = victims.front();
  auto entry = db->pri()->Lookup(orphan);
  ASSERT_TRUE(entry.ok());
  db->pri()->Apply(orphan, PriEntry{BackupRef{BackupKind::kNone, 0},
                                    entry->last_lsn});
  db->data_device()->InjectSilentCorruption(orphan);

  // Direct batch repair fails the page — and the failure funnels.
  auto batch = db->RepairPages({orphan});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->failed, 1u);

  ASSERT_TRUE(WaitFor([&] { return funnel->totals().batches >= 1; }));
  funnel->WaitIdle();
  FunnelTotals totals = funnel->totals();
  EXPECT_GE(totals.from_escalation, 1u);
  EXPECT_EQ(totals.repaired_partial, 1u);
  EXPECT_EQ(totals.failed, 0u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// auto_escalate=false restores the pre-funnel behavior: no funnel, the
// read path repairs inline through the scheduler.
TEST(RecoveryCoordinatorTest, AutoEscalateOffMeansNoFunnel) {
  DatabaseOptions options = FastOptions();
  options.auto_escalate = false;
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);
  EXPECT_EQ(db->funnel(), nullptr);

  db->data_device()->InjectSilentCorruption(victims.front());
  auto scrub = db->Scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_EQ(scrub->pages_repaired, 1u);
  EXPECT_EQ(db->Stats().scheduler.single_repairs, 0u);
}

// The read path's inline repair is the scheduler's batch of one. It runs
// as the pool's repairer when auto_escalate is off, and as the funnel's
// fallback when a report is rejected (a stopped funnel answers Busy).
// Either way the reader gets the committed value, the device copy heals
// byte for byte, and no batch runs.
TEST(RecoveryCoordinatorTest, InlineRepairIsABatchOfOne) {
  for (bool funnel_stopped : {false, true}) {
    SCOPED_TRACE(funnel_stopped ? "funnel stopped" : "auto_escalate off");
    DatabaseOptions options = FastOptions();
    options.auto_escalate = funnel_stopped;
    std::vector<PageId> victims;
    auto db = MakeChainedDb(options, &victims);
    if (funnel_stopped) {
      ASSERT_NE(db->funnel(), nullptr);
      db->funnel()->Stop();
    } else {
      ASSERT_EQ(db->funnel(), nullptr);
    }

    PageId victim = victims.front();
    std::string key = KeyOnLeaf(db.get(), victim);
    ASSERT_FALSE(key.empty());
    db->pool()->DiscardAll();
    std::string before = SnapshotPages(db.get(), {victim}).front();
    RecoverySchedulerStats sched_before = db->recovery_scheduler()->stats();
    db->data_device()->InjectSilentCorruption(victim);

    auto v = db->Get(key);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    EXPECT_EQ(*v, "r3");  // MakeChainedBurstDb's last round
    EXPECT_EQ(SnapshotPages(db.get(), {victim}).front(), before)
        << "device copy not byte-identical after the inline repair";
    RecoverySchedulerStats sched_after = db->recovery_scheduler()->stats();
    EXPECT_EQ(sched_after.single_repairs, sched_before.single_repairs + 1);
    EXPECT_EQ(sched_after.batches, sched_before.batches);
  }
}

// The wall-clock cadence option: under Instant profiles (simulated time
// frozen) a wall interval must pace the background loop instead of the
// continuous-ticking fallback.
TEST(RecoveryCoordinatorTest, ScrubberWallClockCadence) {
  DatabaseOptions options = FastOptions();
  options.scrub_wall_interval = std::chrono::milliseconds(5);
  options.scrub_pages_per_tick = 64;
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);

  db->scrubber()->Start();
  ASSERT_TRUE(WaitFor([&] { return db->scrubber()->totals().ticks >= 3; }));
  auto start = std::chrono::steady_clock::now();
  uint64_t ticks_at_start = db->scrubber()->totals().ticks;
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  db->scrubber()->Stop();
  double sec = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
  uint64_t ticks = db->scrubber()->totals().ticks - ticks_at_start;
  // 5 ms cadence over >=300 ms: a continuous-ticking fallback would run
  // tens of thousands of Instant-profile ticks; the wall pace bounds it
  // near sec/0.005 (generous slack for scheduling noise).
  EXPECT_GE(ticks, 2u);
  EXPECT_LE(ticks, static_cast<uint64_t>(sec / 0.005 * 2) + 10);

  // And damage still heals under the wall-paced daemon.
  db->data_device()->InjectSilentCorruption(victims.front());
  db->scrubber()->Start();
  ASSERT_TRUE(WaitFor([&] {
    return db->funnel()->totals().repaired_spr +
               db->funnel()->totals().repaired_partial >= 1;
  }));
  db->scrubber()->Stop();
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// Stopping the funnel with work still pending fails the waiters instead
// of hanging them, and a stopped funnel rejects new reports.
TEST(RecoveryCoordinatorTest, StopFailsPendingAndRejectsNewReports) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  RecoveryCoordinator* funnel = db->funnel();
  ASSERT_NE(funnel, nullptr);

  funnel->Pause();
  ASSERT_EQ(funnel->Report(victims.front(), FailureOrigin::kExplicit),
            ReportResult::kAccepted);
  funnel->Stop();
  EXPECT_FALSE(funnel->running());
  EXPECT_EQ(funnel->Report(victims.back(), FailureOrigin::kExplicit),
            ReportResult::kRejected);
  FunnelTotals totals = funnel->totals();
  EXPECT_EQ(totals.failed, 1u);

  // Restart and verify the funnel still heals — Start() clears the old
  // Pause, so no Resume() incantation is needed.
  funnel->Start();
  db->data_device()->InjectSilentCorruption(victims.front());
  EXPECT_TRUE(funnel->ReportAndWait(victims.front(), FailureOrigin::kExplicit)
                  .ok());
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

}  // namespace
}  // namespace spf
