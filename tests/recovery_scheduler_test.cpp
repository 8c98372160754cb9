// Tests for the batched RecoveryScheduler and the background Scrubber:
// batched multi-page repair must be byte-identical to the paper's serial
// per-record repair (bench::RepairPagesPerRecord), must read shared log
// segments instead of one random read per chain record, and a background
// sweep must heal cold-page faults no foreground read would ever touch.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <set>
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
constexpr int kVictimStride = 150;
constexpr int kUpdateRounds = 4;

/// Interleaved per-page log chains + all victim leaves, via the shared
/// burst construction the E8b/E9 benches use.
std::unique_ptr<Database> MakeChainedDb(DatabaseOptions options,
                                        std::vector<PageId>* victims) {
  return bench::MakeChainedBurstDb(std::move(options), kRecords,
                                   /*burst=*/SIZE_MAX, victims, kUpdateRounds,
                                   kVictimStride);
}

void CorruptAll(Database* db, const std::vector<PageId>& victims) {
  db->pool()->DiscardAll();
  for (PageId v : victims) db->data_device()->InjectSilentCorruption(v);
}

std::vector<std::string> SnapshotPages(Database* db,
                                       const std::vector<PageId>& victims) {
  std::vector<std::string> images;
  const uint32_t page_size = db->options().page_size;
  for (PageId v : victims) {
    std::string img(page_size, '\0');
    db->data_device()->RawRead(v, img.data());
    images.push_back(std::move(img));
  }
  return images;
}

TEST(RecoverySchedulerTest, BatchedRepairMatchesSerialByteForByte) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  ASSERT_GE(victims.size(), 8u);

  // Serial baseline.
  CorruptAll(db.get(), victims);
  Status serial = bench::RepairPagesPerRecord(db.get(), victims);
  ASSERT_TRUE(serial.ok()) << serial.ToString();
  std::vector<std::string> serial_images = SnapshotPages(db.get(), victims);

  // Batched repair of the identical damage.
  CorruptAll(db.get(), victims);
  auto batched = db->RepairPages(victims);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_EQ(batched->repaired, victims.size());
  EXPECT_EQ(batched->failed, 0u);
  std::vector<std::string> batched_images = SnapshotPages(db.get(), victims);

  for (size_t i = 0; i < victims.size(); ++i) {
    EXPECT_EQ(serial_images[i], batched_images[i])
        << "page " << victims[i] << " differs between serial and batched";
  }

  // Both result in a healthy, fully readable database.
  uint64_t checked = 0;
  ASSERT_TRUE(db->CheckOffline(&checked).ok());
  EXPECT_GT(checked, 0u);
}

TEST(RecoverySchedulerTest, BatchReadsSharedSegmentsNotPerRecord) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  ASSERT_GE(victims.size(), 8u);
  SinglePageRecovery* spr = db->single_page_recovery();

  // Serial baseline: one random log read per chain record.
  CorruptAll(db.get(), victims);
  spr->ResetStats();
  ASSERT_TRUE(bench::RepairPagesPerRecord(db.get(), victims).ok());
  SinglePageRecoveryStats serial = spr->stats();
  ASSERT_EQ(serial.repairs_succeeded, victims.size());
  // Every page was updated after its backup, so chains are non-trivial
  // and the serial walk paid at least pages × chain_length log reads.
  ASSERT_GE(serial.log_records_applied, victims.size() * kUpdateRounds);
  ASSERT_GE(serial.log_reads, serial.log_records_applied);

  // Batched: the same records must be applied, but the log is read in
  // shared segments — strictly fewer fetches than pages × chain_length.
  CorruptAll(db.get(), victims);
  spr->ResetStats();
  db->recovery_scheduler()->ResetStats();
  ASSERT_TRUE(db->RepairPages(victims).ok());
  SinglePageRecoveryStats batched = spr->stats();
  EXPECT_EQ(batched.repairs_succeeded, victims.size());
  EXPECT_EQ(batched.log_records_applied, serial.log_records_applied);
  EXPECT_LT(batched.log_reads, serial.log_reads);
  EXPECT_LT(batched.log_reads, victims.size() * kUpdateRounds);

  RecoverySchedulerStats sched = db->recovery_scheduler()->stats();
  EXPECT_EQ(sched.batches, 1u);
  EXPECT_EQ(sched.pages_repaired, victims.size());
  EXPECT_GT(sched.segment_fetches, 0u);
  EXPECT_GE(sched.chain_clusters, 1u);
}

TEST(RecoverySchedulerTest, EmptyAndDuplicateBatches) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);

  auto empty = db->RepairPages({});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->repaired, 0u);

  CorruptAll(db.get(), {victims[0]});
  auto dup = db->RepairPages({victims[0], victims[0], victims[0]});
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->repaired, 1u);
}

TEST(RecoverySchedulerTest, ForegroundReadsStillFunnelThroughScheduler) {
  // With auto-escalation OFF the pre-funnel wiring applies: a foreground
  // read of the corrupted page repairs inline (Figure 8) and is accounted
  // as a single-page request on the scheduler.
  DatabaseOptions options = FastOptions();
  options.auto_escalate = false;
  std::vector<PageId> victims;
  auto db = MakeChainedDb(options, &victims);
  CorruptAll(db.get(), {victims[0]});

  auto v = db->Get(Key(0));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_GT(db->recovery_scheduler()->stats().single_repairs, 0u);
  EXPECT_GT(db->single_page_recovery()->stats().repairs_succeeded, 0u);
}

TEST(RecoverySchedulerTest, ForegroundReadsRouteThroughTheFunnelByDefault) {
  // Default wiring: the read path reports into the failure funnel and
  // waits; the repair still runs through the scheduler's batch machinery
  // (RecoverPages' single-page rung), not the inline single_repairs hook.
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  CorruptAll(db.get(), {victims[0]});

  auto v = db->Get(Key(0));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  StatsSnapshot stats = db->Stats();
  EXPECT_EQ(stats.scheduler.single_repairs, 0u);
  EXPECT_GE(stats.funnel.from_foreground, 1u);
  EXPECT_GE(stats.funnel.repaired_spr, 1u);
  EXPECT_GT(stats.spr.repairs_succeeded, 0u);
}

TEST(ScrubberTest, IncrementalTicksCoverTheWholeDevice) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  CorruptAll(db.get(), victims);

  // Tick with a small budget until one full sweep completed; every
  // injected fault must be found and reported into the failure funnel,
  // which heals it without any foreground read.
  uint64_t reported = 0;
  for (int i = 0; i < 1000; ++i) {
    auto tick = db->scrubber()->Tick();
    ASSERT_TRUE(tick.ok()) << tick.status().ToString();
    reported += tick->failures_reported;
    if (db->scrubber()->totals().sweeps_completed >= 1) break;
  }
  EXPECT_EQ(db->scrubber()->totals().sweeps_completed, 1u);
  EXPECT_GE(reported, victims.size());
  db->funnel()->WaitIdle();
  FunnelTotals funnel = db->funnel()->totals();
  EXPECT_GE(funnel.repaired_spr + funnel.repaired_partial, victims.size());
  EXPECT_EQ(funnel.failed, 0u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(ScrubberTest, BackgroundScrubHealsColdPageWithoutForegroundRead) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);

  // A cold page develops a latent fault. No foreground read ever touches
  // it; only the background sweep can notice.
  PageId cold = victims[victims.size() / 2];
  db->pool()->DiscardAll();
  db->data_device()->InjectSilentCorruption(cold);

  db->scrubber()->Start();
  ASSERT_TRUE(db->scrubber()->running());
  // Wall-clock bound; simulated time advances through the sweep's own
  // device reads. Wait for the funnel to have HEALED the report, not
  // just for the sweep to pass over it.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (db->funnel()->totals().repaired_spr < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  db->scrubber()->Stop();
  ASSERT_FALSE(db->scrubber()->running());
  db->funnel()->WaitIdle();

  ScrubberTotals totals = db->scrubber()->totals();
  EXPECT_GE(totals.failures_detected, 1u);
  EXPECT_GE(totals.failures_reported, 1u);
  EXPECT_EQ(totals.escalations, 0u);
  FunnelTotals funnel = db->funnel()->totals();
  EXPECT_GE(funnel.from_scrubber, 1u);
  EXPECT_GE(funnel.repaired_spr, 1u);
  EXPECT_EQ(funnel.failed, 0u);

  // The device copy is healed in place — verified WITHOUT any database
  // read path.
  PageBuffer buf(db->options().page_size);
  db->data_device()->RawRead(cold, buf.data());
  EXPECT_TRUE(buf.view().Verify(cold).ok());
}

TEST(ScrubberTest, ScrubIsThinWrapperOverScrubberSweep) {
  std::vector<PageId> victims;
  auto db = MakeChainedDb(FastOptions(), &victims);
  CorruptAll(db.get(), victims);

  auto scrub = db->Scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_GE(scrub->failures_detected, victims.size());
  EXPECT_GE(scrub->pages_repaired, victims.size());
  EXPECT_EQ(db->scrubber()->totals().sweeps_completed, 1u);

  // Second sweep is clean.
  auto again = db->Scrub();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->failures_detected, 0u);
}

}  // namespace
}  // namespace spf
