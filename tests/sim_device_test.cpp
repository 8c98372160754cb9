// Unit tests for the simulated devices: latency accounting and the full
// fault-injection catalog (the paper's failure phenomenology, section 3.2).

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/sim_clock.h"
#include "storage/device_profile.h"
#include "storage/page.h"
#include "storage/sim_device.h"

namespace spf {
namespace {

constexpr uint32_t kPS = 4096;

std::string MakePage(PageId id, char fill) {
  std::string data(kPS, fill);
  PageView page(data.data(), kPS);
  page.Format(id, PageType::kRaw);
  std::memset(data.data() + kPageHeaderSize, fill, kPS - kPageHeaderSize);
  page.UpdateChecksum();
  return data;
}

class SimDeviceTest : public ::testing::Test {
 protected:
  SimClock clock_;
  SimDevice dev_{"test", kPS, 128, DeviceProfile::Instant(), &clock_};
};

TEST_F(SimDeviceTest, WriteReadRoundTrip) {
  std::string in = MakePage(5, 'a');
  ASSERT_TRUE(dev_.WritePage(5, in.data()).ok());
  std::string out(kPS, '\0');
  ASSERT_TRUE(dev_.ReadPage(5, out.data()).ok());
  EXPECT_EQ(in, out);
}

TEST_F(SimDeviceTest, OutOfRangeRejected) {
  std::string buf(kPS, '\0');
  EXPECT_TRUE(dev_.ReadPage(128, buf.data()).IsInvalidArgument());
  EXPECT_TRUE(dev_.WritePage(500, buf.data()).IsInvalidArgument());
}

TEST_F(SimDeviceTest, StatsCountOps) {
  std::string buf = MakePage(0, 'x');
  dev_.WritePage(0, buf.data());
  dev_.WritePage(1, buf.data());
  dev_.ReadPage(0, buf.data());
  DeviceStats s = dev_.stats();
  EXPECT_EQ(s.page_writes, 2u);
  EXPECT_EQ(s.page_reads, 1u);
  EXPECT_EQ(s.bytes_written, 2u * kPS);
  dev_.ResetStats();
  EXPECT_EQ(dev_.stats().page_writes, 0u);
}

TEST_F(SimDeviceTest, SilentCorruptionCaughtByChecksum) {
  std::string in = MakePage(7, 'b');
  dev_.WritePage(7, in.data());
  dev_.InjectSilentCorruption(7);
  std::string out(kPS, '\0');
  // The device reports success — the failure is silent.
  ASSERT_TRUE(dev_.ReadPage(7, out.data()).ok());
  PageView page(out.data(), kPS);
  EXPECT_TRUE(page.Verify(7).IsCorruption());
}

TEST_F(SimDeviceTest, TransientReadError) {
  std::string in = MakePage(9, 'c');
  dev_.WritePage(9, in.data());
  dev_.InjectReadError(9, /*permanent=*/false);
  std::string out(kPS, '\0');
  EXPECT_TRUE(dev_.ReadPage(9, out.data()).IsReadFailure());
  EXPECT_TRUE(dev_.ReadPage(9, out.data()).ok());  // recovers
}

TEST_F(SimDeviceTest, PermanentReadError) {
  std::string in = MakePage(9, 'c');
  dev_.WritePage(9, in.data());
  dev_.InjectReadError(9, /*permanent=*/true);
  std::string out(kPS, '\0');
  EXPECT_TRUE(dev_.ReadPage(9, out.data()).IsReadFailure());
  EXPECT_TRUE(dev_.ReadPage(9, out.data()).IsReadFailure());
  dev_.ClearFault(9);
  EXPECT_TRUE(dev_.ReadPage(9, out.data()).ok());
}

TEST_F(SimDeviceTest, StaleVersionPassesInPageChecks) {
  // The "plausible but wrong contents" case: an old image with a valid
  // checksum. Only the PageLSN-vs-PRI cross-check can catch this.
  std::string v1 = MakePage(4, 'd');
  dev_.WritePage(4, v1.data());
  dev_.CapturePageVersion(4);

  std::string v2 = MakePage(4, 'e');
  PageView(v2.data(), kPS).set_page_lsn(1234);
  PageView(v2.data(), kPS).UpdateChecksum();
  dev_.WritePage(4, v2.data());

  ASSERT_TRUE(dev_.InjectStaleVersion(4));
  std::string out(kPS, '\0');
  ASSERT_TRUE(dev_.ReadPage(4, out.data()).ok());
  PageView page(out.data(), kPS);
  EXPECT_TRUE(page.Verify(4).ok()) << "stale image must pass in-page checks";
  EXPECT_EQ(page.page_lsn(), kInvalidLsn);  // it is the OLD image
}

TEST_F(SimDeviceTest, StaleVersionWithoutCaptureFails) {
  EXPECT_FALSE(dev_.InjectStaleVersion(99));
}

TEST_F(SimDeviceTest, TornWriteCaughtByChecksum) {
  std::string v1 = MakePage(11, 'f');
  dev_.WritePage(11, v1.data());
  dev_.InjectTornWrite(11, kPS / 2);
  std::string v2 = MakePage(11, 'g');
  dev_.WritePage(11, v2.data());  // torn: only first half applied
  std::string out(kPS, '\0');
  ASSERT_TRUE(dev_.ReadPage(11, out.data()).ok());
  EXPECT_TRUE(PageView(out.data(), kPS).Verify(11).IsCorruption());
  // The torn fault is one-shot: a rewrite repairs the stored image.
  dev_.WritePage(11, v2.data());
  ASSERT_TRUE(dev_.ReadPage(11, out.data()).ok());
  EXPECT_TRUE(PageView(out.data(), kPS).Verify(11).ok());
}

TEST_F(SimDeviceTest, WearOutScramblesAfterBudget) {
  std::string page = MakePage(20, 'h');
  dev_.SetWearOutLimit(20, 2);
  EXPECT_TRUE(dev_.WritePage(20, page.data()).ok());  // 1st ok
  EXPECT_TRUE(dev_.WritePage(20, page.data()).ok());  // 2nd ok
  std::string out(kPS, '\0');
  dev_.ReadPage(20, out.data());
  EXPECT_TRUE(PageView(out.data(), kPS).Verify(20).ok());

  EXPECT_TRUE(dev_.WritePage(20, page.data()).ok());  // worn out, silent
  dev_.ReadPage(20, out.data());
  EXPECT_TRUE(PageView(out.data(), kPS).Verify(20).IsCorruption());
}

TEST_F(SimDeviceTest, WholeDeviceFailure) {
  std::string buf(kPS, '\0');
  dev_.FailDevice();
  EXPECT_TRUE(dev_.ReadPage(0, buf.data()).IsMediaFailure());
  EXPECT_TRUE(dev_.WritePage(0, buf.data()).IsMediaFailure());
  dev_.ReviveDevice();
  EXPECT_TRUE(dev_.ReadPage(0, buf.data()).ok());
}

TEST_F(SimDeviceTest, RawAccessBypassesFaults) {
  std::string in = MakePage(2, 'z');
  dev_.WritePage(2, in.data());
  dev_.InjectReadError(2, true);
  std::string out(kPS, '\0');
  dev_.RawRead(2, out.data());  // no fault, no status
  EXPECT_EQ(in, out);
}

TEST(SimDeviceTimingTest, SequentialVsRandomCharges) {
  SimClock clock;
  // 10 ms positioning + 100 MB/s transfer.
  SimDevice dev("hdd", kPS, 1024, DeviceProfile::Hdd100(), &clock);
  std::string buf(kPS, '\0');

  // First access: random (10 ms + transfer).
  dev.ReadPage(100, buf.data());
  uint64_t t1 = clock.NowNanos();
  EXPECT_GT(t1, 10u * kMillisecond);

  // Sequential continuation: transfer only (~41 us at 100 MB/s for 4 KiB).
  dev.ReadPage(101, buf.data());
  uint64_t t2 = clock.NowNanos() - t1;
  EXPECT_LT(t2, 1u * kMillisecond);
  EXPECT_GT(t2, 0u);

  DeviceStats s = dev.stats();
  EXPECT_EQ(s.random_accesses, 1u);
  EXPECT_EQ(s.sequential_accesses, 1u);
}

TEST(SimDeviceTimingTest, MediaRestoreArithmetic) {
  // The paper's section 6 example: sequentially transferring D bytes at
  // R bytes/s takes D/R seconds. Validate the cost model on 64 MiB.
  SimClock clock;
  const uint64_t kPages = 16384;  // 64 MiB of 4 KiB pages
  SimDevice dev("hdd", kPS, kPages, DeviceProfile::Hdd100(), &clock);
  std::string buf(kPS, '\0');
  for (PageId p = 0; p < kPages; ++p) dev.ReadPage(p, buf.data());
  double expected = static_cast<double>(kPages) * kPS / (100e6);
  EXPECT_NEAR(clock.NowSeconds(), expected, expected * 0.05 + 0.011);
}

TEST(SimLogDeviceTest, AppendSyncRead) {
  SimClock clock;
  SimLogDevice log("wal", DeviceProfile::Instant(), &clock);
  uint64_t off1 = log.Append("hello");
  uint64_t off2 = log.Append("world");
  EXPECT_EQ(off1, 0u);
  EXPECT_EQ(off2, 5u);
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(log.synced_size(), 0u);
  log.Sync();
  EXPECT_EQ(log.synced_size(), 10u);

  char buf[5];
  ASSERT_TRUE(log.ReadAt(5, 5, buf).ok());
  EXPECT_EQ(std::string(buf, 5), "world");
  EXPECT_TRUE(log.ReadAt(8, 5, buf).IsIOError());  // 8 + 5 > 10
}

TEST(SimLogDeviceTest, ReadPastEndFails) {
  SimClock clock;
  SimLogDevice log("wal", DeviceProfile::Instant(), &clock);
  log.Append("abc");
  char buf[8];
  EXPECT_TRUE(log.ReadAt(0, 4, buf).IsIOError());
}

TEST(SimLogDeviceTest, CrashDropsUnsyncedTail) {
  // The stable-log assumption (section 5): synced bytes survive, the
  // unforced tail does not.
  SimClock clock;
  SimLogDevice log("wal", DeviceProfile::Instant(), &clock);
  log.Append("durable");
  log.Sync();
  log.Append("volatile");
  EXPECT_EQ(log.size(), 15u);
  log.DropUnsynced();
  EXPECT_EQ(log.size(), 7u);
  char buf[7];
  ASSERT_TRUE(log.ReadAt(0, 7, buf).ok());
  EXPECT_EQ(std::string(buf, 7), "durable");
}

// The log device stores its bytes in kChunkBytes chunks; appends, reads
// and crash truncation must not see the chunk boundaries.
std::string Pattern(uint64_t offset, uint64_t n) {
  std::string out(n, '\0');
  for (uint64_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>((offset + i) * 131 % 251);
  }
  return out;
}

TEST(SimLogDeviceTest, AppendStraddlesChunkBoundary) {
  constexpr uint64_t kChunk = SimLogDevice::kChunkBytes;
  SimClock clock;
  SimLogDevice log("wal", DeviceProfile::Instant(), &clock);
  EXPECT_EQ(log.Append(Pattern(0, kChunk - 100)), 0u);
  EXPECT_EQ(log.Append(Pattern(kChunk - 100, 300)), kChunk - 100);
  EXPECT_EQ(log.size(), kChunk + 200);
  EXPECT_EQ(log.synced_size(), 0u);
  log.Sync();
  EXPECT_EQ(log.synced_size(), kChunk + 200);

  std::string out(300, '\0');
  ASSERT_TRUE(log.ReadAt(kChunk - 100, 300, out.data()).ok());
  EXPECT_EQ(out, Pattern(kChunk - 100, 300));
  EXPECT_TRUE(log.ReadAt(kChunk, 201, out.data()).IsIOError());
}

TEST(SimLogDeviceTest, ReadSpansThreeChunks) {
  constexpr uint64_t kChunk = SimLogDevice::kChunkBytes;
  SimClock clock;
  SimLogDevice log("wal", DeviceProfile::Instant(), &clock);
  const uint64_t total = 2 * kChunk + 4096;
  EXPECT_EQ(log.Append(Pattern(0, total)), 0u);
  EXPECT_EQ(log.size(), total);
  log.Sync();
  EXPECT_EQ(log.synced_size(), total);

  const uint64_t from = kChunk - 10;
  const uint64_t n = kChunk + 20 + 1000;  // ends 1010 bytes into chunk 2
  std::string out(n, '\0');
  ASSERT_TRUE(log.ReadAt(from, n, out.data()).ok());
  EXPECT_EQ(out, Pattern(from, n));
  EXPECT_EQ(log.size(), total);
  EXPECT_EQ(log.synced_size(), total);
}

TEST(SimLogDeviceTest, DropUnsyncedMidChunkThenAppend) {
  constexpr uint64_t kChunk = SimLogDevice::kChunkBytes;
  SimClock clock;
  SimLogDevice log("wal", DeviceProfile::Instant(), &clock);
  const uint64_t synced = kChunk + 500;  // mid chunk 1
  log.Append(Pattern(0, synced));
  log.Sync();
  // The unsynced tail runs two chunks further; a crash drops it all.
  log.Append(std::string(2 * kChunk, 'x'));
  EXPECT_EQ(log.size(), synced + 2 * kChunk);
  EXPECT_EQ(log.synced_size(), synced);
  log.DropUnsynced();
  EXPECT_EQ(log.size(), synced);
  EXPECT_EQ(log.synced_size(), synced);
  char byte;
  EXPECT_TRUE(log.ReadAt(synced, 1, &byte).IsIOError());

  // The next append lands right after the synced bytes, in the kept chunk
  // and on into a fresh one.
  EXPECT_EQ(log.Append(Pattern(synced, kChunk)), synced);
  EXPECT_EQ(log.size(), synced + kChunk);
  EXPECT_EQ(log.synced_size(), synced);
  std::string out(synced + kChunk, '\0');
  ASSERT_TRUE(log.ReadAt(0, out.size(), out.data()).ok());
  EXPECT_EQ(out, Pattern(0, synced + kChunk));
  log.Sync();
  EXPECT_EQ(log.synced_size(), synced + kChunk);
}

TEST(SimLogDeviceTest, SequentialReadDetection) {
  SimClock clock;
  SimLogDevice log("wal", DeviceProfile::Hdd100(), &clock);
  log.Append(std::string(1000, 'a'));
  char buf[100];
  log.ReadAt(0, 100, buf);    // random
  log.ReadAt(100, 100, buf);  // sequential continuation
  log.ReadAt(500, 100, buf);  // random again
  DeviceStats s = log.stats();
  EXPECT_EQ(s.random_accesses, 2u);
  EXPECT_EQ(s.sequential_accesses, 1u);
}

}  // namespace
}  // namespace spf
