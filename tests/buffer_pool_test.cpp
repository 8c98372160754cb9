// Unit tests for the buffer pool: fix/unfix, hit/miss accounting, dirty
// tracking and recLSN, clock eviction, write-back ordering (WAL rule +
// completion listener, Figure 11), and the read-path hooks (Figure 8).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/sim_clock.h"
#include "log/log_manager.h"
#include "storage/sim_device.h"

namespace spf {
namespace {

constexpr uint32_t kPS = 4096;

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest()
      : device_("data", kPS, 256, DeviceProfile::Instant(), &clock_),
        wal_("wal", DeviceProfile::Instant(), &clock_),
        log_(&wal_) {
    BufferPoolOptions o;
    o.page_size = kPS;
    o.num_frames = 8;
    pool_ = std::make_unique<BufferPool>(o, &device_, &log_, frames_.get());
    // Pre-format a handful of pages on the device.
    PageBuffer buf(kPS);
    for (PageId p = 0; p < 64; ++p) {
      PageView page = buf.view();
      page.Format(p, PageType::kRaw);
      page.UpdateChecksum();
      SPF_CHECK_OK(device_.WritePage(p, buf.data()));
    }
  }

  SimClock clock_;
  SimDevice device_;
  SimLogDevice wal_;
  LogManager log_;
  std::unique_ptr<char[]> frames_{new char[8 * kPS]};
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  {
    auto g = pool_->FixPage(3, LatchMode::kShared);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->view().page_id(), 3u);
  }
  auto g2 = pool_->FixPage(3, LatchMode::kShared);
  ASSERT_TRUE(g2.ok());
  BufferPoolStats s = pool_->stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_TRUE(pool_->IsCached(3));
}

TEST_F(BufferPoolTest, DirtyTrackingWithRecLsn) {
  LogRecord rec;
  rec.type = LogRecordType::kBTreeInsert;
  rec.page_id = 5;
  Lsn tail_before = log_.tail_lsn();
  {
    auto g = pool_->FixPage(5, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g->MarkDirty();
    log_.AppendPageRecord(&rec, g->view());
  }
  EXPECT_TRUE(pool_->IsDirty(5));
  auto dpt = pool_->DirtyPages();
  ASSERT_EQ(dpt.size(), 1u);
  EXPECT_EQ(dpt[0].page_id, 5u);
  EXPECT_EQ(dpt[0].rec_lsn, tail_before);  // recLSN = tail at MarkDirty
}

TEST_F(BufferPoolTest, FlushEnforcesWalRule) {
  // The page's record must be durable BEFORE the page write (Figure 11 /
  // WAL): flushing forces the log up to the PageLSN.
  LogRecord rec;
  rec.type = LogRecordType::kBTreeInsert;
  rec.page_id = 7;
  {
    auto g = pool_->FixPage(7, LatchMode::kExclusive);
    g->MarkDirty();
    log_.AppendPageRecord(&rec, g->view());
    g->view().bump_update_count();
  }
  EXPECT_LT(log_.durable_lsn(), rec.lsn + rec.length);
  ASSERT_TRUE(pool_->FlushPage(7).ok());
  EXPECT_GE(log_.durable_lsn(), rec.lsn + rec.length);
  EXPECT_FALSE(pool_->IsDirty(7));
  // The device copy carries a fresh checksum.
  PageBuffer buf(kPS);
  device_.RawRead(7, buf.data());
  EXPECT_TRUE(buf.view().Verify(7).ok());
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyVictims) {
  // 8 frames; touch 20 pages, dirtying each: evictions must write back.
  for (PageId p = 0; p < 20; ++p) {
    auto g = pool_->FixPage(p, LatchMode::kExclusive);
    ASSERT_TRUE(g.ok());
    g->MarkDirty();
    LogRecord rec;
    rec.type = LogRecordType::kBTreeInsert;
    rec.page_id = p;
    log_.AppendPageRecord(&rec, g->view());
  }
  BufferPoolStats s = pool_->stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.write_backs, 0u);
  // Everything still readable and correct.
  for (PageId p = 0; p < 20; ++p) {
    auto g = pool_->FixPage(p, LatchMode::kShared);
    ASSERT_TRUE(g.ok()) << p;
    EXPECT_EQ(g->view().page_id(), p);
  }
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  std::vector<PageGuard> pins;
  for (PageId p = 0; p < 7; ++p) {
    auto g = pool_->FixPage(p, LatchMode::kShared);
    ASSERT_TRUE(g.ok());
    pins.push_back(std::move(*g));
  }
  // One frame left: more fixes recycle it, never the pinned seven.
  for (PageId p = 10; p < 14; ++p) {
    auto g = pool_->FixPage(p, LatchMode::kShared);
    ASSERT_TRUE(g.ok());
  }
  for (PageId p = 0; p < 7; ++p) EXPECT_TRUE(pool_->IsCached(p));
}

TEST_F(BufferPoolTest, AllFramesPinnedReturnsBusy) {
  std::vector<PageGuard> pins;
  for (PageId p = 0; p < 8; ++p) {
    auto g = pool_->FixPage(p, LatchMode::kShared);
    ASSERT_TRUE(g.ok());
    pins.push_back(std::move(*g));
  }
  auto g = pool_->FixPage(20, LatchMode::kShared);
  EXPECT_TRUE(g.status().IsBusy());
}

TEST_F(BufferPoolTest, DiscardAllDropsEverything) {
  {
    auto g = pool_->FixPage(2, LatchMode::kExclusive);
    g->MarkDirty();
  }
  pool_->DiscardAll();
  EXPECT_FALSE(pool_->IsCached(2));
  EXPECT_TRUE(pool_->DirtyPages().empty());
}

TEST_F(BufferPoolTest, DiscardPageSkipsPinned) {
  auto g = pool_->FixPage(2, LatchMode::kShared);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(pool_->DiscardPage(2));  // pinned
  g->Release();
  EXPECT_TRUE(pool_->DiscardPage(2));
  EXPECT_FALSE(pool_->IsCached(2));
}

TEST_F(BufferPoolTest, VerifyOnReadCatchesCorruption) {
  pool_->DiscardAll();
  device_.InjectSilentCorruption(9);
  auto g = pool_->FixPage(9, LatchMode::kShared);
  ASSERT_FALSE(g.ok());
  // No repairer installed: escalation to media failure (Figure 8).
  EXPECT_TRUE(g.status().IsMediaFailure());
  EXPECT_EQ(pool_->stats().verify_failures, 1u);
  EXPECT_FALSE(pool_->IsCached(9));  // failed frame not left behind
}

class CountingListener : public WriteCompletionListener {
 public:
  bool OnPageWritten(PageId id, Lsn page_lsn, uint32_t update_count,
                     const char* data) override {
    calls++;
    last_id = id;
    last_lsn = page_lsn;
    last_count = update_count;
    last_data_ok = data != nullptr;
    return reset_counter;
  }
  int calls = 0;
  PageId last_id = kInvalidPageId;
  Lsn last_lsn = kInvalidLsn;
  uint32_t last_count = 0;
  bool last_data_ok = false;
  bool reset_counter = false;
};

TEST_F(BufferPoolTest, ListenerRunsAfterEveryWriteBack) {
  CountingListener listener;
  pool_->SetWriteCompletionListener(&listener);
  LogRecord rec;
  rec.type = LogRecordType::kBTreeInsert;
  rec.page_id = 11;
  {
    auto g = pool_->FixPage(11, LatchMode::kExclusive);
    g->MarkDirty();
    log_.AppendPageRecord(&rec, g->view());
  }
  ASSERT_TRUE(pool_->FlushPage(11).ok());
  EXPECT_EQ(listener.calls, 1);
  EXPECT_EQ(listener.last_id, 11u);
  EXPECT_EQ(listener.last_lsn, rec.lsn);
  EXPECT_EQ(listener.last_count, 1u);
  EXPECT_TRUE(listener.last_data_ok);
  // Flushing a clean page does not re-notify.
  ASSERT_TRUE(pool_->FlushPage(11).ok());
  EXPECT_EQ(listener.calls, 1);
}

TEST_F(BufferPoolTest, BackupResetClearsUpdateCounter) {
  CountingListener listener;
  listener.reset_counter = true;  // "a backup was taken"
  pool_->SetWriteCompletionListener(&listener);
  {
    auto g = pool_->FixPage(12, LatchMode::kExclusive);
    g->MarkDirty();
    LogRecord rec;
    rec.type = LogRecordType::kBTreeInsert;
    rec.page_id = 12;
    log_.AppendPageRecord(&rec, g->view());
    EXPECT_EQ(g->view().update_count(), 1u);
  }
  ASSERT_TRUE(pool_->FlushPage(12).ok());
  auto g = pool_->FixPage(12, LatchMode::kShared);
  EXPECT_EQ(g->view().update_count(), 0u);  // reset after "backup"
}

TEST_F(BufferPoolTest, FixNewPageSkipsDeviceRead) {
  DeviceStats before = device_.stats();
  {
    auto g = pool_->FixNewPage(100);
    ASSERT_TRUE(g.ok());
    // Frame is zeroed, ready for formatting.
    EXPECT_EQ(g->view().header()->magic, 0u);
  }
  EXPECT_EQ(device_.stats().page_reads, before.page_reads);
}

TEST_F(BufferPoolTest, SharedLatchAllowsConcurrentReaders) {
  auto a = pool_->FixPage(1, LatchMode::kShared);
  auto b = pool_->FixPage(1, LatchMode::kShared);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());  // would deadlock if shared latches were exclusive
}

}  // namespace
}  // namespace spf
