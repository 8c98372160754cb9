// Tests for the sorted log archive (log/log_archive.h): crash-mid-run
// durability (the archive is always a prefix-valid set of runs and
// re-archiving is idempotent), the merge ladder's run-count bound and
// log-tiling invariant, repair equivalence (an archive-merge repair is
// byte-identical to the tail-only chain-walk repair), and the
// archive-truncation watermark handed to the LogManager.

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "bench_util.h"
#include "db/database.h"
#include "log/log_archive.h"

namespace spf {
namespace {

std::string Key(int i) {
  char buf[20];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

DatabaseOptions FastOptions() {
  DatabaseOptions o;
  o.num_pages = 2048;
  o.buffer_frames = 256;
  o.data_profile = DeviceProfile::Instant();
  o.log_profile = DeviceProfile::Instant();
  o.backup_profile = DeviceProfile::Instant();
  // Small runs + small fan-in so a unit-test-sized workload exercises
  // multiple level-0 cuts and the merge ladder.
  o.archive_run_bytes = 4 * 1024;
  o.archive_merge_fanin = 3;
  return o;
}

void Load(Database* db, int lo, int hi, const char* tag = "v") {
  for (int i = lo; i < hi; ++i) {
    Txn t = db->BeginTxn();
    ASSERT_TRUE(t.Put(Key(i), std::string(200, 'a') + tag).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
}

// Every run list published by the archiver tiles the archived log
// interval [first_lsn, archived_upto) contiguously — even across merges.
void ExpectTiling(const std::vector<ArchiveRunInfo>& runs, Lsn first_lsn,
                  Lsn archived_upto) {
  ASSERT_FALSE(runs.empty());
  EXPECT_EQ(runs.front().log_start, first_lsn);
  for (size_t i = 0; i + 1 < runs.size(); ++i) {
    EXPECT_EQ(runs[i].log_end, runs[i + 1].log_start) << "gap after run " << i;
  }
  EXPECT_EQ(runs.back().log_end, archived_upto);
}

TEST(LogArchiveTest, CrashMidRunWriteLeavesPrefixValidArchive) {
  auto db = std::move(Database::Create(FastOptions())).value();
  Load(db.get(), 0, 150);

  LogArchiver* ar = db->archiver();
  // Archive part of the history.
  ASSERT_TRUE(ar->ArchiveTick().ok());
  ASSERT_TRUE(ar->ArchiveTick().ok());
  const Lsn published = ar->archived_upto();
  const size_t runs_published = ar->runs().size();
  ASSERT_GT(published, 0u);
  ASSERT_GT(runs_published, 0u);

  // Crash mid-run-write: the data and header pages of the next run reach
  // the device but the directory publish never happens.
  Load(db.get(), 150, 250);
  ar->FailNextPublishForTest();
  auto crashed = ar->ArchiveTick();
  EXPECT_FALSE(crashed.ok());
  EXPECT_TRUE(crashed.status().IsIOError()) << crashed.status().ToString();
  EXPECT_EQ(ar->archived_upto(), published);
  EXPECT_EQ(ar->runs().size(), runs_published);

  // Recovery from the volume alone: the previous directory is intact, so
  // the orphaned extent is invisible and the archive is exactly the
  // published prefix.
  ArchiverOptions opts;
  opts.run_bytes = FastOptions().archive_run_bytes;
  opts.merge_fanin = FastOptions().archive_merge_fanin;
  LogArchiver recovered(db->archive_device(), db->log(), opts);
  ASSERT_TRUE(recovered.Recover().ok());
  EXPECT_EQ(recovered.archived_upto(), published);
  EXPECT_EQ(recovered.runs().size(), runs_published);

  // Idempotent re-archive: the next drain restarts from the published
  // watermark, re-covers the interval the crashed run spanned, and the
  // final run list tiles the whole durable log.
  ASSERT_TRUE(recovered.ArchiveAll().ok());
  EXPECT_EQ(recovered.archived_upto(), db->log()->durable_lsn());
  ExpectTiling(recovered.runs(), db->log()->first_lsn(),
               recovered.archived_upto());
}

TEST(LogArchiveTest, ArchiveRepairByteIdenticalToTailOnlyRepair) {
  DatabaseOptions o = FastOptions();
  // No per-page copies: the chain anchors at the full backup, giving a
  // long archived history to replay.
  o.backup_policy.updates_threshold = 0;
  auto db = std::move(Database::Create(o)).value();

  Load(db.get(), 0, 100);
  ASSERT_TRUE(db->TakeFullBackup().ok());
  for (int round = 0; round < 20; ++round) {
    Txn t = db->BeginTxn();
    ASSERT_TRUE(t.Put(Key(7), "round" + std::to_string(round)).ok());
    ASSERT_TRUE(t.Commit().ok());
    if (round % 5 == 4) {
      ASSERT_TRUE(db->FlushAll().ok());
    }
  }
  ASSERT_TRUE(db->FlushAll().ok());

  auto leaf = db->LeafPageOf(Key(7));
  ASSERT_TRUE(leaf.ok());
  const PageId p = *leaf;
  const uint32_t page_size = db->options().page_size;
  std::vector<char> ref(page_size);
  db->data_device()->RawRead(p, ref.data());

  SinglePageRecovery* spr = db->single_page_recovery();

  // Baseline: tail-only chain walk (one random log read per record).
  ASSERT_TRUE(db->pool()->DiscardPage(p));
  db->data_device()->InjectSilentCorruption(p);
  std::vector<char> tail_repaired(page_size);
  ASSERT_TRUE(
      bench::RepairPagePerRecord(db.get(), p, tail_repaired.data()).ok());
  EXPECT_EQ(std::memcmp(tail_repaired.data(), ref.data(), page_size), 0);

  // Archive everything, then repair the same page as the read path does:
  // its chain lies below the archive watermark, so positioned sequential
  // archive reads replace the chain walk and the result must be
  // byte-identical.
  ASSERT_TRUE(db->archiver()->ArchiveAll().ok());
  ASSERT_GT(db->archiver()->archived_upto(), 0u);
  const uint64_t archive_reads_before = spr->stats().archive_reads;

  ASSERT_TRUE(db->pool()->DiscardPage(p));
  db->data_device()->InjectSilentCorruption(p);
  std::vector<char> archive_repaired(page_size);
  ASSERT_TRUE(
      db->recovery_scheduler()->RepairPage(p, archive_repaired.data()).ok());

  EXPECT_GT(spr->stats().archive_reads, archive_reads_before)
      << "repair did not touch the archive";
  EXPECT_EQ(std::memcmp(archive_repaired.data(), ref.data(), page_size), 0);
  EXPECT_EQ(std::memcmp(archive_repaired.data(), tail_repaired.data(),
                        page_size),
            0);
}

TEST(LogArchiveTest, MergeLadderBoundsRunCountAndKeepsTiling) {
  auto db = std::move(Database::Create(FastOptions())).value();
  Load(db.get(), 0, 400);
  LogArchiver* ar = db->archiver();
  ASSERT_TRUE(ar->ArchiveAll().ok());

  ArchiveStats stats = ar->stats();
  EXPECT_GT(stats.runs_written, FastOptions().archive_merge_fanin)
      << "workload too small to exercise the ladder";
  EXPECT_GT(stats.merges, 0u);
  EXPECT_GE(stats.runs_merged, 2 * stats.merges);

  // Post-quiescence no level holds a full fan-in of runs, so the run
  // count stays logarithmic in the number of level-0 cuts.
  std::map<uint32_t, size_t> per_level;
  for (const ArchiveRunInfo& r : ar->runs()) per_level[r.level]++;
  for (const auto& [level, count] : per_level) {
    EXPECT_LT(count, FastOptions().archive_merge_fanin) << "level " << level;
  }
  ExpectTiling(ar->runs(), db->log()->first_lsn(), ar->archived_upto());

  // Every archived record streams out per-page ascending, and the totals
  // match the run headers.
  uint64_t streamed = 0;
  std::map<PageId, Lsn> last_seen;
  auto fetched = ar->FetchRange(0, kInvalidPageId - 1, 0,
                                [&](LogRecord&& rec) {
                                  auto it = last_seen.find(rec.page_id);
                                  if (it != last_seen.end()) {
                                    EXPECT_GT(rec.lsn, it->second);
                                  }
                                  last_seen[rec.page_id] = rec.lsn;
                                  streamed++;
                                });
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(streamed, stats.records_archived);
}

// The drain archives each record's bytes as the log scan read them: every
// archived payload is byte-equal to the log at its LSN, and the runs hold
// nothing besides the [u64 lsn][u32 len] frame and those bytes.
TEST(LogArchiveTest, ArchivedPayloadsAreTheLogBytes) {
  auto db = std::move(Database::Create(FastOptions())).value();
  Load(db.get(), 0, 300);
  LogArchiver* ar = db->archiver();
  ASSERT_TRUE(ar->ArchiveAll().ok());
  ASSERT_GT(ar->stats().merges, 0u) << "merged runs should be covered too";

  uint64_t records = 0;
  uint64_t entry_bytes = 0;
  auto fetched = ar->FetchRange(
      0, kInvalidPageId - 1, 0, [&](LogRecord&& rec) {
        std::string logged(rec.length, '\0');
        ASSERT_TRUE(
            db->log()->ReadRaw(rec.lsn, rec.length, logged.data()).ok());
        EXPECT_EQ(rec.Serialize(), logged) << "lsn " << rec.lsn;
        entry_bytes += 8 + 4 + rec.length;
        records++;
      });
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(records, ar->stats().records_archived);
  uint64_t run_bytes = 0;
  for (const ArchiveRunInfo& r : ar->runs()) run_bytes += r.data_bytes;
  EXPECT_EQ(run_bytes, entry_bytes);
}

TEST(LogArchiveTest, TruncationWatermarkNeedsArchiveAndCheckpoint) {
  auto db = std::move(Database::Create(FastOptions())).value();
  Load(db.get(), 0, 100);

  // Archived but the master record still points at the bootstrap
  // checkpoint: the watermark is capped by the checkpoint.
  ASSERT_TRUE(db->archiver()->ArchiveAll().ok());
  const Lsn w1 = db->log()->truncation_watermark();
  EXPECT_EQ(w1, std::min(db->archiver()->archived_upto(),
                         db->log()->GetMasterRecord()));

  // Checkpoint, more traffic, re-archive: the watermark advances but
  // never beyond either bound.
  ASSERT_TRUE(db->Checkpoint().ok());
  Load(db.get(), 100, 150);
  ASSERT_TRUE(db->archiver()->ArchiveAll().ok());
  const Lsn w2 = db->log()->truncation_watermark();
  EXPECT_GT(w2, w1);
  EXPECT_LE(w2, db->archiver()->archived_upto());
  EXPECT_LE(w2, db->log()->GetMasterRecord());

  // Counters surface through the versioned snapshot.
  StatsSnapshot snap = db->Stats();
  EXPECT_EQ(snap.version, StatsSnapshot::kVersion);
  EXPECT_GT(snap.archive.runs_written, 0u);
  EXPECT_GT(snap.archive.archived_bytes, 0u);
  EXPECT_GT(snap.archive.truncated_log_bytes, 0u);
  EXPECT_EQ(snap.archive.archived_upto, db->archiver()->archived_upto());
}

}  // namespace
}  // namespace spf
