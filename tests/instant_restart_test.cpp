// Instant restart: Restart() admits transactions after analysis and loser
// undo; each page owing redo is redone by whichever thread loads it first
// (redo on load), and a background sweep redoes the rest in page order
// before taking the end-of-restart checkpoint. The sweep is held with its
// Pause/Resume seam so a test decides which pages are redone on load.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "recovery/checkpoint.h"
#include "recovery/restart_recovery.h"
#include "test_env.h"

namespace spf {
namespace {

std::string Key(int i) {
  char buf[20];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

DatabaseOptions FastOptions() {
  DatabaseOptions o;
  o.num_pages = 4096;
  o.buffer_frames = 512;
  o.data_profile = DeviceProfile::Instant();
  o.log_profile = DeviceProfile::Instant();
  o.backup_profile = DeviceProfile::Instant();
  // No per-page copies: a write-back taking one resets update_count in
  // the frame, which would make the images compared below differ for a
  // reason unrelated to redo.
  o.backup_policy.updates_threshold = 0;
  return o;
}

std::unique_ptr<Database> MakeDb(DatabaseOptions o = FastOptions()) {
  auto db = Database::Create(o);
  SPF_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

void Put(Database* db, int from, int to, const std::string& value) {
  Txn t = db->BeginTxn();
  for (int i = from; i < to; ++i) {
    SPF_CHECK_OK(t.Put(Key(i), value + "-" + std::to_string(i)));
  }
  SPF_CHECK_OK(t.Commit());
}

/// A page image with its checksum recomputed: frames carry the checksum
/// of their last write-back, so only the rest of the page is compared.
std::vector<char> Image(Database* db, PageId p) {
  auto guard = db->pool()->FixPage(p, LatchMode::kShared);
  SPF_CHECK(guard.ok()) << guard.status().ToString();
  PageView page = guard->view();
  std::vector<char> out(page.data(), page.data() + page.size());
  PageView(out.data(), page.size()).UpdateChecksum();
  return out;
}

/// Committed state used by every test: 2,000 keys checkpointed, then
/// updates over all of them that stay in the pool at the crash.
std::unique_ptr<Database> CrashedDb(
    std::map<PageId, std::vector<char>>* images) {
  auto db = MakeDb();
  Put(db.get(), 0, 2000, "v");
  SPF_CHECK_OK(db->Checkpoint().status());
  Put(db.get(), 0, 2000, "w");
  if (images != nullptr) {
    for (const DirtyPageEntry& e : db->pool()->DirtyPages()) {
      (*images)[e.page_id] = Image(db.get(), e.page_id);
    }
  }
  db->SimulateCrash();
  return db;
}

void ExpectCommitted(Database* db, int from, int to, const std::string& value) {
  for (int i = from; i < to; ++i) {
    auto v = db->Get(Key(i));
    ASSERT_TRUE(v.ok()) << Key(i) << ": " << v.status().ToString();
    EXPECT_EQ(*v, value + "-" + std::to_string(i));
  }
}

TEST(InstantRestartTest, RedoOnLoadAndSweepRebuildPreCrashImages) {
  std::map<PageId, std::vector<char>> before;
  auto db = CrashedDb(&before);
  ASSERT_GT(before.size(), 4u);

  db->restart_sweep()->Pause();
  auto stats = db->Restart();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->redo_plan_pages, 0u);
  EXPECT_EQ(stats->redo_applied, 0u);  // nothing is redone before admission

  // The lower half of the pages is redone on load, by this thread...
  const size_t half = before.size() / 2;
  size_t n = 0;
  for (const auto& [p, image] : before) {
    if (n++ == half) break;
    EXPECT_EQ(Image(db.get(), p), image) << "page " << p << " redone on load";
  }
  // ...the upper half by the sweep.
  db->restart_sweep()->Resume();
  auto redo = db->AwaitRestartRedo();
  ASSERT_TRUE(redo.ok()) << redo.status().ToString();
  EXPECT_GT(redo->redo_applied, 0u);
  EXPECT_GT(redo->redo_page_reads, 0u);
  n = 0;
  for (const auto& [p, image] : before) {
    if (n++ < half) continue;
    EXPECT_EQ(Image(db.get(), p), image) << "page " << p << " redone by sweep";
  }
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(InstantRestartTest, HeldSweepServesCommittedValuesAndUndoesLosers) {
  auto db = MakeDb();
  Put(db.get(), 0, 1000, "v");
  ASSERT_TRUE(db->Checkpoint().ok());
  Put(db.get(), 0, 500, "w");
  Txn loser = db->BeginTxn();
  for (int i = 0; i < 1000; i += 10) {
    ASSERT_TRUE(loser.Put(Key(i), "loser").ok());
  }
  db->log()->ForceAll();
  db->SimulateCrash();

  db->restart_sweep()->Pause();
  auto stats = db->Restart();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Undo ran before admission, through redo on load of the pages it fixed.
  EXPECT_EQ(stats->losers, 1u);
  EXPECT_GT(stats->undo_records, 0u);
  ExpectCommitted(db.get(), 0, 500, "w");
  ExpectCommitted(db.get(), 500, 1000, "v");

  db->restart_sweep()->Resume();
  ASSERT_TRUE(db->AwaitRestartRedo().ok());
  ExpectCommitted(db.get(), 0, 500, "w");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(InstantRestartTest, LostPriUpdateRegeneratedOnLoad) {
  // Figure 12, third row, through redo on load: the page write completed
  // but its PriUpdate was in the lost log tail. A per-page copy taken at
  // the checkpoint leaves the PRI without a PageLSN to cross-check, so
  // the newer device image loads as is.
  DatabaseOptions o = FastOptions();
  o.backup_policy.updates_threshold = 50;
  auto db = MakeDb(o);
  Put(db.get(), 0, 100, "v");
  ASSERT_TRUE(db->Checkpoint().ok());
  Put(db.get(), 50, 51, "post-ckpt");
  auto leaf = db->LeafPageOf(Key(50));
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(db->pool()->FlushPage(*leaf).ok());
  db->SimulateCrash();

  db->restart_sweep()->Pause();
  ASSERT_TRUE(db->Restart().ok());
  EXPECT_EQ(*db->Get(Key(50)), "post-ckpt-50");  // loads the leaf
  db->restart_sweep()->Resume();
  auto redo = db->AwaitRestartRedo();
  ASSERT_TRUE(redo.ok()) << redo.status().ToString();
  EXPECT_GE(redo->lost_pri_updates_regenerated, 1u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(InstantRestartTest, NewerImageThanPriCertifiesIsAcceptedOnLoad) {
  // Figure 12, third row, when the PRI certifies an older PageLSN: the
  // checkpoint's write of the leaf is certified, the leaf's next write
  // completes but its PriUpdate is lost with the log tail. Without
  // per-page copies the PRI keeps the older PageLSN, and the newer device
  // image must load as is — not be repaired from backup plus chain.
  auto db = MakeDb();  // updates_threshold = 0
  Put(db.get(), 0, 100, "v");
  ASSERT_TRUE(db->Checkpoint().ok());
  Put(db.get(), 50, 51, "post-ckpt");
  auto leaf = db->LeafPageOf(Key(50));
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(db->pool()->FlushPage(*leaf).ok());
  db->SimulateCrash();

  db->restart_sweep()->Pause();
  ASSERT_TRUE(db->Restart().ok());
  auto entry = db->pri_manager()->pri()->Lookup(*leaf);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  ASSERT_NE(entry->last_lsn, kInvalidLsn);  // the older write is certified
  EXPECT_EQ(*db->Get(Key(50)), "post-ckpt-50");  // loads the leaf
  db->restart_sweep()->Resume();
  auto redo = db->AwaitRestartRedo();
  ASSERT_TRUE(redo.ok()) << redo.status().ToString();
  EXPECT_GE(redo->lost_pri_updates_regenerated, 1u);
  EXPECT_EQ(db->Stats().pool.repairs_attempted, 0u);
  EXPECT_EQ(db->cross_check()->mismatches(), 0u);
  auto certified = db->pri_manager()->pri()->Lookup(*leaf);
  ASSERT_TRUE(certified.ok());
  EXPECT_GT(certified->last_lsn, entry->last_lsn);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(InstantRestartTest, InterleavedLosersOnSharedPagesAreAllUndone) {
  // Three losers and a stream of winners update neighbouring keys, so
  // every leaf carries records of several losers between committed ones.
  auto db = MakeDb();
  Put(db.get(), 0, 600, "v");
  ASSERT_TRUE(db->Checkpoint().ok());
  std::vector<Txn> losers;
  for (int l = 0; l < 3; ++l) losers.push_back(db->BeginTxn());
  for (int base = 0; base < 600; base += 6) {
    for (int l = 0; l < 3; ++l) {
      ASSERT_TRUE(losers[l].Put(Key(base + l), "loser").ok());
      Put(db.get(), base + 3 + l, base + 4 + l, "w");
    }
  }
  db->log()->ForceAll();
  db->SimulateCrash();

  db->restart_sweep()->Pause();
  auto stats = db->Restart();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->losers, 3u);
  for (int base = 0; base < 600; base += 6) {
    ExpectCommitted(db.get(), base, base + 3, "v");
    ExpectCommitted(db.get(), base + 3, base + 6, "w");
  }
  db->restart_sweep()->Resume();
  ASSERT_TRUE(db->AwaitRestartRedo().ok());
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(InstantRestartTest, CrashWhileRedoHalfDone) {
  auto db = CrashedDb(nullptr);
  db->restart_sweep()->Pause();
  ASSERT_TRUE(db->Restart().ok());
  // Half the keys' pages are redone on load, some of them then updated
  // again; the sweep has redone nothing.
  ExpectCommitted(db.get(), 0, 1000, "w");
  Put(db.get(), 0, 200, "x");
  db->SimulateCrash();  // stops the held sweep

  db->restart_sweep()->Resume();
  ASSERT_TRUE(db->Restart().ok());
  ExpectCommitted(db.get(), 0, 200, "x");
  ExpectCommitted(db.get(), 200, 2000, "w");
  ASSERT_TRUE(db->AwaitRestartRedo().ok());
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
  EXPECT_EQ(db->Stats().pool.repairs_attempted, 0u);
  EXPECT_EQ(db->single_page_recovery()->stats().repairs_attempted, 0u);
}

TEST(InstantRestartTest, FullBackupWaitsForSweep) {
  auto db = CrashedDb(nullptr);
  db->restart_sweep()->Pause();
  ASSERT_TRUE(db->Restart().ok());

  std::atomic<bool> done{false};
  Status backup_status;
  std::thread backup([&] {
    backup_status = db->TakeFullBackup().status();
    done.store(true);
  });
  // A pending page's device image lacks its redo: the backup must not
  // copy it before the sweep has run.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load());
  db->restart_sweep()->Resume();
  backup.join();
  ASSERT_TRUE(backup_status.ok()) << backup_status.ToString();

  Put(db.get(), 1000, 1100, "after-backup");
  db->log()->ForceAll();
  db->data_device()->FailDevice();
  auto media = db->RecoverMedia();
  ASSERT_TRUE(media.ok()) << media.status().ToString();
  ExpectCommitted(db.get(), 0, 1000, "w");
  ExpectCommitted(db.get(), 1000, 1100, "after-backup");
  ExpectCommitted(db.get(), 1100, 2000, "w");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(InstantRestartTest, MediaRecoveryCancelsPendingRedo) {
  // A full restore does not wait for the sweep (the sweep may itself be
  // parked in the repair ladder): its replay covers every planned record.
  auto db = MakeDb();
  Put(db.get(), 0, 2000, "v");
  ASSERT_TRUE(db->TakeFullBackup().ok());
  Put(db.get(), 0, 2000, "w");
  db->SimulateCrash();

  db->restart_sweep()->Pause();
  ASSERT_TRUE(db->Restart().ok());
  db->data_device()->FailDevice();
  auto media = db->RecoverMedia();
  ASSERT_TRUE(media.ok()) << media.status().ToString();
  db->restart_sweep()->Resume();
  ASSERT_TRUE(db->AwaitRestartRedo().ok());
  ExpectCommitted(db.get(), 0, 2000, "w");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(InstantRestartTest, UpdateAfterRestartSurvivesTheNextCrash) {
  // An update committed after admission to a leaf that owes no redo,
  // then a crash once the sweep has checkpointed: the next restart must
  // redo it even when no page record follows that checkpoint.
  auto db = MakeDb();
  Put(db.get(), 0, 2000, "v");
  ASSERT_TRUE(db->Checkpoint().ok());
  Put(db.get(), 0, 100, "w");  // only the first leaves owe redo
  db->SimulateCrash();

  db->restart_sweep()->Pause();
  ASSERT_TRUE(db->Restart().ok());
  Put(db.get(), 1900, 1901, "x");
  db->restart_sweep()->Resume();
  ASSERT_TRUE(db->AwaitRestartRedo().ok());
  db->SimulateCrash();

  ASSERT_TRUE(db->Restart().ok());
  ExpectCommitted(db.get(), 0, 100, "w");
  ExpectCommitted(db.get(), 1900, 1901, "x");
  ASSERT_TRUE(db->AwaitRestartRedo().ok());
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(InstantRestartTest, FailedSweepLoadLeavesRestartRetryable) {
  // A planned page that cannot be read: the sweep redoes every other page
  // and reports the failure; checkpoints refuse while that page still
  // owes redo, and a later Restart plans it again.
  DatabaseOptions o = FastOptions();
  o.enable_single_page_repair = false;
  auto db = MakeDb(o);
  Put(db.get(), 0, 2000, "v");
  ASSERT_TRUE(db->Checkpoint().ok());
  Put(db.get(), 0, 2000, "w");
  auto leaf = db->LeafPageOf(Key(1500));
  ASSERT_TRUE(leaf.ok());
  db->SimulateCrash();

  db->data_device()->InjectReadError(*leaf);
  ASSERT_TRUE(db->Restart().ok());
  EXPECT_FALSE(db->AwaitRestartRedo().ok());
  EXPECT_FALSE(db->Checkpoint().ok());
  ExpectCommitted(db.get(), 0, 1000, "w");  // redone despite the failure

  db->data_device()->ClearFault(*leaf);
  ASSERT_TRUE(db->Restart().ok());
  ASSERT_TRUE(db->AwaitRestartRedo().ok());
  ExpectCommitted(db.get(), 0, 2000, "w");
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(RestartPlanTest, ReadsRecordsBelowACheckpointNoPageRecordFollows) {
  // A checkpoint's dirty page table can name a page dirtied before the
  // checkpoint and not flushed by it (a fuzzy checkpoint under traffic)
  // while no page record follows the checkpoint. Analysis then keeps no
  // record of its own, and the plan must come from the older records.
  testenv::TestEnv env;
  ASSERT_TRUE(env.WithTxn([&](Transaction* t) {
                   return env.tree->Insert(t, "k", "v1");
                 }).ok());
  ASSERT_TRUE(env.pool->FlushAll().ok());
  ASSERT_TRUE(env.WithTxn([&](Transaction* t) {
                   return env.tree->Update(t, "k", "v2");
                 }).ok());

  BadBlockList bbl;
  CheckpointEndBody body;
  body.dpt = env.pool->DirtyPages();
  ASSERT_FALSE(body.dpt.empty());
  body.allocator_image = env.alloc->Serialize();
  body.bad_blocks_image = bbl.Serialize();
  body.next_txn_id = env.txns->next_txn_id();
  LogRecord begin;
  begin.type = LogRecordType::kCheckpointBegin;
  const Lsn begin_lsn = env.log->Append(&begin);
  LogRecord end;
  end.type = LogRecordType::kCheckpointEnd;
  end.body = body.Encode();
  env.log->Append(&end);
  env.log->ForceAll();
  env.log->SetMasterRecord(begin_lsn);
  env.pool->DiscardAll();  // the crash: "v2" never reached the device

  RedoPlan plan(/*pri_manager=*/nullptr);
  RestartRecovery restart(env.log.get(), env.pool.get(), env.txns.get(),
                          env.tree.get(), env.alloc.get(), &bbl,
                          /*pri_manager=*/nullptr, &env.clock);
  auto stats = restart.Run(&plan);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->redo_plan_pages, body.dpt.size());
  auto got = env.tree->Get(nullptr, "k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v2");
  env.pool->SetPendingRedo(nullptr);
}

TEST(RestartPlanTest, PageWithRecordsOnBothSidesOfTheMasterRedoesToItsImage) {
  // A page dirtied before a checkpoint that did not flush it and updated
  // again after: its plan joins the older records the plan build reads
  // with the analysis scan's. Out of LSN order, the first record applied
  // would fail the per-page chain check (section 5.1.4).
  testenv::TestEnv env;
  ASSERT_TRUE(env.WithTxn([&](Transaction* t) {
                   return env.tree->Insert(t, "k", "v0");
                 }).ok());
  ASSERT_TRUE(env.pool->FlushAll().ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(env.WithTxn([&](Transaction* t) {
                     return env.tree->Update(t, "k", "v" + std::to_string(i));
                   }).ok());
  }

  BadBlockList bbl;
  CheckpointEndBody body;
  body.dpt = env.pool->DirtyPages();
  ASSERT_EQ(body.dpt.size(), 1u);
  const PageId leaf = body.dpt[0].page_id;
  body.allocator_image = env.alloc->Serialize();
  body.bad_blocks_image = bbl.Serialize();
  body.next_txn_id = env.txns->next_txn_id();
  LogRecord begin;
  begin.type = LogRecordType::kCheckpointBegin;
  const Lsn begin_lsn = env.log->Append(&begin);
  LogRecord end;
  end.type = LogRecordType::kCheckpointEnd;
  end.body = body.Encode();
  env.log->Append(&end);
  for (int i = 4; i <= 6; ++i) {
    ASSERT_TRUE(env.WithTxn([&](Transaction* t) {
                     return env.tree->Update(t, "k", "v" + std::to_string(i));
                   }).ok());
  }
  env.log->ForceAll();
  env.log->SetMasterRecord(begin_lsn);
  std::vector<char> before;
  {
    auto guard = env.pool->FixPage(leaf, LatchMode::kShared);
    ASSERT_TRUE(guard.ok());
    before.assign(guard->view().data(),
                  guard->view().data() + guard->view().size());
    PageView(before.data(), before.size()).UpdateChecksum();
  }
  env.pool->DiscardAll();  // the crash: v1..v6 never reached the device

  RedoPlan plan(/*pri_manager=*/nullptr);
  RestartRecovery restart(env.log.get(), env.pool.get(), env.txns.get(),
                          env.tree.get(), env.alloc.get(), &bbl,
                          /*pri_manager=*/nullptr, &env.clock);
  auto stats = restart.Run(&plan);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->redo_plan_pages, 1u);
  {
    auto guard = env.pool->FixPage(leaf, LatchMode::kShared);
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    std::vector<char> after(guard->view().data(),
                            guard->view().data() + guard->view().size());
    PageView(after.data(), after.size()).UpdateChecksum();
    EXPECT_EQ(after, before);
  }
  RestartStats redo;
  plan.CopyRedoCounts(&redo);
  EXPECT_EQ(redo.redo_applied, 6u);  // three older records, three newer
  EXPECT_EQ(*env.tree->Get(nullptr, "k"), "v6");
  env.pool->SetPendingRedo(nullptr);
}

}  // namespace
}  // namespace spf
