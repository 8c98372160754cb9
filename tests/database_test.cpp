// End-to-end tests over the Database facade: the full single-page failure
// story (detect on read, repair online, transactions survive), PRI
// maintenance (Figures 6-11), crash restart (section 5.2.5 / Figure 12),
// media recovery, scrubbing, and offline checks.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "db/database.h"

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
  o.buffer_frames = 256;
  o.data_profile = DeviceProfile::Instant();
  o.log_profile = DeviceProfile::Instant();
  o.backup_profile = DeviceProfile::Instant();
  o.backup_policy.updates_threshold = 50;
  return o;
}

std::unique_ptr<Database> MakeDb(DatabaseOptions o = FastOptions()) {
  auto db = Database::Create(o);
  SPF_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

void Load(Database* db, int from, int to, const std::string& value = "v") {
  Txn t = db->BeginTxn();
  for (int i = from; i < to; ++i) {
    SPF_CHECK_OK(t.Insert(Key(i), value + "-" + std::to_string(i)));
  }
  SPF_CHECK_OK(t.Commit());
}

TEST(DatabaseTest, CreateRejectsTinyDevice) {
  DatabaseOptions o = FastOptions();
  o.num_pages = 100;
  EXPECT_TRUE(Database::Create(o).status().IsInvalidArgument());
}

TEST(DatabaseTest, BasicCrud) {
  auto db = MakeDb();
  Txn t = db->BeginTxn();
  ASSERT_TRUE(t.Insert("a", "1").ok());
  ASSERT_TRUE(t.Put("a", "2").ok());   // upsert over existing
  ASSERT_TRUE(t.Put("b", "3").ok());   // upsert as insert
  ASSERT_TRUE(t.Commit().ok());
  EXPECT_EQ(*db->Get("a"), "2");
  EXPECT_EQ(*db->Get("b"), "3");
}

TEST(DatabaseTest, AbortRollsBackAllUpdates) {
  auto db = MakeDb();
  Load(db.get(), 0, 10);
  Txn t = db->BeginTxn();
  ASSERT_TRUE(t.Insert(Key(100), "new").ok());
  ASSERT_TRUE(t.Update(Key(5), "changed").ok());
  ASSERT_TRUE(t.Delete(Key(7)).ok());
  ASSERT_TRUE(t.Abort().ok());

  EXPECT_TRUE(db->Get(Key(100)).status().IsNotFound());
  EXPECT_EQ(*db->Get(Key(5)), "v-5");
  EXPECT_EQ(*db->Get(Key(7)), "v-7");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// --- the headline scenario: single-page failure repaired online -----------------

class SinglePageFailureTest : public ::testing::TestWithParam<int> {};

TEST_P(SinglePageFailureTest, DetectAndRepairWithoutAbort) {
  // Parameterized over fault kinds: 0 = silent corruption (checksum),
  // 1 = unrecoverable read error, 2 = stale version (PageLSN cross-check).
  auto db = MakeDb();
  Load(db.get(), 0, 2000);
  ASSERT_TRUE(db->Checkpoint().ok());

  auto leaf_or = db->LeafPageOf(Key(1000));
  ASSERT_TRUE(leaf_or.ok());
  PageId victim = *leaf_or;

  if (GetParam() == 2) {
    // Stale-version: capture the current image first, add updates, flush,
    // then revert the device to the captured (valid but old) image.
    db->data_device()->CapturePageVersion(victim);
  }
  // More committed updates so the per-page chain is non-trivial.
  Txn t = db->BeginTxn();
  ASSERT_TRUE(t.Update(Key(1000), "after-fault-value").ok());
  ASSERT_TRUE(t.Commit().ok());
  ASSERT_TRUE(db->FlushAll().ok());
  db->pool()->DiscardAll();  // force the next access to fault from device

  switch (GetParam()) {
    case 0:
      db->data_device()->InjectSilentCorruption(victim);
      break;
    case 1:
      db->data_device()->InjectReadError(victim, /*permanent=*/false);
      break;
    case 2:
      ASSERT_TRUE(db->data_device()->InjectStaleVersion(victim));
      break;
  }

  // The transaction reading through the failure is merely delayed — no
  // abort, correct data (section 5.2.7).
  Txn reader = db->BeginTxn();
  auto v = reader.Get(Key(1000));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "after-fault-value");
  ASSERT_TRUE(reader.Commit().ok());

  auto spr = db->single_page_recovery()->stats();
  EXPECT_EQ(spr.repairs_succeeded, 1u);
  EXPECT_EQ(spr.escalations, 0u);
  if (GetParam() == 2) {
    EXPECT_GE(db->cross_check()->mismatches(), 1u);
  }

  // The device copy was healed in place.
  db->pool()->DiscardAll();
  db->data_device()->ClearFault(victim);
  EXPECT_EQ(*db->Get(Key(1000)), "after-fault-value");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

INSTANTIATE_TEST_SUITE_P(AllFaultKinds, SinglePageFailureTest,
                         ::testing::Values(0, 1, 2));

TEST(DatabaseTest, RepairUsesFormatRecordForYoungPages) {
  // A page that was formatted and written once but never backed up is
  // recovered from its formatting log record (section 5.2.1).
  DatabaseOptions o = FastOptions();
  o.backup_policy.updates_threshold = 0;  // no per-page backups
  auto db = MakeDb(o);
  Load(db.get(), 0, 50);
  ASSERT_TRUE(db->FlushAll().ok());
  auto leaf = db->LeafPageOf(Key(10));
  ASSERT_TRUE(leaf.ok());
  db->pool()->DiscardAll();
  db->data_device()->InjectSilentCorruption(*leaf);

  EXPECT_EQ(*db->Get(Key(10)), "v-10");
  auto spr = db->single_page_recovery()->stats();
  EXPECT_EQ(spr.repairs_succeeded, 1u);
  EXPECT_EQ(spr.last_backup_kind, BackupKind::kFormatRecord);
}

TEST(DatabaseTest, RepairUsesFullBackup) {
  auto db = MakeDb();
  Load(db.get(), 0, 500);
  ASSERT_TRUE(db->TakeFullBackup().ok());
  // A couple of updates after the backup.
  Txn t = db->BeginTxn();
  ASSERT_TRUE(t.Update(Key(42), "post-backup").ok());
  ASSERT_TRUE(t.Commit().ok());
  ASSERT_TRUE(db->FlushAll().ok());

  auto leaf = db->LeafPageOf(Key(42));
  ASSERT_TRUE(leaf.ok());
  db->pool()->DiscardAll();
  db->data_device()->InjectSilentCorruption(*leaf);

  EXPECT_EQ(*db->Get(Key(42)), "post-backup");
  auto spr = db->single_page_recovery()->stats();
  EXPECT_EQ(spr.repairs_succeeded, 1u);
  EXPECT_EQ(spr.last_backup_kind, BackupKind::kFullBackup);
  EXPECT_GT(spr.log_records_applied, 0u);
}

TEST(DatabaseTest, RepairUsesPerPageBackupAfterThreshold) {
  DatabaseOptions o = FastOptions();
  o.backup_policy.updates_threshold = 10;
  auto db = MakeDb(o);
  Load(db.get(), 0, 100);
  // Hammer one key so its leaf crosses the backup threshold on write-back.
  for (int round = 0; round < 5; ++round) {
    Txn t = db->BeginTxn();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(t.Update(Key(50), "round-" + std::to_string(round)).ok());
    }
    ASSERT_TRUE(t.Commit().ok());
    ASSERT_TRUE(db->FlushAll().ok());
  }
  EXPECT_GT(db->pri_manager()->stats().page_backups_triggered, 0u);

  auto leaf = db->LeafPageOf(Key(50));
  ASSERT_TRUE(leaf.ok());
  db->pool()->DiscardAll();
  db->data_device()->InjectSilentCorruption(*leaf);
  EXPECT_EQ(*db->Get(Key(50)), "round-4");
  EXPECT_EQ(db->single_page_recovery()->stats().last_backup_kind,
            BackupKind::kBackupPage);
}

TEST(DatabaseTest, WithoutRepairSupportFailureEscalates) {
  // Figure 1: without single-page recovery, a page failure escalates to a
  // media failure.
  DatabaseOptions o = FastOptions();
  o.enable_single_page_repair = false;
  auto db = MakeDb(o);
  Load(db.get(), 0, 500);
  ASSERT_TRUE(db->FlushAll().ok());
  auto leaf = db->LeafPageOf(Key(100));
  ASSERT_TRUE(leaf.ok());
  db->pool()->DiscardAll();
  db->data_device()->InjectSilentCorruption(*leaf);

  auto v = db->Get(Key(100));
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsMediaFailure()) << v.status().ToString();
}

TEST(DatabaseTest, MultiPageFailureAllRepaired) {
  auto db = MakeDb();
  Load(db.get(), 0, 3000);
  ASSERT_TRUE(db->TakeFullBackup().ok());
  ASSERT_TRUE(db->FlushAll().ok());
  db->pool()->DiscardAll();

  // Corrupt many distinct leaves.
  std::set<PageId> victims;
  for (int i = 0; i < 3000; i += 100) {
    auto leaf = db->LeafPageOf(Key(i));
    ASSERT_TRUE(leaf.ok());
    victims.insert(*leaf);
  }
  db->pool()->DiscardAll();
  for (PageId v : victims) db->data_device()->InjectSilentCorruption(v);

  for (int i = 0; i < 3000; i += 100) {
    auto v = db->Get(Key(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status().ToString();
  }
  EXPECT_GE(db->single_page_recovery()->stats().repairs_succeeded,
            victims.size());
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// --- PRI maintenance (Figures 6, 9, 11) -------------------------------------------

TEST(DatabaseTest, PriEntryLagsWhileBufferedAndExactAfterWriteBack) {
  auto db = MakeDb();
  Load(db.get(), 0, 10);
  auto leaf = db->LeafPageOf(Key(5));
  ASSERT_TRUE(leaf.ok());

  // Update while buffered: the PRI's information is allowed to lag
  // (Figure 6 dashed line).
  Txn t = db->BeginTxn();
  ASSERT_TRUE(t.Update(Key(5), "x").ok());
  ASSERT_TRUE(t.Commit().ok());
  Lsn buffered_lsn;
  {
    auto g = db->pool()->FixPage(*leaf, LatchMode::kShared);
    ASSERT_TRUE(g.ok());
    buffered_lsn = g->view().page_lsn();
  }
  auto entry_before = db->pri()->Lookup(*leaf);
  if (entry_before.ok()) {
    EXPECT_NE(entry_before->last_lsn, buffered_lsn) << "PRI must lag";
  }

  // After write-back the PRI is exact (Figure 9).
  ASSERT_TRUE(db->FlushAll().ok());
  auto entry_after = db->pri()->Lookup(*leaf);
  ASSERT_TRUE(entry_after.ok());
  EXPECT_EQ(entry_after->last_lsn, buffered_lsn);
}

TEST(DatabaseTest, PriUpdateRecordsFollowWrites) {
  auto db = MakeDb();
  uint64_t pri_before =
      db->log()->stats().per_type.count(LogRecordType::kPriUpdate)
          ? db->log()->stats().per_type.at(LogRecordType::kPriUpdate)
          : 0;
  uint64_t wb_before = db->pool()->stats().write_backs;
  Load(db.get(), 0, 200);
  ASSERT_TRUE(db->FlushAll().ok());
  uint64_t pri_after = db->log()->stats().per_type.at(LogRecordType::kPriUpdate);
  uint64_t wb_after = db->pool()->stats().write_backs;
  EXPECT_GT(pri_after, pri_before);
  // Exactly one PriUpdate per completed page write (section 5.2.4: the
  // same count as the classic "log completed writes" optimization).
  EXPECT_EQ(pri_after - pri_before, wb_after - wb_before);
}

// --- crash restart (section 5.2.5, Figure 12) ---------------------------------------

TEST(DatabaseTest, RestartRecoversCommittedLosesUncommitted) {
  auto db = MakeDb();
  Load(db.get(), 0, 500);
  ASSERT_TRUE(db->Checkpoint().ok());

  // Committed after the checkpoint: must survive.
  Txn committed = db->BeginTxn();
  ASSERT_TRUE(committed.Insert("committed-key", "yes").ok());
  ASSERT_TRUE(committed.Update(Key(10), "updated").ok());
  ASSERT_TRUE(committed.Commit().ok());

  // Uncommitted at crash: must vanish.
  Txn loser = db->BeginTxn();
  ASSERT_TRUE(loser.Insert("loser-key", "no").ok());
  ASSERT_TRUE(loser.Update(Key(20), "loser-change").ok());
  ASSERT_TRUE(loser.Delete(Key(30)).ok());
  // Concurrent activity forces the log: the loser's records are durable
  // even though it never commits — exactly the loser a restart must undo.
  db->log()->ForceAll();

  db->SimulateCrash();
  auto stats = db->Restart();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->losers, 1u);
  EXPECT_GT(stats->undo_records, 0u);

  EXPECT_EQ(*db->Get("committed-key"), "yes");
  EXPECT_EQ(*db->Get(Key(10)), "updated");
  EXPECT_TRUE(db->Get("loser-key").status().IsNotFound());
  EXPECT_EQ(*db->Get(Key(20)), "v-20");
  EXPECT_EQ(*db->Get(Key(30)), "v-30");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(DatabaseTest, RestartIsIdempotent) {
  // Crash during recovery -> rerun is safe (invariant R1).
  auto db = MakeDb();
  Load(db.get(), 0, 300);
  Txn loser = db->BeginTxn();
  ASSERT_TRUE(loser.Insert("loser", "x").ok());
  db->SimulateCrash();
  ASSERT_TRUE(db->Restart().ok());
  db->SimulateCrash();  // crash right after recovery
  ASSERT_TRUE(db->Restart().ok());
  EXPECT_TRUE(db->Get("loser").status().IsNotFound());
  EXPECT_EQ(*db->Get(Key(0)), "v-0");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(DatabaseTest, RestartUsesWriteCertificationsToSkipReads) {
  // Figure 4 / section 5.2.5: PriUpdate records spare redo its random
  // reads for pages whose writes completed.
  auto db = MakeDb();
  Load(db.get(), 0, 2000);
  ASSERT_TRUE(db->Checkpoint().ok());
  Load(db.get(), 2000, 2500);
  ASSERT_TRUE(db->FlushAll().ok());  // writes + PriUpdates, all durable?
  db->log()->ForceAll();

  db->SimulateCrash();
  ASSERT_TRUE(db->Restart().ok());
  auto stats = db->AwaitRestartRedo();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->write_certifications_seen, 0u);
  // Every write was certified: redo has nothing to read at all — the
  // full payoff of Figure 4's optimization.
  EXPECT_EQ(stats->redo_page_reads, 0u);
  EXPECT_EQ(*db->Get(Key(2499)), "v-2499");
}

TEST(DatabaseTest, RestartRegeneratesLostPriUpdates) {
  // Figure 12, third row: page written, crash before the PriUpdate is
  // durable -> restart finds the page current and regenerates the record.
  auto db = MakeDb();
  Load(db.get(), 0, 100);
  ASSERT_TRUE(db->Checkpoint().ok());

  Txn t = db->BeginTxn();
  ASSERT_TRUE(t.Update(Key(50), "post-ckpt").ok());
  ASSERT_TRUE(t.Commit().ok());
  // Flush the page: the data write completes; the PriUpdate record sits in
  // the unforced log tail and is lost by the crash.
  auto leaf = db->LeafPageOf(Key(50));
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(db->pool()->FlushPage(*leaf).ok());

  db->SimulateCrash();
  ASSERT_TRUE(db->Restart().ok());
  auto stats = db->AwaitRestartRedo();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->lost_pri_updates_regenerated, 1u);
  EXPECT_EQ(*db->Get(Key(50)), "post-ckpt");
}

TEST(DatabaseTest, RestartRedoesRecordsAfterMidWorkloadFlush) {
  // Regression test: a FLUSHED page's write certification raises its
  // recLSN to a mid-record marker; updates to OTHER pages after the flush
  // must still be redone (the redo scan must start at a record boundary
  // at or before them, not at the raised marker).
  auto db = MakeDb();
  Load(db.get(), 0, 500);
  ASSERT_TRUE(db->Checkpoint().ok());

  // Update + flush one page: its certification becomes the smallest
  // raised recLSN in the DPT.
  Txn t1 = db->BeginTxn();
  ASSERT_TRUE(t1.Update(Key(10), "flushed-update").ok());
  ASSERT_TRUE(t1.Commit().ok());
  ASSERT_TRUE(db->FlushAll().ok());

  // Then plenty of unflushed committed updates elsewhere.
  Txn t2 = db->BeginTxn();
  for (int i = 1000; i < 1800; ++i) {
    ASSERT_TRUE(t2.Insert(Key(i), "must-survive").ok());
  }
  ASSERT_TRUE(t2.Commit().ok());

  db->SimulateCrash();
  ASSERT_TRUE(db->Restart().ok());
  auto stats = db->AwaitRestartRedo();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->redo_applied, 100u);
  EXPECT_EQ(*db->Get(Key(10)), "flushed-update");
  EXPECT_EQ(*db->Get(Key(1799)), "must-survive");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(DatabaseTest, RepairWorksAfterRestart) {
  // PRI reloaded from its pages + analysis; single-page recovery must
  // still work on the restarted database.
  auto db = MakeDb();
  Load(db.get(), 0, 1000);
  ASSERT_TRUE(db->TakeFullBackup().ok());
  Load(db.get(), 1000, 1200);
  ASSERT_TRUE(db->Checkpoint().ok());

  db->SimulateCrash();
  ASSERT_TRUE(db->Restart().ok());
  // DiscardAll drops dirty frames: let the sweep finish redo first.
  ASSERT_TRUE(db->AwaitRestartRedo().ok());

  auto leaf = db->LeafPageOf(Key(500));
  ASSERT_TRUE(leaf.ok());
  db->pool()->DiscardAll();
  db->data_device()->InjectSilentCorruption(*leaf);
  EXPECT_EQ(*db->Get(Key(500)), "v-500");
  EXPECT_EQ(db->single_page_recovery()->stats().repairs_succeeded, 1u);
}

TEST(DatabaseTest, PriPageFailureRecoveredFromOtherPartition) {
  // Invariant P2: a lost PRI page is rebuilt from the other partition's
  // covering entry plus its own chain of PriUpdate records.
  auto db = MakeDb();
  Load(db.get(), 0, 1000);
  ASSERT_TRUE(db->Checkpoint().ok());  // writes PRI pages + their backups
  Load(db.get(), 1000, 1100);
  ASSERT_TRUE(db->Checkpoint().ok());

  // Corrupt the PRI page covering the actual data pages (window 0, a
  // partition-B page at the device tail).
  const PriLayout& layout = db->pri_manager()->layout();
  PageId pri_page = layout.PriPageOfWindow(0);
  db->data_device()->InjectSilentCorruption(pri_page);

  db->SimulateCrash();
  auto stats = db->Restart();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(db->pri_manager()->stats().pri_pages_recovered, 1u);
  EXPECT_EQ(*db->Get(Key(1050)), "v-1050");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// --- media recovery (section 5.1.3) ---------------------------------------------------

TEST(DatabaseTest, MediaRecoveryChecksEachPageChain) {
  // Section 5.1.4 in full restore: a backup image older than the chain
  // the replayed records continue (one update missing between them) is a
  // gap, reported as Corruption instead of replayed over.
  DatabaseOptions o = FastOptions();
  o.backup_policy.updates_threshold = 0;
  auto db = MakeDb(o);
  Load(db.get(), 0, 100);
  ASSERT_TRUE(db->FlushAll().ok());
  auto leaf = db->LeafPageOf(Key(7));
  ASSERT_TRUE(leaf.ok());
  std::vector<char> older(o.page_size);
  db->data_device()->RawRead(*leaf, older.data());

  Txn t1 = db->BeginTxn();
  ASSERT_TRUE(t1.Update(Key(7), "in-the-backup").ok());
  ASSERT_TRUE(t1.Commit().ok());
  ASSERT_TRUE(db->TakeFullBackup().ok());
  Txn t2 = db->BeginTxn();
  ASSERT_TRUE(t2.Update(Key(7), "replayed").ok());
  ASSERT_TRUE(t2.Commit().ok());

  // The backup slot of page p is slot p: put the pre-update image there.
  db->backup_device()->RawWrite(*leaf, older.data());
  db->data_device()->FailDevice();
  auto stats = db->RecoverMedia();
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsCorruption()) << stats.status().ToString();
}

TEST(DatabaseTest, MediaRecoveryRestoresEverythingCommitted) {
  auto db = MakeDb();
  Load(db.get(), 0, 800);
  ASSERT_TRUE(db->TakeFullBackup().ok());
  Load(db.get(), 800, 1200);
  Txn t = db->BeginTxn();
  ASSERT_TRUE(t.Update(Key(100), "after-backup").ok());
  ASSERT_TRUE(t.Commit().ok());
  db->log()->ForceAll();

  db->data_device()->FailDevice();
  {
    // Everything fails while the device is down.
    db->pool()->DiscardAll();
    auto v = db->Get(Key(100));
    EXPECT_TRUE(v.status().IsMediaFailure());
  }

  auto stats = db->RecoverMedia();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->pages_restored, db->options().num_pages);
  EXPECT_GT(stats->redo_applied, 0u);

  EXPECT_EQ(*db->Get(Key(100)), "after-backup");
  EXPECT_EQ(*db->Get(Key(1100)), "v-1100");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(DatabaseTest, MediaRecoveryAbortsActiveTransactions) {
  auto db = MakeDb();
  Load(db.get(), 0, 300);
  ASSERT_TRUE(db->TakeFullBackup().ok());

  Txn active = db->BeginTxn();
  ASSERT_TRUE(active.Insert("in-flight", "x").ok());
  db->log()->ForceAll();  // its records are durable, but it never commits

  db->data_device()->FailDevice();
  db->pool()->DiscardAll();
  ASSERT_TRUE(db->RecoverMedia().ok());

  EXPECT_TRUE(db->Get("in-flight").status().IsNotFound());
  EXPECT_EQ(*db->Get(Key(0)), "v-0");
}

// Regression (found by the chaos harness, seed 5): a full backup must not
// copy a broken page image over the only good backup of that page. The
// page is repaired first — consulting the still-intact old backup — and
// the verified image is what lands on the backup device.
TEST(DatabaseTest, FullBackupHealsBrokenPageInsteadOfCopyingIt) {
  auto db = MakeDb();
  Load(db.get(), 0, 2000);
  ASSERT_TRUE(db->TakeFullBackup().ok());  // good backup #1
  Load(db.get(), 2000, 2200);
  ASSERT_TRUE(db->FlushAll().ok());

  auto leaf = db->LeafPageOf(Key(100));
  ASSERT_TRUE(leaf.ok());
  db->pool()->DiscardPage(*leaf);
  db->data_device()->InjectSilentCorruption(*leaf);

  // Backup #2 hits the corrupt image, routes it through single-page
  // repair, and copies the healed page.
  auto b2 = db->TakeFullBackup();
  ASSERT_TRUE(b2.ok()) << b2.status().ToString();

  // Backup #2 is now the only basis for media recovery; if it had copied
  // the garbage image, the restore (or the offline check after it) fails.
  db->data_device()->FailDevice();
  db->pool()->DiscardAll();
  ASSERT_TRUE(db->RecoverMedia().ok());
  EXPECT_EQ(*db->Get(Key(100)), "v-100");
  EXPECT_EQ(*db->Get(Key(2100)), "v-2100");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// Companion regression: when the broken page cannot be healed (a worn
// location re-corrupts every repair write), the backup must ABORT rather
// than publish a catalog entry whose image set contains garbage — and the
// previous backup must remain usable.
TEST(DatabaseTest, FullBackupAbortsOnUnhealablePageKeepingOldBackup) {
  auto db = MakeDb();
  Load(db.get(), 0, 2000);
  ASSERT_TRUE(db->TakeFullBackup().ok());
  auto first = db->backups()->latest_full_backup();
  ASSERT_TRUE(first.has_value());
  Load(db.get(), 2000, 2200);
  ASSERT_TRUE(db->FlushAll().ok());

  auto leaf = db->LeafPageOf(Key(1500));
  ASSERT_TRUE(leaf.ok());
  db->pool()->DiscardPage(*leaf);
  // Exhausted wear budget: every repair write lands scrambled, so the
  // page can never be brought to a verified state in place.
  db->data_device()->SetWearOutLimit(*leaf, 0);
  db->data_device()->InjectSilentCorruption(*leaf);

  EXPECT_FALSE(db->TakeFullBackup().ok());
  auto latest = db->backups()->latest_full_backup();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->id, first->id);  // catalog still points at backup #1

  // Retire the worn location; backup #1 plus the log heals the page.
  db->data_device()->ClearFault(*leaf);
  auto healed = db->RecoverPages({*leaf});
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(*db->Get(Key(1500)), "v-1500");
  EXPECT_EQ(*db->Get(Key(2100)), "v-2100");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// --- scrubbing & offline checks --------------------------------------------------------

TEST(DatabaseTest, ScrubFindsAndHealsLatentErrors) {
  // Bairavasundaram-style latent sector errors surface during scrubbing
  // and are repaired in place.
  auto db = MakeDb();
  Load(db.get(), 0, 2000);
  ASSERT_TRUE(db->TakeFullBackup().ok());
  ASSERT_TRUE(db->FlushAll().ok());
  db->pool()->DiscardAll();

  std::set<PageId> victims;
  for (int i = 0; i < 2000; i += 400) {
    auto leaf = db->LeafPageOf(Key(i));
    ASSERT_TRUE(leaf.ok());
    victims.insert(*leaf);
  }
  db->pool()->DiscardAll();
  for (PageId v : victims) db->data_device()->InjectSilentCorruption(v);

  auto scrub = db->Scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  EXPECT_GE(scrub->failures_detected, victims.size());
  EXPECT_GE(scrub->pages_repaired, victims.size());

  // A second scrub is clean.
  db->pool()->DiscardAll();
  auto again = db->Scrub();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->failures_detected, 0u);
}

TEST(DatabaseTest, CheckOfflineDetectsDeviceCorruption) {
  auto db = MakeDb();
  Load(db.get(), 0, 500);
  ASSERT_TRUE(db->FlushAll().ok());
  uint64_t checked = 0;
  ASSERT_TRUE(db->CheckOffline(&checked).ok());
  EXPECT_GT(checked, 2u);

  auto leaf = db->LeafPageOf(Key(250));
  ASSERT_TRUE(leaf.ok());
  db->data_device()->InjectSilentCorruption(*leaf);
  db->pool()->DiscardPage(*leaf);
  EXPECT_FALSE(db->CheckOffline(nullptr).ok());
}

// --- randomized crash-recovery property test (invariant R2) -----------------------------

TEST(DatabaseCrashPropertyTest, RandomWorkloadRandomCrashes) {
  auto db = MakeDb();
  std::map<std::string, std::string> committed;
  Random rng(4242);

  for (int round = 0; round < 8; ++round) {
    // A few committed transactions.
    for (int txn_i = 0; txn_i < 5; ++txn_i) {
      Txn t = db->BeginTxn();
      std::map<std::string, std::string> local = committed;
      for (int op = 0; op < 30; ++op) {
        std::string key = Key(static_cast<int>(rng.Uniform(400)));
        if (rng.Bernoulli(0.7)) {
          std::string value = rng.NextString(20);
          ASSERT_TRUE(t.Put(key, value).ok());
          local[key] = value;
        } else if (local.count(key)) {
          ASSERT_TRUE(t.Delete(key).ok());
          local.erase(key);
        }
      }
      if (rng.Bernoulli(0.75)) {
        ASSERT_TRUE(t.Commit().ok());
        committed = local;
      } else {
        ASSERT_TRUE(t.Abort().ok());
      }
    }
    // One in-flight transaction that dies with the crash.
    Txn loser = db->BeginTxn();
    for (int op = 0; op < 10; ++op) {
      loser.Put(Key(static_cast<int>(rng.Uniform(400))), "loser");
    }
    // Random operational events.
    if (rng.Bernoulli(0.5)) {
      ASSERT_TRUE(db->Checkpoint().ok());
    }
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE(db->FlushAll().ok());
    }

    db->SimulateCrash();
    auto stats = db->Restart();
    ASSERT_TRUE(stats.ok()) << "round " << round << ": "
                            << stats.status().ToString();

    // R2: exactly the committed state, tree invariants intact.
    for (const auto& [k, v] : committed) {
      auto got = db->Get(k);
      ASSERT_TRUE(got.ok()) << "round " << round << " key " << k;
      EXPECT_EQ(*got, v);
    }
    uint64_t count = 0;
    ASSERT_TRUE(db->Scan("", "", [&](std::string_view k, std::string_view v) {
      auto it = committed.find(std::string(k));
      EXPECT_NE(it, committed.end()) << "phantom key " << k;
      if (it != committed.end()) {
        EXPECT_EQ(v, it->second);
      }
      count++;
      return true;
    }).ok());
    EXPECT_EQ(count, committed.size()) << "round " << round;
    ASSERT_TRUE(db->CheckOffline(nullptr).ok()) << "round " << round;
  }
}

}  // namespace
}  // namespace spf
