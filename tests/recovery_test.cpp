// Unit tests for the recovery module: checkpoint body codec, checkpoint
// behavior (section 5.2.6), and the rollback executor (section 5.1.1),
// including partial-rollback resume via CLR undo_next chains.

#include <gtest/gtest.h>

#include "db/database.h"
#include "recovery/checkpoint.h"
#include "recovery/rollback.h"

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
  return o;
}

TEST(CheckpointBodyTest, EncodeDecodeRoundTrip) {
  CheckpointEndBody body;
  body.dpt = {{7, 100}, {9, 220}};
  body.txn_table = {{3, 500, false}, {4, 600, true}};
  body.allocator_image = "alloc-bytes";
  body.bad_blocks_image = "bbl-bytes";
  body.next_txn_id = 42;

  auto decoded = CheckpointEndBody::Decode(body.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->dpt.size(), 2u);
  EXPECT_EQ(decoded->dpt[0].page_id, 7u);
  EXPECT_EQ(decoded->dpt[1].rec_lsn, 220u);
  ASSERT_EQ(decoded->txn_table.size(), 2u);
  EXPECT_EQ(decoded->txn_table[0].txn_id, 3u);
  EXPECT_FALSE(decoded->txn_table[0].is_system);
  EXPECT_TRUE(decoded->txn_table[1].is_system);
  EXPECT_EQ(decoded->allocator_image, "alloc-bytes");
  EXPECT_EQ(decoded->bad_blocks_image, "bbl-bytes");
  EXPECT_EQ(decoded->next_txn_id, 42u);
}

TEST(CheckpointBodyTest, DecodeRejectsTruncation) {
  CheckpointEndBody body;
  body.dpt = {{1, 2}};
  std::string wire = body.Encode();
  for (size_t cut : {0ul, 3ul, wire.size() / 2}) {
    EXPECT_TRUE(CheckpointEndBody::Decode(wire.substr(0, cut))
                    .status()
                    .IsCorruption())
        << cut;
  }
}

TEST(CheckpointTest, FlushesDirtyPagesAndWritesEndRecord) {
  auto db = std::move(Database::Create(FastOptions())).value();
  Txn t = db->BeginTxn();
  for (int i = 0; i < 500; ++i) SPF_CHECK_OK(t.Insert(Key(i), "v"));
  SPF_CHECK_OK(t.Commit());
  ASSERT_GT(db->pool()->DirtyPages().size(), 0u);

  auto stats = db->Checkpoint();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->pages_flushed, 0u);
  EXPECT_NE(stats->begin_lsn, kInvalidLsn);
  EXPECT_GT(stats->end_lsn, stats->begin_lsn);
  // Master record points at the begin record, durable.
  EXPECT_EQ(db->log()->GetMasterRecord(), stats->begin_lsn);
  EXPECT_GE(db->log()->durable_lsn(), stats->end_lsn);
  // The pages dirty at start are clean now.
  EXPECT_TRUE(db->pool()->DirtyPages().empty());
}

TEST(CheckpointTest, ActiveTxnAppearsInEndRecord) {
  auto db = std::move(Database::Create(FastOptions())).value();
  Txn active = db->BeginTxn();
  SPF_CHECK_OK(active.Insert("live", "x"));
  auto stats = db->Checkpoint();
  ASSERT_TRUE(stats.ok());

  auto end_rec = db->log()->Read(stats->end_lsn);
  ASSERT_TRUE(end_rec.ok());
  auto body = CheckpointEndBody::Decode(end_rec->body);
  ASSERT_TRUE(body.ok());
  bool found = false;
  for (const auto& e : body->txn_table) {
    if (e.txn_id == active.id()) found = true;
  }
  EXPECT_TRUE(found);
  SPF_CHECK_OK(active.Commit());
}

TEST(CheckpointTest, RestartDoesNotResurrectCommittedTxnFromCheckpointTable) {
  // Regression: a checkpoint snapshots its txn table before appending the
  // end record, so a transaction that commits in that window can appear
  // in the table even though its commit record PRECEDES the checkpoint
  // record in the log. The writer side now closes the window with the
  // commit gate, and restart analysis independently refuses to re-seed a
  // transaction whose finish record the scan already passed. This test
  // forges the hazardous log shape directly (commit record, then a
  // checkpoint-end record still listing the txn as active) and checks
  // that restart leaves the committed write in place.
  auto db = std::move(Database::Create(FastOptions())).value();
  {
    Txn seed = db->BeginTxn();
    SPF_CHECK_OK(seed.Insert(Key(1), "v1"));
    SPF_CHECK_OK(seed.Commit());
  }
  auto ckpt = db->Checkpoint();
  ASSERT_TRUE(ckpt.ok());
  auto real_end = db->log()->Read(ckpt->end_lsn);
  ASSERT_TRUE(real_end.ok());
  auto real_body = CheckpointEndBody::Decode(real_end->body);
  ASSERT_TRUE(real_body.ok());

  // The victim: updates an existing key (no page allocation, so the real
  // checkpoint's allocator image stays accurate) and commits durably.
  Txn victim = db->BeginTxn();
  SPF_CHECK_OK(victim.Put(Key(1), "v2"));
  TxnId victim_id = victim.id();
  SPF_CHECK_OK(victim.Commit());

  // Forge the race: a checkpoint-end record appended AFTER the commit
  // record whose table claims the victim is still active.
  CheckpointEndBody forged = *real_body;
  forged.txn_table.push_back({victim_id, db->log()->tail_lsn(), false});
  LogRecord end;
  end.type = LogRecordType::kCheckpointEnd;
  end.body = forged.Encode();
  db->log()->Append(&end);
  db->log()->ForceAll();

  db->SimulateCrash();
  ASSERT_TRUE(db->Restart().ok());
  auto got = db->Get(Key(1));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v2");  // the committed write survived restart undo
}

TEST(CheckpointTest, RestartResumesTxnIdsAboveEveryLoggedId) {
  // Splits run as system transactions begun inside a user transaction, so
  // the log's highest id can belong to a system transaction that follows
  // the last user record and the checkpoint. The next transaction after
  // restart must still get an id no logged record carries.
  auto db = std::move(Database::Create(FastOptions())).value();
  {
    Txn seed = db->BeginTxn();
    SPF_CHECK_OK(seed.Insert(Key(0), "v"));
    SPF_CHECK_OK(seed.Commit());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  {
    Txn grow = db->BeginTxn();
    for (int i = 1; i < 2000; ++i) SPF_CHECK_OK(grow.Insert(Key(i), "v"));
    SPF_CHECK_OK(grow.Commit());
  }
  db->SimulateCrash();

  TxnId max_logged = kInvalidTxnId;
  bool system_last = false;
  for (auto it = db->log()->Scan(db->log()->first_lsn()); it.Valid();
       it.Next()) {
    if (it.record().txn_id > max_logged) {
      max_logged = it.record().txn_id;
      system_last = it.record().is_system_txn();
    }
  }
  ASSERT_TRUE(system_last);  // the case the id sequence must cover
  db->restart_sweep()->Pause();
  ASSERT_TRUE(db->Restart().ok());
  Txn next = db->BeginTxn();
  EXPECT_GT(next.id(), max_logged);
  ASSERT_TRUE(next.Commit().ok());
  db->restart_sweep()->Resume();
  ASSERT_TRUE(db->AwaitRestartRedo().ok());
}

TEST(CheckpointTest, PriTailDoesNotCascadeWithinOneCheckpoint) {
  // Section 5.2.6: writing PRI pages dirties OTHER PRI windows; those are
  // deliberately left for the next checkpoint rather than chased.
  auto db = std::move(Database::Create(FastOptions())).value();
  Txn t = db->BeginTxn();
  for (int i = 0; i < 500; ++i) SPF_CHECK_OK(t.Insert(Key(i), "v"));
  SPF_CHECK_OK(t.Commit());
  ASSERT_TRUE(db->Checkpoint().ok());
  // The cascade leaves some window dirty — and the next checkpoint picks
  // it up without needing data-page work.
  auto second = db->Checkpoint();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->pages_flushed, 0u);  // no data pages were dirty
}

TEST(RollbackTest, FullRollbackCompensatesEverything) {
  auto db = std::move(Database::Create(FastOptions())).value();
  Txn setup = db->BeginTxn();
  SPF_CHECK_OK(setup.Insert("a", "1"));
  SPF_CHECK_OK(setup.Insert("b", "2"));
  SPF_CHECK_OK(setup.Commit());

  Txn t = db->BeginTxn();
  SPF_CHECK_OK(t.Insert("c", "3"));
  SPF_CHECK_OK(t.Update("a", "1b"));
  SPF_CHECK_OK(t.Delete("b"));

  RollbackExecutor exec(db->log(), db->tree(), db->txns());
  auto stats = exec.Rollback(t.handle());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_undone, 3u);

  EXPECT_TRUE(db->Get("c").status().IsNotFound());
  EXPECT_EQ(*db->Get("a"), "1");
  EXPECT_EQ(*db->Get("b"), "2");
}

TEST(RollbackTest, ClrChainSkipsAlreadyCompensatedWork) {
  // Simulate a rollback interrupted midway: undo the last record by hand
  // (logging a CLR), then run the executor — it must skip the already-
  // compensated record via undo_next and not compensate twice.
  auto db = std::move(Database::Create(FastOptions())).value();
  Txn setup = db->BeginTxn();
  SPF_CHECK_OK(setup.Insert("x", "orig"));
  SPF_CHECK_OK(setup.Commit());

  Txn t = db->BeginTxn();
  SPF_CHECK_OK(t.Update("x", "v1"));
  SPF_CHECK_OK(t.Update("x", "v2"));

  // Manual partial undo of the SECOND update.
  auto rec2 = db->log()->Read(t.handle()->last_lsn());
  ASSERT_TRUE(rec2.ok());
  ASSERT_TRUE(db->tree()->UndoRecord(t.handle(), *rec2).ok());
  EXPECT_EQ(*db->Get("x"), "v1");

  RollbackExecutor exec(db->log(), db->tree(), db->txns());
  auto stats = exec.Rollback(t.handle());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_undone, 1u);  // only the FIRST update remained
  EXPECT_GE(stats->clr_skips, 1u);
  EXPECT_EQ(*db->Get("x"), "orig");
}

TEST(RollbackTest, RollbackAfterSplitFindsMovedKeys) {
  // Logical undo must re-locate keys that splits moved to other pages.
  auto db = std::move(Database::Create(FastOptions())).value();
  Txn t = db->BeginTxn();
  SPF_CHECK_OK(t.Insert(Key(0), std::string(400, 'a')));
  // Big inserts force splits while t is still active; t's first insert
  // may migrate to a different leaf.
  for (int i = 1; i < 200; ++i) {
    SPF_CHECK_OK(t.Insert(Key(i), std::string(400, 'b')));
  }
  RollbackExecutor exec(db->log(), db->tree(), db->txns());
  auto stats = exec.Rollback(t.handle());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_undone, 200u);
  for (int i = 0; i < 200; i += 20) {
    EXPECT_TRUE(db->Get(Key(i)).status().IsNotFound()) << i;
  }
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// A repair whose backup source is an individual per-page copy must
// reproduce the live frame's update-count cadence exactly. The pool asks
// the listener BackupImminent() before the device write and restarts the
// counter BEFORE checksumming, so the device image, the per-page copy,
// and the live frame all record the cadence restart at the same write —
// and copy + k replayed chain records lands on exactly count k. The
// repaired image is byte-identical to the never-failed one.
TEST(UpdateCountCadenceTest, PerPageCopyReplayMatchesLiveCadence) {
  DatabaseOptions options = FastOptions();
  options.backup_policy.updates_threshold = 3;
  auto db = std::move(Database::Create(options)).value();

  Txn t = db->BeginTxn();
  SPF_CHECK_OK(t.Insert("k", "v0"));
  SPF_CHECK_OK(t.Commit());
  auto leaf = db->LeafPageOf("k");
  ASSERT_TRUE(leaf.ok());
  PageId p = *leaf;

  // Write-back 1: image carries count 2 (format + insert, < threshold) —
  // no copy.
  ASSERT_TRUE(db->FlushAll().ok());
  // Write-back 2: counter crossed the threshold (3) — the cadence
  // restarts BEFORE the write, so the image AND the per-page copy carry
  // count 0.
  t = db->BeginTxn();
  SPF_CHECK_OK(t.Update("k", "v1"));
  SPF_CHECK_OK(t.Commit());
  ASSERT_TRUE(db->FlushAll().ok());
  // Write-back 3: one update since the copy — image carries count 1.
  t = db->BeginTxn();
  SPF_CHECK_OK(t.Update("k", "v2"));
  SPF_CHECK_OK(t.Commit());
  ASSERT_TRUE(db->FlushAll().ok());

  auto entry = db->pri()->Lookup(p);
  ASSERT_TRUE(entry.ok());
  ASSERT_EQ(entry->backup.kind, BackupKind::kBackupPage);

  PageBuffer before(db->options().page_size);
  db->data_device()->RawRead(p, before.data());
  ASSERT_EQ(before.view().update_count(), 1u);  // live cadence since copy
  Lsn lsn_before = before.view().page_lsn();

  ASSERT_TRUE(db->pool()->DiscardPage(p));
  db->data_device()->InjectSilentCorruption(p);
  auto repaired = db->RepairPages({p});
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  ASSERT_EQ(repaired->repaired, 1u);

  PageBuffer after(db->options().page_size);
  db->data_device()->RawRead(p, after.data());
  // The copy stored count 0 (cadence restarted at the copy-taking write),
  // plus the 1-record chain replay = 1 — exactly the live cadence. The
  // whole image round-trips byte-for-byte.
  EXPECT_EQ(after.view().page_lsn(), lsn_before);
  EXPECT_TRUE(after.view().Verify(p).ok());
  EXPECT_EQ(after.view().update_count(), 1u);
  EXPECT_EQ(after.view().update_count(), before.view().update_count());
  EXPECT_EQ(std::memcmp(before.data(), after.data(), db->options().page_size),
            0);
  EXPECT_EQ(*db->Get("k"), "v2");
}

TEST(RollbackTest, ReadOnlyTransactionRollbackIsTrivial) {
  auto db = std::move(Database::Create(FastOptions())).value();
  Txn t = db->BeginTxn();
  EXPECT_TRUE(t.Get("nothing").status().IsNotFound());
  RollbackExecutor exec(db->log(), db->tree(), db->txns());
  auto stats = exec.Rollback(t.handle());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records_undone, 0u);
  EXPECT_EQ(db->txns()->active_count(), 0u);
}

}  // namespace
}  // namespace spf
