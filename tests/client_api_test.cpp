// Tests for the v2 client API: the move-only RAII Txn handle (auto-abort
// on destruction, shared control blocks instead of zombie retention),
// atomic WriteBatch application (one facade bracket, savepoint rollback
// on mid-batch failure, transparent single-page repair), transactional
// Scan with the same lock story as point reads, and the retry-aware
// TxnError taxonomy.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <random>
#include <string>
#include <utility>
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
  o.lock_timeout = std::chrono::milliseconds(30);
  return o;
}

std::unique_ptr<Database> MakeDb(DatabaseOptions options = FastOptions()) {
  auto db = Database::Create(std::move(options));
  SPF_CHECK(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// --- RAII lifetime ---------------------------------------------------------------

TEST(TxnHandleTest, DroppingUncommittedHandleAbortsAndReleasesLocks) {
  auto db = MakeDb();
  {
    Txn t = db->BeginTxn();
    ASSERT_TRUE(t.Insert("k", "uncommitted").ok());
    EXPECT_TRUE(t.active());
    // No Commit: the handle goes out of scope here.
  }
  // The insert was rolled back...
  EXPECT_TRUE(db->Get("k").status().IsNotFound());
  EXPECT_EQ(db->txns()->stats().user_aborted, 1u);
  EXPECT_EQ(db->txns()->active_count(), 0u);
  // ...and the exclusive lock released: a new transaction takes the key
  // immediately (a leaked lock would time out as Deadlock).
  Txn t2 = db->BeginTxn();
  EXPECT_TRUE(t2.Insert("k", "committed").ok());
  EXPECT_TRUE(t2.Commit().ok());
  EXPECT_EQ(*db->Get("k"), "committed");
}

TEST(TxnHandleTest, MoveTransfersOwnership) {
  auto db = MakeDb();
  Txn a = db->BeginTxn();
  ASSERT_TRUE(a.Insert("k", "v").ok());
  TxnId id = a.id();

  Txn b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): tested on purpose
  EXPECT_TRUE(b.active());
  EXPECT_EQ(b.id(), id);
  EXPECT_TRUE(b.Commit().ok());
  EXPECT_EQ(*db->Get("k"), "v");

  // Move-assign over an ACTIVE handle auto-aborts the overwritten one.
  Txn c = db->BeginTxn();
  ASSERT_TRUE(c.Insert("gone", "x").ok());
  c = db->BeginTxn();
  EXPECT_TRUE(db->Get("gone").status().IsNotFound());
  EXPECT_TRUE(c.Commit().ok());
}

TEST(TxnHandleTest, FinishedHandleRejectsFurtherOperations) {
  auto db = MakeDb();
  Txn t = db->BeginTxn();
  ASSERT_TRUE(t.Put("k", "v").ok());
  ASSERT_TRUE(t.Commit().ok());
  EXPECT_FALSE(t.active());
  EXPECT_TRUE(t.valid());

  TxnError err = t.Put("k2", "v2");
  EXPECT_EQ(err.kind(), TxnError::Kind::kUser);
  EXPECT_FALSE(err.retryable());
  EXPECT_TRUE(err.status().IsFailedPrecondition());
  EXPECT_EQ(t.Commit().kind(), TxnError::Kind::kUser);
  EXPECT_TRUE(db->Get("k2").status().IsNotFound());

  // An empty handle behaves the same way.
  Txn empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_EQ(empty.Put("x", "y").kind(), TxnError::Kind::kUser);
}

TEST(TxnHandleTest, ExplicitAbortRollsBackAndFinishes) {
  auto db = MakeDb();
  {
    Txn setup = db->BeginTxn();
    ASSERT_TRUE(setup.Insert("k", "orig").ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  Txn t = db->BeginTxn();
  ASSERT_TRUE(t.Update("k", "changed").ok());
  EXPECT_TRUE(t.Abort().ok());
  EXPECT_FALSE(t.active());
  EXPECT_EQ(*db->Get("k"), "orig");
  // The destructor must not double-abort (user_aborted stays 1).
  EXPECT_EQ(db->txns()->stats().user_aborted, 1u);
}

// --- error taxonomy --------------------------------------------------------------

TEST(TxnErrorTest, UserErrorsAreNotRetryable) {
  auto db = MakeDb();
  Txn t = db->BeginTxn();
  TxnError nf = TxnError::Classify(t.Get("missing").status(), false, true);
  EXPECT_EQ(nf.kind(), TxnError::Kind::kUser);
  EXPECT_FALSE(nf.retryable());
  EXPECT_EQ(t.last_error().kind(), TxnError::Kind::kUser);

  ASSERT_TRUE(t.Insert("k", "v").ok());
  EXPECT_TRUE(t.last_error().ok());
  TxnError dup = t.Insert("k", "again");
  EXPECT_EQ(dup.kind(), TxnError::Kind::kUser);
  EXPECT_TRUE(dup.status().IsFailedPrecondition());
  EXPECT_TRUE(t.Commit().ok());
}

TEST(TxnErrorTest, LockConflictIsTransientAndRetryable) {
  auto db = MakeDb();
  {
    Txn setup = db->BeginTxn();
    ASSERT_TRUE(setup.Insert("contested", "v").ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  Txn holder = db->BeginTxn();
  ASSERT_TRUE(holder.Update("contested", "held").ok());

  Txn waiter = db->BeginTxn();
  TxnError err = waiter.Update("contested", "mine");
  EXPECT_EQ(err.kind(), TxnError::Kind::kTransient);
  EXPECT_TRUE(err.retryable());
  EXPECT_TRUE(err.status().IsDeadlock());

  // The taxonomy's promise: after the conflict clears, the retry wins.
  ASSERT_TRUE(holder.Commit().ok());
  EXPECT_TRUE(waiter.Update("contested", "mine").ok());
  EXPECT_TRUE(waiter.Commit().ok());
  EXPECT_EQ(*db->Get("contested"), "mine");
}

TEST(TxnErrorTest, ClassifyDistinguishesStorageAndFatal) {
  // Pure classification logic, no database needed.
  EXPECT_EQ(TxnError::Classify(Status::OK(), false, true).kind(),
            TxnError::Kind::kNone);
  // A single-page-failure candidate is transient when repair is wired
  // (the funnel heals it), terminal when it is not.
  EXPECT_TRUE(TxnError::Classify(Status::Corruption("x"), false, true)
                  .retryable());
  EXPECT_EQ(TxnError::Classify(Status::Corruption("x"), false, false).kind(),
            TxnError::Kind::kStorage);
  EXPECT_EQ(TxnError::Classify(Status::ReadFailure("x"), false, false).kind(),
            TxnError::Kind::kStorage);
  // A failed device is transient when repair is wired (the retry parks at
  // the restore gate), fatal when it is not; an internal error always is.
  EXPECT_TRUE(TxnError::Classify(Status::MediaFailure("x"), false, true)
                  .retryable());
  EXPECT_EQ(TxnError::Classify(Status::MediaFailure("x"), false, false).kind(),
            TxnError::Kind::kFatal);
  EXPECT_EQ(TxnError::Classify(Status::Internal("x"), false, true).kind(),
            TxnError::Kind::kFatal);
  // kAborted means kDoomed only with the doomed-handle context bit.
  EXPECT_EQ(TxnError::Classify(Status::Aborted("x"), true, true).kind(),
            TxnError::Kind::kDoomed);
  EXPECT_EQ(TxnError::Classify(Status::Aborted("x"), false, true).kind(),
            TxnError::Kind::kUser);
}

TEST(TxnErrorTest, DeviceFailureBeforeRestoreIsRetryable) {
  // A read that faults a page after the device failed but before the
  // restore gate closes is retryable: the retried transaction succeeds
  // once the device is restored.
  auto db = MakeDb();
  {
    Txn setup = db->BeginTxn();
    for (int i = 0; i < 200; ++i) ASSERT_TRUE(setup.Put(Key(i), "v").ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  ASSERT_TRUE(db->TakeFullBackup().status().ok());
  db->pool()->DiscardAll();  // Key(7)'s leaf is no longer cached

  db->data_device()->FailDevice();
  {
    Txn t = db->BeginTxn();
    EXPECT_FALSE(t.Get(Key(7)).ok());
    EXPECT_TRUE(t.last_error().status().IsMediaFailure());
    EXPECT_EQ(t.last_error().kind(), TxnError::Kind::kTransient);
    EXPECT_TRUE(t.last_error().retryable());
  }
  ASSERT_TRUE(db->RecoverMedia().ok());

  Txn retry = db->BeginTxn();
  auto v = retry.Get(Key(7));
  ASSERT_TRUE(v.ok()) << retry.last_error().ToString();
  EXPECT_EQ(*v, "v");
  EXPECT_TRUE(retry.Commit().ok());
}

// --- crash semantics -------------------------------------------------------------

TEST(TxnHandleTest, CrashDoomsOutstandingHandles) {
  auto db = MakeDb();
  Txn loser = db->BeginTxn();
  ASSERT_TRUE(loser.Insert("loser-key", "x").ok());
  db->log()->ForceAll();

  db->SimulateCrash();
  ASSERT_TRUE(db->Restart().ok());

  // Restart undo rolled the loser back; the stale handle reports kDoomed
  // from live memory instead of dangling.
  EXPECT_TRUE(db->Get("loser-key").status().IsNotFound());
  EXPECT_TRUE(loser.doomed());
  TxnError err = loser.Put("more", "data");
  EXPECT_EQ(err.kind(), TxnError::Kind::kDoomed);
  EXPECT_FALSE(err.retryable());
  // A fresh transaction works; destroying the stale handle is safe (the
  // crash pre-claimed its rollback, so the destructor must not undo
  // anything against the restarted tree).
  Txn fresh = db->BeginTxn();
  EXPECT_TRUE(fresh.Put("post-crash", "ok").ok());
  EXPECT_TRUE(fresh.Commit().ok());
}

// --- WriteBatch ------------------------------------------------------------------

TEST(WriteBatchTest, AppliesAtomicallyAndCommits) {
  auto db = MakeDb();
  Txn t = db->BeginTxn();
  WriteBatch batch;
  for (int i = 0; i < 100; ++i) batch.Put(Key(i), "b-" + std::to_string(i));
  EXPECT_EQ(batch.size(), 100u);
  ASSERT_TRUE(t.Apply(std::move(batch)).ok());
  ASSERT_TRUE(t.Commit().ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*db->Get(Key(i)), "b-" + std::to_string(i));
  }
}

TEST(WriteBatchTest, MidBatchFailureRollsBackTheBatchOnly) {
  auto db = MakeDb();
  {
    Txn setup = db->BeginTxn();
    ASSERT_TRUE(setup.Insert("existing", "old").ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  Txn t = db->BeginTxn();
  // A point operation BEFORE the batch must survive the batch's failure.
  ASSERT_TRUE(t.Put("point-op", "kept").ok());

  WriteBatch bad;
  bad.Put("batch-a", "1");
  bad.Update("existing", "new");
  bad.Insert("existing", "dup");  // fails: FailedPrecondition
  bad.Put("batch-b", "2");        // never reached
  TxnError err = t.Apply(std::move(bad));
  EXPECT_EQ(err.kind(), TxnError::Kind::kUser);
  EXPECT_TRUE(err.status().IsFailedPrecondition());

  // All-or-nothing: nothing of the batch survived, the transaction is
  // still active, and the pre-batch operation is intact.
  EXPECT_TRUE(t.active());
  ASSERT_TRUE(t.Commit().ok());
  EXPECT_TRUE(db->Get("batch-a").status().IsNotFound());
  EXPECT_TRUE(db->Get("batch-b").status().IsNotFound());
  EXPECT_EQ(*db->Get("existing"), "old");
  EXPECT_EQ(*db->Get("point-op"), "kept");
}

TEST(WriteBatchTest, EmptyBatchIsANoOp) {
  auto db = MakeDb();
  Txn t = db->BeginTxn();
  EXPECT_TRUE(t.Apply(WriteBatch()).ok());
  EXPECT_TRUE(t.Commit().ok());
}

TEST(WriteBatchTest, AtomicAcrossMidBatchPageFailure) {
  // A page failure under a mid-batch operation is repaired by the
  // self-healing read path transparently: the batch succeeds, the caller
  // never sees the failure (the paper's "short delay suffices" claim,
  // through the v2 API).
  DatabaseOptions options = FastOptions();
  auto db = MakeDb(options);
  {
    Txn setup = db->BeginTxn();
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(setup.Insert(Key(i), "seed-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(setup.Commit().ok());
  }
  ASSERT_TRUE(db->TakeFullBackup().status().ok());

  // Corrupt the leaf under a key in the MIDDLE of the batch, with the
  // pool cold so the batch's update faults on the damaged device image.
  ASSERT_TRUE(db->FlushAll().ok());
  PageId victim = *db->LeafPageOf(Key(250));
  db->pool()->DiscardAll();
  db->data_device()->InjectSilentCorruption(victim);

  uint64_t repairs_before = db->single_page_recovery()->stats().repairs_succeeded;
  Txn t = db->BeginTxn();
  WriteBatch batch;
  for (int i = 200; i < 300; ++i) batch.Update(Key(i), "post-failure");
  ASSERT_TRUE(t.Apply(std::move(batch)).ok()) << t.last_error().ToString();
  ASSERT_TRUE(t.Commit().ok());

  EXPECT_GT(db->single_page_recovery()->stats().repairs_succeeded,
            repairs_before);
  for (int i = 200; i < 300; ++i) EXPECT_EQ(*db->Get(Key(i)), "post-failure");
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

TEST(WriteBatchTest, RandomizedSavepointRollbackProperty) {
  // Seeded property test of the batch savepoint contract: a batch either
  // applies ALL its ops or NONE of them, and a failed batch leaves the
  // enclosing transaction fully usable. A shadow map tracks what the
  // engine must contain; poisoned batches (a deliberately invalid op at a
  // random position) must leave the shadow state untouched, and rounds
  // that corrupt a page under the batch must succeed transparently via
  // single-page repair.
  auto db = MakeDb();
  std::mt19937_64 rng(20260808);
  std::map<std::string, std::string> shadow;
  {
    Txn setup = db->BeginTxn();
    for (int i = 0; i < 150; ++i) {
      std::string v = "seed-" + std::to_string(i);
      ASSERT_TRUE(setup.Insert(Key(i), v).ok());
      shadow[Key(i)] = v;
    }
    ASSERT_TRUE(setup.Commit().ok());
  }
  ASSERT_TRUE(db->TakeFullBackup().status().ok());

  int poisoned_rounds = 0;
  const uint64_t repairs_before =
      db->single_page_recovery()->stats().repairs_succeeded;
  for (int round = 0; round < 120; ++round) {
    if (round % 17 == 5) {
      // Latent corruption under a key this round's batch may touch.
      ASSERT_TRUE(db->FlushAll().ok());
      auto leaf = db->LeafPageOf(Key(static_cast<int>(rng() % 150)));
      ASSERT_TRUE(leaf.ok());
      db->pool()->DiscardAll();
      db->data_device()->InjectSilentCorruption(*leaf);
    }

    // Build a batch that is valid against `overlay` (the shadow plus this
    // batch's earlier ops — in-batch effects are visible to later ops).
    std::map<std::string, std::string> overlay = shadow;
    const size_t n_ops = 1 + rng() % 12;
    const bool poison = rng() % 4 == 0;
    const size_t poison_at = rng() % n_ops;
    WriteBatch batch;
    for (size_t j = 0; j < n_ops; ++j) {
      std::string key = Key(static_cast<int>(rng() % 240));
      std::string val = "r" + std::to_string(round) + "-" + std::to_string(j);
      if (poison && j == poison_at) {
        // An op that must fail at this position: Insert over a present
        // key, or Delete of an absent one.
        if (overlay.count(key)) {
          batch.Insert(key, val);
        } else {
          batch.Delete(key);
        }
        continue;  // ops after the poison are never reached; any mix is fine
      }
      const bool present = overlay.count(key) != 0;
      switch (rng() % 3) {
        case 0:
          batch.Put(key, val);
          overlay[key] = val;
          break;
        case 1:
          if (present) {
            batch.Delete(key);
            overlay.erase(key);
          } else {
            batch.Insert(key, val);
            overlay[key] = val;
          }
          break;
        default:
          if (present) {
            batch.Update(key, val);
            overlay[key] = val;
          } else {
            batch.Put(key, val);
            overlay[key] = val;
          }
          break;
      }
    }

    Txn t = db->BeginTxn();
    // A point op before the batch must survive the batch's failure.
    std::string marker = "marker-" + std::to_string(round);
    ASSERT_TRUE(t.Put(marker, "kept").ok());
    TxnError err = t.Apply(std::move(batch));
    if (poison) {
      poisoned_rounds++;
      EXPECT_EQ(err.kind(), TxnError::Kind::kUser) << err.ToString();
    } else {
      ASSERT_TRUE(err.ok()) << err.ToString();
      shadow = overlay;
    }
    ASSERT_TRUE(t.Commit().ok());
    shadow[marker] = "kept";

    // Spot-check a few keys against the shadow every round.
    for (int probe = 0; probe < 3; ++probe) {
      std::string key = Key(static_cast<int>(rng() % 240));
      auto it = shadow.find(key);
      auto got = db->Get(key);
      if (it == shadow.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*got, it->second) << key;
      }
    }
  }
  EXPECT_GT(poisoned_rounds, 10);
  EXPECT_GT(db->single_page_recovery()->stats().repairs_succeeded,
            repairs_before);

  // Full sweep: the engine holds exactly the shadow state.
  for (const auto& [key, val] : shadow) EXPECT_EQ(*db->Get(key), val);
  for (int i = 0; i < 240; ++i) {
    if (!shadow.count(Key(i))) {
      EXPECT_TRUE(db->Get(Key(i)).status().IsNotFound());
    }
  }
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

// --- transactional Scan ----------------------------------------------------------

TEST(TxnScanTest, ScanLocksDeliveredKeysUntilCommit) {
  auto db = MakeDb();
  {
    Txn setup = db->BeginTxn();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(setup.Insert(Key(i), "v").ok());
    }
    ASSERT_TRUE(setup.Commit().ok());
  }

  Txn scanner = db->BeginTxn();
  int seen = 0;
  ASSERT_TRUE(scanner.Scan("", "", [&](std::string_view, std::string_view) {
    seen++;
    return true;
  }).ok());
  EXPECT_EQ(seen, 10);

  // The scan's shared locks are held to commit: a writer conflicts...
  Txn writer = db->BeginTxn();
  TxnError err = writer.Update(Key(5), "stomp");
  EXPECT_EQ(err.kind(), TxnError::Kind::kTransient);
  EXPECT_TRUE(err.retryable());
  // ...and a second reader does not (shared locks are compatible).
  Txn reader = db->BeginTxn();
  EXPECT_TRUE(reader.Get(Key(5)).ok());
  EXPECT_TRUE(reader.Commit().ok());

  ASSERT_TRUE(scanner.Commit().ok());
  EXPECT_TRUE(writer.Update(Key(5), "stomp").ok());
  EXPECT_TRUE(writer.Commit().ok());
  EXPECT_EQ(*db->Get(Key(5)), "stomp");
}

TEST(TxnScanTest, ScanRespectsRangeAndEarlyStop) {
  auto db = MakeDb();
  {
    Txn setup = db->BeginTxn();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(setup.Insert(Key(i), std::to_string(i)).ok());
    }
    ASSERT_TRUE(setup.Commit().ok());
  }
  Txn t = db->BeginTxn();
  std::vector<std::string> keys;
  ASSERT_TRUE(t.Scan(Key(5), Key(15), [&](std::string_view k, std::string_view) {
    keys.push_back(std::string(k));
    return keys.size() < 5;
  }).ok());
  ASSERT_EQ(keys.size(), 5u);
  EXPECT_EQ(keys.front(), Key(5));
  EXPECT_EQ(keys.back(), Key(9));
  EXPECT_TRUE(t.Commit().ok());

  // The unlocked variant still exists for analytics-style reads.
  int unlocked = 0;
  ASSERT_TRUE(db->Scan("", "", [&](std::string_view, std::string_view) {
    unlocked++;
    return true;
  }).ok());
  EXPECT_EQ(unlocked, 20);
}

// --- doomed handles under a restore (v2 surface) ---------------------------------

TEST(TxnHandleTest, DroppedDoomedHandleRunsDeferredRollback) {
  // A straggler whose in-flight operation outlives the restore's bounded
  // rollback wait gets its compensation deferred to the owner. If the
  // owner never issues another call and simply DROPS the handle, the
  // destructor is the owner's last act — it must run the deferred
  // rollback.
  DatabaseOptions options = FastOptions();
  options.restore_drain_timeout = std::chrono::milliseconds(50);
  options.backup_policy.updates_threshold = 0;
  auto db = MakeDb(options);
  {
    Txn setup = db->BeginTxn();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(setup.Insert(Key(i), "seed").ok());
    }
    ASSERT_TRUE(setup.Commit().ok());
  }
  ASSERT_TRUE(db->FlushAll().ok());
  ASSERT_TRUE(db->TakeFullBackup().status().ok());

  {
    Txn straggler = db->BeginTxn();
    ASSERT_TRUE(straggler.Insert("in-flight", "x").ok());
    db->log()->ForceAll();
    straggler.handle()->BeginOp();  // op that outlives the drain deadline

    db->data_device()->FailDevice();
    auto stats = db->RecoverMedia();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->phases.doomed, 1u);
    EXPECT_EQ(stats->phases.deferred_rollbacks, 1u);
    // The replayed update is still there, pending owner-side rollback.
    EXPECT_EQ(*db->Get("in-flight"), "x");

    straggler.handle()->EndOp();
    // No further facade call: the handle just goes out of scope.
  }
  EXPECT_TRUE(db->Get("in-flight").status().IsNotFound());
  EXPECT_EQ(db->txns()->active_count(), 0u);
  ASSERT_TRUE(db->CheckOffline(nullptr).ok());
}

}  // namespace
}  // namespace spf
