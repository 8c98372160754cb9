// Failure-under-load tests of the network serving layer: a real TCP
// server over a real Database, 8 concurrent wire clients retrying
// retryable() replies, while single-page failures and a whole-device
// failure with a mid-stream rung-5 restore happen underneath the
// sockets. Invariants:
//
//  - COMMIT DURABILITY OVER THE WIRE: every frame acked as committed must
//    survive SimulateCrash() + Restart(), no matter what failures the
//    engine was riding out when the ack was sent.
//  - LOCK-LEAK FREEDOM AFTER DISCONNECTS: abrupt client death — mid-frame,
//    mid-reply, or mid-transaction — leaves zero keys tracked in the lock
//    table once the server has torn the connection down.
//  - COUNTER CONSERVATION: every well-formed frame is accounted for,
//    frames_decoded == txns_committed + txns_failed + info_requests, and
//    accepted connections are eventually closed.
//
// The TSan CI job runs this binary standalone and repeated (like the
// stress test): workers re-arming the shared epoll set, client threads,
// the restore thread, and the archiver all race here on purpose.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "db/database.h"
#include "server/client.h"
#include "server/network_server.h"
#include "test_env.h"

namespace spf {
namespace {

using bench::Key;

DatabaseOptions FastOptions() {
  DatabaseOptions o;
  o.num_pages = 4096;
  o.buffer_frames = 512;
  o.data_profile = DeviceProfile::Instant();
  o.log_profile = DeviceProfile::Instant();
  o.backup_profile = DeviceProfile::Instant();
  return o;
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 5000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// key -> last value whose frame was acked as committed.
using AckedMap = std::map<std::string, std::string>;

void MergeAcked(std::mutex* mu, AckedMap* into, AckedMap&& from) {
  std::lock_guard<std::mutex> g(*mu);
  for (auto& [k, v] : from) (*into)[k] = std::move(v);
}

void VerifyAcked(Database* db, const AckedMap& acked) {
  for (const auto& [key, value] : acked) {
    auto got = db->Get(key);
    ASSERT_TRUE(got.ok()) << "acked key lost: " << key << ": "
                          << got.status().ToString();
    EXPECT_EQ(*got, value) << "acked key " << key << " has stale value";
  }
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(DatabaseOptions options, uint32_t workers = 4) {
    auto db_or = Database::Create(options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    db_ = std::move(db_or).value();
    testenv::LoopbackListener listener;
    ASSERT_TRUE(listener.ok());
    port_ = listener.port();
    ServerOptions sopts;
    sopts.listen_fd = listener.release();
    sopts.workers = workers;
    server_ = std::make_unique<NetworkServer>(db_.get(), sopts);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_EQ(server_->port(), port_);
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<NetworkServer> server_;
  uint16_t port_ = 0;
};

TEST_F(ServerTest, FrameSemanticsMatchTheClientApi) {
  StartServer(FastOptions());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());

  // A multi-op frame commits atomically and returns per-op results.
  wire::TxnRequest req;
  req.Insert("a", "1");
  req.Insert("b", "2");
  req.Get("a");
  req.Scan("a", "", 10);
  wire::TxnReply reply;
  ASSERT_TRUE(client.Execute(req, &reply).ok());
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.results.size(), 4u);
  EXPECT_EQ(reply.results[2].value, "1");
  ASSERT_EQ(reply.results[3].pairs.size(), 2u);
  EXPECT_EQ(reply.results[3].pairs[0].first, "a");
  EXPECT_EQ(reply.results[3].pairs[1].first, "b");

  // A failing op aborts the WHOLE frame: the earlier write must not land.
  wire::TxnRequest atomic_req;
  atomic_req.Put("c", "should-not-survive");
  atomic_req.Insert("a", "duplicate");  // insert-only on an existing key
  ASSERT_TRUE(client.Execute(atomic_req, &reply).ok());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.kind, TxnError::Kind::kUser);
  EXPECT_EQ(reply.failed_op, 1);
  EXPECT_FALSE(reply.retryable());
  EXPECT_FALSE(client.Get("c").ok());  // the put rolled back

  // Point-read taxonomy: a missing key is a kUser / NotFound outcome.
  wire::TxnRequest missing;
  missing.Get("no-such-key");
  ASSERT_TRUE(client.Execute(missing, &reply).ok());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.kind, TxnError::Kind::kUser);
  EXPECT_EQ(reply.code, Status::Code::kNotFound);
  EXPECT_EQ(reply.failed_op, 0);

  // Update/Delete round out the verb set.
  wire::TxnRequest mut;
  mut.Update("a", "1.1");
  mut.Delete("b");
  ASSERT_TRUE(client.Execute(mut, &reply).ok());
  ASSERT_TRUE(reply.ok());
  auto a = client.Get("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "1.1");
  EXPECT_FALSE(client.Get("b").ok());

  client.Close();
}

TEST_F(ServerTest, InfoCountersAreConservedAndVersioned) {
  StartServer(FastOptions());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());

  int committed = 0, failed = 0;
  for (int i = 0; i < 40; ++i) {
    wire::TxnRequest req;
    if (i % 5 == 4) {
      req.Get("missing-" + std::to_string(i));  // fails as kUser
    } else {
      req.Put(Key(i), "v");
    }
    wire::TxnReply reply;
    ASSERT_TRUE(client.Execute(req, &reply).ok());
    reply.ok() ? committed++ : failed++;
  }

  wire::InfoReply info;
  ASSERT_TRUE(client.Info(&info).ok());
  EXPECT_EQ(info.stats_version, StatsSnapshot::kVersion);
  // Conservation: every decoded frame is exactly one of committed,
  // failed, or an INFO request (this one included).
  EXPECT_EQ(info.Counter("server.frames_decoded"),
            info.Counter("server.txns_committed") +
                info.Counter("server.txns_failed") +
                info.Counter("server.info_requests"));
  EXPECT_EQ(info.Counter("server.txns_committed"),
            static_cast<uint64_t>(committed));
  EXPECT_EQ(info.Counter("server.txns_failed"), static_cast<uint64_t>(failed));
  EXPECT_EQ(info.Counter("server.info_requests"), 1u);
  EXPECT_EQ(info.Counter("server.frames_rejected"), 0u);
  EXPECT_GE(info.Counter("server.ops_served"), 40u);
  // The engine's counters ride along in the same snapshot.
  EXPECT_GT(info.Counter("log.records_appended"), 0u);
  EXPECT_GT(info.Counter("locks.acquisitions"), 0u);

  client.Close();
  // The close is observed asynchronously, by whichever worker the
  // connection's EOF is handed to.
  EXPECT_TRUE(WaitFor([&] {
    ServerStats s = server_->server_stats();
    return s.connections_closed == s.connections_accepted;
  }));
}

TEST_F(ServerTest, AbruptDisconnectsLeakNoLocks) {
  StartServer(FastOptions());

  {  // Client killed mid-frame: length prefix promises bytes that never come.
    Client c;
    ASSERT_TRUE(c.Connect("127.0.0.1", port_).ok());
    wire::TxnRequest req;
    req.Put("half", "frame");
    std::string frame = wire::EncodeTxnRequest(req);
    ASSERT_TRUE(c.SendRaw(frame.substr(0, frame.size() - 3)).ok());
    c.Close();
  }

  {  // Client killed mid-reply: full frame sent, socket gone before the ack.
    Client c;
    ASSERT_TRUE(c.Connect("127.0.0.1", port_).ok());
    wire::TxnRequest req;
    req.Put("fire-and-die", "v");
    ASSERT_TRUE(c.SendRaw(wire::EncodeTxnRequest(req)).ok());
    c.Close();  // do not read the reply
  }

  {  // And one polite client, to prove the server shrugged it all off.
    Client c;
    ASSERT_TRUE(c.Connect("127.0.0.1", port_).ok());
    ASSERT_TRUE(c.Put("polite", "v").ok());
    c.Close();
  }

  ASSERT_TRUE(WaitFor([&] {
    ServerStats s = server_->server_stats();
    return s.connections_accepted == 3 && s.connections_closed == 3;
  }));
  // Whatever the dead clients' transactions did, the lock table is clean.
  EXPECT_EQ(db_->Stats().locks.keys_tracked, 0u);
  // The fire-and-die frame still executed server-side (the ack was sent
  // into a dead socket, which is the client's loss, not a leak).
  auto v = db_->Get("fire-and-die");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v");
}

TEST_F(ServerTest, StopDrainsInFlightFramesAndStartAgainWorks) {
  StartServer(FastOptions());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  ASSERT_TRUE(client.Put("before-stop", "v").ok());
  server_->Stop();
  EXPECT_FALSE(server_->running());
  // The connection is gone with the server.
  wire::TxnReply reply;
  wire::TxnRequest req;
  req.Put("after-stop", "v");
  EXPECT_FALSE(client.Execute(req, &reply).ok());
  client.Close();

  // The same server object can serve again (fresh ephemeral port).
  ASSERT_TRUE(server_->Start().ok());
  Client again;
  ASSERT_TRUE(again.Connect("127.0.0.1", server_->port()).ok());
  auto v = again.Get("before-stop");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v");
  again.Close();
}

// A frame parked on a key lock holds up only its own connection: any idle
// worker serves every other ready connection meanwhile (with per-worker
// epoll sets, some of the 8 other connections would share the parked
// worker's set and stall behind it).
TEST_F(ServerTest, ParkedFrameHoldsOnlyItsOwnConnection) {
  DatabaseOptions options = FastOptions();
  options.lock_timeout = std::chrono::milliseconds(20000);
  StartServer(options, /*workers=*/4);

  Txn holder = db_->BeginTxn();
  ASSERT_TRUE(holder.Put("held", "holder").ok());
  Client parked;
  ASSERT_TRUE(parked.Connect("127.0.0.1", port_).ok());
  wire::TxnRequest blocked;
  blocked.Put("held", "parked");
  ASSERT_TRUE(parked.SendRaw(wire::EncodeTxnRequest(blocked)).ok());
  ASSERT_TRUE(WaitFor([&] { return server_->server_stats().ops_served >= 1; }));

  constexpr int kOthers = 8;
  constexpr int kFrames = 20;
  std::atomic<int> acked{0};
  std::vector<std::thread> others;
  for (int c = 0; c < kOthers; ++c) {
    others.emplace_back([&, c] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
      for (int f = 0; f < kFrames; ++f) {
        if (client.Put(Key(c * 1000 + f), "v").ok()) acked++;
      }
    });
  }
  for (auto& th : others) th.join();
  EXPECT_EQ(acked.load(), kOthers * kFrames);
  // The parked frame is still waiting for the lock.
  EXPECT_EQ(server_->server_stats().txns_committed,
            static_cast<uint64_t>(kOthers * kFrames));

  ASSERT_TRUE(holder.Commit().ok());
  wire::Reply reply;
  ASSERT_TRUE(parked.ReadReply(&reply).ok());
  ASSERT_EQ(reply.type, wire::FrameType::kTxnReply);
  EXPECT_TRUE(reply.txn.ok()) << reply.txn.message;
  EXPECT_EQ(*db_->Get("held"), "parked");
}

// Connection churn beside live traffic: accept4 hands out the fd numbers
// that closing connections just released, so a registry entry erased
// after close() would drop or free a live connection. Every reply must
// reach its own connection and every accepted connection must close.
TEST_F(ServerTest, ConnectionChurnKeepsRepliesOnTheirConnections) {
  StartServer(FastOptions(), /*workers=*/4);

  // A frame whose reply names its sender: the Get returns the value the
  // same frame just wrote under a key unique to this thread and cycle.
  auto own_frame = [](const std::string& key, const std::string& value) {
    wire::TxnRequest req;
    req.Put(key, value);
    req.Get(key);
    return req;
  };
  auto reply_is = [](const wire::TxnReply& r, const std::string& value) {
    return r.ok() && r.results.size() == 2 && r.results[1].value == value;
  };

  std::atomic<bool> churn_done{false};
  std::atomic<int> misrouted{0};
  std::vector<std::thread> live;
  for (int c = 0; c < 2; ++c) {
    live.emplace_back([&, c] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
      for (int i = 0; !churn_done.load(); ++i) {
        std::string value = "live" + std::to_string(c) + "-" + std::to_string(i);
        wire::TxnReply reply;
        ASSERT_TRUE(
            client.ExecuteWithRetry(own_frame(Key(900000 + c), value), &reply)
                .ok());
        if (!reply_is(reply, value)) misrouted++;
      }
    });
  }

  constexpr int kThreads = 8;
  constexpr int kCycles = 200;
  std::vector<std::thread> churners;
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([&, t] {
      for (int i = 0; i < kCycles; ++i) {
        Client client;
        ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
        std::string key = Key(t * 10000 + i);
        std::string value =
            "churn" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(client.SendRaw(wire::EncodeTxnRequest(own_frame(key, value)))
                        .ok());
        if (i % 2 == 0) {  // every other cycle closes without reading
          wire::Reply reply;
          ASSERT_TRUE(client.ReadReply(&reply).ok());
          if (!reply_is(reply.txn, value)) misrouted++;
        }
        client.Close();
      }
    });
  }
  for (auto& th : churners) th.join();
  churn_done = true;
  for (auto& th : live) th.join();

  EXPECT_EQ(misrouted.load(), 0);
  ASSERT_TRUE(WaitFor([&] {
    ServerStats s = server_->server_stats();
    return s.connections_closed == s.connections_accepted;
  }));
  ServerStats s = server_->server_stats();
  EXPECT_EQ(s.connections_accepted,
            static_cast<uint64_t>(kThreads * kCycles + 2));
  EXPECT_EQ(s.frames_decoded,
            s.txns_committed + s.txns_failed + s.info_requests);
  EXPECT_EQ(db_->Stats().locks.keys_tracked, 0u);
}

// Stop answers every frame a worker has already read, even when the first
// of a pipelined batch is parked on a lock, and then closes every socket.
TEST_F(ServerTest, StopAnswersPipelinedFramesAlreadyRead) {
  DatabaseOptions options = FastOptions();
  options.lock_timeout = std::chrono::milliseconds(20000);
  StartServer(options, /*workers=*/2);

  Txn holder = db_->BeginTxn();
  ASSERT_TRUE(holder.Put("held", "holder").ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
  constexpr int kPipelined = 8;
  std::string batch;
  for (int i = 0; i < kPipelined; ++i) {
    wire::TxnRequest req;
    req.Put(i == 0 ? std::string("held") : Key(i), "p" + std::to_string(i));
    batch += wire::EncodeTxnRequest(req);
  }
  ASSERT_TRUE(client.SendRaw(batch).ok());  // one send: read as one batch
  ASSERT_TRUE(WaitFor([&] { return server_->server_stats().ops_served >= 1; }));

  std::atomic<bool> stopping{false};
  std::thread stopper([&] {
    stopping = true;
    server_->Stop();
  });
  ASSERT_TRUE(WaitFor([&] { return stopping.load(); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(holder.Commit().ok());  // unparks the first frame
  stopper.join();

  for (int i = 0; i < kPipelined; ++i) {
    wire::Reply reply;
    ASSERT_TRUE(client.ReadReply(&reply).ok()) << "frame " << i;
    EXPECT_TRUE(reply.txn.ok()) << "frame " << i << ": " << reply.txn.message;
  }
  wire::Reply none;
  EXPECT_FALSE(client.ReadReply(&none).ok());  // the socket was closed
  ServerStats s = server_->server_stats();
  EXPECT_EQ(s.txns_committed, static_cast<uint64_t>(kPipelined));
  EXPECT_EQ(s.connections_closed, s.connections_accepted);
  EXPECT_EQ(*db_->Get("held"), "p0");
}

// The headline soak: 8 clients hammering single-shot frames with the
// wire retry contract while a page fails, then the device fails and a
// rung-5 gated restore runs mid-stream.
TEST_F(ServerTest, ClientsRideOutPageFailureAndFullRestore) {
  DatabaseOptions options = FastOptions();
  options.restore_segment_pages = 8;
  options.restore_drain_timeout = std::chrono::milliseconds(2000);
  options.backup_policy.updates_threshold = 0;  // full backup is the source
  StartServer(options);

  // Seed a multi-page tree and the backup the restore replays from.
  for (int i = 0; i < 2000; ++i) {
    Txn t = db_->BeginTxn();
    ASSERT_TRUE(t.Put(Key(i), "seed").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  ASSERT_TRUE(db_->FlushAll().ok());
  ASSERT_TRUE(db_->TakeFullBackup().ok());
  db_->archiver()->Start();

  constexpr int kClients = 8;
  constexpr int kFrames = 60;
  std::mutex mu;
  AckedMap acked;
  std::atomic<uint64_t> acks{0};
  std::atomic<uint64_t> hard_failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", port_).ok());
      AckedMap mine;
      for (int f = 0; f < kFrames; ++f) {
        wire::TxnRequest req;
        std::vector<std::pair<std::string, std::string>> staged;
        for (int k = 0; k < 2; ++k) {
          std::string key = Key(c * 1000000 + (f * 2 + k) % 97);
          std::string value =
              "c" + std::to_string(c) + "-f" + std::to_string(f);
          req.Put(key, value);
          staged.emplace_back(std::move(key), std::move(value));
        }
        wire::TxnReply reply;
        Status s = client.ExecuteWithRetry(req, &reply);
        ASSERT_TRUE(s.ok()) << s.ToString();  // transport must never break
        if (reply.ok()) {
          for (auto& [k, v] : staged) mine[k] = std::move(v);
          acks++;
        } else {
          hard_failures++;  // storage-class outcome mid-failure: legitimate
        }
      }
      client.Close();
      MergeAcked(&mu, &acked, std::move(mine));
    });
  }

  // Wait until commits are flowing, then pull the rug. Single-page
  // failure first: the funnel heals it under live wire traffic.
  ASSERT_TRUE(WaitFor([&] { return acks.load() >= kClients; }));
  auto leaf = db_->LeafPageOf(Key(1000));
  ASSERT_TRUE(leaf.ok());
  if (!db_->pool()->IsDirty(*leaf) && db_->pool()->DiscardPage(*leaf)) {
    db_->data_device()->InjectSilentCorruption(*leaf);
  }
  (void)db_->Get(Key(1000));  // detect + repair (or read the dirty copy)

  // Then the whole device dies mid-stream: rung-5 gated restore while the
  // clients keep sending. Doomed transactions come back as retryable()
  // replies and the resent frames are admitted as fresh transactions.
  db_->data_device()->FailDevice();
  StatusOr<MediaRecoveryStats> restore = Status::Internal("not run");
  std::thread restorer([&] { restore = db_->RecoverMedia(); });

  restorer.join();
  for (auto& th : clients) th.join();
  ASSERT_TRUE(restore.ok()) << restore.status().ToString();
  db_->archiver()->Stop();

  // Counter conservation straight from the server, with the whole
  // failure story included.
  ServerStats ss = server_->server_stats();
  EXPECT_EQ(ss.frames_decoded,
            ss.txns_committed + ss.txns_failed + ss.info_requests);
  EXPECT_EQ(ss.txns_committed, acks.load());
  EXPECT_GE(ss.txns_failed, hard_failures.load());  // + absorbed retries
  EXPECT_EQ(ss.frames_rejected, 0u);
  EXPECT_GT(acks.load(), 0u);

  // Lock-leak freedom after disconnects, dooming, and the restore.
  ASSERT_TRUE(WaitFor([&] {
    ServerStats s = server_->server_stats();
    return s.connections_closed == s.connections_accepted;
  }));
  EXPECT_EQ(db_->Stats().locks.keys_tracked, 0u);
  EXPECT_GE(db_->Stats().funnel.gated_restores, 1u);

  // The wire's durability contract: stop the server, crash the engine,
  // restart — every acked frame's writes are there.
  server_->Stop();
  db_->SimulateCrash();
  ASSERT_TRUE(db_->Restart().ok());
  VerifyAcked(db_.get(), acked);
  for (int i = 0; i < 2000; ++i) {
    if (acked.count(Key(i))) continue;
    auto got = db_->Get(Key(i));
    ASSERT_TRUE(got.ok()) << "seed key lost: " << i;
    EXPECT_EQ(*got, "seed");
  }
}

}  // namespace
}  // namespace spf
