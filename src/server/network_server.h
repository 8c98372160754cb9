// NetworkServer: the TCP serving layer over one Database.
//
// Architecture (one shared EPOLLONESHOT set + a fixed worker pool):
//
//   listen socket ─┐                      ┌─► worker: accept4 every pending
//   connection A ──┼─► one epoll set ─────┤   connection, re-arm the listener
//   connection B ──┘  (EPOLLIN |          └─► worker: read the connection,
//                      EPOLLONESHOT;          run each complete frame in
//                      every worker waits     order (decode, begin txn, apply
//                      with maxevents = 1)    ops, commit, send reply), then
//                                             re-arm it or close it
//
// Every socket is registered with EPOLLONESHOT, so a ready connection is
// handed to exactly ONE worker and stays disarmed while that worker runs
// it: replies come back in request order without per-connection locks,
// and a frame costs one wakeup each way (client → worker → client), with
// no thread or queue in between. Any idle worker takes any other ready
// connection, so a worker parked in a repair or at the restore gate holds
// up only its own connection. The connection registry is touched only by
// accept and close.
//
// Malformed input never kills the server: a payload the decoder rejects
// is answered with a kErrorReply and the connection stays usable (the
// outer framing is still aligned); only an unframeable stream — a length
// prefix beyond kMaxFrameBytes — is answered and then closed, because
// there is no safe way to resynchronize. tests/wire_fuzz_test.cpp and
// tests/server_test.cpp hold the server to this under the sanitizers.
//
// During a rung-5 restore the server needs no special handling: BeginTxn
// parks at the restore gate (counted in ServerStats::gate_parked_commits)
// and with early admission resumes as soon as the sweep starts — clients
// observe a latency bump, not an outage (bench_e16_server measures it).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "db/stats_snapshot.h"
#include "server/wire.h"

namespace spf {

class Database;

/// Tuning knobs of a NetworkServer instance.
struct ServerOptions {
  /// Loopback/interface address to bind (tests and benches use loopback).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Already-bound-and-listening socket to adopt instead of binding
  /// host:port (ownership transfers to the server). Lets tests reserve an
  /// ephemeral port race-free — see testenv::LoopbackListener.
  int listen_fd = -1;
  /// Fixed worker pool size: frames executing concurrently. 0 means 1.
  uint32_t workers = 4;
};

/// TCP server executing wire-protocol transaction frames against one
/// Database. Start/Stop are not thread-safe against each other; the
/// serving fabric itself is fully concurrent. The Database must outlive
/// the server.
class NetworkServer {
 public:
  /// Binds nothing yet; call Start(). `db` must outlive the server.
  NetworkServer(Database* db, ServerOptions options);
  /// Stops the server if it is still running.
  ~NetworkServer();

  NetworkServer(const NetworkServer&) = delete;             ///< not copyable
  NetworkServer& operator=(const NetworkServer&) = delete;  ///< not copyable

  /// Binds (or adopts) the listen socket and spawns the worker pool.
  /// Fails with IOError when the socket cannot be bound; the server is
  /// then inert and Start may be retried.
  Status Start();

  /// Drains in-flight frames, closes every connection, and joins all
  /// threads. Idempotent. Every complete frame a worker has already read
  /// is still executed and answered; bytes arriving after Stop are
  /// dropped with the socket.
  void Stop();

  /// True between a successful Start and Stop.
  bool running() const { return running_; }

  /// The bound TCP port (the kernel's choice when options.port was 0).
  /// Valid after a successful Start.
  uint16_t port() const { return port_; }

  /// This server's own counters (connections, frames, ops, commits).
  ServerStats server_stats() const;

  /// The engine-wide snapshot with the server block filled in — exactly
  /// what the INFO command serializes.
  StatsSnapshot Stats() const;

 private:
  /// Per-connection state, owned by whichever worker epoll handed the
  /// connection to (EPOLLONESHOT keeps it disarmed until that worker
  /// re-arms it). `released` passes ownership on: the owner sets it once
  /// its arming epoll_ctl has returned, and the next owner waits for it,
  /// because neither the C++ memory model nor TSan sees epoll as a
  /// release/acquire pair.
  struct Connection {
    int fd = -1;                ///< the socket
    std::string inbuf;          ///< bytes read, not yet run as frames
    std::atomic<bool> released{false};  ///< the last owner is done
  };

  void WorkerLoop();
  /// accept4s every pending connection and registers each one.
  void AcceptNewConnections();
  /// Runs one ready connection: reads it, runs every complete buffered
  /// frame in order, then re-arms it or closes it.
  void ServeConnection(Connection* conn);
  /// Adds (EPOLL_CTL_ADD) or re-arms (EPOLL_CTL_MOD) the connection as
  /// one-shot readable. On success this is the last use of `conn` on
  /// this thread; on failure the caller still owns it.
  bool Arm(Connection* conn, int op);
  void CloseConnection(Connection* conn);

  /// Decodes and runs one frame payload; returns the reply frame.
  std::string HandleFrame(std::string_view payload);
  wire::TxnReply ExecuteTxn(const wire::TxnRequest& req);
  wire::InfoReply BuildInfo() const;
  /// Writes the complete frame; false when the peer is gone.
  bool SendAll(int fd, std::string_view frame);

  Database* const db_;
  const ServerOptions options_;

  /// The not-yet-adopted ServerOptions::listen_fd; consumed by the first
  /// Start (a later Start binds a fresh socket — the adopted one was
  /// closed by Stop).
  int adopted_fd_ = -1;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  /// Level-triggered member of the epoll set, written once by Stop: every
  /// worker that sees it ready exits.
  int stop_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  /// Connection registry, touched only by accept and close. An entry is
  /// erased BEFORE its fd is closed: accept4 reuses fd numbers at once.
  OrderedMutex conns_mu_{LockRank::kServerQueue};
  std::unordered_map<int, std::unique_ptr<Connection>> conns_
      SPF_GUARDED_BY(conns_mu_);

  // Counters (ServerStats).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> frames_decoded_{0};
  std::atomic<uint64_t> frames_rejected_{0};
  std::atomic<uint64_t> ops_served_{0};
  std::atomic<uint64_t> txns_committed_{0};
  std::atomic<uint64_t> txns_failed_{0};
  std::atomic<uint64_t> info_requests_{0};
  std::atomic<uint64_t> gate_parked_commits_{0};

  std::vector<std::thread> workers_;  ///< declared last: they use the above
};

}  // namespace spf
