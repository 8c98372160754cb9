#include "server/network_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/coding.h"
#include "db/database.h"

namespace spf {

namespace {

constexpr int kSendTimeoutMs = 5000;   // bound on a stalled response write
constexpr int kListenBacklog = 128;

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool EpollCtl(int epoll_fd, int op, int fd, uint32_t events, void* tag) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.ptr = tag;
  return epoll_ctl(epoll_fd, op, fd, &ev) == 0;
}

}  // namespace

NetworkServer::NetworkServer(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)), adopted_fd_(options_.listen_fd) {}

NetworkServer::~NetworkServer() { Stop(); }

Status NetworkServer::Start() {
  if (running_) return Status::FailedPrecondition("server already running");

  if (adopted_fd_ >= 0) {
    listen_fd_ = adopted_fd_;
    adopted_fd_ = -1;  // Stop closes it; a later Start binds fresh
    SetNonBlocking(listen_fd_);
  } else {
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return Status::IOError("socket() failed");
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      close(listen_fd_);
      listen_fd_ = -1;
      return Status::InvalidArgument("bad host address");
    }
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        listen(listen_fd_, kListenBacklog) != 0) {
      close(listen_fd_);
      listen_fd_ = -1;
      return Status::IOError("bind/listen failed");
    }
  }

  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  stop_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || stop_fd_ < 0 ||
      !EpollCtl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, EPOLLIN | EPOLLONESHOT,
                &listen_fd_) ||
      !EpollCtl(epoll_fd_, EPOLL_CTL_ADD, stop_fd_, EPOLLIN, &stop_fd_)) {
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (stop_fd_ >= 0) close(stop_fd_);
    close(listen_fd_);
    listen_fd_ = epoll_fd_ = stop_fd_ = -1;
    return Status::IOError("epoll/eventfd setup failed");
  }

  uint32_t workers = std::max<uint32_t>(1, options_.workers);
  for (uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  running_ = true;
  return Status::OK();
}

void NetworkServer::Stop() {
  if (!running_) return;
  // The stop eventfd stays readable and is level-triggered, so every
  // worker sees it once it finishes the connection it holds (answering
  // each frame it already read); then the sockets close.
  uint64_t one = 1;
  ssize_t ignored = write(stop_fd_, &one, sizeof(one));
  (void)ignored;
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  std::unordered_map<int, std::unique_ptr<Connection>> remaining;
  {
    MutexLock g(conns_mu_);
    remaining.swap(conns_);
  }
  for (auto& [fd, conn] : remaining) {
    close(fd);
    connections_closed_++;
  }
  close(listen_fd_);
  close(epoll_fd_);
  close(stop_fd_);
  listen_fd_ = epoll_fd_ = stop_fd_ = -1;
  running_ = false;
}

ServerStats NetworkServer::server_stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_closed = connections_closed_.load();
  s.frames_decoded = frames_decoded_.load();
  s.frames_rejected = frames_rejected_.load();
  s.ops_served = ops_served_.load();
  s.txns_committed = txns_committed_.load();
  s.txns_failed = txns_failed_.load();
  s.info_requests = info_requests_.load();
  s.gate_parked_commits = gate_parked_commits_.load();
  return s;
}

StatsSnapshot NetworkServer::Stats() const {
  StatsSnapshot s = db_->Stats();
  s.server = server_stats();
  return s;
}

// --- workers ----------------------------------------------------------------

void NetworkServer::WorkerLoop() {
  while (true) {
    epoll_event ev;
    int n = epoll_wait(epoll_fd_, &ev, 1, -1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || ev.data.ptr == &stop_fd_) return;
    if (ev.data.ptr == &listen_fd_) {
      AcceptNewConnections();
      EpollCtl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, EPOLLIN | EPOLLONESHOT,
               &listen_fd_);
      continue;
    }
    auto* conn = static_cast<Connection*>(ev.data.ptr);
    // The previous owner may still be returning from the epoll_ctl that
    // armed the connection; take it only once that owner released it.
    while (!conn->released.exchange(false, std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    ServeConnection(conn);
  }
}

void NetworkServer::AcceptNewConnections() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or a transient accept error: retry later
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto owned = std::make_unique<Connection>();
    Connection* conn = owned.get();
    conn->fd = fd;
    {
      // Registered before it is armed: once armed, another worker may
      // already be closing it.
      MutexLock g(conns_mu_);
      conns_[fd] = std::move(owned);
    }
    connections_accepted_++;
    if (!Arm(conn, EPOLL_CTL_ADD)) CloseConnection(conn);
  }
}

void NetworkServer::ServeConnection(Connection* conn) {
  // Read what is there. A short read ends the loop: if more bytes land
  // meanwhile, the re-arm below reports the socket readable again.
  bool peer_gone = false;
  char buf[16384];
  while (true) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: honor the half-close below — complete frames
    // already buffered still run and get their replies (a client may
    // shut down its write side and read the acks).
    peer_gone = !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    break;
  }

  // Run every complete buffered frame in order, one reply each.
  size_t pos = 0;
  while (conn->inbuf.size() - pos >= wire::kFramingBytes) {
    uint32_t len = DecodeFixed32(conn->inbuf.data() + pos);
    if (len > wire::kMaxFrameBytes) {
      // Unframeable stream: no way to resynchronize past a lying length
      // prefix. Answer (best effort) and close.
      frames_rejected_++;
      SendAll(conn->fd, wire::EncodeErrorReply(wire::WireError::kOversized,
                                               "frame exceeds size ceiling"));
      CloseConnection(conn);
      return;
    }
    if (conn->inbuf.size() - pos < wire::kFramingBytes + len) break;
    std::string reply = HandleFrame(
        std::string_view(conn->inbuf).substr(pos + wire::kFramingBytes, len));
    pos += wire::kFramingBytes + len;
    if (!SendAll(conn->fd, reply)) {  // reader gone: drop the rest
      CloseConnection(conn);
      return;
    }
  }
  conn->inbuf.erase(0, pos);

  if (peer_gone || !Arm(conn, EPOLL_CTL_MOD)) CloseConnection(conn);
}

bool NetworkServer::Arm(Connection* conn, int op) {
  if (!EpollCtl(epoll_fd_, op, conn->fd, EPOLLIN | EPOLLONESHOT, conn)) {
    return false;  // not armed: still ours
  }
  conn->released.store(true, std::memory_order_release);
  return true;
}

void NetworkServer::CloseConnection(Connection* conn) {
  const int fd = conn->fd;
  {
    MutexLock g(conns_mu_);
    conns_.erase(fd);  // frees `conn`; before close(): fd numbers are reused
  }
  close(fd);
  connections_closed_++;
}

std::string NetworkServer::HandleFrame(std::string_view payload) {
  wire::Request req;
  std::string detail;
  wire::WireError err = wire::DecodeRequest(payload, &req, &detail);
  if (err != wire::WireError::kNone) {
    frames_rejected_++;
    return wire::EncodeErrorReply(err, detail);
  }
  frames_decoded_++;
  if (req.type == wire::FrameType::kInfoRequest) {
    info_requests_++;
    return wire::EncodeInfoReply(BuildInfo());
  }
  return wire::EncodeTxnReply(ExecuteTxn(req.txn));
}

wire::TxnReply NetworkServer::ExecuteTxn(const wire::TxnRequest& req) {
  wire::TxnReply reply;
  // Approximate but load-bearing observability: a Begin issued while the
  // rung-5 protocol is active parks at the admission gate (with early
  // admission, only until the restore sweep starts).
  if (db_->restore_gate()->active()) gate_parked_commits_++;

  Txn txn = db_->BeginTxn();
  auto fail = [&](uint16_t op_idx, const TxnError& e) {
    reply.kind = e.kind();
    reply.code = e.status().code();
    reply.failed_op = op_idx;
    reply.message = std::string(e.status().message());
    txns_failed_++;
  };

  for (size_t i = 0; i < req.ops.size(); ++i) {
    const wire::TxnOp& op = req.ops[i];
    ops_served_++;
    const std::string& key = req.keys[op.key];
    TxnError e;
    wire::OpResult result;
    result.kind = op.kind;
    switch (op.kind) {
      case wire::WireOp::kPut:
        e = txn.Put(key, op.value);
        break;
      case wire::WireOp::kInsert:
        e = txn.Insert(key, op.value);
        break;
      case wire::WireOp::kUpdate:
        e = txn.Update(key, op.value);
        break;
      case wire::WireOp::kDelete:
        e = txn.Delete(key);
        break;
      case wire::WireOp::kGet: {
        StatusOr<std::string> v = txn.Get(key);
        if (v.ok()) {
          result.value = std::move(*v);
        } else {
          e = txn.last_error();
          if (e.ok()) e = TxnError::Classify(v.status(), txn.doomed(),
                                   db_->repair_wired());
        }
        break;
      }
      case wire::WireOp::kScan: {
        uint32_t limit = op.limit == 0
                             ? wire::kMaxScanResults
                             : std::min(op.limit, wire::kMaxScanResults);
        std::string_view end = op.end_key == wire::kNoKey
                                   ? std::string_view()
                                   : std::string_view(req.keys[op.end_key]);
        Status s = txn.Scan(key, end,
                            [&result, limit](std::string_view k,
                                             std::string_view v) {
                              result.pairs.emplace_back(std::string(k),
                                                        std::string(v));
                              return result.pairs.size() < limit;
                            });
        if (!s.ok()) {
          e = txn.last_error();
          if (e.ok()) {
            e = TxnError::Classify(s, txn.doomed(), db_->repair_wired());
          }
        }
        break;
      }
    }
    if (!e.ok()) {
      fail(static_cast<uint16_t>(i), e);
      return reply;  // dropping `txn` auto-aborts and releases its locks
    }
    reply.results.push_back(std::move(result));
  }

  TxnError commit = txn.Commit();
  if (!commit.ok()) {
    fail(wire::kNoFailedOp, commit);
    return reply;
  }
  txns_committed_++;
  return reply;
}

wire::InfoReply NetworkServer::BuildInfo() const {
  wire::InfoReply info;
  info.stats_version = StatsSnapshot::kVersion;
  info.counters = wire::FlattenStats(Stats());
  return info;
}

bool NetworkServer::SendAll(int fd, std::string_view frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = send(fd, frame.data() + sent, frame.size() - sent,
                     MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      if (poll(&p, 1, kSendTimeoutMs) <= 0) return false;
      continue;
    }
    return false;  // peer gone (EPIPE, ECONNRESET, ...)
  }
  return true;
}

}  // namespace spf
