// Shared test fixture plumbing: assembles the full storage stack (clock,
// devices, log, buffer pool, locks, transactions, allocator, meta page,
// B-tree) the way the db facade does, but with every component exposed for
// poking and fault injection.

#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>

#include "btree/btree.h"
#include "buffer/buffer_pool.h"
#include "common/sim_clock.h"
#include "log/log_manager.h"
#include "storage/allocation.h"
#include "storage/db_meta.h"
#include "storage/device_profile.h"
#include "storage/sim_device.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace spf {
namespace testenv {

struct EnvOptions {
  uint32_t page_size = kDefaultPageSize;
  uint64_t num_pages = 4096;
  size_t buffer_frames = 512;
  uint64_t reserved_pages = 1;  // meta page only (tests below the PRI layer)
  DeviceProfile data_profile = DeviceProfile::Instant();
  DeviceProfile log_profile = DeviceProfile::Instant();
  bool verify_on_read = true;
  bool verify_traversals = true;
};

/// The full stack below the db facade.
class TestEnv {
 public:
  explicit TestEnv(EnvOptions opts = EnvOptions()) : opts_(opts) {
    data = std::make_unique<SimDevice>("data", opts.page_size, opts.num_pages,
                                       opts.data_profile, &clock);
    wal = std::make_unique<SimLogDevice>("wal", opts.log_profile, &clock);
    log = std::make_unique<LogManager>(wal.get());
    BufferPoolOptions bp_opts;
    bp_opts.page_size = opts.page_size;
    bp_opts.num_frames = opts.buffer_frames;
    bp_opts.verify_on_read = opts.verify_on_read;
    frame_memory.reset(new char[opts.buffer_frames * opts.page_size]);
    pool = std::make_unique<BufferPool>(bp_opts, data.get(), log.get(),
                                        frame_memory.get());
    locks = std::make_unique<LockManager>();
    txns = std::make_unique<TxnManager>(log.get(), locks.get());
    alloc = std::make_unique<PageAllocator>(opts.num_pages, opts.reserved_pages);

    FormatMetaPage();

    BTreeOptions bt_opts;
    bt_opts.verify_traversals = opts.verify_traversals;
    tree = std::make_unique<BTree>(bt_opts, pool.get(), log.get(), txns.get(),
                                   alloc.get(), /*meta_pid=*/0);
    SPF_CHECK_OK(tree->Create());
  }

  /// Formats page 0 as the meta page, directly on the device (the db
  /// facade logs this; tests don't need to).
  void FormatMetaPage() {
    PageBuffer buf(opts_.page_size);
    PageView page = buf.view();
    page.Format(0, PageType::kMeta);
    MetaView meta(page);
    DbMetaData* m = meta.mutable_meta();
    m->magic = kDbMetaMagic;
    m->root_pid = kInvalidPageId;
    m->num_pages = opts_.num_pages;
    m->reserved_pages = opts_.reserved_pages;
    page.UpdateChecksum();
    SPF_CHECK_OK(data->WritePage(0, buf.data()));
  }

  /// Convenience: run `fn(txn)` in a committed user transaction.
  template <typename Fn>
  Status WithTxn(Fn&& fn) {
    std::shared_ptr<Transaction> txn = txns->Begin();
    Status s = fn(txn.get());
    if (!s.ok()) {
      txns->BeginAbort(txn.get());
      txns->FinishAbort(txn.get());  // NOTE: without undo; use only in tests
      return s;
    }
    return txns->Commit(txn.get());
  }

  EnvOptions opts_;
  SimClock clock;
  std::unique_ptr<SimDevice> data;
  std::unique_ptr<SimLogDevice> wal;
  std::unique_ptr<LogManager> log;
  std::unique_ptr<char[]> frame_memory;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<LockManager> locks;
  std::unique_ptr<TxnManager> txns;
  std::unique_ptr<PageAllocator> alloc;
  std::unique_ptr<BTree> tree;
};

/// Reserves a loopback TCP port race-free: binds 127.0.0.1:0, listens,
/// and recovers the kernel's port choice. Hand the listening socket to a
/// server via ServerOptions::listen_fd (release()) so the port can never
/// be lost to another process between "pick a port" and "bind it" — the
/// classic ephemeral-port race in network tests.
class LoopbackListener {
 public:
  LoopbackListener() {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    int one = 1;
    setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = 0;  // the kernel picks a free ephemeral port
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        listen(fd_, 64) != 0) {
      close(fd_);
      fd_ = -1;
      return;
    }
    socklen_t len = sizeof(addr);
    if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port_ = ntohs(addr.sin_port);
    }
  }
  ~LoopbackListener() {
    if (fd_ >= 0) close(fd_);
  }

  LoopbackListener(const LoopbackListener&) = delete;
  LoopbackListener& operator=(const LoopbackListener&) = delete;

  /// True when the socket bound and listens.
  bool ok() const { return fd_ >= 0 && port_ != 0; }
  /// The reserved port (valid while the socket is held or adopted).
  uint16_t port() const { return port_; }
  /// Transfers socket ownership to the caller (ServerOptions::listen_fd).
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace testenv
}  // namespace spf
