// E16: the network serving layer under load — commit throughput and
// latency through the TCP server, healthy and while the engine is
// repairing failures underneath the sockets.
//
// Unlike the engine benches (simulated time), this one measures HOST
// wall-clock time: the serving fabric (workers sharing one one-shot
// epoll set, loopback TCP) is real, so its scaling only shows on a real clock. The
// storage devices are Instant so device arithmetic does not drown out
// the serving-layer signal.
//
// Axes:
//   1. worker-pool size {1, 2, 4, 8} on a healthy engine — commit
//      throughput should scale with workers until the engine saturates.
//   2. failure mode at a fixed pool: healthy vs injected single-page
//      failures vs a whole-device failure with a mid-run rung-5 gated
//      restore. Clients retry retryable() replies (the wire contract),
//      so commits keep flowing; the table reports the retry bill, the
//      time from failure injection to the FIRST post-failure acked
//      commit (early readmission: ~one on-demand segment, not a full
//      device restore), and the repair counters fetched over the wire
//      via INFO.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "server/client.h"
#include "server/network_server.h"

using namespace spf;
using namespace spf::bench;

namespace {

enum class Mode { kHealthy, kPageFailures, kDeviceRestore };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kHealthy: return "healthy";
    case Mode::kPageFailures: return "page failures";
    case Mode::kDeviceRestore: return "device restore";
  }
  return "?";
}

struct CellResult {
  uint64_t commits = 0;
  uint64_t failed = 0;        // frames that exhausted retries / hard-failed
  uint64_t retries = 0;       // extra attempts beyond one per frame
  double wall_seconds = 0;
  double mean_latency_us = 0;
  double first_ack_ms = -1;   // injection -> first post-failure acked commit
  uint64_t repairs = 0;               // spr.repairs_succeeded (via INFO)
  uint64_t on_demand_segments = 0;    // funnel.on_demand_segments (via INFO)
  uint64_t gate_parked = 0;           // server.gate_parked_commits (via INFO)
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CellResult RunCell(uint32_t workers, int clients, int frames_per_client,
                   Mode mode) {
  DatabaseOptions options = InstantOptions(8192);
  options.restore_early_admission = true;
  options.group_commit_interval = std::chrono::microseconds(200);
  auto db = MakeLoadedDb(options, 4000);
  SPF_CHECK_OK(db->FlushAll());
  SPF_CHECK_OK(db->TakeFullBackup().status());
  db->archiver()->Start();

  ServerOptions sopts;
  sopts.workers = workers;
  NetworkServer server(db.get(), sopts);
  SPF_CHECK_OK(server.Start());

  std::atomic<uint64_t> commits{0}, failed{0}, retries{0};
  std::atomic<int64_t> latency_ns_total{0};
  std::atomic<int64_t> inject_ns{-1};
  std::atomic<int64_t> first_ack_ns{-1};
  std::atomic<bool> injected{false};

  int64_t start_ns = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      SPF_CHECK_OK(client.Connect("127.0.0.1", server.port()));
      for (int f = 0; f < frames_per_client; ++f) {
        wire::TxnRequest req;
        req.Put(Key(c * 1000000 + f % 2000), "e16-" + std::to_string(f));
        int64_t t0 = NowNs();
        wire::TxnReply reply;
        bool committed = false;
        for (int attempt = 0; attempt < 256; ++attempt) {
          if (attempt > 0) retries++;
          Status s = client.Execute(req, &reply);
          SPF_CHECK_OK(s);
          if (reply.ok()) {
            committed = true;
            break;
          }
          if (!reply.retryable()) break;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(std::min(attempt + 1, 5)));
        }
        latency_ns_total += NowNs() - t0;
        if (committed) {
          commits++;
          if (injected.load(std::memory_order_acquire) &&
              first_ack_ns.load() < 0) {
            int64_t expected = -1;
            first_ack_ns.compare_exchange_strong(expected, NowNs());
          }
        } else {
          failed++;
        }
      }
      client.Close();
    });
  }

  // Fault injector: fires once the workload is visibly flowing.
  std::thread injector([&] {
    if (mode == Mode::kHealthy) return;
    while (commits.load() < static_cast<uint64_t>(clients) * 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (mode == Mode::kPageFailures) {
      // Corrupt a handful of clean leaves under the live workload.
      int corrupted = 0;
      for (int k = 0; k < 2000 && corrupted < 4; k += 97) {
        auto leaf = db->LeafPageOf(Key(k));
        if (!leaf.ok() || db->pool()->IsDirty(*leaf)) continue;
        db->pool()->DiscardPage(*leaf);
        db->data_device()->InjectSilentCorruption(*leaf);
        corrupted++;
      }
      inject_ns.store(NowNs());
      injected.store(true, std::memory_order_release);
      return;
    }
    // Whole-device failure + rung-5 gated restore, mid-run.
    db->data_device()->FailDevice();
    inject_ns.store(NowNs());
    injected.store(true, std::memory_order_release);
    SPF_CHECK_OK(db->RecoverMedia().status());
  });

  for (auto& t : threads) t.join();
  injector.join();
  double wall = (NowNs() - start_ns) / 1e9;

  // Counters over the wire — the INFO command is part of the bench.
  Client info_client;
  SPF_CHECK_OK(info_client.Connect("127.0.0.1", server.port()));
  wire::InfoReply info;
  SPF_CHECK_OK(info_client.Info(&info));
  info_client.Close();
  server.Stop();

  CellResult r;
  r.commits = commits.load();
  r.failed = failed.load();
  r.retries = retries.load();
  r.wall_seconds = wall;
  uint64_t frames = static_cast<uint64_t>(clients) * frames_per_client;
  r.mean_latency_us = frames > 0 ? latency_ns_total.load() / 1e3 / frames : 0;
  if (inject_ns.load() >= 0 && first_ack_ns.load() >= 0) {
    r.first_ack_ms = (first_ack_ns.load() - inject_ns.load()) / 1e6;
  }
  r.repairs = info.Counter("spr.repairs_succeeded");
  r.on_demand_segments = info.Counter("funnel.on_demand_segments");
  r.gate_parked = info.Counter("server.gate_parked_commits");
  return r;
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Init(argc, argv);
  const int clients = Scaled(8, 4);
  const int frames_per_client = Scaled(400, 25);

  printf("E16: network serving layer — TCP server, %d clients, single-put\n"
         "frames with wire-contract retries (wall-clock time; Instant\n"
         "devices so the serving fabric is the measured cost)\n\n",
         clients);

  Table t1({"workers", "commits", "wall", "commits/s", "speedup",
            "mean latency"});
  double base = 0;
  for (uint32_t workers : {1u, 2u, 4u, 8u}) {
    CellResult r = RunCell(workers, clients, frames_per_client, Mode::kHealthy);
    double tput = r.wall_seconds > 0 ? r.commits / r.wall_seconds : 0;
    if (workers == 1) base = tput;
    t1.AddRow({std::to_string(workers), std::to_string(r.commits),
               FormatSeconds(r.wall_seconds), Fmt("%.0f", tput),
               Fmt("%.2fx", base > 0 ? tput / base : 0),
               Fmt("%.1f us", r.mean_latency_us)});
  }
  t1.Print();
  printf("\n");

  Table t2({"mode", "commits", "failed", "retries", "commits/s",
            "first ack after failure", "repairs", "on-demand segs",
            "gate parked"});
  for (Mode mode : {Mode::kHealthy, Mode::kPageFailures, Mode::kDeviceRestore}) {
    CellResult r = RunCell(4, clients, frames_per_client, mode);
    double tput = r.wall_seconds > 0 ? r.commits / r.wall_seconds : 0;
    t2.AddRow({ModeName(mode), std::to_string(r.commits),
               std::to_string(r.failed), std::to_string(r.retries),
               Fmt("%.0f", tput),
               r.first_ack_ms < 0 ? "-" : Fmt("%.1f ms", r.first_ack_ms),
               std::to_string(r.repairs), std::to_string(r.on_demand_segments),
               std::to_string(r.gate_parked)});
  }
  t2.Print();

  printf("\nReading: worker scaling tracks the engine's commit concurrency\n"
         "(group commit coalesces the log syncs). Single-page failures heal\n"
         "inline — a few repairs, no failed frames. The device failure gates\n"
         "every new transaction behind the rung-5 restore, but with early\n"
         "admission the first post-failure commit lands after roughly ONE\n"
         "on-demand segment restore, not the full device sweep; the retry\n"
         "column is the price clients paid to ride it out.\n");
  return 0;
}
