// The benchmark's database environment: set-up (load, backup, server),
// the correctness gates, and the administrative records every phase adds
// to (restores, restarts, backups, server starts).

#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/database.h"
#include "executor.h"
#include "server/network_server.h"
#include "workload.h"

namespace spf {
namespace e2e {

/// A leaf holding only probe keys, with its keys.
struct ProbeLeaf {
  PageId leaf = kInvalidPageId;
  std::vector<uint32_t> ids;
};

struct Env {
  WorkloadSpec spec;
  uint64_t seed = 1;
  std::unique_ptr<Database> db;
  std::unique_ptr<NetworkServer> server;
  std::vector<ProbeLeaf> probe_leaves;
  std::vector<uint64_t> probe_versions;  ///< index: id - spec.keys
  /// One per traffic connection; they outlive the phases.
  std::vector<std::unique_ptr<FrameSource>> sources;
  uint64_t probes_sent = 0;  ///< probe rotation position

  /// Serializes administrative actions (restore, crash) against counter
  /// snapshots.
  std::mutex admin_mu;

  // Every administrative call of the run, in wall milliseconds.
  std::vector<double> start_ms, backup_ms, restore_ms, drain_ms, restart_ms;
  std::vector<MediaRecoveryStats> restores;
  std::vector<RestartStats> restarts;

  std::mutex violations_mu;
  std::vector<std::string> violations;

  /// Records a correctness violation (printed to stderr, capped).
  void Violation(const std::string& what);
  bool correct();
};

/// Creates, loads, flushes and backs up a database, prepares the probe
/// leaves, starts the archiver and the server. `*seconds` is the set-up
/// time, from Database::Create until the server listens.
std::unique_ptr<Env> Setup(const WorkloadSpec& spec, uint64_t seed,
                           double* seconds);

/// Timed administrative call; records a span when `tracer` is set.
template <typename Fn>
auto TimedAdmin(Tracer* tracer, int tid, SpanKind kind, double* ms, Fn&& fn) {
  const int64_t start = NowNs();
  auto result = fn();
  const int64_t end = NowNs();
  if (tracer != nullptr) tracer->Record(tid, kind, 0, start, end);
  *ms = static_cast<double>(end - start) / 1e6;
  return result;
}

/// Full restore of a failed device; records its stats in `env`.
void RestoreDevice(Env& env, Tracer* tracer, int tid);
/// Full backup; records its time in `env`.
void Backup(Env& env, Tracer* tracer, int tid);
/// SimulateCrash + Restart + archiver restart; records it in `env`.
/// Traffic must be parked and the server stopped.
void CrashAndRestart(Env& env, Tracer* tracer, int tid);
/// Starts the server; records its time in `env`.
void StartServer(Env& env, Tracer* tracer, int tid);

/// Quiesces the engine and checks it: the funnel drains, CheckOffline
/// passes, and a full scan finds every key exactly once with a value that
/// embeds its id — at the last acked version for partitioned workloads
/// and at the current version for probe keys.
void Gates(Env& env, const std::string& when);

}  // namespace e2e
}  // namespace spf
