// Measurement plumbing of the end-to-end benchmark: percentiles, the
// public counters read at the edges of a measured window, process
// resource use, and the metric report (human table + the JSON line).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "db/database.h"
#include "server/network_server.h"

namespace spf {
namespace e2e {

/// Nearest-rank percentile (0 < p <= 1) of `v`; 0 for an empty vector.
double Percentile(std::vector<int64_t> v, double p);
/// Median of `v`; 0 for an empty vector.
double Median(std::vector<double> v);

/// The public counters the benchmark reads: Database::Stats(), the
/// B-tree's stats, SimDevice/SimLogDevice::stats(), the server's INFO
/// block, and the process's CPU time.
#define E2E_COUNTERS(X)                                                   \
  X(server_failed) X(gate_parked)                                         \
  X(fixes) X(hits) X(misses) X(write_backs) X(verify_failures)            \
  X(lock_acquisitions) X(lock_waits) X(lock_timeouts)                     \
  X(splits) X(foster_traversals)                                          \
  X(log_records) X(log_device_bytes) X(log_forces) X(group_batches)       \
  X(group_commits) X(pri_update_records) X(log_sim_ns)                    \
  X(archive_runs) X(archive_merges) X(archive_bytes)                      \
  X(spr_repairs) X(spr_records_applied) X(spr_log_reads)                  \
  X(spr_archive_reads) X(spr_backup_reads)                                \
  X(funnel_batches) X(funnel_coalesced) X(cross_checks)                   \
  X(cross_check_mismatches)                                               \
  X(data_reads) X(data_writes) X(backup_bytes_read) X(cpu_us)

struct Counters {
#define E2E_FIELD(name) uint64_t name = 0;
  E2E_COUNTERS(E2E_FIELD)
#undef E2E_FIELD

  Counters& operator+=(const Counters& o);
  Counters operator-(const Counters& o) const;
};

/// Reads every counter now. `server` may be null (in-process phases).
/// Not safe against a concurrent SimulateCrash: callers serialize.
Counters ReadCounters(Database* db, const NetworkServer* server);

/// Counters over a window that may span crashes: a crash rebuilds the
/// volatile components and resets their counters, so the window is
/// summed segment by segment.
class WindowCounters {
 public:
  void Open(const Counters& now) { base_ = now; total_ = Counters(); open_ = true; }
  /// Closes the current segment (before a crash or at the window's end).
  void CloseSegment(const Counters& now) {
    if (open_) total_ += now - base_;
  }
  /// Starts the next segment (after a restart).
  void Rebase(const Counters& now) { base_ = now; }
  void Close(const Counters& now) { CloseSegment(now); open_ = false; }
  const Counters& total() const { return total_; }

 private:
  Counters base_, total_;
  bool open_ = false;
};

/// VmHWM of this process in MiB.
double PeakRssMb();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  uint64_t samples = 0;  ///< samples or events behind the value (0 = derived)
};

/// Named metrics in insertion order.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           uint64_t samples = 0);
  /// One line per metric: name, value, unit, sample count.
  void Print(const std::string& title) const;
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace e2e
}  // namespace spf
