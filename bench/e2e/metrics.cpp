#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace spf {
namespace e2e {

double Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return static_cast<double>(v[idx]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Counters& Counters::operator+=(const Counters& o) {
#define E2E_ADD(name) name += o.name;
  E2E_COUNTERS(E2E_ADD)
#undef E2E_ADD
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d;
#define E2E_SUB(name) d.name = name - o.name;
  E2E_COUNTERS(E2E_SUB)
#undef E2E_SUB
  return d;
}

Counters ReadCounters(Database* db, const NetworkServer* server) {
  Counters c;
  if (server != nullptr) {
    const ServerStats ss = server->server_stats();
    c.server_failed = ss.txns_failed;
    c.gate_parked = ss.gate_parked_commits;
  }
  const StatsSnapshot s = db->Stats();
  c.fixes = s.pool.fixes;
  c.hits = s.pool.hits;
  c.misses = s.pool.misses;
  c.write_backs = s.pool.write_backs;
  c.verify_failures = s.pool.verify_failures;
  c.lock_acquisitions = s.locks.acquisitions;
  c.lock_waits = s.locks.waits;
  c.lock_timeouts = s.locks.timeouts;
  const BTreeStats tree = db->tree()->stats();
  c.splits = tree.splits;
  c.foster_traversals = tree.foster_traversals;
  c.log_records = s.log.records_appended;
  c.log_forces = s.log.forces;
  c.group_batches = s.log.group_commit_batches;
  c.group_commits = s.log.group_commit_commits;
  auto pri = s.log.per_type.find(LogRecordType::kPriUpdate);
  c.pri_update_records = pri == s.log.per_type.end() ? 0 : pri->second;
  // The log device outlives crashes, so its counters include what
  // restart itself logs.
  const DeviceStats log_dev = db->log_device()->stats();
  c.log_device_bytes = log_dev.bytes_written;
  c.log_sim_ns = log_dev.sim_ns_charged;
  c.archive_runs = s.archive.runs_written;
  c.archive_merges = s.archive.merges;
  c.archive_bytes = s.archive.archived_bytes;
  c.spr_repairs = s.spr.repairs_succeeded;
  c.spr_records_applied = s.spr.log_records_applied;
  c.spr_log_reads = s.spr.log_reads;
  c.spr_archive_reads = s.spr.archive_reads;
  c.spr_backup_reads = s.spr.backup_reads;
  c.funnel_batches = s.funnel.batches;
  c.funnel_coalesced = s.funnel.coalesced;
  c.cross_checks = s.cross_checks;
  c.cross_check_mismatches = s.cross_check_mismatches;
  const DeviceStats data = db->data_device()->stats();
  c.data_reads = data.page_reads;
  c.data_writes = data.page_writes;
  c.backup_bytes_read = db->backup_device()->stats().bytes_read;
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  c.cpu_us = static_cast<uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1000000 +
             static_cast<uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  return c;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

void Report::Add(const std::string& name, const std::string& unit, double value,
                 uint64_t samples) {
  metrics_.push_back(Metric{name, unit, value, samples});
}

void Report::Print(const std::string& title) const {
  printf("%s\n", title.c_str());
  for (const Metric& m : metrics_) {
    if (m.samples > 0) {
      printf("  %-40s %14.4f %-10s n=%llu\n", m.name.c_str(), m.value,
             m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
}

std::string Report::Json(bool correct, uint64_t attempted, uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2e
}  // namespace spf
