// bench_e2e: the end-to-end benchmark of serving and recovery.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1|FILE]
//             [--trace-file FILE] [--out FILE] [--smoke]
//   bench_e2e [--seed N] ...        # every workload, one child process each
//
// A run sets the workload's database up three times (setup_s is the
// median), drives it over loopback TCP for a 2 s warm-up and a measured
// window, checks every answer and the quiesced engine, and ends with a
// restore and a restart drill that are checked too. With --trace 1 it
// then replays the workload in-process, untraced and traced, writes the
// spans as Chrome trace-event JSON and reports the per-layer metrics.
// The last stdout line is the result as one JSON object; the exit code is
// 0 only when every correctness gate passed. See README.md.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "env.h"
#include "executor.h"
#include "metrics.h"
#include "phase.h"
#include "workload.h"

namespace spf {
namespace e2e {
namespace {

constexpr double kDefaultSeconds = 10;
constexpr double kWarmupSeconds = 2;
constexpr double kInProcessWarmupSeconds = 0.25;
constexpr int kSetupReps = 3;
// Span records kept for the trace file; durations are always all kept.
constexpr uint64_t kTraceFramesKept = 20000;

struct Args {
  std::string workload;  // empty: every workload
  uint64_t seed = 1;
  double seconds = 0;    // 0: the default for the mode
  bool trace = false;
  std::string trace_file;
  std::string out;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      a->smoke = true;
    } else if (arg == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a->seconds = std::atof(argv[++i]);
      if (a->seconds <= 0) return false;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      a->trace = v != "0";
      if (v != "0" && v != "1") a->trace_file = v;
    } else if (arg == "--trace-file" && has_value) {
      a->trace_file = argv[++i];
    } else if (arg == "--out" && has_value) {
      a->out = argv[++i];
    } else {
      fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PercentileUs(const std::vector<int64_t>& ns, double p) {
  return Percentile(ns, p) / 1e3;
}

std::vector<int64_t> AllFrames(const PhaseStats& s) {
  std::vector<int64_t> all;
  for (const auto& v : s.latency) all.insert(all.end(), v.begin(), v.end());
  return all;
}

template <typename T, typename Fn>
double Mean(const std::vector<T>& v, Fn&& field) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const T& x : v) sum += static_cast<double>(field(x));
  return sum / static_cast<double>(v.size());
}

void AddEndToEnd(Report* r, const std::vector<double>& setup_s,
                 const PhaseResult& tcp) {
  const PhaseStats& s = tcp.stats;
  const auto& reads = s.latency[static_cast<int>(FrameClass::kRead)];
  const auto& writes = s.latency[static_cast<int>(FrameClass::kWrite)];
  r->Add("setup_s", "s", Median(setup_s), setup_s.size());
  r->Add("peak_rss_mb", "MiB", PeakRssMb());
  r->Add("throughput_fps", "frames/s",
         Ratio(static_cast<double>(s.load_committed), tcp.window_s), s.load_committed);
  r->Add("read_p50_us", "us", PercentileUs(reads, 0.50), reads.size());
  r->Add("read_p99_us", "us", PercentileUs(reads, 0.99), reads.size());
  r->Add("write_p50_us", "us", PercentileUs(writes, 0.50), writes.size());
  r->Add("write_p99_us", "us", PercentileUs(writes, 0.99), writes.size());
  r->Add("log_bytes_per_user_byte", "ratio",
         Ratio(static_cast<double>(tcp.counters.log_device_bytes),
               static_cast<double>(s.user_bytes)),
         s.write_frames);
  r->Add("signature_p50_us", "us", PercentileUs(s.signature, 0.50),
         s.signature.size());
}

void AddPerLayer(Report* r, const Env& env, const PhaseResult& tcp,
                 const PhaseResult& inproc, const PhaseResult& traced,
                 const Tracer& tracer) {
  const Counters& c = tcp.counters;
  const PhaseStats& s = tcp.stats;
  const double frames = static_cast<double>(s.attempted);
  const double commits = static_cast<double>(s.attempted - s.failed);
  const double writes = static_cast<double>(s.write_frames);
  const double probes = static_cast<double>(s.probes);
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  auto span_p = [&tracer](SpanKind k, double p) {
    return Percentile(tracer.Durations(k), p);
  };
  // Sub-microsecond calls take a few clock ticks, so their percentiles
  // repeat tick for tick; the mean carries the resolution.
  auto span_mean = [&tracer](SpanKind k) {
    return Mean(tracer.Durations(k), [](int64_t ns) { return ns; });
  };

  const double tcp_p50 = Percentile(AllFrames(s), 0.5);
  const double inproc_p50 = Percentile(AllFrames(inproc.stats), 0.5);
  const double traced_p50 = Percentile(AllFrames(traced.stats), 0.5);
  r->Add("server.wire_encode_req_ns", "ns", span_mean(SpanKind::kEncodeReq));
  r->Add("server.wire_decode_req_ns", "ns", span_mean(SpanKind::kDecodeReq));
  r->Add("server.wire_encode_reply_ns", "ns", span_mean(SpanKind::kEncodeReply));
  r->Add("server.wire_decode_reply_ns", "ns", span_mean(SpanKind::kDecodeReply));
  r->Add("server.fabric_us", "us", (tcp_p50 - inproc_p50) / 1e3);
  r->Add("server.start_ms", "ms", Median(env.start_ms), env.start_ms.size());
  r->Add("server.retries_per_frame", "count", Ratio(d(c.server_failed), frames));
  r->Add("server.gate_parked_per_restore", "count",
         env.spec.control == Control::kRestore ? Ratio(d(c.gate_parked), d(s.events)) : 0);

  r->Add("db.begin_us", "us", span_mean(SpanKind::kBegin) / 1e3);
  r->Add("db.get_p50_us", "us", span_p(SpanKind::kGet, 0.5) / 1e3);
  r->Add("db.get_p99_us", "us", span_p(SpanKind::kGet, 0.99) / 1e3);
  r->Add("db.put_p50_us", "us", span_p(SpanKind::kPut, 0.5) / 1e3);
  r->Add("db.put_p99_us", "us", span_p(SpanKind::kPut, 0.99) / 1e3);
  r->Add("db.commit_p50_us", "us", span_p(SpanKind::kCommit, 0.5) / 1e3);
  r->Add("db.commit_p99_us", "us", span_p(SpanKind::kCommit, 0.99) / 1e3);
  r->Add("db.signature_p50_us", "us", PercentileUs(traced.stats.signature, 0.5),
         traced.stats.signature.size());

  r->Add("txn.lock_acquisitions_per_frame", "count", Ratio(d(c.lock_acquisitions), frames));
  r->Add("txn.lock_waits_per_frame", "count", Ratio(d(c.lock_waits), frames));
  r->Add("txn.lock_timeouts", "count", d(c.lock_timeouts));

  r->Add("btree.splits_per_kframe", "count", 1000 * Ratio(d(c.splits), frames));
  r->Add("btree.foster_traversals_per_kframe", "count",
         1000 * Ratio(d(c.foster_traversals), frames));

  r->Add("buffer.hit_ratio", "fraction", Ratio(d(c.hits), d(c.fixes)));
  r->Add("buffer.misses_per_frame", "count", Ratio(d(c.misses), frames));
  r->Add("buffer.write_backs_per_frame", "count", Ratio(d(c.write_backs), frames));
  r->Add("buffer.verify_failures", "count", d(c.verify_failures));

  r->Add("log.records_per_write_frame", "count", Ratio(d(c.log_records), writes));
  r->Add("log.bytes_per_write_frame", "B", Ratio(d(c.log_device_bytes), writes));
  r->Add("log.pri_update_records_per_write_back", "count",
         Ratio(d(c.pri_update_records), d(c.write_backs)));
  r->Add("log.forces_per_commit", "count", Ratio(d(c.log_forces), commits));
  r->Add("log.group_size", "count", Ratio(d(c.group_commits), d(c.group_batches)));
  r->Add("log.archive_runs_per_s", "1/s", Ratio(d(c.archive_runs), tcp.window_s));
  r->Add("log.archive_merges_per_s", "1/s", Ratio(d(c.archive_merges), tcp.window_s));
  r->Add("log.archive_bytes_per_s", "B/s", Ratio(d(c.archive_bytes), tcp.window_s));

  r->Add("core.spr_repairs_per_probe", "count", Ratio(d(c.spr_repairs), probes));
  r->Add("core.spr_records_applied_per_repair", "count",
         Ratio(d(c.spr_records_applied), d(c.spr_repairs)));
  r->Add("core.spr_log_reads_per_repair", "count",
         Ratio(d(c.spr_log_reads), d(c.spr_repairs)));
  r->Add("core.spr_archive_reads_per_repair", "count",
         Ratio(d(c.spr_archive_reads), d(c.spr_repairs)));
  r->Add("core.spr_backup_reads_per_repair", "count",
         Ratio(d(c.spr_backup_reads), d(c.spr_repairs)));
  r->Add("core.funnel_batches_per_probe", "count", Ratio(d(c.funnel_batches), probes));
  r->Add("core.funnel_coalesced", "count", d(c.funnel_coalesced));
  r->Add("core.cross_checks_per_miss", "count", Ratio(d(c.cross_checks), d(c.misses)));
  r->Add("core.cross_check_mismatches", "count", d(c.cross_check_mismatches));

  const auto& rs = env.restores;
  const auto& rt = env.restarts;
  r->Add("recovery.recover_media_ms", "ms", Median(env.restore_ms), rs.size());
  r->Add("recovery.restore_drain_ms", "ms", Median(env.drain_ms), rs.size());
  r->Add("recovery.restore_segments", "count",
         Mean(rs, [](const MediaRecoveryStats& m) { return m.segments; }));
  r->Add("recovery.on_demand_segments", "count",
         Mean(rs, [](const MediaRecoveryStats& m) { return m.on_demand_segments; }));
  r->Add("recovery.restore_redo_applied", "count",
         Mean(rs, [](const MediaRecoveryStats& m) { return m.redo_applied; }));
  r->Add("recovery.restart_ms", "ms", Median(env.restart_ms), rt.size());
  r->Add("recovery.restart_analysis_records", "count",
         Mean(rt, [](const RestartStats& x) { return x.analysis_records; }));
  r->Add("recovery.restart_redo_applied", "count",
         Mean(rt, [](const RestartStats& x) { return x.redo_applied; }));
  r->Add("recovery.restart_redo_page_reads", "count",
         Mean(rt, [](const RestartStats& x) { return x.redo_page_reads; }));

  r->Add("backup.full_backup_ms", "ms", Median(env.backup_ms), env.backup_ms.size());

  r->Add("storage.data_reads_per_frame", "count", Ratio(d(c.data_reads), frames));
  r->Add("storage.data_writes_per_frame", "count", Ratio(d(c.data_writes), frames));
  r->Add("storage.log_sim_us_per_commit", "us", Ratio(d(c.log_sim_ns) / 1e3, commits));
  r->Add("storage.backup_bytes_read_per_restore", "B",
         env.spec.control == Control::kRestore ? Ratio(d(c.backup_bytes_read), d(s.events)) : 0);

  r->Add("process.cpu_cores", "cores", Ratio(d(c.cpu_us) / 1e6, tcp.window_s));
  r->Add("trace.span_overhead_pct", "%", 100 * (Ratio(traced_p50, inproc_p50) - 1));
}

// Numbers the JSON line does not carry: the per-event views of the
// failure workloads, the error breakdown and the traced self times.
void PrintDetails(const Env& env, const PhaseResult& tcp, const Tracer* tracer) {
  const PhaseStats& s = tcp.stats;
  const auto& scans = s.latency[static_cast<int>(FrameClass::kScan)];
  printf("details [%s]\n", env.spec.name.c_str());
  printf("  signature: %s\n", SignatureName(env.spec.signature));
  printf("  data pages allocated %llu of %llu, pool frames %zu\n",
         static_cast<unsigned long long>(env.db->allocator()->allocated_count()),
         static_cast<unsigned long long>(env.spec.num_pages), env.spec.buffer_frames);
  // A lag that keeps growing means the archive volume filled up and the
  // archiver stopped (README.md, finding g).
  const uint64_t log_bytes = env.db->log_device()->size();
  const uint64_t archived = env.db->archiver()->stats().archived_upto;
  printf("  log %.1f MiB, archive lag %.1f MiB\n",
         static_cast<double>(log_bytes) / (1 << 20),
         static_cast<double>(log_bytes - std::min(log_bytes, archived)) / (1 << 20));
  printf("  window %.3f s, frames attempted %llu, failed %llu, error_rate %.3g\n",
         tcp.window_s, static_cast<unsigned long long>(s.attempted),
         static_cast<unsigned long long>(s.failed),
         Ratio(static_cast<double>(s.failed), static_cast<double>(s.attempted)));
  for (const auto& [kind, n] : s.failed_kinds) {
    printf("  failed reply: %s x%llu\n", kind.c_str(), static_cast<unsigned long long>(n));
  }
  if (!scans.empty()) {
    printf("  scan_p50_us %.2f  scan_p99_us %.2f  (n=%zu)\n", PercentileUs(scans, 0.5),
           PercentileUs(scans, 0.99), scans.size());
  }
  if (s.signature.size() >= 1000) {
    printf("  signature_p99_us %.2f (n=%zu)\n", PercentileUs(s.signature, 0.99),
           s.signature.size());
  }
  if (env.spec.control == Control::kProbe) {
    printf("  probes %llu, skipped dirty %llu, generator late p99 %.1f us\n",
           static_cast<unsigned long long>(s.probes),
           static_cast<unsigned long long>(s.probes_skipped_dirty),
           PercentileUs(s.probe_late, 0.99));
    const char* kinds[] = {"corruption", "read error", "stale image"};
    for (size_t k = 0; k < s.probe_by_kind.size(); ++k) {
      printf("    %-11s repaired read p50 %.1f us, p99 %.1f us (n=%zu)\n", kinds[k],
             PercentileUs(s.probe_by_kind[k], 0.5),
             PercentileUs(s.probe_by_kind[k], 0.99), s.probe_by_kind[k].size());
    }
  }
  if (env.spec.control == Control::kRestore || env.spec.control == Control::kCrash) {
    printf("  events in window %llu\n", static_cast<unsigned long long>(s.events));
  }
  if (!env.restores.empty()) {
    std::vector<double> restore_sim, replay_sim;
    for (const auto& m : env.restores) {
      restore_sim.push_back(m.restore_sim_seconds);
      replay_sim.push_back(m.replay_sim_seconds);
    }
    printf("  restores %zu: wall p50 %.2f ms, simulated restore %.3f s + replay %.3f s\n",
           env.restores.size(), Median(env.restore_ms), Median(restore_sim),
           Median(replay_sim));
  }
  if (!env.restarts.empty()) {
    printf("  restarts %zu: wall p50 %.2f ms\n", env.restarts.size(),
           Median(env.restart_ms));
  }
  if (tracer != nullptr) {
    const auto self = tracer->SelfNs();
    printf("  traced self time per frame (%llu frames):\n",
           static_cast<unsigned long long>(tracer->frames()));
    for (size_t k = 0; k < kSpanKinds; ++k) {
      if (self[k] == 0) continue;
      printf("    %-8s %-26s %10.2f us\n", SpanLayer(static_cast<SpanKind>(k)),
             SpanName(static_cast<SpanKind>(k)),
             Ratio(static_cast<double>(self[k]) / 1e3,
                   static_cast<double>(tracer->frames())));
    }
  }
}

int RunWorkload(WorkloadSpec spec, const Args& a) {
  if (a.smoke) spec = SmokeSized(spec);
  const double seconds = a.seconds > 0 ? a.seconds : (a.smoke ? 1 : kDefaultSeconds);
  const double warmup = a.smoke ? 0.2 : kWarmupSeconds;
  const int reps = a.smoke ? 1 : kSetupReps;

  std::vector<double> setup_s, start_ms, backup_ms;
  std::unique_ptr<Env> env;
  for (int rep = 0; rep < reps; ++rep) {
    if (env != nullptr) {
      start_ms.insert(start_ms.end(), env->start_ms.begin(), env->start_ms.end());
      backup_ms.insert(backup_ms.end(), env->backup_ms.begin(), env->backup_ms.end());
      env.reset();
    }
    double s = 0;
    env = Setup(spec, a.seed, &s);
    setup_s.push_back(s);
    if (!env->correct()) {
      fprintf(stderr, "set-up of %s failed\n", spec.name.c_str());
      return 1;
    }
  }
  env->start_ms.insert(env->start_ms.end(), start_ms.begin(), start_ms.end());
  env->backup_ms.insert(env->backup_ms.end(), backup_ms.begin(), backup_ms.end());
  for (int c = 0; c < spec.connections; ++c) {
    env->sources.push_back(std::make_unique<FrameSource>(env->spec, a.seed, c));
  }

  PhaseResult tcp = Phase(*env, Path::kTcp, nullptr).Run(warmup, seconds);
  env->server->Stop();
  // The crash workload's last word: every acked commit survives a crash
  // that no flush preceded.
  if (spec.control == Control::kCrash) CrashAndRestart(*env, nullptr, 0);
  Gates(*env, "after the TCP window");

  PhaseResult inproc, traced;
  std::unique_ptr<Tracer> tracer;
  if (a.trace) {
    // An eighth of the window each keeps the run's log inside the archive
    // volume (the archive never shrinks; once full, the archiver stops).
    const double eighth = seconds / 8;
    inproc = Phase(*env, Path::kInProcess, nullptr).Run(kInProcessWarmupSeconds, eighth);
    tracer = std::make_unique<Tracer>(spec.connections + 1, kTraceFramesKept);
    traced = Phase(*env, Path::kTraced, tracer.get()).Run(kInProcessWarmupSeconds, eighth);
    if (spec.control == Control::kCrash) CrashAndRestart(*env, nullptr, 0);
    Gates(*env, "after the traced run");
    const std::string file = a.trace_file.empty()
                                 ? "bench_e2e_trace_" + spec.name + ".json"
                                 : a.trace_file;
    Status s = tracer->WriteChromeJson(file);
    if (!s.ok()) env->Violation("trace: " + s.ToString());
    printf("trace written to %s\n", file.c_str());
  }

  // Closing drills, checked like the traffic: a fresh backup, a full
  // restore of the whole device, then a crash and restart.
  Backup(*env, nullptr, 0);
  RestoreDevice(*env, nullptr, 0);
  Gates(*env, "after the restore drill");
  CrashAndRestart(*env, nullptr, 0);
  Gates(*env, "after the restart drill");

  if (spec.control == Control::kProbe) {
    const PhaseStats& s = tcp.stats;
    if (s.probe_by_kind[0].empty() || s.probe_by_kind[1].empty() ||
        s.probe_by_kind[2].empty()) {
      env->Violation("probes did not cover all three fault kinds");
    }
    if (tcp.counters.spr_repairs < s.probes) {
      env->Violation("fewer single-page repairs than probes");
    }
  }

  Report e2e;
  AddEndToEnd(&e2e, setup_s, tcp);
  e2e.Print("end-to-end [" + spec.name + "]");
  Report layers;
  if (a.trace) {
    AddPerLayer(&layers, *env, tcp, inproc, traced, *tracer);
    layers.Print("per-layer [" + spec.name + "]");
  }
  PrintDetails(*env, tcp, tracer.get());

  const bool correct = env->correct();
  const std::string line = (a.trace ? layers : e2e)
                               .Json(correct, tcp.stats.attempted, tcp.stats.failed);
  if (!a.out.empty()) {
    std::ofstream(a.out) << line << "\n";
  }
  printf("%s\n", line.c_str());
  fflush(stdout);
  return correct ? 0 : 1;
}

// Runs `argv` as a child process, echoing its stdout; returns its exit
// code and sets `*last_line`.
int RunChild(const std::vector<std::string>& argv, std::string* last_line) {
  int fds[2];
  if (pipe(fds) != 0) return 1;
  const pid_t pid = fork();
  if (pid < 0) return 1;
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> args;
    for (const std::string& s : argv) args.push_back(const_cast<char*>(s.c_str()));
    args.push_back(nullptr);
    execv("/proc/self/exe", args.data());
    _exit(127);
  }
  close(fds[1]);
  std::string output;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    fwrite(buf, 1, static_cast<size_t>(n), stdout);
    output.append(buf, static_cast<size_t>(n));
  }
  fflush(stdout);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  while (!output.empty() && output.back() == '\n') output.pop_back();
  *last_line = output.substr(output.rfind('\n') + 1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

int RunAll(const char* self, const Args& a) {
  bool ok = true;
  std::string combined = "{";
  for (const WorkloadSpec& w : AllWorkloads()) {
    std::vector<std::string> argv = {self, "--workload", w.name, "--seed",
                                     std::to_string(a.seed)};
    if (a.seconds > 0) {
      argv.insert(argv.end(), {"--seconds", std::to_string(a.seconds)});
    }
    if (a.trace) argv.insert(argv.end(), {"--trace", "1"});
    if (a.smoke) argv.push_back("--smoke");
    std::string line;
    const int code = RunChild(argv, &line);
    if (code != 0) {
      fprintf(stderr, "%s exited with %d\n", w.name.c_str(), code);
      ok = false;
    }
    combined += (combined.size() > 1 ? ", \"" : "\"") + w.name + "\": " +
                (line.empty() || line[0] != '{' ? std::string("null") : line);
  }
  combined += "}";
  if (!a.out.empty()) std::ofstream(a.out) << combined << "\n";
  printf("%s\n", combined.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace spf

int main(int argc, char** argv) {
  using namespace spf::e2e;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.workload.empty()) return RunAll(argv[0], args);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return RunWorkload(*spec, args);
}
