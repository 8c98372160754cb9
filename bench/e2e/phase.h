// One traffic phase: the workload's connections (closed loop) plus its
// control thread (probe, restore or crash cycles), a warm-up, then a
// measured window whose counters are read at both edges.

#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "env.h"
#include "executor.h"
#include "metrics.h"

namespace spf {
namespace e2e {

/// How a phase's frames reach the engine.
enum class Path {
  kTcp,        ///< Client -> loopback -> NetworkServer (every end-to-end metric)
  kInProcess,  ///< the server's frame path called directly, untraced
  kTraced,     ///< the same, one span per call
};

/// What the threads of a phase saw inside the measured window.
struct PhaseStats {
  /// Round trips of committed frames, ns, by FrameClass (probes excluded).
  std::array<std::vector<int64_t>, kFrameClasses> latency;
  std::vector<int64_t> signature;   ///< ns; see Signature
  std::vector<int64_t> probe_late;  ///< probe send time minus due time, ns
  uint64_t attempted = 0;           ///< frames sent, probes included
  uint64_t failed = 0;              ///< frames not committed
  uint64_t load_committed = 0;      ///< committed non-probe frames
  uint64_t write_frames = 0;        ///< committed write frames
  uint64_t user_bytes = 0;          ///< key + value bytes committed
  uint64_t probes = 0;              ///< probes that hit an injected page
  uint64_t probes_skipped_dirty = 0;
  /// Repaired-read latency, ns, by fault kind: corruption, read error,
  /// stale image.
  std::array<std::vector<int64_t>, 3> probe_by_kind;
  uint64_t events = 0;              ///< restores or crashes in the window
  std::map<std::string, uint64_t> failed_kinds;

  void Merge(PhaseStats&& o);
};

struct PhaseResult {
  double window_s = 0;
  PhaseStats stats;
  Counters counters;  ///< window deltas
};

class Phase {
 public:
  /// `tracer` is required for Path::kTraced and ignored otherwise.
  Phase(Env& env, Path path, Tracer* tracer);

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  PhaseResult Run(double warmup_s, double window_s);

 private:
  std::unique_ptr<Executor> MakeExecutor(int tid, TcpExecutor** tcp);
  void TrafficLoop(int conn);
  void ProbeLoop();
  void RestoreLoop();
  void CrashLoop();

  /// Traffic side of the crash barrier; false when the phase is stopping.
  bool WaitIfPaused(TcpExecutor* tcp);
  /// Control side: parks every traffic connection between frames.
  bool PauseTraffic();
  void ResumeTraffic();

  bool InjectProbeFault(PageId leaf, int kind, uint64_t n);
  void CheckReply(int conn, const Frame& f, const wire::TxnReply& reply);
  void NoteCommit(int64_t sent_ns, int64_t done_ns, bool write);
  /// Arms failure-to-commit timing for an event starting now.
  int64_t ArmEvent();
  /// Waits (bounded) for the first commit after the armed event.
  int64_t AwaitFirstCommit();
  void RecordFailure(PhaseStats* st, const Status& s, const wire::TxnReply& r);
  /// Sleeps until `deadline_ns` or until the phase stops.
  void SleepUntil(int64_t deadline_ns);
  Counters Read();

  Env& env_;
  const Path path_;
  Tracer* const tracer_;
  const int control_tid_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> measuring_{false};
  WindowCounters counters_;  // guarded by env_.admin_mu

  // Crash barrier.
  std::mutex mu_;
  std::condition_variable cv_;
  bool pause_ = false;
  int parked_ = 0;
  uint64_t resume_gen_ = 0;
  uint16_t port_ = 0;

  std::atomic<int64_t> event_ns_{INT64_MAX};
  std::atomic<int64_t> first_commit_ns_{-1};

  std::vector<PhaseStats> stats_;  // one per thread
};

}  // namespace e2e
}  // namespace spf
