// The background half of instant restart. Database::Restart() admits
// transactions once analysis and loser undo are done; this thread then
// loads every page the RedoPlan still owes, in page order, so each goes
// through the buffer pool's redo-on-load path exactly as a reader's first
// fix would. Once no page is owed it takes the end-of-restart checkpoint.

#pragma once

#include <functional>
#include <thread>

#include "buffer/buffer_pool.h"
#include "common/sim_clock.h"
#include "common/sync.h"
#include "recovery/restart_recovery.h"

namespace spf {

class RestartSweep {
 public:
  RestartSweep() = default;
  ~RestartSweep() { Stop(); }

  SPF_DISALLOW_COPY(RestartSweep);

  /// Starts sweeping `plan` through `pool`; `checkpoint` runs once no
  /// page is owed. The previous sweep must be finished or stopped.
  void Start(RedoPlan* plan, BufferPool* pool, const SimClock* clock,
             std::function<Status()> checkpoint);

  /// Stops a running sweep before its next page (or after its
  /// checkpoint, if that already began) and joins it. The pages it did
  /// not reach stay owed.
  void Stop();

  /// Blocks until the running sweep, if any, has finished. Returns its
  /// status: the first failed page load while a page is still owed,
  /// else the checkpoint's.
  Status Wait();

  /// Simulated seconds from the sweep's first page until no page was
  /// owed. Valid after Wait().
  double redo_sim_seconds() const;

  /// Test seam: holds the sweep before its next page until Resume, like
  /// the funnel's Pause. The hold outlives a restart: a sweep started
  /// while held starts held.
  void Pause();
  void Resume();

 private:
  void Run(RedoPlan* plan, BufferPool* pool, const SimClock* clock,
           const std::function<Status()>& checkpoint);
  /// Waits out a Pause. False once Stop was asked.
  bool AwaitTurn();

  mutable OrderedMutex mu_{LockRank::kLifecycle};
  CondVar cv_;
  bool running_ SPF_GUARDED_BY(mu_) = false;
  bool stop_ SPF_GUARDED_BY(mu_) = false;
  bool paused_ SPF_GUARDED_BY(mu_) = false;
  Status status_ SPF_GUARDED_BY(mu_);
  double redo_sim_seconds_ SPF_GUARDED_BY(mu_) = 0;
  /// Started and joined only by the administrative calls (Start, Stop).
  std::thread thread_;
};

}  // namespace spf
