#include "db/restart_sweep.h"

namespace spf {

void RestartSweep::Start(RedoPlan* plan, BufferPool* pool,
                         const SimClock* clock,
                         std::function<Status()> checkpoint) {
  Stop();
  {
    MutexLock g(mu_);
    running_ = true;
    stop_ = false;
    status_ = Status::OK();
    redo_sim_seconds_ = 0;
  }
  thread_ = std::thread([this, plan, pool, clock,
                         checkpoint = std::move(checkpoint)] {
    Run(plan, pool, clock, checkpoint);
  });
}

void RestartSweep::Stop() {
  {
    MutexLock g(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

Status RestartSweep::Wait() {
  UniqueLock g(mu_);
  while (running_) cv_.wait(g);
  return status_;
}

double RestartSweep::redo_sim_seconds() const {
  MutexLock g(mu_);
  return redo_sim_seconds_;
}

void RestartSweep::Pause() {
  MutexLock g(mu_);
  paused_ = true;
}

void RestartSweep::Resume() {
  MutexLock g(mu_);
  paused_ = false;
  cv_.notify_all();
}

bool RestartSweep::AwaitTurn() {
  UniqueLock g(mu_);
  while (paused_ && !stop_) cv_.wait(g);
  return !stop_;
}

void RestartSweep::Run(RedoPlan* plan, BufferPool* pool, const SimClock* clock,
                       const std::function<Status()>& checkpoint) {
  Status s;
  bool stopped = false;
  SimTimer timer(clock);
  // Page order. A page whose load fails here is left to its readers for
  // the rest of the pass, and the sweep ends after that pass. A page
  // whose load failed on another thread after the cursor passed it is
  // picked up by the next pass.
  PageId cursor = 0;
  while (plan->Pending()) {
    const PageId id = plan->NextOwed(cursor);
    if (id == kInvalidPageId) {
      if (!s.ok()) break;
      cursor = 0;
      continue;
    }
    if (!AwaitTurn()) {
      stopped = true;
      break;
    }
    // A shared fix is enough: the load applies the page's redo under the
    // frame's exclusive latch before the fix returns.
    auto guard = pool->FixPage(id, LatchMode::kShared);
    if (!guard.ok() && s.ok()) s = guard.status();
    cursor = id + 1;
  }
  const double redo_seconds = timer.ElapsedSeconds();
  if (!stopped && !plan->Pending()) s = checkpoint();

  MutexLock g(mu_);
  redo_sim_seconds_ = redo_seconds;
  status_ = s;
  running_ = false;
  cv_.notify_all();
}

}  // namespace spf
