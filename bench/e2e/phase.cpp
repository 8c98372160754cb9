#include "phase.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace spf {
namespace e2e {

namespace {

// Bound on the wait for the first commit after a restore or crash; a
// longer wait means traffic stopped flowing, which the gates report.
constexpr int64_t kFirstCommitWaitNs = 5'000'000'000;

}  // namespace

void PhaseStats::Merge(PhaseStats&& o) {
  for (int c = 0; c < kFrameClasses; ++c) {
    latency[c].insert(latency[c].end(), o.latency[c].begin(), o.latency[c].end());
  }
  signature.insert(signature.end(), o.signature.begin(), o.signature.end());
  probe_late.insert(probe_late.end(), o.probe_late.begin(), o.probe_late.end());
  attempted += o.attempted;
  failed += o.failed;
  load_committed += o.load_committed;
  write_frames += o.write_frames;
  user_bytes += o.user_bytes;
  probes += o.probes;
  probes_skipped_dirty += o.probes_skipped_dirty;
  for (size_t k = 0; k < probe_by_kind.size(); ++k) {
    probe_by_kind[k].insert(probe_by_kind[k].end(), o.probe_by_kind[k].begin(),
                            o.probe_by_kind[k].end());
  }
  events += o.events;
  for (const auto& [kind, n] : o.failed_kinds) failed_kinds[kind] += n;
}

Phase::Phase(Env& env, Path path, Tracer* tracer)
    : env_(env),
      path_(path),
      tracer_(path == Path::kTraced ? tracer : nullptr),
      control_tid_(env.spec.connections),
      stats_(static_cast<size_t>(env.spec.connections) + 1) {
  if (path_ == Path::kTcp) port_ = env_.server->port();
}

Counters Phase::Read() {
  return ReadCounters(env_.db.get(),
                      path_ == Path::kTcp ? env_.server.get() : nullptr);
}

PhaseResult Phase::Run(double warmup_s, double window_s) {
  std::vector<std::thread> threads;
  for (int c = 0; c < env_.spec.connections; ++c) {
    threads.emplace_back([this, c] { TrafficLoop(c); });
  }
  switch (env_.spec.control) {
    case Control::kNone: break;
    case Control::kProbe: threads.emplace_back([this] { ProbeLoop(); }); break;
    case Control::kRestore: threads.emplace_back([this] { RestoreLoop(); }); break;
    case Control::kCrash: threads.emplace_back([this] { CrashLoop(); }); break;
  }

  PhaseResult result;
  const auto nanos = [](double s) { return static_cast<int64_t>(s * 1e9); };
  std::this_thread::sleep_for(std::chrono::nanoseconds(nanos(warmup_s)));
  int64_t open_ns = 0;
  {
    std::lock_guard<std::mutex> g(env_.admin_mu);
    counters_.Open(Read());
    measuring_ = true;
    open_ns = NowNs();
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(nanos(window_s)));
  {
    std::lock_guard<std::mutex> g(env_.admin_mu);
    measuring_ = false;
    counters_.Close(Read());
    result.window_s = static_cast<double>(NowNs() - open_ns) / 1e9;
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads) t.join();

  for (PhaseStats& s : stats_) result.stats.Merge(std::move(s));
  result.counters = counters_.total();
  return result;
}

std::unique_ptr<Executor> Phase::MakeExecutor(int tid, TcpExecutor** tcp) {
  *tcp = nullptr;
  if (path_ != Path::kTcp) {
    return std::make_unique<InProcessExecutor>(env_.db.get(), tracer_, tid);
  }
  auto ex = std::make_unique<TcpExecutor>();
  Status s = ex->Connect(port_);
  if (!s.ok()) env_.Violation("connect: " + s.ToString());
  *tcp = ex.get();
  return ex;
}

void Phase::RecordFailure(PhaseStats* st, const Status& s,
                          const wire::TxnReply& r) {
  st->failed++;
  if (!s.ok()) {
    st->failed_kinds["TRANSPORT " + s.ToString()]++;
  } else {
    st->failed_kinds[std::string(TxnError::KindName(r.kind)) + " " + r.message]++;
  }
}

void Phase::TrafficLoop(int conn) {
  TcpExecutor* tcp = nullptr;
  std::unique_ptr<Executor> ex = MakeExecutor(conn, &tcp);
  FrameSource& src = *env_.sources[static_cast<size_t>(conn)];
  PhaseStats& st = stats_[static_cast<size_t>(conn)];
  const Signature sig = env_.spec.signature;
  while (WaitIfPaused(tcp)) {
    const Frame f = src.Next();
    wire::TxnReply reply;
    const int64_t sent = NowNs();
    const Status s = ex->Execute(f.req, &reply);
    const int64_t done = NowNs();
    const bool committed = s.ok() && reply.ok();
    const bool write = f.cls == FrameClass::kWrite;
    if (committed) {
      CheckReply(conn, f, reply);
      src.Ack(f);
      NoteCommit(sent, done, write);
    }
    if (measuring_.load(std::memory_order_relaxed)) {
      st.attempted++;
      if (!committed) {
        RecordFailure(&st, s, reply);
      } else {
        st.load_committed++;
        st.latency[static_cast<int>(f.cls)].push_back(done - sent);
        if (write) {
          st.write_frames++;
          st.user_bytes += f.user_bytes;
        }
        if ((sig == Signature::kHottestWrite && write && f.hottest) ||
            (sig == Signature::kScan && f.cls == FrameClass::kScan)) {
          st.signature.push_back(done - sent);
        }
      }
    }
    if (!s.ok() && tcp != nullptr && !stop_) {
      // The connection broke outside a crash cycle: count it (above) and
      // carry on over a fresh one.
      Status c = tcp->Connect(port_);
      if (!c.ok()) {
        env_.Violation("reconnect: " + c.ToString());
        return;
      }
    }
  }
}

void Phase::CheckReply(int conn, const Frame& f, const wire::TxnReply& reply) {
  if (reply.results.size() != f.req.ops.size()) {
    env_.Violation("reply carries " + std::to_string(reply.results.size()) +
                   " results for " + std::to_string(f.req.ops.size()) + " ops");
    return;
  }
  const FrameSource& src = *env_.sources[static_cast<size_t>(conn)];
  uint64_t version = 0;
  if (f.cls == FrameClass::kRead) {
    const uint32_t id = f.ids[0];
    if (!ParseValue(id, reply.results[0].value, &version)) {
      env_.Violation("Get " + Key(id) + " returned a value that is not its own");
    } else if (src.Owns(id) && version != src.LastAcked(id)) {
      env_.Violation("Get " + Key(id) + " returned version " +
                     std::to_string(version) + ", last acked " +
                     std::to_string(src.LastAcked(id)));
    }
  } else if (f.cls == FrameClass::kScan) {
    const auto& pairs = reply.results[0].pairs;
    const uint32_t start = f.ids[0];
    const uint32_t want = std::min(kScanLimit, env_.spec.total_keys() - start);
    if (pairs.size() != want) {
      env_.Violation("Scan from " + Key(start) + " returned " +
                     std::to_string(pairs.size()) + " pairs, expected " +
                     std::to_string(want));
      return;
    }
    for (uint32_t i = 0; i < want; ++i) {
      uint32_t id = 0;
      if (!ParseKey(pairs[i].first, &id) || id != start + i ||
          !ParseValue(id, pairs[i].second, &version)) {
        env_.Violation("Scan from " + Key(start) + ": bad pair " +
                       std::to_string(i));
        return;
      }
    }
  }
}

void Phase::NoteCommit(int64_t sent_ns, int64_t done_ns, bool write) {
  if (env_.spec.signature == Signature::kFailureToCommit && !write) return;
  if (sent_ns <= event_ns_.load()) return;
  int64_t none = -1;
  first_commit_ns_.compare_exchange_strong(none, done_ns);
}

int64_t Phase::ArmEvent() {
  first_commit_ns_ = -1;
  const int64_t now = NowNs();
  event_ns_ = now;
  return now;
}

int64_t Phase::AwaitFirstCommit() {
  const int64_t deadline = NowNs() + kFirstCommitWaitNs;
  int64_t first = -1;
  while ((first = first_commit_ns_.load()) < 0 && !stop_ && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  event_ns_ = INT64_MAX;
  return first;
}

void Phase::SleepUntil(int64_t deadline_ns) {
  while (!stop_) {
    const int64_t left = deadline_ns - NowNs();
    if (left <= 0) return;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min<int64_t>(left, 10'000'000)));
  }
}

bool Phase::WaitIfPaused(TcpExecutor* tcp) {
  std::unique_lock<std::mutex> l(mu_);
  if (!pause_) return !stop_;
  parked_++;
  cv_.notify_all();
  const uint64_t gen = resume_gen_;
  cv_.wait(l, [&] { return resume_gen_ != gen || stop_; });
  parked_--;
  if (stop_) return false;
  const uint16_t port = port_;
  l.unlock();
  if (tcp != nullptr) {
    Status s = tcp->Connect(port);
    if (!s.ok()) {
      env_.Violation("reconnect after restart: " + s.ToString());
      return false;
    }
  }
  return true;
}

bool Phase::PauseTraffic() {
  std::unique_lock<std::mutex> l(mu_);
  pause_ = true;
  cv_.wait(l, [&] { return parked_ == env_.spec.connections || stop_; });
  return !stop_;
}

void Phase::ResumeTraffic() {
  {
    std::lock_guard<std::mutex> g(mu_);
    pause_ = false;
    if (path_ == Path::kTcp) port_ = env_.server->port();
    resume_gen_++;
  }
  cv_.notify_all();
}

bool Phase::InjectProbeFault(PageId leaf, int kind, uint64_t n) {
  BufferPool* pool = env_.db->pool();
  if (pool->IsDirty(leaf) || !pool->DiscardPage(leaf)) return false;
  SimDevice* dev = env_.db->data_device();
  switch (kind) {
    case 0:
      dev->InjectSilentCorruption(leaf, n + 1);
      break;
    case 1:
      dev->InjectReadError(leaf, /*permanent=*/false);
      break;
    default:
      if (!dev->InjectStaleVersion(leaf)) {
        env_.Violation("no captured version of probe leaf " + std::to_string(leaf));
      }
      break;
  }
  return true;
}

// Open loop: probe n is due at phase start + n periods whatever happened
// to probe n-1, and its latency counts from that due time.
void Phase::ProbeLoop() {
  TcpExecutor* tcp = nullptr;
  std::unique_ptr<Executor> ex = MakeExecutor(control_tid_, &tcp);
  PhaseStats& st = stats_[static_cast<size_t>(control_tid_)];
  Random rng(env_.seed * 31 + env_.probes_sent + 7);
  const auto& leaves = env_.probe_leaves;
  const int64_t period = int64_t{env_.spec.control_period_ms} * 1'000'000;
  int64_t due = NowNs() + period;
  while (!stop_ && !leaves.empty()) {
    const uint64_t n = env_.probes_sent++;
    const ProbeLeaf& target = leaves[n % leaves.size()];
    const int kind = static_cast<int>((n + n / leaves.size()) % 3);
    const uint32_t id = target.ids[rng.Uniform(target.ids.size())];
    const bool injected = InjectProbeFault(target.leaf, kind, n);
    // Once a fault is armed the probe is sent even when stopping: its
    // repair is what heals the page.
    if (injected) {
      while (NowNs() < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<int64_t>(due - NowNs(), 1'000'000)));
      }
    } else {
      SleepUntil(due);
    }
    const int64_t sent = NowNs();
    wire::TxnRequest req;
    req.Get(Key(id));
    wire::TxnReply reply;
    const Status s = ex->Execute(req, &reply);
    const int64_t done = NowNs();
    const bool ok = s.ok() && reply.ok();
    uint64_t version = 0;
    if (ok && (reply.results.size() != 1 ||
               !ParseValue(id, reply.results[0].value, &version) ||
               version != env_.probe_versions[id - env_.spec.keys])) {
      env_.Violation("probe Get " + Key(id) + " did not return its current value");
    }
    if (measuring_.load(std::memory_order_relaxed)) {
      st.attempted++;
      st.probe_late.push_back(sent - due);
      if (!ok) {
        RecordFailure(&st, s, reply);
      } else if (injected) {
        st.probes++;
        st.probe_by_kind[static_cast<size_t>(kind)].push_back(done - due);
        st.signature.push_back(done - due);
      }
      if (!injected) st.probes_skipped_dirty++;
    }
    due += period;
  }
}

void Phase::RestoreLoop() {
  PhaseStats& st = stats_[static_cast<size_t>(control_tid_)];
  const int64_t period = int64_t{env_.spec.control_period_ms} * 1'000'000;
  int64_t next = NowNs() + period;
  while (true) {
    SleepUntil(next);
    if (stop_) return;
    next += period;
    bool in_window = false;
    int64_t failed_at = 0;
    {
      std::lock_guard<std::mutex> g(env_.admin_mu);
      in_window = measuring_;
      failed_at = ArmEvent();
      RestoreDevice(env_, tracer_, control_tid_);
      Backup(env_, tracer_, control_tid_);
    }
    const int64_t first = AwaitFirstCommit();
    if (in_window) {
      st.events++;
      if (first >= 0) st.signature.push_back(first - failed_at);
    }
  }
}

void Phase::CrashLoop() {
  PhaseStats& st = stats_[static_cast<size_t>(control_tid_)];
  const int64_t period = int64_t{env_.spec.control_period_ms} * 1'000'000;
  int64_t next = NowNs() + period;
  while (true) {
    SleepUntil(next);
    if (stop_ || !PauseTraffic()) return;
    next += period;
    bool in_window = false;
    int64_t crashed_at = 0;
    {
      std::lock_guard<std::mutex> g(env_.admin_mu);
      in_window = measuring_;
      counters_.CloseSegment(Read());
      if (path_ == Path::kTcp) env_.server->Stop();
      crashed_at = ArmEvent();
      CrashAndRestart(env_, tracer_, control_tid_);
      if (path_ == Path::kTcp) StartServer(env_, tracer_, control_tid_);
      counters_.Rebase(Read());
    }
    ResumeTraffic();
    const int64_t first = AwaitFirstCommit();
    if (in_window) {
      st.events++;
      if (first >= 0) st.signature.push_back(first - crashed_at);
    }
  }
}

}  // namespace e2e
}  // namespace spf
