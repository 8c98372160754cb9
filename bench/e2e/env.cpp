#include "env.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace spf {
namespace e2e {

namespace {

constexpr uint32_t kLoadBatch = 1000;
constexpr size_t kViolationsPrinted = 20;

void Load(Env& env) {
  Database* db = env.db.get();
  const uint32_t total = env.spec.total_keys();
  for (uint32_t base = 0; base < total; base += kLoadBatch) {
    Txn t = db->BeginTxn();
    for (uint32_t id = base; id < std::min(base + kLoadBatch, total); ++id) {
      TxnError e = t.Insert(Key(id), Value(id, 0));
      if (!e.ok()) env.Violation("load of " + Key(id) + ": " + e.ToString());
    }
    TxnError e = t.Commit();
    if (!e.ok()) env.Violation("load commit: " + e.ToString());
  }
  env.probe_versions.assign(env.spec.probe_keys, 0);
}

// Probe leaves hold only probe keys, so traffic never dirties or pins
// them. Each leaf's flushed image is captured (the stale version a lost
// write leaves behind) and then gets one logged update, so the captured
// image really is stale. This runs after the full backup: the PRI forgets
// a page's last LSN at a full backup, and the cross-check then accepts
// any older image (see README.md).
void PrepareProbes(Env& env) {
  Database* db = env.db.get();
  auto boundary = db->LeafPageOf(Key(env.spec.keys - 1));
  std::map<PageId, std::vector<uint32_t>> by_leaf;
  for (uint32_t id = env.spec.keys; id < env.spec.total_keys(); ++id) {
    auto leaf = db->LeafPageOf(Key(id));
    if (!leaf.ok()) {
      env.Violation("probe leaf of " + Key(id) + ": " + leaf.status().ToString());
      return;
    }
    if (boundary.ok() && *leaf == *boundary) continue;
    by_leaf[*leaf].push_back(id);
  }
  Txn t = db->BeginTxn();
  for (auto& [leaf, ids] : by_leaf) {
    db->data_device()->CapturePageVersion(leaf);
    const uint32_t id = ids.front();
    TxnError e = t.Put(Key(id), Value(id, 1));
    if (!e.ok()) env.Violation("probe update: " + e.ToString());
    env.probe_versions[id - env.spec.keys] = 1;
    env.probe_leaves.push_back(ProbeLeaf{leaf, std::move(ids)});
  }
  TxnError e = t.Commit();
  if (!e.ok()) env.Violation("probe update commit: " + e.ToString());
  Status s = db->FlushAll();
  if (!s.ok()) env.Violation("flush: " + s.ToString());
  if (env.probe_leaves.empty()) env.Violation("no probe leaves");
}

}  // namespace

void Env::Violation(const std::string& what) {
  std::lock_guard<std::mutex> g(violations_mu);
  if (violations.size() < kViolationsPrinted) {
    fprintf(stderr, "VIOLATION [%s]: %s\n", spec.name.c_str(), what.c_str());
  }
  violations.push_back(what);
}

bool Env::correct() {
  std::lock_guard<std::mutex> g(violations_mu);
  return violations.empty();
}

std::unique_ptr<Env> Setup(const WorkloadSpec& spec, uint64_t seed,
                           double* seconds) {
  auto env = std::make_unique<Env>();
  env->spec = spec;
  env->seed = seed;
  const int64_t start = NowNs();
  DatabaseOptions options;
  options.num_pages = spec.num_pages;
  options.buffer_frames = spec.buffer_frames;
  auto db = Database::Create(options);
  if (!db.ok()) {
    env->Violation("Database::Create: " + db.status().ToString());
    return env;
  }
  env->db = std::move(db).value();
  Load(*env);
  Status s = env->db->FlushAll();
  if (!s.ok()) env->Violation("flush: " + s.ToString());
  Backup(*env, nullptr, 0);
  if (spec.control == Control::kProbe) PrepareProbes(*env);
  // Archive the load's log here rather than under the measured traffic:
  // the catch-up would otherwise compete with the first seconds of it.
  s = env->db->archiver()->ArchiveAll();
  if (!s.ok()) env->Violation("ArchiveAll: " + s.ToString());
  env->db->archiver()->Start();
  env->server = std::make_unique<NetworkServer>(env->db.get(), ServerOptions());
  StartServer(*env, nullptr, 0);
  *seconds = static_cast<double>(NowNs() - start) / 1e9;
  return env;
}

void RestoreDevice(Env& env, Tracer* tracer, int tid) {
  double fail_ms = 0, ms = 0;
  TimedAdmin(tracer, tid, SpanKind::kFailDevice, &fail_ms, [&] {
    env.db->data_device()->FailDevice();
    return 0;
  });
  auto r = TimedAdmin(tracer, tid, SpanKind::kRecoverMedia, &ms,
                      [&] { return env.db->RecoverMedia(); });
  if (!r.ok()) {
    env.Violation("RecoverMedia: " + r.status().ToString());
    return;
  }
  env.restore_ms.push_back(fail_ms + ms);
  env.drain_ms.push_back(r->phases.drain_wall_ms);
  env.restores.push_back(*r);
}

void Backup(Env& env, Tracer* tracer, int tid) {
  double ms = 0;
  auto b = TimedAdmin(tracer, tid, SpanKind::kFullBackup, &ms,
                      [&] { return env.db->TakeFullBackup(); });
  if (!b.ok()) {
    env.Violation("TakeFullBackup: " + b.status().ToString());
    return;
  }
  env.backup_ms.push_back(ms);
}

void CrashAndRestart(Env& env, Tracer* tracer, int tid) {
  Database* db = env.db.get();
  db->archiver()->Stop();
  if (db->funnel() != nullptr) db->funnel()->WaitIdle();
  double crash_ms = 0, restart_ms = 0;
  TimedAdmin(tracer, tid, SpanKind::kSimulateCrash, &crash_ms, [&] {
    db->SimulateCrash();
    return 0;
  });
  auto r = TimedAdmin(tracer, tid, SpanKind::kRestart, &restart_ms,
                      [&] { return db->Restart(); });
  if (!r.ok()) {
    env.Violation("Restart: " + r.status().ToString());
    return;
  }
  env.restart_ms.push_back(crash_ms + restart_ms);
  env.restarts.push_back(*r);
  db->archiver()->Start();
}

void StartServer(Env& env, Tracer* tracer, int tid) {
  double ms = 0;
  Status s = TimedAdmin(tracer, tid, SpanKind::kServerStart, &ms,
                        [&] { return env.server->Start(); });
  if (!s.ok()) {
    env.Violation("NetworkServer::Start: " + s.ToString());
    return;
  }
  env.start_ms.push_back(ms);
}

void Gates(Env& env, const std::string& when) {
  Database* db = env.db.get();
  if (db->funnel() != nullptr) db->funnel()->WaitIdle();
  uint64_t pages = 0;
  Status s = db->CheckOffline(&pages);
  if (!s.ok()) env.Violation(when + ": CheckOffline: " + s.ToString());

  const WorkloadSpec& spec = env.spec;
  uint32_t next = 0;
  s = db->Scan("", "", [&](std::string_view k, std::string_view v) {
    uint32_t id = 0;
    uint64_t version = 0;
    if (!ParseKey(k, &id) || id != next) {
      env.Violation(when + ": scan found " + std::string(k) + " where " +
                    Key(next) + " belongs");
      return false;
    }
    ++next;
    if (!ParseValue(id, v, &version)) {
      env.Violation(when + ": malformed value under " + std::string(k));
      return true;
    }
    uint64_t expected = version;
    if (spec.partitioned) {
      expected = env.sources[id % static_cast<uint32_t>(spec.connections)]->LastAcked(id);
    } else if (id >= spec.keys) {
      expected = env.probe_versions[id - spec.keys];
    }
    if (version != expected) {
      env.Violation(when + ": " + std::string(k) + " reads version " +
                    std::to_string(version) + ", last acked " +
                    std::to_string(expected));
    }
    return true;
  });
  if (!s.ok()) env.Violation(when + ": full scan: " + s.ToString());
  if (next != spec.total_keys()) {
    env.Violation(when + ": full scan counted " + std::to_string(next) +
                  " keys, expected " + std::to_string(spec.total_keys()));
  }
}

}  // namespace e2e
}  // namespace spf
