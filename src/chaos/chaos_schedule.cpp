#include "chaos/chaos_schedule.h"

#include <algorithm>
#include <sstream>

#include "common/random.h"

namespace spf {
namespace chaos {

namespace {

struct KindName {
  EventKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {EventKind::kCorrupt, "corrupt"},
    {EventKind::kReadError, "read-error"},
    {EventKind::kFailRange, "fail-range"},
    {EventKind::kWearOut, "wearout"},
    {EventKind::kStaleCapture, "stale-capture"},
    {EventKind::kStaleRevert, "stale-revert"},
    {EventKind::kFullRestore, "full-restore"},
    {EventKind::kBackToBackRestore, "back-to-back-restore"},
    {EventKind::kCrash, "crash"},
    {EventKind::kCrashDuringRestore, "crash-during-restore"},
    {EventKind::kCrashDuringRestart, "crash-during-restart"},
    {EventKind::kRelocate, "relocate"},
    {EventKind::kCheckpoint, "checkpoint"},
    {EventKind::kBackup, "backup"},
    {EventKind::kQuiesce, "quiesce"},
};

}  // namespace

const char* EventKindName(EventKind kind) {
  for (const auto& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "unknown";
}

bool ParseEventKind(std::string_view name, EventKind* out) {
  for (const auto& kn : kKindNames) {
    if (name == kn.name) {
      *out = kn.kind;
      return true;
    }
  }
  return false;
}

uint64_t DigestBytes(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

ChaosSchedule GenerateSchedule(uint64_t seed) {
  Random rng(seed ^ 0x5ca1ab1e5eedull);
  ChaosSchedule s;
  s.seed = seed;
  s.writers = 2 + uint32_t(rng.Uniform(3));          // 2..4
  s.txns_per_writer = 40 + uint32_t(rng.Uniform(41));  // 40..80
  s.ops_per_txn = 2 + uint32_t(rng.Uniform(5));        // 2..6
  s.keys_per_writer = 64 + uint32_t(rng.Uniform(65));  // 64..128
  s.value_len = 16 + uint32_t(rng.Uniform(33));        // 16..48
  s.seed_records = 1000 + uint32_t(rng.Uniform(501));  // 1000..1500
  s.contended_keys = 2 + uint32_t(rng.Uniform(5));     // 2..6
  s.batch_pct = uint32_t(rng.Uniform(41));             // 0..40
  s.delete_pct = uint32_t(rng.Uniform(26));            // 0..25
  s.contended_pct = uint32_t(rng.Uniform(16));         // 0..15
  s.scan_every = rng.Bernoulli(0.8) ? 4 + uint32_t(rng.Uniform(9)) : 0;
  s.scrubber = rng.Bernoulli(0.75);
  s.archiver = rng.Bernoulli(0.75);
  s.restore_segment_pages = uint32_t(1) << rng.UniformRange(3, 8);  // 8..128
  s.drain_timeout_ms = 1000 + uint32_t(rng.Uniform(2001));

  // Events: ascending triggers across the middle of the run, weighted
  // toward the cheap page-level classes with the expensive whole-device
  // ones rarer. Stale injection always generates as a capture/revert
  // pair, and every schedule ends with an explicit mid-run quiesce (the
  // driver runs a final one unconditionally).
  const uint64_t total = s.total_txns();
  const size_t n_events = 3 + rng.Uniform(5);  // 3..7
  uint64_t at = 2 + rng.Uniform(5);
  bool restore_used = false;
  for (size_t i = 0; i < n_events; ++i) {
    at += 1 + rng.Uniform(std::max<uint64_t>(1, (total * 9) / 10 / n_events));
    ChaosEvent e;
    e.at = at;
    const uint64_t roll = rng.Uniform(100);
    if (roll < 22) {
      e.kind = EventKind::kCorrupt;
      e.key = rng.Uniform(s.seed_records);
    } else if (roll < 34) {
      e.kind = EventKind::kReadError;
      e.key = rng.Uniform(s.seed_records);
    } else if (roll < 48) {
      e.kind = EventKind::kFailRange;
      e.key = rng.Uniform(s.seed_records);
      e.count = 2 + rng.Uniform(7);
    } else if (roll < 58) {
      e.kind = EventKind::kWearOut;
      e.key = rng.Uniform(s.seed_records);
      e.writes = rng.Uniform(3);
    } else if (roll < 66) {
      e.kind = EventKind::kStaleCapture;
      e.key = rng.Uniform(s.contended_keys);
      s.events.push_back(e);
      e.kind = EventKind::kStaleRevert;
      at += 2 + rng.Uniform(8);
      e.at = at;
    } else if (roll < 72) {
      e.kind = EventKind::kCheckpoint;
    } else if (roll < 77) {
      e.kind = EventKind::kBackup;
    } else if (roll < 82) {
      e.kind = EventKind::kRelocate;
      e.key = rng.Uniform(s.seed_records);
    } else if (roll < 88 && !restore_used) {
      e.kind = EventKind::kFullRestore;
      restore_used = true;
    } else if (roll < 92 && !restore_used) {
      e.kind = EventKind::kBackToBackRestore;
      restore_used = true;
    } else if (roll < 94) {
      e.kind = EventKind::kCrash;
    } else if (roll < 96) {
      e.kind = EventKind::kCrashDuringRestart;
    } else {
      e.kind = EventKind::kQuiesce;
    }
    s.events.push_back(e);
  }
  return s;
}

std::string SerializeSchedule(const ChaosSchedule& s) {
  std::ostringstream out;
  out << "# spf chaos trace v1\n";
  out << "seed " << s.seed << "\n";
  out << "writers " << s.writers << "\n";
  out << "txns-per-writer " << s.txns_per_writer << "\n";
  out << "ops-per-txn " << s.ops_per_txn << "\n";
  out << "keys-per-writer " << s.keys_per_writer << "\n";
  out << "value-len " << s.value_len << "\n";
  out << "seed-records " << s.seed_records << "\n";
  out << "contended-keys " << s.contended_keys << "\n";
  out << "batch-pct " << s.batch_pct << "\n";
  out << "delete-pct " << s.delete_pct << "\n";
  out << "contended-pct " << s.contended_pct << "\n";
  out << "scan-every " << s.scan_every << "\n";
  out << "scrubber " << (s.scrubber ? 1 : 0) << "\n";
  out << "archiver " << (s.archiver ? 1 : 0) << "\n";
  out << "restore-segment-pages " << s.restore_segment_pages << "\n";
  out << "drain-timeout-ms " << s.drain_timeout_ms << "\n";
  for (const ChaosEvent& e : s.events) {
    out << "event at=" << e.at << " kind=" << EventKindName(e.kind);
    out << " key=" << e.key;
    if (e.kind == EventKind::kFailRange) out << " count=" << e.count;
    if (e.kind == EventKind::kWearOut) out << " writes=" << e.writes;
    out << "\n";
  }
  return out.str();
}

std::string SerializeTrace(const ChaosSchedule& s, const TraceResult& r) {
  std::ostringstream out;
  out << SerializeSchedule(s);
  out << "# result schedule-digest=" << r.schedule_digest
      << " shadow-digest=" << r.shadow_digest
      << " committed-txns=" << r.committed_txns
      << " events-fired=" << r.events_fired << "\n";
  return out.str();
}

namespace {

bool ParseU64(std::string_view v, uint64_t* out) {
  if (v.empty()) return false;
  uint64_t x = 0;
  for (char c : v) {
    if (c < '0' || c > '9') return false;
    x = x * 10 + uint64_t(c - '0');
  }
  *out = x;
  return true;
}

/// Splits "key=value" around the first '='.
bool SplitKv(std::string_view token, std::string_view* k,
             std::string_view* v) {
  size_t eq = token.find('=');
  if (eq == std::string_view::npos) return false;
  *k = token.substr(0, eq);
  *v = token.substr(eq + 1);
  return true;
}

Status ParseEventLine(const std::string& line, ChaosEvent* e) {
  std::istringstream in(line);
  std::string word;
  in >> word;  // "event"
  bool have_kind = false;
  while (in >> word) {
    std::string_view k, v;
    if (!SplitKv(word, &k, &v)) {
      return Status::InvalidArgument("malformed event token: " + word);
    }
    if (k == "kind") {
      if (!ParseEventKind(v, &e->kind)) {
        return Status::InvalidArgument("unknown event kind: " +
                                       std::string(v));
      }
      have_kind = true;
      continue;
    }
    uint64_t x = 0;
    if (!ParseU64(v, &x)) {
      return Status::InvalidArgument("bad event number: " + word);
    }
    if (k == "at") {
      e->at = x;
    } else if (k == "key") {
      e->key = x;
    } else if (k == "count") {
      e->count = x;
    } else if (k == "writes") {
      e->writes = x;
    } else {
      return Status::InvalidArgument("unknown event field: " +
                                     std::string(k));
    }
  }
  if (!have_kind) return Status::InvalidArgument("event without kind");
  return Status::OK();
}

Status ParseResultLine(const std::string& line, TraceResult* r) {
  std::istringstream in(line);
  std::string word;
  in >> word >> word;  // "#", "result"
  while (in >> word) {
    std::string_view k, v;
    uint64_t x = 0;
    if (!SplitKv(word, &k, &v) || !ParseU64(v, &x)) {
      return Status::InvalidArgument("malformed result token: " + word);
    }
    if (k == "schedule-digest") {
      r->schedule_digest = x;
    } else if (k == "shadow-digest") {
      r->shadow_digest = x;
    } else if (k == "committed-txns") {
      r->committed_txns = x;
    } else if (k == "events-fired") {
      r->events_fired = x;
    } else {
      return Status::InvalidArgument("unknown result field: " +
                                     std::string(k));
    }
  }
  r->present = true;
  return Status::OK();
}

}  // namespace

StatusOr<ChaosSchedule> ParseSchedule(const std::string& text,
                                      TraceResult* result) {
  ChaosSchedule s;
  TraceResult footer;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    if (line.rfind("# result", 0) == 0) {
      SPF_RETURN_IF_ERROR(ParseResultLine(line, &footer));
      continue;
    }
    if (line[0] == '#') continue;  // comment
    if (line.rfind("event ", 0) == 0) {
      ChaosEvent e;
      SPF_RETURN_IF_ERROR(ParseEventLine(line, &e));
      s.events.push_back(e);
      continue;
    }
    std::istringstream kv(line);
    std::string key;
    uint64_t value = 0;
    std::string value_word;
    kv >> key >> value_word;
    if (key.empty() || !ParseU64(value_word, &value)) {
      return Status::InvalidArgument("malformed schedule line: " + line);
    }
    if (key == "seed") {
      s.seed = value;
    } else if (key == "writers") {
      s.writers = uint32_t(value);
    } else if (key == "txns-per-writer") {
      s.txns_per_writer = uint32_t(value);
    } else if (key == "ops-per-txn") {
      s.ops_per_txn = uint32_t(value);
    } else if (key == "keys-per-writer") {
      s.keys_per_writer = uint32_t(value);
    } else if (key == "value-len") {
      s.value_len = uint32_t(value);
    } else if (key == "seed-records") {
      s.seed_records = uint32_t(value);
    } else if (key == "contended-keys") {
      s.contended_keys = uint32_t(value);
    } else if (key == "batch-pct") {
      s.batch_pct = uint32_t(value);
    } else if (key == "delete-pct") {
      s.delete_pct = uint32_t(value);
    } else if (key == "contended-pct") {
      s.contended_pct = uint32_t(value);
    } else if (key == "scan-every") {
      s.scan_every = uint32_t(value);
    } else if (key == "scrubber") {
      s.scrubber = value != 0;
    } else if (key == "archiver") {
      s.archiver = value != 0;
    } else if (key == "restore-segment-pages") {
      s.restore_segment_pages = uint32_t(value);
    } else if (key == "drain-timeout-ms") {
      s.drain_timeout_ms = uint32_t(value);
    } else {
      return Status::InvalidArgument("unknown schedule key: " + key);
    }
  }
  if (s.writers == 0 || s.txns_per_writer == 0 || s.keys_per_writer == 0 ||
      s.ops_per_txn == 0) {
    return Status::InvalidArgument("schedule needs nonzero workload shape");
  }
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at < b.at;
                   });
  if (result != nullptr) *result = footer;
  return s;
}

}  // namespace chaos
}  // namespace spf
