#include "workload.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/macros.h"

namespace spf {
namespace e2e {

namespace {

// Zipf ranks map onto key ids through rank * kRankStride + offset (mod
// keys): the stride is a prime that shares no factor with the key counts,
// so the map is a permutation and consecutive hot ranks land far apart
// (hot keys spread across leaves instead of crowding one).
constexpr uint64_t kRankStride = 1000003;
constexpr double kZipfTheta = 0.99;
constexpr size_t kValueHeader = 26;  // "%08u:%016llx:"

std::vector<WorkloadSpec> MakeWorkloads() {
  WorkloadSpec hot;
  hot.name = "hot_cached";
  hot.keys = 64000;
  hot.num_pages = 16384;
  hot.buffer_frames = 8192;
  hot.connections = 4;
  hot.zipf = true;
  hot.get_pct = 80;
  hot.puts_per_write = 2;
  hot.signature = Signature::kHottestWrite;

  WorkloadSpec cold;
  cold.name = "cold_mixed";
  cold.keys = 400000;
  cold.num_pages = 16384;
  cold.buffer_frames = 1024;
  cold.connections = 4;
  cold.get_pct = 45;
  cold.scan_pct = 10;
  cold.scan_keys = 40000;
  cold.puts_per_write = 2;
  cold.signature = Signature::kScan;

  WorkloadSpec pf = hot;
  pf.name = "page_failures";
  pf.probe_keys = 8000;
  pf.connections = 3;
  pf.control = Control::kProbe;
  pf.control_period_ms = 8;
  pf.signature = Signature::kRepairedRead;

  WorkloadSpec mr = hot;
  mr.name = "media_restore";
  mr.connections = 3;
  mr.control = Control::kRestore;
  mr.control_period_ms = 500;
  mr.signature = Signature::kFailureToCommit;

  WorkloadSpec cr;
  cr.name = "crash_restart";
  cr.keys = 64000;
  cr.num_pages = 16384;
  cr.buffer_frames = 8192;
  cr.connections = 3;
  cr.partitioned = true;
  cr.get_pct = 20;
  cr.puts_per_write = 1;
  cr.control = Control::kCrash;
  cr.control_period_ms = 1000;
  cr.signature = Signature::kCrashToCommit;

  return {hot, cold, pf, mr, cr};
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadSpec SmokeSized(WorkloadSpec spec) {
  spec.keys /= 10;
  spec.probe_keys /= 10;
  spec.scan_keys /= 10;
  spec.num_pages = std::max<uint64_t>(spec.num_pages / 4, 2048);
  spec.buffer_frames = std::max<size_t>(spec.buffer_frames / 8, 128);
  return spec;
}

const char* SignatureName(Signature s) {
  switch (s) {
    case Signature::kHottestWrite: return "write frame holding the hottest key";
    case Signature::kScan: return "20-key scan frame";
    case Signature::kRepairedRead: return "probe read of a failed page, from its due time";
    case Signature::kFailureToCommit: return "FailDevice to the first commit sent after it";
    case Signature::kCrashToCommit: return "SimulateCrash to the first commit after reconnect";
  }
  return "?";
}

std::string Key(uint32_t id) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%08u", id);
  return buf;
}

std::string Value(uint32_t id, uint64_t version) {
  std::string v(kValueBytes, ' ');
  snprintf(&v[0], kValueHeader + 1, "%08u:%016" PRIx64 ":", id, version);
  for (size_t i = kValueHeader; i < kValueBytes; ++i) {
    v[i] = static_cast<char>('a' + (id * 7u + version * 13u + i) % 26u);
  }
  return v;
}

bool ParseValue(uint32_t id, std::string_view value, uint64_t* version) {
  if (value.size() != kValueBytes || value[8] != ':' ||
      value[kValueHeader - 1] != ':') {
    return false;
  }
  uint32_t got_id = 0;
  for (size_t i = 0; i < 8; ++i) {
    if (value[i] < '0' || value[i] > '9') return false;
    got_id = got_id * 10 + static_cast<uint32_t>(value[i] - '0');
  }
  uint64_t ver = 0;
  for (size_t i = 9; i < kValueHeader - 1; ++i) {
    char c = value[i];
    uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
    ver = ver * 16 + digit;
  }
  if (got_id != id) return false;
  for (size_t i = kValueHeader; i < kValueBytes; ++i) {
    if (value[i] != static_cast<char>('a' + (id * 7u + ver * 13u + i) % 26u)) {
      return false;
    }
  }
  *version = ver;
  return true;
}

bool ParseKey(std::string_view key, uint32_t* id) {
  if (key.size() != 11 || key.substr(0, 3) != "key") return false;
  uint32_t v = 0;
  for (size_t i = 3; i < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return false;
    v = v * 10 + static_cast<uint32_t>(key[i] - '0');
  }
  *id = v;
  return true;
}

FrameSource::FrameSource(const WorkloadSpec& spec, uint64_t seed, int conn)
    : spec_(spec),
      conn_(conn),
      rng_(seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(conn) + 1) {
  SPF_CHECK_LT(conn, 8);
  if (spec.zipf) {
    zipf_ = std::make_unique<ZipfGenerator>(
        spec.keys, kZipfTheta, rng_.Next());
    // Shared by every connection (seed only): they agree on the hot keys.
    rank_offset_ = Random(seed ^ 0x5bd1e995ull).Next() % spec.keys;
  }
  if (spec.partitioned) {
    acked_.assign(spec.keys / static_cast<uint32_t>(spec.connections) + 1, 0);
  }
}

uint32_t FrameSource::NextId(bool* hottest) {
  if (spec_.partitioned) {
    const uint32_t n = static_cast<uint32_t>(spec_.connections);
    const uint32_t owned = (spec_.keys - static_cast<uint32_t>(conn_) + n - 1) / n;
    return static_cast<uint32_t>(conn_) +
           n * static_cast<uint32_t>(rng_.Uniform(owned));
  }
  if (zipf_ != nullptr) {
    uint64_t rank = zipf_->Next();
    if (rank == 0) *hottest = true;
    return static_cast<uint32_t>((rank * kRankStride + rank_offset_) % spec_.keys);
  }
  return static_cast<uint32_t>(rng_.Uniform(spec_.keys - spec_.scan_keys));
}

Frame FrameSource::Next() {
  Frame f;
  const int roll = static_cast<int>(rng_.Uniform(100));
  if (roll < spec_.get_pct) {
    f.cls = FrameClass::kRead;
    f.ids.push_back(NextId(&f.hottest));
    f.req.Get(Key(f.ids[0]));
  } else if (roll < spec_.get_pct + spec_.scan_pct) {
    f.cls = FrameClass::kScan;
    f.ids.push_back(spec_.keys - spec_.scan_keys +
                    static_cast<uint32_t>(rng_.Uniform(spec_.scan_keys)));
    f.req.Scan(Key(f.ids[0]), "", kScanLimit);
  } else {
    f.cls = FrameClass::kWrite;
    while (f.ids.size() < static_cast<size_t>(spec_.puts_per_write)) {
      uint32_t id = NextId(&f.hottest);
      if (std::find(f.ids.begin(), f.ids.end(), id) == f.ids.end()) {
        f.ids.push_back(id);
      }
    }
    // Ascending keys: two write frames never wait on each other in
    // opposite orders.
    std::sort(f.ids.begin(), f.ids.end());
    for (uint32_t id : f.ids) {
      uint64_t version = (++seq_ << 3) | static_cast<uint64_t>(conn_);
      std::string value = Value(id, version);
      std::string key = Key(id);
      f.user_bytes += key.size() + value.size();
      f.req.Put(key, value);
      f.versions.push_back(version);
    }
  }
  return f;
}

void FrameSource::Ack(const Frame& f) {
  if (!spec_.partitioned || f.cls != FrameClass::kWrite) return;
  for (size_t i = 0; i < f.ids.size(); ++i) {
    acked_[f.ids[i] / static_cast<uint32_t>(spec_.connections)] = f.versions[i];
  }
}

uint64_t FrameSource::LastAcked(uint32_t id) const {
  return acked_[id / static_cast<uint32_t>(spec_.connections)];
}

bool FrameSource::Owns(uint32_t id) const {
  return spec_.partitioned &&
         id % static_cast<uint32_t>(spec_.connections) ==
             static_cast<uint32_t>(conn_);
}

}  // namespace e2e
}  // namespace spf
