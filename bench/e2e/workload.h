// Workloads of the end-to-end benchmark: datasets, traffic mixes, the
// frames each connection sends, and the value format every read is
// checked against.
//
// Keys are `key%08d`. Values are exactly kValueBytes long and embed their
// key id and a version, so every Get and Scan result can be checked and no
// value ever grows (growing values trip a split bug; see README.md).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "server/wire.h"

namespace spf {
namespace e2e {

/// What a workload's fourth thread does beside the traffic connections.
enum class Control : uint8_t {
  kNone,     ///< no fourth thread: all four threads carry traffic
  kProbe,    ///< open-loop probe: inject a page failure, time the Get
  kRestore,  ///< FailDevice -> RecoverMedia -> TakeFullBackup cycles
  kCrash,    ///< park clients -> Stop -> SimulateCrash -> Restart cycles
};

/// What `signature_p50_us` times on a workload: the one operation that
/// sets the workload apart.
enum class Signature : uint8_t {
  kHottestWrite,        ///< write frames that include the Zipf rank-0 key
  kScan,                ///< 20-key Scan frames
  kRepairedRead,        ///< probe Get of a failed page, from its due time
  kFailureToCommit,     ///< FailDevice to the first commit sent after it
  kCrashToCommit,       ///< SimulateCrash to the first commit after reconnect
};

struct WorkloadSpec {
  std::string name;
  uint32_t keys = 0;        ///< loaded keys, ids [0, keys)
  /// Probe-only keys, ids [keys, keys + probe_keys): loaded, never written
  /// by traffic, read only by the probe.
  uint32_t probe_keys = 0;
  uint64_t num_pages = 0;   ///< data device size
  size_t buffer_frames = 0; ///< buffer pool size
  int connections = 0;      ///< closed-loop traffic connections
  bool zipf = false;        ///< Zipf(0.99) over hashed ranks; else uniform
  /// Connection c owns the ids congruent to c modulo `connections` and is
  /// the only writer of them, so it knows every key's last acked value.
  bool partitioned = false;
  int get_pct = 0;          ///< share of Get frames
  int scan_pct = 0;         ///< share of Scan frames; the rest write
  /// Scans start in the top `scan_keys` ids, which Gets and Puts never
  /// touch: a locked scan that meets a writer's key can livelock (README
  /// finding k).
  uint32_t scan_keys = 0;
  int puts_per_write = 0;   ///< Puts per write frame, keys ascending
  Control control = Control::kNone;
  int control_period_ms = 0;  ///< probe / restore / crash cadence
  Signature signature = Signature::kHottestWrite;

  uint32_t total_keys() const { return keys + probe_keys; }
};

/// The five workloads at full size.
const std::vector<WorkloadSpec>& AllWorkloads();
/// The named workload, or null.
const WorkloadSpec* FindWorkload(std::string_view name);
/// The same workload on a tiny dataset (--smoke).
WorkloadSpec SmokeSized(WorkloadSpec spec);
/// Human-readable description of what signature_p50_us times.
const char* SignatureName(Signature s);

constexpr uint32_t kValueBytes = 100;
constexpr uint32_t kScanLimit = 20;

std::string Key(uint32_t id);
/// The value of key `id` at `version`: the id, the version, then filler
/// derived from both, kValueBytes in all.
std::string Value(uint32_t id, uint64_t version);
/// True when `value` is a well-formed value of key `id`; sets `*version`.
bool ParseValue(uint32_t id, std::string_view value, uint64_t* version);
/// True when `key` is `key%08d`; sets `*id`.
bool ParseKey(std::string_view key, uint32_t* id);

enum class FrameClass : uint8_t { kRead = 0, kWrite = 1, kScan = 2 };
constexpr int kFrameClasses = 3;

/// One generated transaction frame plus what its reply must show.
struct Frame {
  wire::TxnRequest req;
  FrameClass cls = FrameClass::kRead;
  std::vector<uint32_t> ids;       ///< key ids in op order (scan: start id)
  std::vector<uint64_t> versions;  ///< written versions (write frames)
  bool hottest = false;            ///< includes the Zipf rank-0 key
  uint64_t user_bytes = 0;         ///< key + value bytes written
};

/// Frame generator of one connection. It lives across the run's phases,
/// so versions stay unique and the acked-version map stays valid.
class FrameSource {
 public:
  FrameSource(const WorkloadSpec& spec, uint64_t seed, int conn);

  Frame Next();
  /// Records a committed write (partitioned workloads track last acks).
  void Ack(const Frame& f);
  /// Last acknowledged version of an owned key (0 = the loaded value).
  uint64_t LastAcked(uint32_t id) const;
  bool Owns(uint32_t id) const;

 private:
  uint32_t NextId(bool* hottest);

  const WorkloadSpec& spec_;
  const int conn_;
  Random rng_;
  std::unique_ptr<ZipfGenerator> zipf_;
  uint64_t rank_offset_ = 0;
  uint64_t seq_ = 0;
  std::vector<uint64_t> acked_;  ///< partitioned: index = id / connections
};

}  // namespace e2e
}  // namespace spf
