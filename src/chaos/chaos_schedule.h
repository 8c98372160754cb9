// Chaos schedule: the seed-replayable scenario description the torture
// driver executes (tools/chaos, ROADMAP "scenario diversity").
//
// A schedule is (a) the workload shape — writer count, transactions per
// writer, operation mix — and (b) an ordered list of failure events, each
// triggered once the run's total acknowledged-commit count reaches its
// `at` threshold. Everything is derived from one PRNG seed by
// GenerateSchedule, and everything round-trips through a line-oriented
// text DSL (SerializeSchedule / ParseSchedule), so a run can be pinned,
// replayed, shrunk by hand, and checked into tests/chaos_seeds/ as a
// regression.
//
// Trace = serialized schedule + a `# result` footer recording the run's
// deterministic outcome (schedule digest, shadow digest, committed
// transactions). Replaying the schedule portion must reproduce the
// footer byte-for-byte — that equality is what chaos_test and
// tools/check_trace.py enforce.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace spf {
namespace chaos {

/// One failure (or maintenance) event class the driver can inject.
enum class EventKind : uint8_t {
  kCorrupt = 0,     ///< single-page silent corruption (checksum catches)
  kReadError,       ///< transient unrecoverable read (one read fails)
  kFailRange,       ///< multi-page hard failure (heals on repair rewrite)
  kWearOut,         ///< worn location: re-fails after every repair write
  kStaleCapture,    ///< snapshot a page image for a later stale revert
  kStaleRevert,     ///< revert to the captured image (Figure 12 class)
  kFullRestore,     ///< whole-device failure + rung-5 restore, live traffic
  kBackToBackRestore,  ///< two device failures + restores in a row
  kCrash,           ///< pause writers, SimulateCrash + Restart
  kCrashDuringRestore,  ///< restore fails mid-sweep, then crash, then restore
  kCrashDuringRestart,  ///< crash again while restart redo is half done
  kRelocate,        ///< retire a page location (paused; NotSupported is ok)
  kCheckpoint,      ///< fuzzy checkpoint under live traffic
  kBackup,          ///< full backup under live traffic
  kQuiesce,         ///< pause + run the full online-invariant suite
};

/// Stable DSL name of an event kind ("corrupt", "crash-during-restore"...).
const char* EventKindName(EventKind kind);
/// Inverse of EventKindName; false when `name` is not a known kind.
bool ParseEventKind(std::string_view name, EventKind* out);

/// One scheduled event. `key` is an ordinal resolved against a key space
/// at fire time (seed records for page-targeted faults, contended keys
/// for the stale pair), never a raw page id — page placement is an engine
/// detail the schedule must not depend on.
struct ChaosEvent {
  uint64_t at = 0;     ///< fires once total acked commits >= at
  EventKind kind = EventKind::kQuiesce;
  uint64_t key = 0;    ///< target key ordinal (kind-dependent space)
  uint64_t count = 1;  ///< range width in pages (fail-range)
  uint64_t writes = 0; ///< remaining write budget (wearout)
};

/// A full run description: workload shape + event list. Defaults give a
/// small mixed run; GenerateSchedule randomizes within bounded ranges.
struct ChaosSchedule {
  uint64_t seed = 0;             ///< drives workload PRNGs and generation
  uint32_t writers = 3;          ///< concurrent writer threads
  uint32_t txns_per_writer = 60; ///< acked transactions each must reach
  uint32_t ops_per_txn = 4;      ///< write ops per (non-contended) txn
  uint32_t keys_per_writer = 96; ///< size of each writer's private range
  uint32_t value_len = 24;       ///< random value length in bytes
  uint32_t seed_records = 1200;  ///< immutable preloaded records
  uint32_t contended_keys = 4;   ///< shared hot keys (serialized commits)
  uint32_t batch_pct = 25;       ///< % of txns applied as one WriteBatch
  uint32_t delete_pct = 15;      ///< % of ops that delete (when present)
  uint32_t contended_pct = 10;   ///< % of txns that hit a hot key instead
  uint32_t scan_every = 8;       ///< every Nth txn scans its range (0=off)
  bool scrubber = true;          ///< background scrubber on
  bool archiver = true;          ///< background log archiver on
  uint32_t restore_segment_pages = 32;  ///< rung-5 sweep segment size
  uint32_t drain_timeout_ms = 2000;     ///< restore-gate drain deadline
  std::vector<ChaosEvent> events;       ///< ascending by `at`

  uint64_t total_txns() const {
    return uint64_t(writers) * txns_per_writer;
  }
};

/// The `# result` footer of a trace (absent until a run completes).
struct TraceResult {
  bool present = false;
  uint64_t schedule_digest = 0;  ///< FNV-1a of the serialized schedule
  uint64_t shadow_digest = 0;    ///< FNV-1a of the final committed state
  uint64_t committed_txns = 0;   ///< total acked commits
  uint64_t events_fired = 0;     ///< events actually injected
};

/// Derives a bounded random schedule from `seed` (same seed, same
/// schedule, forever — this is the `--seed` entry point).
ChaosSchedule GenerateSchedule(uint64_t seed);

/// Renders the schedule in the DSL (no footer). Stable: serialize ∘ parse
/// is the identity on the serialized form.
std::string SerializeSchedule(const ChaosSchedule& schedule);

/// Serialized schedule + `# result` footer (a complete trace file).
std::string SerializeTrace(const ChaosSchedule& schedule,
                           const TraceResult& result);

/// Parses a schedule or trace. Unknown keys and malformed lines are
/// errors (a typo in a pinned scenario must not silently change it). A
/// `# result` footer, when present, lands in `*result` (may be null).
StatusOr<ChaosSchedule> ParseSchedule(const std::string& text,
                                      TraceResult* result = nullptr);

/// FNV-1a 64-bit, chainable (`h` is the running hash).
uint64_t DigestBytes(std::string_view bytes,
                     uint64_t h = 0xcbf29ce484222325ull);

}  // namespace chaos
}  // namespace spf
