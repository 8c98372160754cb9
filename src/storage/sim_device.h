// Simulated page-oriented block device with fault injection.
//
// SimDevice is the substrate substitute for the paper's failing hardware
// (section 1, section 3.2): it stores pages in memory, charges simulated
// time per access through a DeviceProfile, and can be instructed to produce
// exactly the failure phenomenology the paper catalogs:
//
//   * silent corruption  — bytes scrambled; in-page checksum catches it
//   * hard read error    — "latent sector error" [Bairavasundaram et al.]:
//                          the device cannot deliver the page at all
//   * stale version      — a previously valid image is returned; it passes
//                          all in-page tests and is only caught by the
//                          PageLSN-vs-PRI cross-check (section 5.2.2)
//   * torn write         — only a prefix of the next write is applied
//   * wear-out           — after a per-page write budget is exhausted,
//                          further writes silently fail (flash endurance)
//   * whole-device failure — every access fails (media failure class)

#pragma once

#include <cstdint>
#include "common/sync.h"
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "storage/device_profile.h"
#include "storage/page.h"

namespace spf {

/// Kinds of injectable page-level faults.
enum class FaultKind : uint8_t {
  kNone = 0,
  kSilentCorruption,  // detectable by checksum
  kReadError,         // unrecoverable read, surfaces as Status::ReadFailure
  kStaleVersion,      // plausible-but-wrong: old image with a valid checksum
  kTornWrite,         // next write is torn; later reads fail the checksum
};

/// Cumulative I/O accounting for one device.
struct DeviceStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t sequential_accesses = 0;
  uint64_t random_accesses = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t sim_ns_charged = 0;
  uint64_t injected_faults_hit = 0;
};

/// In-memory simulated block device addressed by PageId.
///
/// Thread-safe: all public methods take an internal mutex. All I/O advances
/// the shared SimClock according to the device's profile.
class SimDevice {
 public:
  /// Creates a device of `num_pages` pages of `page_size` bytes. The clock
  /// is shared with other devices of the same database and is not owned.
  SimDevice(std::string name, uint32_t page_size, uint64_t num_pages,
            DeviceProfile profile, SimClock* clock);

  SPF_DISALLOW_COPY(SimDevice);

  /// Reads page `id` into `out` (page_size bytes). Applies injected faults:
  /// may return ReadFailure, or deliver corrupted/stale bytes with an OK
  /// status (silent failure — the caller's verification must catch it).
  Status ReadPage(PageId id, char* out);

  /// Writes page `id` from `data` (page_size bytes). Subject to torn-write
  /// and wear-out faults: both complete with OK status (silent failure).
  Status WritePage(PageId id, const char* data);

  uint32_t page_size() const { return page_size_; }
  uint64_t num_pages() const { return num_pages_; }
  const std::string& name() const { return name_; }
  const DeviceProfile& profile() const { return profile_; }
  uint64_t capacity_bytes() const { return num_pages_ * page_size_; }

  /// Snapshot of cumulative stats.
  DeviceStats stats() const;
  void ResetStats();

  // --- Fault injection (testing / experiment API) -------------------------

  /// Scrambles `nbytes` bytes of the stored image at a pseudo-random offset
  /// without touching the stored checksum: the next read returns bytes that
  /// fail the in-page checksum.
  void InjectSilentCorruption(PageId id, uint64_t seed = 1, uint32_t nbytes = 64);

  /// Makes reads of `id` return Status::ReadFailure. If `permanent` is
  /// false a single subsequent read fails, after which the page reads fine
  /// again (transient fault, e.g. overloaded network storage, section 3.2).
  void InjectReadError(PageId id, bool permanent = true);

  /// Fails every page in [first, first + count): reads return ReadFailure
  /// until the page is next rewritten (a successful write maps in a
  /// replacement sector and heals the location). A bounded multi-sector
  /// media failure — the damage pattern partial restore targets, as
  /// opposed to FailDevice()'s unbounded whole-device loss.
  void FailPageRange(PageId first, uint64_t count);

  /// Reverts the stored image to the version captured by the most recent
  /// CapturePageVersion(id) call. The stale image carries a valid checksum,
  /// so only cross-page checks (PageLSN vs. page recovery index) detect it.
  /// Returns false if no captured version exists.
  bool InjectStaleVersion(PageId id);

  /// Snapshots the current stored image of `id` for later stale-version
  /// injection.
  void CapturePageVersion(PageId id);

  /// The next write to `id` is torn: only the first `valid_prefix` bytes are
  /// applied; the rest keeps the previous image.
  void InjectTornWrite(PageId id, uint32_t valid_prefix);

  /// After `writes_remaining` more successful writes, the location wears
  /// out: later writes scramble the stored bytes (flash endurance limit).
  void SetWearOutLimit(PageId id, uint32_t writes_remaining);

  /// Clears any injected fault on `id`.
  void ClearFault(PageId id);

  /// Fails the entire device: every subsequent access returns MediaFailure.
  void FailDevice() {
    MutexLock g(mu_);
    device_failed_ = true;
  }
  void ReviveDevice() {
    MutexLock g(mu_);
    device_failed_ = false;
  }
  bool device_failed() const {
    MutexLock g(mu_);
    return device_failed_;
  }

  /// Direct access to stored bytes bypassing faults and the clock; for
  /// tests that need to inspect or doctor the persistent image.
  void RawRead(PageId id, char* out) const;
  void RawWrite(PageId id, const char* data);

 private:
  struct FaultState {
    FaultKind kind = FaultKind::kNone;
    bool permanent = false;
    bool cleared_by_write = false;  // a rewrite remaps the failed sector
    uint32_t torn_prefix = 0;
    uint64_t seed = 0;
    uint32_t corrupt_bytes = 0;
  };

  uint64_t ChargeAccess(PageId id, bool is_write) SPF_REQUIRES(mu_);
  char* Slot(PageId id) SPF_REQUIRES(mu_) {
    return store_.data() + id * page_size_;
  }
  const char* Slot(PageId id) const SPF_REQUIRES(mu_) {
    return store_.data() + id * page_size_;
  }
  void ScrambleLocked(PageId id, uint64_t seed, uint32_t nbytes)
      SPF_REQUIRES(mu_);

  const std::string name_;
  const uint32_t page_size_;
  const uint64_t num_pages_;
  const DeviceProfile profile_;
  SimClock* const clock_;

  mutable OrderedMutex mu_{LockRank::kDevice};
  std::vector<char> store_ SPF_GUARDED_BY(mu_);
  std::unordered_map<PageId, FaultState> faults_ SPF_GUARDED_BY(mu_);
  std::unordered_map<PageId, std::string> captured_versions_ SPF_GUARDED_BY(mu_);
  std::unordered_map<PageId, uint32_t> wear_remaining_ SPF_GUARDED_BY(mu_);
  PageId last_accessed_ SPF_GUARDED_BY(mu_) = kInvalidPageId;
  bool device_failed_ SPF_GUARDED_BY(mu_) = false;
  DeviceStats stats_ SPF_GUARDED_BY(mu_);
};

/// Append-only simulated byte device for the recovery log.
///
/// The recovery log is assumed to be on stable storage (section 5):
/// appended bytes are never lost once Sync() returns. Reads at arbitrary
/// offsets model the random I/O of walking a per-page log chain; appends
/// are sequential.
///
/// The bytes live in fixed-size chunks: growing the log allocates one more
/// chunk and never copies what is already written while holding mu_.
class SimLogDevice {
 public:
  /// Bytes per storage chunk.
  static constexpr uint64_t kChunkBytes = 1 << 20;

  SimLogDevice(std::string name, DeviceProfile profile, SimClock* clock);

  SPF_DISALLOW_COPY(SimLogDevice);

  /// Appends `data`; returns the byte offset at which it was written.
  /// Durable only after the next Sync().
  uint64_t Append(std::string_view data);

  /// Forces all appended bytes to stable storage (charged as one
  /// sequential write of the unsynced tail).
  void Sync();

  /// Reads `n` bytes at `offset` into `out`. Random access unless it
  /// continues the previous read. Reading unsynced bytes is allowed (the
  /// log buffer is in memory); reads past the end fail.
  Status ReadAt(uint64_t offset, uint64_t n, char* out) const;

  /// Total appended size (durable or not).
  uint64_t size() const;
  /// Size that is durable (would survive a crash).
  uint64_t synced_size() const;

  /// Simulates a crash: discards all bytes appended after the last Sync()
  /// and frees the chunks that held only those bytes.
  void DropUnsynced();

  DeviceStats stats() const;
  void ResetStats();

 private:
  const std::string name_;
  const DeviceProfile profile_;
  SimClock* const clock_;

  mutable OrderedMutex mu_{LockRank::kDevice};
  /// Log byte i is chunks_[i / kChunkBytes][i % kChunkBytes]; there are
  /// exactly enough chunks to hold size_ bytes.
  std::vector<std::unique_ptr<char[]>> chunks_ SPF_GUARDED_BY(mu_);
  uint64_t size_ SPF_GUARDED_BY(mu_) = 0;
  uint64_t synced_size_ SPF_GUARDED_BY(mu_) = 0;
  mutable uint64_t last_read_end_ SPF_GUARDED_BY(mu_) = UINT64_MAX;
  mutable DeviceStats stats_ SPF_GUARDED_BY(mu_);
};

}  // namespace spf
