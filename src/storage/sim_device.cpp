#include "storage/sim_device.h"

#include <algorithm>
#include <cstring>

namespace spf {

SimDevice::SimDevice(std::string name, uint32_t page_size, uint64_t num_pages,
                     DeviceProfile profile, SimClock* clock)
    : name_(std::move(name)),
      page_size_(page_size),
      num_pages_(num_pages),
      profile_(std::move(profile)),
      clock_(clock),
      store_(page_size * num_pages, '\0') {
  SPF_CHECK_GT(page_size, kPageHeaderSize);
  SPF_CHECK_GT(num_pages, 0u);
}

uint64_t SimDevice::ChargeAccess(PageId id, bool is_write) {
  const bool sequential =
      last_accessed_ != kInvalidPageId && id == last_accessed_ + 1;
  last_accessed_ = id;
  uint64_t ns = profile_.AccessNanos(page_size_, sequential);
  clock_->AdvanceNanos(ns);
  stats_.sim_ns_charged += ns;
  if (sequential) {
    stats_.sequential_accesses++;
  } else {
    stats_.random_accesses++;
  }
  if (is_write) {
    stats_.page_writes++;
    stats_.bytes_written += page_size_;
  } else {
    stats_.page_reads++;
    stats_.bytes_read += page_size_;
  }
  return ns;
}

Status SimDevice::ReadPage(PageId id, char* out) {
  MutexLock g(mu_);
  if (device_failed_) {
    return Status::MediaFailure("device '" + name_ + "' has failed");
  }
  if (id >= num_pages_) {
    return Status::InvalidArgument("page id out of range");
  }
  ChargeAccess(id, /*is_write=*/false);

  auto it = faults_.find(id);
  if (it != faults_.end() && it->second.kind == FaultKind::kReadError) {
    stats_.injected_faults_hit++;
    if (!it->second.permanent) faults_.erase(it);
    return Status::ReadFailure("unrecoverable read error (latent sector)");
  }
  std::memcpy(out, Slot(id), page_size_);
  return Status::OK();
}

Status SimDevice::WritePage(PageId id, const char* data) {
  MutexLock g(mu_);
  if (device_failed_) {
    return Status::MediaFailure("device '" + name_ + "' has failed");
  }
  if (id >= num_pages_) {
    return Status::InvalidArgument("page id out of range");
  }
  ChargeAccess(id, /*is_write=*/true);

  // Wear-out: writes beyond the endurance budget scramble the location.
  auto wear = wear_remaining_.find(id);
  if (wear != wear_remaining_.end()) {
    if (wear->second == 0) {
      stats_.injected_faults_hit++;
      std::memcpy(Slot(id), data, page_size_);
      ScrambleLocked(id, /*seed=*/id * 2654435761u + stats_.page_writes, 128);
      return Status::OK();  // silent: the device reports success
    }
    wear->second--;
  }

  auto it = faults_.find(id);
  if (it != faults_.end() && it->second.kind == FaultKind::kTornWrite) {
    stats_.injected_faults_hit++;
    uint32_t prefix = std::min(it->second.torn_prefix, page_size_);
    std::memcpy(Slot(id), data, prefix);  // tail keeps the old image
    faults_.erase(it);
    return Status::OK();  // silent
  }
  if (it != faults_.end() && it->second.kind == FaultKind::kReadError &&
      it->second.cleared_by_write) {
    faults_.erase(it);  // rewriting the failed sector remaps it
  }

  std::memcpy(Slot(id), data, page_size_);
  return Status::OK();
}

DeviceStats SimDevice::stats() const {
  MutexLock g(mu_);
  return stats_;
}

void SimDevice::ResetStats() {
  MutexLock g(mu_);
  stats_ = DeviceStats();
}

void SimDevice::ScrambleLocked(PageId id, uint64_t seed, uint32_t nbytes) {
  Random rng(seed);
  char* slot = Slot(id);
  for (uint32_t i = 0; i < nbytes; ++i) {
    uint64_t off = rng.Uniform(page_size_);
    slot[off] = static_cast<char>(rng.Next() & 0xff);
  }
}

void SimDevice::InjectSilentCorruption(PageId id, uint64_t seed,
                                       uint32_t nbytes) {
  MutexLock g(mu_);
  SPF_CHECK_LT(id, num_pages_);
  ScrambleLocked(id, seed, nbytes);
}

void SimDevice::InjectReadError(PageId id, bool permanent) {
  MutexLock g(mu_);
  FaultState f;
  f.kind = FaultKind::kReadError;
  f.permanent = permanent;
  faults_[id] = f;
}

void SimDevice::FailPageRange(PageId first, uint64_t count) {
  MutexLock g(mu_);
  SPF_CHECK_LE(first + count, num_pages_);
  for (PageId id = first; id < first + count; ++id) {
    FaultState f;
    f.kind = FaultKind::kReadError;
    f.permanent = true;
    f.cleared_by_write = true;
    faults_[id] = f;
  }
}

void SimDevice::CapturePageVersion(PageId id) {
  MutexLock g(mu_);
  SPF_CHECK_LT(id, num_pages_);
  captured_versions_[id].assign(Slot(id), page_size_);
}

bool SimDevice::InjectStaleVersion(PageId id) {
  MutexLock g(mu_);
  auto it = captured_versions_.find(id);
  if (it == captured_versions_.end()) return false;
  std::memcpy(Slot(id), it->second.data(), page_size_);
  return true;
}

void SimDevice::InjectTornWrite(PageId id, uint32_t valid_prefix) {
  MutexLock g(mu_);
  FaultState f;
  f.kind = FaultKind::kTornWrite;
  f.torn_prefix = valid_prefix;
  faults_[id] = f;
}

void SimDevice::SetWearOutLimit(PageId id, uint32_t writes_remaining) {
  MutexLock g(mu_);
  wear_remaining_[id] = writes_remaining;
}

void SimDevice::ClearFault(PageId id) {
  MutexLock g(mu_);
  faults_.erase(id);
  wear_remaining_.erase(id);
}

void SimDevice::RawRead(PageId id, char* out) const {
  MutexLock g(mu_);
  SPF_CHECK_LT(id, num_pages_);
  std::memcpy(out, Slot(id), page_size_);
}

void SimDevice::RawWrite(PageId id, const char* data) {
  MutexLock g(mu_);
  SPF_CHECK_LT(id, num_pages_);
  std::memcpy(const_cast<char*>(Slot(id)), data, page_size_);
}

// ---------------------------------------------------------------------------
// SimLogDevice

SimLogDevice::SimLogDevice(std::string name, DeviceProfile profile,
                           SimClock* clock)
    : name_(std::move(name)), profile_(std::move(profile)), clock_(clock) {}

uint64_t SimLogDevice::Append(std::string_view data) {
  MutexLock g(mu_);
  const uint64_t offset = size_;
  const char* src = data.data();
  uint64_t left = data.size();
  while (left > 0) {
    if (size_ == chunks_.size() * kChunkBytes) {
      chunks_.push_back(std::make_unique<char[]>(kChunkBytes));
    }
    const uint64_t at = size_ % kChunkBytes;
    const uint64_t n = std::min(left, kChunkBytes - at);
    std::memcpy(chunks_.back().get() + at, src, n);
    src += n;
    left -= n;
    size_ += n;
  }
  return offset;
}

void SimLogDevice::Sync() {
  MutexLock g(mu_);
  // Every sync is one device round-trip: the unsynced tail transfers at
  // the sequential rate, but completing the force still pays the
  // profile's positioning overhead (rotational delay on disk, flush
  // latency on flash) no matter how few bytes it carries. This fixed
  // per-sync cost is exactly what group commit amortizes: N committers
  // sharing one sync split one positioning charge instead of paying N.
  if (size_ == synced_size_) {
    uint64_t ns = profile_.AccessNanos(0, /*sequential=*/false);
    clock_->AdvanceNanos(ns);
    stats_.sim_ns_charged += ns;
    return;
  }
  uint64_t tail = size_ - synced_size_;
  uint64_t ns = profile_.AccessNanos(tail, /*sequential=*/false);
  clock_->AdvanceNanos(ns);
  stats_.sim_ns_charged += ns;
  stats_.page_writes++;
  stats_.bytes_written += tail;
  stats_.random_accesses++;
  synced_size_ = size_;
}

Status SimLogDevice::ReadAt(uint64_t offset, uint64_t n, char* out) const {
  MutexLock g(mu_);
  if (offset + n > size_) {
    return Status::IOError("log read past end");
  }
  const bool sequential = offset == last_read_end_;
  last_read_end_ = offset + n;
  uint64_t ns = profile_.AccessNanos(n, sequential);
  clock_->AdvanceNanos(ns);
  stats_.sim_ns_charged += ns;
  stats_.page_reads++;
  stats_.bytes_read += n;
  if (sequential) {
    stats_.sequential_accesses++;
  } else {
    stats_.random_accesses++;
  }
  while (n > 0) {
    const uint64_t at = offset % kChunkBytes;
    const uint64_t len = std::min(n, kChunkBytes - at);
    std::memcpy(out, chunks_[offset / kChunkBytes].get() + at, len);
    out += len;
    offset += len;
    n -= len;
  }
  return Status::OK();
}

uint64_t SimLogDevice::size() const {
  MutexLock g(mu_);
  return size_;
}

uint64_t SimLogDevice::synced_size() const {
  MutexLock g(mu_);
  return synced_size_;
}

void SimLogDevice::DropUnsynced() {
  MutexLock g(mu_);
  size_ = synced_size_;
  chunks_.resize((size_ + kChunkBytes - 1) / kChunkBytes);
}

DeviceStats SimLogDevice::stats() const {
  MutexLock g(mu_);
  return stats_;
}

void SimLogDevice::ResetStats() {
  MutexLock g(mu_);
  stats_ = DeviceStats();
}

}  // namespace spf
