#include "buffer/buffer_pool.h"

#include <cstring>

namespace spf {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  Release();
  pool_ = other.pool_;
  frame_ = other.frame_;
  page_id_ = other.page_id_;
  mode_ = other.mode_;
  other.pool_ = nullptr;
  return *this;
}

PageView PageGuard::view() {
  SPF_CHECK(valid());
  return PageView(pool_->frames_[frame_]->data, pool_->page_size());
}

Lsn PageGuard::page_lsn() { return view().page_lsn(); }

void PageGuard::MarkDirty() {
  SPF_CHECK(valid());
  SPF_CHECK(mode_ == LatchMode::kExclusive)
      << "MarkDirty requires an exclusive latch";
  if (pool_->admission_ != nullptr) {
    // Last-line write-seal re-check under the exclusive latch: a fix
    // admitted just before a restore sealed writes could otherwise dirty
    // the frame and log a record the replay-plan scan already passed.
    // Parking here is safe — the restore sweep needs neither this latch
    // nor any pool mutex to make progress and wake us. An admission
    // error is deliberately ignored: a FAILED restore never admitted
    // anyone, so the record logged now is covered by the next restore's
    // fresh plan scan.
    (void)pool_->admission_->AwaitRestored(page_id_);
  }
  BufferPool::Frame* f = pool_->frames_[frame_].get();
  // The exclusive latch serializes this against WriteBack; the store
  // order (rec_lsn, then dirty with release) is what DirtyPages pairs
  // its acquire load with.
  if (!f->dirty.load(std::memory_order_relaxed)) {
    // recLSN: the first record that will dirty this page is the next one
    // appended, i.e. the current log tail.
    f->rec_lsn.store(pool_->log_->tail_lsn(), std::memory_order_relaxed);
    f->dirty.store(true, std::memory_order_release);
  }
}

void PageGuard::MarkDirtyForRedo(Lsn rec_lsn) {
  SPF_CHECK(valid());
  SPF_CHECK(mode_ == LatchMode::kExclusive);
  BufferPool::Frame* f = pool_->frames_[frame_].get();
  if (!f->dirty.load(std::memory_order_relaxed)) {
    f->rec_lsn.store(rec_lsn, std::memory_order_relaxed);
    f->dirty.store(true, std::memory_order_release);
  } else if (rec_lsn < f->rec_lsn.load(std::memory_order_relaxed)) {
    f->rec_lsn.store(rec_lsn, std::memory_order_relaxed);
  }
}

void PageGuard::Release() {
  if (!valid()) return;
  pool_->Unfix(frame_, mode_);
  pool_ = nullptr;
}

// ---------------------------------------------------------------------------

BufferPool::BufferPool(BufferPoolOptions options, SimDevice* device,
                       LogManager* log, char* frame_memory)
    : options_(options),
      device_(device),
      log_(log),
      shards_(options.table_shards == 0 ? 1 : options.table_shards) {
  SPF_CHECK_EQ(options_.page_size, device->page_size());
  SPF_CHECK_GT(options_.num_frames, 1u);
  frames_.reserve(options_.num_frames);
  for (size_t i = 0; i < options_.num_frames; ++i) {
    auto f = std::make_unique<Frame>();
    f->data = frame_memory + i * options_.page_size;
    frames_.push_back(std::move(f));
  }
}

BufferPool::~BufferPool() = default;

Status BufferPool::ReadPage(PageId id, Frame* f, bool* repaired) {
  *repaired = false;
  Status read_status;
  for (;;) {
    if (admission_ != nullptr) {
      // Incremental full restore in progress: park until this page's
      // segment is back on the device (on-demand restores serve it ahead
      // of the sweep). An admission error is the restore's failure, not
      // a page failure — propagate it without attempting repair.
      Status adm = admission_->AwaitRestored(id);
      if (!adm.ok()) return adm;
    }
    read_status = device_->ReadPage(id, f->data);
    if (read_status.ok() && options_.verify_on_read) {
      PageView page(f->data, options_.page_size);
      read_status = page.Verify(id);
      if (read_status.ok() && verifier_ != nullptr) {
        read_status = verifier_->VerifyOnRead(page);
      }
    }
    if (!read_status.ok()) break;
    if (admission_ != nullptr && !admission_->IsRestored(id)) {
      // A restore sealed admission while we were reading: the image may
      // be a checksum-valid but STALE pre-failure copy served by the
      // revived device (its newest updates exist only in the log until
      // the sweep replays them). The device-level synchronization makes
      // the seal visible here whenever that could have happened —
      // re-admit and re-read the restored image.
      continue;
    }
    return read_status;
  }
  if (read_status.IsMediaFailure()) return read_status;

  // Single-page failure detected (Figure 8): the page could not be read
  // correctly and with plausible contents. Attempt online repair.
  stats_.verify_failures.fetch_add(1, std::memory_order_relaxed);
  if (repairer_ == nullptr) {
    // Without single-page recovery support, the failure escalates: the
    // traditional system has no choice but to declare a media failure.
    return Status::MediaFailure(
        "page " + std::to_string(id) +
        " failed verification and no repair is available (escalated): " +
        read_status.ToString());
  }
  stats_.repairs_attempted.fetch_add(1, std::memory_order_relaxed);
  Status repair_status = repairer_->RepairPage(id, f->data);
  if (!repair_status.ok()) return repair_status;
  stats_.repairs_succeeded.fetch_add(1, std::memory_order_relaxed);
  *repaired = true;
  return Status::OK();
}

Status BufferPool::LoadPage(PageId id, Frame* f) {
  bool repaired = false;
  if (pending_redo_ == nullptr || !pending_redo_->Pending()) {
    return ReadPage(id, f, &repaired);
  }
  // Instant restart: the page may still owe redo. A page whose owed redo
  // starts with its format record is rebuilt from scratch, without a
  // read (the device holds no image of it yet).
  const PendingRedo::Owed owed = pending_redo_->Lookup(id);
  if (owed == PendingRedo::Owed::kRedoFromFormat) {
    if (admission_ != nullptr) {
      SPF_RETURN_IF_ERROR(admission_->AwaitRestored(id));
    }
    std::memset(f->data, 0, options_.page_size);
  } else {
    SPF_RETURN_IF_ERROR(ReadPage(id, f, &repaired));
  }
  if (owed == PendingRedo::Owed::kNothing) return Status::OK();
  SPF_ASSIGN_OR_RETURN(
      Lsn first, pending_redo_->Apply(id, PageView(f->data, options_.page_size),
                                      repaired));
  if (first != kInvalidLsn) {
    // Dirty from the first redone record on, as the pre-crash frame was:
    // the dirty page table stays conservative across another crash.
    f->rec_lsn.store(first, std::memory_order_relaxed);
    f->dirty.store(true, std::memory_order_release);
  }
  pending_redo_->Retire(id);
  return Status::OK();
}

StatusOr<size_t> BufferPool::FindVictim(
    UniqueLock* victim_lock) {
  // Clock sweep; at most two full rounds (first clears reference bits).
  for (size_t step = 0; step < 2 * frames_.size() + 1; ++step) {
    Frame* f = frames_[clock_hand_].get();
    size_t index = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    if (f->pin_count.load(std::memory_order_relaxed) > 0) continue;
    if (f->referenced.load(std::memory_order_relaxed)) {
      f->referenced.store(false, std::memory_order_relaxed);
      continue;
    }
    if (f->page_id != kInvalidPageId) {
      if (f->dirty.load(std::memory_order_acquire)) {
        // Write back before eviction. Pin privately (under victim_mu_)
        // so no concurrent evict/discard grabs the frame, then drop
        // victim_mu_ for the blocking latch + I/O: the latch holder may
        // itself be faulting another page and need the victim chooser.
        f->pin_count.fetch_add(1, std::memory_order_relaxed);
        victim_lock->Unlock();
        Status s;
        {
          WriterLock latch(f->latch);
          s = WriteBack(f);
        }
        victim_lock->Lock();
        f->pin_count.fetch_sub(1, std::memory_order_relaxed);
        if (!s.ok()) return s;
        if (f->pin_count.load(std::memory_order_relaxed) > 0 ||
            f->dirty.load(std::memory_order_acquire)) {
          continue;  // raced; try another
        }
      }
      // Unmap under the owning shard's mutex. Hit pins go 0→1 only under
      // that mutex while the mapping exists, so a pin==0 re-check there
      // is authoritative.
      Shard& sh = ShardFor(f->page_id);
      bool raced;
      {
        MutexLock g(sh.mu);
        raced = f->pin_count.load(std::memory_order_acquire) > 0 ||
                f->dirty.load(std::memory_order_acquire);
        if (!raced) {
          sh.map.erase(f->page_id);
          stats_.evictions.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (raced) continue;
      f->page_id = kInvalidPageId;
      // The frame is now unmapped with pin_count 0, and every latch
      // holder also holds a pin, so the latch is free and unreachable:
      // retire its sync-object identity so the next page hosted here
      // starts with a clean TSan vector clock instead of inheriting
      // happens-before state from the previous page's incarnation.
      f->latch.ResetIdentityForRecycle();
    }
    f->dirty.store(false, std::memory_order_relaxed);
    f->rec_lsn.store(kInvalidLsn, std::memory_order_relaxed);
    return index;
  }
  return Status::Busy("buffer pool exhausted: all frames pinned");
}

Status BufferPool::WriteBack(Frame* f) {
  // Figure 11 sequence: (1) WAL — force the log up to the PageLSN;
  // (2) write the data page; (3) log the PRI update (listener) so the
  // write's completion is recorded before the page can be evicted.
  // The caller holds the exclusive latch, which serializes this against
  // MarkDirty and other write-backs of the same frame.
  PageView page(f->data, options_.page_size);
  Lsn page_lsn = page.page_lsn();
  if (page_lsn != kInvalidLsn) {
    log_->Force(page_lsn);
  }
  // When this write will take a per-page backup copy, restart the cadence
  // BEFORE checksumming: the copy then carries the reset count, so a later
  // repair (copy + k replayed records = count k) reproduces the live
  // frame exactly instead of the copy's stale pre-reset cadence.
  const uint32_t update_count = page.update_count();
  const bool backup_imminent =
      listener_ != nullptr && listener_->BackupImminent(update_count);
  if (backup_imminent) page.reset_update_count();
  page.UpdateChecksum();
  SPF_RETURN_IF_ERROR(device_->WritePage(f->page_id, f->data));
  // Clear rec_lsn BEFORE dirty: a DirtyPages reader that still observes
  // dirty==true but rec_lsn==kInvalidLsn knows the image just reached
  // the device and skips the frame.
  f->rec_lsn.store(kInvalidLsn, std::memory_order_relaxed);
  f->dirty.store(false, std::memory_order_release);
  stats_.write_backs.fetch_add(1, std::memory_order_relaxed);
  if (listener_ != nullptr) {
    bool took_backup = listener_->OnPageWritten(f->page_id, page_lsn,
                                                update_count, f->data);
    if (took_backup && !backup_imminent) {
      // Listener took a copy it did not announce (no BackupImminent
      // override): restart the cadence after the fact, as before. The
      // copy then predates the reset — acceptable for such listeners.
      page.reset_update_count();
    } else if (!took_backup && backup_imminent) {
      // Announced copy failed (e.g. backup device full): undo the
      // optimistic reset so the next write-back retries the backup at
      // the true count.
      while (page.update_count() < update_count) page.bump_update_count();
    }
  }
  return Status::OK();
}

BufferPool::Frame* BufferPool::TryPin(PageId id, size_t* index) {
  Shard& sh = ShardFor(id);
  MutexLock g(sh.mu);
  auto it = sh.map.find(id);
  if (it == sh.map.end()) return nullptr;
  Frame* f = frames_[it->second].get();
  f->pin_count.fetch_add(1, std::memory_order_relaxed);
  f->referenced.store(true, std::memory_order_relaxed);
  *index = it->second;
  return f;
}

StatusOr<PageGuard> BufferPool::FinishHit(Frame* f, size_t index, PageId id,
                                          LatchMode mode) {
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  if (mode == LatchMode::kExclusive && admission_ != nullptr) {
    // Write admission covers cache hits too: a frame kept across the
    // restore's pool discard must not take a logged update the replay
    // plan never saw while its segment is unswept — the sweep would
    // overwrite the eventual write-back with the pre-update image. The
    // pin taken by TryPin keeps the frame cached while we park; shared
    // fixes stay unthrottled (the cached copy is the current image).
    Status adm = admission_->AwaitRestored(id);
    if (!adm.ok()) {
      f->pin_count.fetch_sub(1, std::memory_order_relaxed);
      return adm;
    }
  }
  if (mode == LatchMode::kShared) {
    f->latch.LockShared();
  } else {
    f->latch.Lock();
  }
  if (f->page_id != id) {
    // The load this hit waited for failed and unmapped the frame.
    Unfix(index, mode);
    return FixPage(id, mode);
  }
  return PageGuard(this, index, id, mode);
}

StatusOr<PageGuard> BufferPool::FixPage(PageId id, LatchMode mode) {
  stats_.fixes.fetch_add(1, std::memory_order_relaxed);
  size_t index = 0;
  if (Frame* f = TryPin(id, &index)) {
    return FinishHit(f, index, id, mode);
  }

  UniqueLock victim_lock(victim_mu_);
  // Another fault may have loaded the page while we queued for the
  // victim chooser — re-check before consuming a victim frame.
  if (Frame* f = TryPin(id, &index)) {
    victim_lock.Unlock();
    return FinishHit(f, index, id, mode);
  }
  stats_.misses.fetch_add(1, std::memory_order_relaxed);
  SPF_ASSIGN_OR_RETURN(index, FindVictim(&victim_lock));
  Frame* f = frames_[index].get();
  // Reserve the frame under the shard mutex so concurrent fixes of the
  // same page wait on the latch rather than double-loading. The victim
  // had pin_count 0 and every latch holder also holds a pin (guards,
  // FlushPage, FindVictim's write-back), so the latch is necessarily
  // free: try_lock cannot fail, and never blocking here keeps the
  // mutex-then-latch order deadlock-free (write-back holds the latch
  // while taking mutexes).
  {
    Shard& sh = ShardFor(id);
    MutexLock g(sh.mu);
    f->page_id = id;
    f->pin_count.fetch_add(1, std::memory_order_relaxed);
    f->referenced.store(true, std::memory_order_relaxed);
    sh.map[id] = index;
    SPF_CHECK(f->latch.TryLock()) << "victim frame latched without a pin";
  }
  victim_lock.Unlock();

  Status s = LoadPage(id, f);
  if (!s.ok()) {
    // Unmap before releasing the latch: a hit that pinned the frame
    // during the load sees page_id change under the latch and retries
    // instead of reading a frame the failed load never filled.
    {
      MutexLock vg(victim_mu_);
      Shard& sh = ShardFor(id);
      MutexLock g(sh.mu);
      sh.map.erase(id);
      f->page_id = kInvalidPageId;
    }
    f->latch.Unlock();
    f->pin_count.fetch_sub(1, std::memory_order_relaxed);
    return s;
  }
  if (mode == LatchMode::kShared) {
    f->latch.Unlock();
    f->latch.LockShared();
  }
  return PageGuard(this, index, id, mode);
}

StatusOr<PageGuard> BufferPool::FixNewPage(PageId id) {
  if (admission_ != nullptr) {
    // A freshly allocated page may land in a device region an incremental
    // restore has not reached yet; wait the sweep out for its segment so
    // a later segment restore cannot clobber this page's write-back.
    SPF_RETURN_IF_ERROR(admission_->AwaitRestored(id));
  }
  stats_.fixes.fetch_add(1, std::memory_order_relaxed);
  UniqueLock victim_lock(victim_mu_);
  SPF_ASSIGN_OR_RETURN(size_t index, FindVictim(&victim_lock));
  Frame* f = frames_[index].get();
  {
    Shard& sh = ShardFor(id);
    MutexLock g(sh.mu);
    SPF_CHECK(sh.map.find(id) == sh.map.end())
        << "FixNewPage of already-cached page " << id;
    f->page_id = id;
    f->pin_count.fetch_add(1, std::memory_order_relaxed);
    f->referenced.store(true, std::memory_order_relaxed);
    sh.map[id] = index;
    // Free for the same reason as in FixPage: no pin, no latch holder.
    SPF_CHECK(f->latch.TryLock()) << "victim frame latched without a pin";
  }
  std::memset(f->data, 0, options_.page_size);
  return PageGuard(this, index, id, LatchMode::kExclusive);
}

Status BufferPool::FlushPage(PageId id) {
  Frame* f;
  {
    Shard& sh = ShardFor(id);
    MutexLock g(sh.mu);
    auto it = sh.map.find(id);
    if (it == sh.map.end()) return Status::OK();
    f = frames_[it->second].get();
    if (!f->dirty.load(std::memory_order_acquire)) return Status::OK();
    f->pin_count.fetch_add(1, std::memory_order_relaxed);
  }
  Status s;
  {
    WriterLock latch(f->latch);
    s = WriteBack(f);
  }
  f->pin_count.fetch_sub(1, std::memory_order_release);
  return s;
}

Status BufferPool::FlushAll() {
  std::vector<PageId> dirty;
  {
    MutexLock g(victim_mu_);
    for (auto& f : frames_) {
      if (f->page_id != kInvalidPageId &&
          f->dirty.load(std::memory_order_acquire)) {
        dirty.push_back(f->page_id);
      }
    }
  }
  for (PageId id : dirty) {
    SPF_RETURN_IF_ERROR(FlushPage(id));
  }
  return Status::OK();
}

Status BufferPool::EvictPage(PageId id) {
  SPF_RETURN_IF_ERROR(FlushPage(id));
  MutexLock vg(victim_mu_);
  Shard& sh = ShardFor(id);
  MutexLock g(sh.mu);
  auto it = sh.map.find(id);
  if (it == sh.map.end()) return Status::OK();
  Frame* f = frames_[it->second].get();
  if (f->pin_count.load(std::memory_order_acquire) > 0) {
    return Status::Busy("page pinned");
  }
  if (f->dirty.load(std::memory_order_acquire)) {
    return Status::Busy("page re-dirtied during eviction");
  }
  sh.map.erase(it);
  f->page_id = kInvalidPageId;
  f->rec_lsn.store(kInvalidLsn, std::memory_order_relaxed);
  stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void BufferPool::DiscardAll() {
  SPF_CHECK_EQ(DiscardAllUnpinned(), 0u) << "DiscardAll with pinned frames";
}

size_t BufferPool::DiscardAllUnpinned() {
  MutexLock vg(victim_mu_);
  size_t kept = 0;
  for (auto& f : frames_) {
    if (f->page_id == kInvalidPageId) continue;
    Shard& sh = ShardFor(f->page_id);
    MutexLock g(sh.mu);
    if (f->pin_count.load(std::memory_order_acquire) > 0) {
      kept++;
      continue;
    }
    sh.map.erase(f->page_id);
    f->page_id = kInvalidPageId;
    f->dirty.store(false, std::memory_order_relaxed);
    f->rec_lsn.store(kInvalidLsn, std::memory_order_relaxed);
    f->referenced.store(false, std::memory_order_relaxed);
  }
  return kept;
}

bool BufferPool::DiscardPage(PageId id) {
  MutexLock vg(victim_mu_);
  Shard& sh = ShardFor(id);
  MutexLock g(sh.mu);
  auto it = sh.map.find(id);
  if (it == sh.map.end()) return true;
  Frame* f = frames_[it->second].get();
  if (f->pin_count.load(std::memory_order_acquire) > 0) {
    return false;  // in use; caller may retry
  }
  sh.map.erase(it);
  f->page_id = kInvalidPageId;
  f->dirty.store(false, std::memory_order_relaxed);
  f->rec_lsn.store(kInvalidLsn, std::memory_order_relaxed);
  return true;
}

std::vector<DirtyPageEntry> BufferPool::DirtyPages() const {
  MutexLock g(victim_mu_);
  std::vector<DirtyPageEntry> out;
  for (const auto& f : frames_) {
    if (f->page_id == kInvalidPageId) continue;
    if (!f->dirty.load(std::memory_order_acquire)) continue;
    Lsn rec_lsn = f->rec_lsn.load(std::memory_order_relaxed);
    // dirty==true with an invalid recLSN means a concurrent write-back
    // already put the image on the device (it clears rec_lsn first) —
    // the frame is clean for this snapshot's purposes.
    if (rec_lsn == kInvalidLsn) continue;
    out.push_back({f->page_id, rec_lsn});
  }
  return out;
}

bool BufferPool::IsCached(PageId id) const {
  Shard& sh = ShardFor(id);
  MutexLock g(sh.mu);
  return sh.map.count(id) > 0;
}

size_t BufferPool::PinnedFrames() const {
  MutexLock g(victim_mu_);
  size_t pinned = 0;
  for (const auto& f : frames_) {
    if (f->page_id != kInvalidPageId &&
        f->pin_count.load(std::memory_order_relaxed) > 0) {
      pinned++;
    }
  }
  return pinned;
}

bool BufferPool::IsDirty(PageId id) const {
  Shard& sh = ShardFor(id);
  MutexLock g(sh.mu);
  auto it = sh.map.find(id);
  return it != sh.map.end() &&
         frames_[it->second]->dirty.load(std::memory_order_acquire);
}

std::optional<Lsn> BufferPool::CachedPageLsn(PageId id) const {
  Shard& sh = ShardFor(id);
  MutexLock g(sh.mu);
  auto it = sh.map.find(id);
  if (it == sh.map.end()) return std::nullopt;
  Frame* f = frames_[it->second].get();
  // try_lock only: never block a scrub scan on a latch, and never invert
  // the latch-before-mutex order of the fix path (try never waits).
  if (!f->latch.TryLockShared()) return kInvalidLsn;  // in flux
  Lsn lsn = PageView(f->data, options_.page_size).page_lsn();
  f->latch.UnlockShared();
  return lsn;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats out;
  out.fixes = stats_.fixes.load(std::memory_order_relaxed);
  out.hits = stats_.hits.load(std::memory_order_relaxed);
  out.misses = stats_.misses.load(std::memory_order_relaxed);
  out.evictions = stats_.evictions.load(std::memory_order_relaxed);
  out.write_backs = stats_.write_backs.load(std::memory_order_relaxed);
  out.verify_failures = stats_.verify_failures.load(std::memory_order_relaxed);
  out.repairs_attempted =
      stats_.repairs_attempted.load(std::memory_order_relaxed);
  out.repairs_succeeded =
      stats_.repairs_succeeded.load(std::memory_order_relaxed);
  return out;
}

void BufferPool::ResetStats() {
  stats_.fixes.store(0, std::memory_order_relaxed);
  stats_.hits.store(0, std::memory_order_relaxed);
  stats_.misses.store(0, std::memory_order_relaxed);
  stats_.evictions.store(0, std::memory_order_relaxed);
  stats_.write_backs.store(0, std::memory_order_relaxed);
  stats_.verify_failures.store(0, std::memory_order_relaxed);
  stats_.repairs_attempted.store(0, std::memory_order_relaxed);
  stats_.repairs_succeeded.store(0, std::memory_order_relaxed);
}

void BufferPool::Unfix(size_t frame_index, LatchMode mode) {
  Frame* f = frames_[frame_index].get();
  if (mode == LatchMode::kShared) {
    f->latch.UnlockShared();
  } else {
    f->latch.Unlock();
  }
  uint32_t prev = f->pin_count.fetch_sub(1, std::memory_order_release);
  SPF_CHECK_GT(prev, 0u);
}

}  // namespace spf
