#include "log/log_manager.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace spf {

namespace {
constexpr uint32_t kMaxRecordBytes = 64u << 20;  // longer is a corrupt length
}  // namespace

LogManager::LogManager(SimLogDevice* device, GroupCommitOptions gc)
    : device_(device), gc_(gc) {
  if (device_->size() == 0) {
    // File header so that the first record's LSN is non-zero.
    std::string header = "SPF_LOG\0";
    header.resize(kLogFileHeaderSize, '\0');
    device_->Append(header);
    device_->Sync();
  }
  next_lsn_ = device_->size();
  synced_ = device_->synced_size();
  drainer_ = std::thread(&LogManager::DrainerLoop, this);
}

LogManager::~LogManager() {
  {
    MutexLock g(mu_);
    stop_ = true;
  }
  drain_cv_.notify_all();
  durable_cv_.notify_all();
  if (drainer_.joinable()) drainer_.join();
  // Leave every append on the device (unsynced tail), as the pre-group-
  // commit manager did. After Crash() the staged queue is already empty.
  Publish();
}

void LogManager::Crash() {
  {
    MutexLock g(mu_);
    stop_ = true;
  }
  drain_cv_.notify_all();
  durable_cv_.notify_all();
  if (drainer_.joinable()) drainer_.join();
  MutexLock g(mu_);
  // Staged records die with the crash; publishing them now would let the
  // post-crash log resurrect bytes the simulated failure already lost.
  staged_.clear();
  staged_bytes_ = 0;
}

Lsn LogManager::Append(LogRecord* rec) {
  std::string payload = rec->Serialize();
  const uint32_t length = static_cast<uint32_t>(payload.size());
  Lsn lsn;
  bool over_threshold;
  {
    MutexLock g(mu_);
    lsn = next_lsn_;
    next_lsn_ += length;
    staged_.push_back(std::move(payload));
    staged_bytes_ += length;
    over_threshold = staged_bytes_ >= gc_.max_batch_bytes;
    stats_.records_appended++;
    stats_.bytes_appended += length;
    stats_.per_type[rec->type]++;
  }
  if (over_threshold) drain_cv_.notify_one();
  rec->lsn = lsn;
  rec->length = length;
  return lsn;
}

Lsn LogManager::AppendPageRecord(LogRecord* rec, PageView page) {
  SPF_CHECK(rec->page_id == page.page_id())
      << "record/page id mismatch: " << rec->page_id << " vs "
      << page.page_id();
  rec->page_prev_lsn = page.page_lsn();
  Lsn lsn = Append(rec);
  if (write_admission_ != nullptr &&
      !write_admission_->IsRestored(rec->page_id)) {
    // Post-reservation park (see header): the slot above landed past a
    // sealing restore's replay-plan scan, so hold the caller here until
    // the page's segment is final and the update cannot be lost to the
    // sweep. An admission ERROR is deliberately ignored, exactly as in
    // MarkDirty's re-check: a failed restore admitted no one, and the
    // record staged above is covered by the next restore's fresh plan
    // scan.
    (void)write_admission_->AwaitRestored(rec->page_id);
  }
  page.set_page_lsn(lsn);
  page.bump_update_count();
  return lsn;
}

void LogManager::Force(Lsn lsn) {
  UniqueLock g(mu_);
  if (synced_ > lsn) return;  // already durable
  if (force_waiters_++ == 0) {
    oldest_force_ = std::chrono::steady_clock::now();
  }
  force_target_ = std::max(force_target_, lsn);
  drain_cv_.notify_one();
  while (!(synced_ > lsn || stop_)) durable_cv_.wait(g);
  force_waiters_--;
}

void LogManager::ForceAll() {
  Lsn target;
  {
    MutexLock g(mu_);
    target = next_lsn_;
  }
  if (target == 0) return;
  Force(target - 1);
}

void LogManager::Publish() const {
  MutexLock fl(flush_mu_);
  std::deque<std::string> batch;
  uint64_t bytes = 0;
  {
    MutexLock g(mu_);
    batch.swap(staged_);
    bytes = staged_bytes_;
    staged_bytes_ = 0;
  }
  if (batch.empty()) return;
  std::string buf;
  buf.reserve(bytes);
  for (const std::string& s : batch) buf.append(s);
  device_->Append(buf);
  MutexLock g(mu_);
  stats_.publishes++;
}

void LogManager::EnsureReadable(uint64_t end) const {
  // The device's size only grows, so a covered range stays covered. On a
  // miss, Publish() waits out any in-flight publisher (flush_mu_) and then
  // pushes the entire staged queue, which includes every reserved record.
  if (end <= device_->size()) return;
  Publish();
}

void LogManager::DrainerLoop() {
  UniqueLock g(mu_);
  while (!stop_) {
    while (!(stop_ || PendingForceLocked() ||
             staged_bytes_ >= gc_.max_batch_bytes)) {
      drain_cv_.wait(g);
    }
    if (stop_) break;
    if (PendingForceLocked() && gc_.max_wait.count() > 0) {
      // Batching window: linger so concurrent committers coalesce into
      // one sync. A size-threshold crossing ends the window early.
      auto deadline = oldest_force_ + gc_.max_wait;
      while (!(stop_ || staged_bytes_ >= gc_.max_batch_bytes) &&
             drain_cv_.wait_until(g, deadline) != std::cv_status::timeout) {
      }
      if (stop_) break;
    }
    const uint64_t group = force_waiters_;
    const bool need_sync = PendingForceLocked();
    g.Unlock();
    Publish();
    if (need_sync) device_->Sync();
    g.Lock();
    if (need_sync) {
      synced_ = device_->synced_size();
      stats_.forces++;
      stats_.group_commit_batches++;
      stats_.group_commit_commits += group;
      durable_cv_.notify_all();
    }
  }
}

StatusOr<LogRecord> LogManager::Read(Lsn lsn) const {
  if (lsn < first_lsn()) {
    return Status::InvalidArgument("lsn before start of log");
  }
  EnsureReadable(lsn + 4);
  char len_buf[4];
  SPF_RETURN_IF_ERROR(device_->ReadAt(lsn, 4, len_buf));
  uint32_t total = DecodeFixed32(len_buf);
  if (total < kLogRecordHeaderSize || total > kMaxRecordBytes) {
    return Status::Corruption("implausible log record length");
  }
  std::string buf(total, '\0');
  EncodeFixed32(buf.data(), total);
  // Continue the read sequentially for the rest of the record. Records are
  // staged whole, so a readable header implies a readable body.
  SPF_RETURN_IF_ERROR(device_->ReadAt(lsn + 4, total - 4, buf.data() + 4));
  SPF_ASSIGN_OR_RETURN(LogRecord rec, ParseLogRecord(buf));
  rec.lsn = lsn;
  {
    MutexLock g(mu_);
    stats_.records_read++;
  }
  return rec;
}

Lsn LogManager::tail_lsn() const {
  MutexLock g(mu_);
  return next_lsn_;
}

Lsn LogManager::durable_lsn() const { return device_->synced_size(); }

void LogManager::SetMasterRecord(Lsn checkpoint_begin_lsn) {
  MutexLock g(mu_);
  master_record_ = checkpoint_begin_lsn;
}

Lsn LogManager::GetMasterRecord() const {
  MutexLock g(mu_);
  return master_record_;
}

void LogManager::AdvanceTruncationWatermark(Lsn lsn) {
  MutexLock g(mu_);
  if (lsn <= truncation_watermark_) return;
  truncation_watermark_ = lsn;
  stats_.truncated_log_bytes =
      lsn > kLogFileHeaderSize ? lsn - kLogFileHeaderSize : 0;
}

Lsn LogManager::truncation_watermark() const {
  MutexLock g(mu_);
  return truncation_watermark_;
}

LogStats LogManager::stats() const {
  MutexLock g(mu_);
  return stats_;
}

void LogManager::ResetStats() {
  MutexLock g(mu_);
  stats_ = LogStats();
}

// ---------------------------------------------------------------------------

LogManager::Iterator::Iterator(const LogManager* log, Lsn start, Lsn end)
    : log_(log), pos_(start), end_(end) {
  ReadCurrent();
}

LogManager::Iterator::~Iterator() { PublishReads(); }

void LogManager::Iterator::PublishReads() {
  if (reads_ == 0) return;
  MutexLock g(log_->mu_);
  log_->stats_.records_read += reads_;
  reads_ = 0;
}

void LogManager::Iterator::ReadCurrent() {
  // Records are parsed out of one window of sequential log bytes, so a
  // scan costs one device read per window rather than two per record.
  valid_ = false;
  if (pos_ < end_ && pos_ >= log_->first_lsn() && Cover(4)) {
    const uint32_t total =
        DecodeFixed32(window_.get() + (pos_ - window_start_));
    // A truncated or corrupt tail record terminates the scan.
    if (total >= kLogRecordHeaderSize && total <= kMaxRecordBytes &&
        Cover(total)) {
      raw_ = std::string_view(window_.get() + (pos_ - window_start_), total);
      valid_ = ParseLogRecord(raw_, &rec_).ok();
    }
  }
  if (!valid_) {
    PublishReads();
    return;
  }
  rec_.lsn = pos_;
  reads_++;
}

bool LogManager::Iterator::Cover(uint64_t n) {
  const uint64_t have_end = window_start_ + window_len_;
  if (pos_ >= window_start_ && pos_ + n <= have_end) return true;
  // Keep the unparsed tail and read on from where the last read ended,
  // so the device sees one sequential stream.
  const uint64_t kept =
      pos_ >= window_start_ && pos_ < have_end ? have_end - pos_ : 0;
  const uint64_t from = pos_ + kept;
  // Never read past `end`: that would publish staged records early. A
  // record that straddles `end` is still read whole, as Read() would.
  const uint64_t limit = std::min(end_, log_->tail_lsn());
  uint64_t len = limit > from ? std::min(kWindowBytes, limit - from) : 0;
  len = std::max(len, pos_ + n - from);
  const char* tail =
      kept > 0 ? window_.get() + (pos_ - window_start_) : nullptr;
  if (kept + len > window_cap_) {
    // The buffer is left uninitialised: the read below overwrites it. It
    // grows at most twice in a scan, unless a record outgrows a window.
    window_cap_ = std::max(kept + len, 2 * window_cap_);
    std::unique_ptr<char[]> grown(new char[window_cap_]);
    if (kept > 0) std::memcpy(grown.get(), tail, kept);
    window_ = std::move(grown);
  } else if (kept > 0) {
    std::memmove(window_.get(), tail, kept);
  }
  window_start_ = pos_;
  window_len_ = kept;
  if (!log_->ReadRaw(from, len, window_.get() + kept).ok()) return false;
  window_len_ = kept + len;
  return true;
}

void LogManager::Iterator::Next() {
  SPF_CHECK(valid_);
  pos_ += rec_.length;
  ReadCurrent();
}

LogManager::Iterator LogManager::Scan(Lsn start, Lsn end) const {
  return Iterator(this, start, end == kInvalidLsn ? tail_lsn() : end);
}

Status LogManager::ReadRaw(uint64_t offset, uint64_t n, char* out) const {
  EnsureReadable(offset + n);
  return device_->ReadAt(offset, n, out);
}

// ---------------------------------------------------------------------------

LogSegmentReader::LogSegmentReader(const LogManager* log,
                                   uint64_t segment_bytes)
    : log_(log), segment_bytes_(std::max<uint64_t>(segment_bytes, 4096)) {}

Status LogSegmentReader::Fetch(uint64_t begin, uint64_t end) {
  uint64_t tail = log_->tail_lsn();
  if (end > tail) {
    return Status::InvalidArgument("log segment read past tail");
  }
  // Place the window so `end` sits at its high edge: descending chain
  // walks then keep hitting the buffer until they leave the segment.
  uint64_t want = std::max(end - begin, segment_bytes_);
  uint64_t start = end >= want ? end - want : 0;
  start = std::min(start, begin);
  uint64_t len = std::min(tail, start + want) - start;
  buf_.resize(len);
  SPF_RETURN_IF_ERROR(log_->ReadRaw(start, len, buf_.data()));
  buf_start_ = start;
  segment_fetches_++;
  return Status::OK();
}

StatusOr<LogRecord> LogSegmentReader::Read(Lsn lsn) {
  if (lsn < log_->first_lsn()) {
    return Status::InvalidArgument("lsn before start of log");
  }
  if (lsn < buf_start_ || lsn + 4 > buf_start_ + buf_.size()) {
    // Extend the window a typical record's length past `lsn` so the whole
    // record usually lands in this one fetch (the refetch below is then
    // only for records longer than the peek).
    uint64_t peek = std::min<uint64_t>(kRecordPeekBytes, segment_bytes_);
    uint64_t end = std::min(log_->tail_lsn(), lsn + peek);
    if (end < lsn + 4) {
      return Status::InvalidArgument("log segment read past tail");
    }
    SPF_RETURN_IF_ERROR(Fetch(lsn, end));
  }
  uint32_t total = DecodeFixed32(buf_.data() + (lsn - buf_start_));
  if (total < kLogRecordHeaderSize || total > kMaxRecordBytes) {
    return Status::Corruption("implausible log record length");
  }
  if (lsn + total > buf_start_ + buf_.size()) {
    SPF_RETURN_IF_ERROR(Fetch(lsn, lsn + total));
  }
  SPF_ASSIGN_OR_RETURN(
      LogRecord rec,
      ParseLogRecord(std::string_view(buf_.data() + (lsn - buf_start_), total)));
  rec.lsn = lsn;
  records_served_++;
  return rec;
}

}  // namespace spf
