#include "log/log_archive.h"

#include <algorithm>
#include <chrono>
#include <queue>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"

namespace spf {

namespace {

constexpr char kDirectoryMagic[8] = {'S', 'P', 'F', 'A', 'R', 'C', 'H', 'V'};
constexpr char kRunMagic[8] = {'S', 'P', 'F', 'A', 'R', 'U', 'N', '1'};

// Directory page: magic, epoch, archived_upto, next_seq, run_count,
// run_count * {start_page u64, data_pages u32}, crc32c of everything before.
constexpr size_t kDirectoryFixedBytes = 8 + 8 + 8 + 8 + 4;
constexpr size_t kDirectoryRunBytes = 8 + 4;

// Run header page: magic, seq, level, data_pages, data_bytes, record_count,
// min/max page id, min/max lsn, log_start, log_end, data_crc, fence_count,
// fence_count * {page_id u64, lsn u64, offset u64}, crc32c of everything
// before.
constexpr size_t kRunHeaderFixedBytes =
    8 + 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 4 + 4;
constexpr size_t kFenceBytes = 8 + 8 + 8;

// Per-entry framing within a run's data stream: [u64 lsn][u32 payload len].
constexpr uint64_t kEntryFrameBytes = 12;

// Byte offset of page_id within LogRecord::Serialize() output (length, crc,
// type, flags, pad, txn_id, prev_lsn precede it); lets the raw-entry walk
// partition by page without paying a full parse + CRC per skipped entry.
constexpr size_t kPayloadPageIdOffset = 4 + 4 + 1 + 1 + 2 + 8 + 8;
static_assert(kPayloadPageIdOffset + 8 <= kLogRecordHeaderSize,
              "page_id must sit inside the fixed record header");

bool EntryBefore(PageId a_page, Lsn a_lsn, PageId b_page, Lsn b_lsn) {
  return a_page != b_page ? a_page < b_page : a_lsn < b_lsn;
}

}  // namespace

LogArchiver::LogArchiver(SimDevice* archive_device, LogManager* log,
                         ArchiverOptions options)
    : device_(archive_device), log_(log), options_(options) {
  SPF_CHECK_GE(options_.merge_fanin, 2u) << "merge fan-in below 2";
  SPF_CHECK_GT(device_->num_pages(), kDirectoryPages + 2)
      << "archive volume too small for a directory and one run";
}

LogArchiver::~LogArchiver() { Stop(); }

uint64_t LogArchiver::max_fences() const {
  return (device_->page_size() - kRunHeaderFixedBytes - 4) / kFenceBytes;
}

// --- Directory ------------------------------------------------------------

std::string LogArchiver::EncodeDirectoryLocked() const {
  std::string buf;
  buf.append(kDirectoryMagic, 8);
  PutFixed64(&buf, epoch_);
  PutFixed64(&buf, archived_upto_);
  PutFixed64(&buf, next_seq_);
  PutFixed32(&buf, static_cast<uint32_t>(runs_.size()));
  for (const Run& r : runs_) {
    PutFixed64(&buf, r.info.start_page);
    PutFixed32(&buf, r.info.data_pages);
  }
  PutFixed32(&buf, crc32c::Value(buf.data(), buf.size()));
  return buf;
}

Status LogArchiver::PublishDirectoryLocked() {
  epoch_++;
  std::string buf = EncodeDirectoryLocked();
  if (buf.size() > device_->page_size()) {
    epoch_--;
    return Status::IOError("archive directory full (too many runs)");
  }
  buf.resize(device_->page_size(), '\0');
  return device_->WritePage(epoch_ % kDirectoryPages, buf.data());
}

Status LogArchiver::LoadRunHeader(uint64_t start_page, Run* run) const {
  const uint32_t ps = device_->page_size();
  std::string buf(ps, '\0');
  SPF_RETURN_IF_ERROR(
      device_->ReadPage(static_cast<PageId>(start_page), buf.data()));
  if (std::memcmp(buf.data(), kRunMagic, 8) != 0) {
    return Status::Corruption("archive run header magic mismatch");
  }
  std::string_view sv(buf);
  size_t off = 8;
  ArchiveRunInfo& info = run->info;
  info.start_page = start_page;
  uint32_t fence_count = 0;
  if (!GetFixed64(sv, &off, &info.seq) || !GetFixed32(sv, &off, &info.level) ||
      !GetFixed32(sv, &off, &info.data_pages) ||
      !GetFixed64(sv, &off, &info.data_bytes) ||
      !GetFixed64(sv, &off, &info.record_count) ||
      !GetFixed64(sv, &off, &info.min_page_id) ||
      !GetFixed64(sv, &off, &info.max_page_id) ||
      !GetFixed64(sv, &off, &info.min_lsn) ||
      !GetFixed64(sv, &off, &info.max_lsn) ||
      !GetFixed64(sv, &off, &info.log_start) ||
      !GetFixed64(sv, &off, &info.log_end)) {
    return Status::Corruption("archive run header truncated");
  }
  uint32_t data_crc = 0;
  if (!GetFixed32(sv, &off, &data_crc) || !GetFixed32(sv, &off, &fence_count)) {
    return Status::Corruption("archive run header truncated");
  }
  (void)data_crc;  // verified lazily by the offline fsck, not on load
  run->fences.clear();
  run->fences.reserve(fence_count);
  for (uint32_t i = 0; i < fence_count; ++i) {
    Fence f;
    if (!GetFixed64(sv, &off, &f.page_id) || !GetFixed64(sv, &off, &f.lsn) ||
        !GetFixed64(sv, &off, &f.offset)) {
      return Status::Corruption("archive run fence list truncated");
    }
    run->fences.push_back(f);
  }
  uint32_t stored_crc = 0;
  size_t crc_off = off;
  if (!GetFixed32(sv, &off, &stored_crc) ||
      stored_crc != crc32c::Value(buf.data(), crc_off)) {
    return Status::Corruption("archive run header checksum mismatch");
  }
  if (start_page + 1 + info.data_pages > device_->num_pages()) {
    return Status::Corruption("archive run extent past end of volume");
  }
  return Status::OK();
}

Status LogArchiver::Recover() {
  MutexLock tick(tick_mu_);
  WriterLock io(io_mu_);
  const uint32_t ps = device_->page_size();
  std::string best;
  uint64_t best_epoch = 0;
  bool any_magic = false;
  for (uint64_t p = 0; p < kDirectoryPages; ++p) {
    std::string buf(ps, '\0');
    SPF_RETURN_IF_ERROR(device_->ReadPage(static_cast<PageId>(p), buf.data()));
    if (std::memcmp(buf.data(), kDirectoryMagic, 8) != 0) continue;
    any_magic = true;
    size_t off = 8;
    uint64_t epoch = 0, upto = 0, next_seq = 0;
    uint32_t count = 0;
    std::string_view sv(buf);
    if (!GetFixed64(sv, &off, &epoch) || !GetFixed64(sv, &off, &upto) ||
        !GetFixed64(sv, &off, &next_seq) || !GetFixed32(sv, &off, &count)) {
      continue;
    }
    size_t end = kDirectoryFixedBytes + count * kDirectoryRunBytes;
    if (end + 4 > ps) continue;
    uint32_t stored = DecodeFixed32(buf.data() + end);
    if (stored != crc32c::Value(buf.data(), end)) continue;
    if (epoch >= best_epoch) {
      best_epoch = epoch;
      best = buf;
    }
  }
  if (best.empty()) {
    if (any_magic) {
      return Status::Corruption("archive directory unreadable in both epochs");
    }
    // Fresh volume: empty archive.
    MutexLock g(mu_);
    runs_.clear();
    archived_upto_ = 0;
    epoch_ = 0;
    next_seq_ = 1;
    return Status::OK();
  }
  std::string_view sv(best);
  size_t off = 8;
  uint64_t epoch = 0, upto = 0, next_seq = 0;
  uint32_t count = 0;
  GetFixed64(sv, &off, &epoch);
  GetFixed64(sv, &off, &upto);
  GetFixed64(sv, &off, &next_seq);
  GetFixed32(sv, &off, &count);
  std::vector<Run> runs(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t start_page = 0;
    uint32_t data_pages = 0;
    GetFixed64(sv, &off, &start_page);
    GetFixed32(sv, &off, &data_pages);
    SPF_RETURN_IF_ERROR(LoadRunHeader(start_page, &runs[i]));
    if (runs[i].info.data_pages != data_pages) {
      return Status::Corruption("archive directory/run extent size mismatch");
    }
  }
  MutexLock g(mu_);
  runs_ = std::move(runs);
  archived_upto_ = upto;
  epoch_ = epoch;
  next_seq_ = next_seq;
  return Status::OK();
}

// --- Run writing ----------------------------------------------------------

StatusOr<uint64_t> LogArchiver::AllocateExtentLocked(uint64_t pages) const {
  std::vector<std::pair<uint64_t, uint64_t>> used;  // {start, length}
  used.reserve(runs_.size());
  for (const Run& r : runs_) {
    used.emplace_back(r.info.start_page, 1 + r.info.data_pages);
  }
  std::sort(used.begin(), used.end());
  uint64_t cursor = kDirectoryPages;
  for (const auto& [start, len] : used) {
    if (start >= cursor + pages) break;  // gap fits
    cursor = std::max(cursor, start + len);
  }
  if (cursor + pages > device_->num_pages()) {
    return Status::IOError("archive volume full");
  }
  return cursor;
}

Status LogArchiver::WriteRun(std::vector<Entry>* entries, uint32_t level,
                             Lsn log_start, Lsn log_end, Run* out) {
  const uint32_t ps = device_->page_size();
  ArchiveRunInfo& info = out->info;
  info.level = level;
  info.log_start = log_start;
  info.log_end = log_end;
  info.record_count = entries->size();

  // Flatten the sorted entries into the data stream, fencing every
  // `stride` entries so a positioned read lands at most stride entries
  // before its page of interest.
  std::string stream;
  out->fences.clear();
  const uint64_t total = entries->size();
  const uint64_t stride =
      total == 0 ? 1 : (total + max_fences() - 1) / max_fences();
  for (uint64_t i = 0; i < total; ++i) {
    Entry& e = (*entries)[i];
    if (i > 0) {
      const Entry& prev = (*entries)[i - 1];
      SPF_CHECK(EntryBefore(prev.page_id, prev.lsn, e.page_id, e.lsn))
          << "archive run entries out of order";
    }
    if (i % stride == 0) {
      out->fences.push_back(Fence{e.page_id, e.lsn, stream.size()});
    }
    PutFixed64(&stream, e.lsn);
    PutFixed32(&stream, static_cast<uint32_t>(e.payload.size()));
    stream.append(e.payload);
  }
  info.data_bytes = stream.size();
  info.data_pages = static_cast<uint32_t>((stream.size() + ps - 1) / ps);
  if (total > 0) {
    info.min_page_id = entries->front().page_id;
    info.max_page_id = entries->back().page_id;
    auto [lo, hi] = std::minmax_element(
        entries->begin(), entries->end(),
        [](const Entry& a, const Entry& b) { return a.lsn < b.lsn; });
    info.min_lsn = lo->lsn;
    info.max_lsn = hi->lsn;
  } else {
    info.min_page_id = info.max_page_id = kInvalidPageId;
    info.min_lsn = info.max_lsn = kInvalidLsn;
  }

  uint64_t start_page;
  {
    MutexLock g(mu_);
    SPF_ASSIGN_OR_RETURN(start_page,
                         AllocateExtentLocked(1 + info.data_pages));
    info.seq = next_seq_++;
  }
  info.start_page = start_page;

  // Data pages first, header last (the directory publish that makes the
  // run reachable happens after WriteRun returns).
  std::string page(ps, '\0');
  for (uint32_t p = 0; p < info.data_pages; ++p) {
    const uint64_t off = static_cast<uint64_t>(p) * ps;
    const uint64_t n = std::min<uint64_t>(ps, stream.size() - off);
    std::memcpy(page.data(), stream.data() + off, n);
    std::memset(page.data() + n, 0, ps - n);
    SPF_RETURN_IF_ERROR(device_->WritePage(
        static_cast<PageId>(start_page + 1 + p), page.data()));
  }

  std::string hdr;
  hdr.append(kRunMagic, 8);
  PutFixed64(&hdr, info.seq);
  PutFixed32(&hdr, info.level);
  PutFixed32(&hdr, info.data_pages);
  PutFixed64(&hdr, info.data_bytes);
  PutFixed64(&hdr, info.record_count);
  PutFixed64(&hdr, info.min_page_id);
  PutFixed64(&hdr, info.max_page_id);
  PutFixed64(&hdr, info.min_lsn);
  PutFixed64(&hdr, info.max_lsn);
  PutFixed64(&hdr, info.log_start);
  PutFixed64(&hdr, info.log_end);
  PutFixed32(&hdr, crc32c::Value(stream.data(), stream.size()));
  PutFixed32(&hdr, static_cast<uint32_t>(out->fences.size()));
  for (const Fence& f : out->fences) {
    PutFixed64(&hdr, f.page_id);
    PutFixed64(&hdr, f.lsn);
    PutFixed64(&hdr, f.offset);
  }
  PutFixed32(&hdr, crc32c::Value(hdr.data(), hdr.size()));
  SPF_CHECK_LE(hdr.size(), ps) << "archive run header overflows its page";
  hdr.resize(ps, '\0');
  return device_->WritePage(static_cast<PageId>(start_page), hdr.data());
}

// --- Run reading ----------------------------------------------------------

Status LogArchiver::ForEachRawEntry(
    const Run& run, uint64_t start_offset,
    const std::function<bool(PageId, Lsn, std::string_view)>& fn,
    uint64_t* pages_read) const {
  if (run.info.data_bytes == 0) return Status::OK();
  const uint32_t ps = device_->page_size();
  const uint64_t first_page = start_offset / ps;
  const uint64_t base = first_page * static_cast<uint64_t>(ps);
  std::string buf;
  uint64_t loaded = first_page;  // page index one past the last loaded page
  std::string page(ps, '\0');
  auto ensure = [&](uint64_t stream_end) -> Status {
    while (loaded * static_cast<uint64_t>(ps) < stream_end) {
      if (loaded >= run.info.data_pages) {
        return Status::Corruption("archive run data truncated");
      }
      SPF_RETURN_IF_ERROR(device_->ReadPage(
          static_cast<PageId>(run.info.start_page + 1 + loaded), page.data()));
      buf.append(page);
      ++loaded;
      ++*pages_read;
    }
    return Status::OK();
  };
  uint64_t off = start_offset;
  while (off < run.info.data_bytes) {
    SPF_RETURN_IF_ERROR(ensure(off + kEntryFrameBytes));
    const Lsn lsn = DecodeFixed64(buf.data() + (off - base));
    const uint32_t len = DecodeFixed32(buf.data() + (off - base) + 8);
    if (len < kLogRecordHeaderSize ||
        off + kEntryFrameBytes + len > run.info.data_bytes) {
      return Status::Corruption("archive entry overruns its run");
    }
    SPF_RETURN_IF_ERROR(ensure(off + kEntryFrameBytes + len));
    std::string_view payload(buf.data() + (off - base) + kEntryFrameBytes,
                             len);
    const PageId pid = DecodeFixed64(payload.data() + kPayloadPageIdOffset);
    if (!fn(pid, lsn, payload)) return Status::OK();
    off += kEntryFrameBytes + len;
  }
  return Status::OK();
}

StatusOr<uint64_t> LogArchiver::StreamRun(
    const Run& run, PageId lo, PageId hi, Lsn min_lsn_exclusive,
    const std::function<void(LogRecord&&)>& emit) const {
  if (run.info.record_count == 0) return 0;
  if (run.info.max_page_id < lo || run.info.min_page_id > hi) return 0;
  // Seek to the last fence at or before (lo, min_lsn_exclusive); the scan
  // then reads forward sequentially.
  uint64_t start = 0;
  for (const Fence& f : run.fences) {
    if (f.page_id < lo || (f.page_id == lo && f.lsn <= min_lsn_exclusive)) {
      start = f.offset;
    } else {
      break;
    }
  }
  uint64_t pages = 0;
  Status parse_error = Status::OK();
  SPF_RETURN_IF_ERROR(ForEachRawEntry(
      run, start,
      [&](PageId pid, Lsn lsn, std::string_view payload) {
        if (pid > hi) return false;  // sorted by page id: nothing further
        if (pid < lo || lsn <= min_lsn_exclusive) return true;
        auto rec_or = ParseLogRecord(payload);
        if (!rec_or.ok()) {
          parse_error = rec_or.status();
          return false;
        }
        LogRecord rec = std::move(rec_or).value();
        rec.lsn = lsn;
        emit(std::move(rec));
        return true;
      },
      &pages));
  SPF_RETURN_IF_ERROR(parse_error);
  return pages;
}

StatusOr<uint64_t> LogArchiver::FetchRange(
    PageId lo, PageId hi, Lsn min_lsn_exclusive,
    const std::function<void(LogRecord&&)>& emit) {
  ReaderLock io(io_mu_);
  std::vector<const Run*> hits;
  for (const Run& r : runs_) {
    if (r.info.record_count == 0) continue;
    if (r.info.min_page_id > hi || r.info.max_page_id < lo) continue;
    if (r.info.max_lsn <= min_lsn_exclusive) continue;
    hits.push_back(&r);
  }
  std::sort(hits.begin(), hits.end(), [](const Run* a, const Run* b) {
    return a->info.log_start < b->info.log_start;
  });
  uint64_t pages = 0;
  for (const Run* r : hits) {
    SPF_ASSIGN_OR_RETURN(uint64_t n,
                         StreamRun(*r, lo, hi, min_lsn_exclusive, emit));
    pages += n;
  }
  MutexLock g(mu_);
  stats_.merge_reads += pages;
  return pages;
}

// --- Draining and merging -------------------------------------------------

StatusOr<bool> LogArchiver::ArchiveTick() {
  MutexLock tick(tick_mu_);
  {
    MutexLock g(mu_);
    stats_.ticks++;
  }
  if (paused_ && paused_()) {
    MutexLock g(mu_);
    stats_.restore_skips++;
    return false;
  }
  Lsn from;
  {
    MutexLock g(mu_);
    from = archived_upto_;
  }
  from = std::max(from, log_->first_lsn());
  const Lsn durable = log_->durable_lsn();
  if (from >= durable) return false;

  // Scan the durable tail once, keeping only per-page-chain records.
  std::vector<Entry> entries;
  uint64_t payload_bytes = 0;
  Lsn end = from;
  for (auto it = log_->Scan(from, durable); it.Valid(); it.Next()) {
    const LogRecord& rec = it.record();
    end = rec.lsn + rec.length;
    if (IsPageReplayRecord(rec.type) && rec.page_id != kInvalidPageId) {
      Entry e;
      e.page_id = rec.page_id;
      e.lsn = rec.lsn;
      e.payload = std::string(it.raw());
      payload_bytes += kEntryFrameBytes + e.payload.size();
      entries.push_back(std::move(e));
    }
    if (payload_bytes >= options_.run_bytes) break;
  }
  if (end == from) {
    // A corrupt/torn record below durable would end the scan immediately;
    // the log device guarantees durable bytes, so treat it as corruption
    // rather than spinning forever at the same watermark.
    return Status::Corruption("archiver cannot read the durable log tail");
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return EntryBefore(a.page_id, a.lsn, b.page_id, b.lsn);
                   });

  const uint64_t record_count = entries.size();
  {
    WriterLock io(io_mu_);
    Run run;
    SPF_RETURN_IF_ERROR(WriteRun(&entries, /*level=*/0, from, end, &run));
    if (fail_next_publish_.exchange(false)) {
      // Simulated crash: the run's extent is written but the directory
      // still points at the previous state, so it is unreachable garbage
      // the next successful run write simply reallocates.
      return Status::IOError("archive: injected crash before publish");
    }
    const uint64_t data_bytes = run.info.data_bytes;
    MutexLock g(mu_);
    runs_.push_back(std::move(run));
    archived_upto_ = end;
    SPF_RETURN_IF_ERROR(PublishDirectoryLocked());
    stats_.runs_written++;
    stats_.archived_bytes += data_bytes;
    stats_.records_archived += record_count;
    stats_.tail_scan_bytes += end - from;
  }
  SPF_RETURN_IF_ERROR(MergeLadderLocked());
  AdvanceLogWatermark();
  return true;
}

Status LogArchiver::MergeLadderLocked() {
  for (;;) {
    // Pick the lowest level holding at least merge_fanin runs and its
    // oldest merge_fanin runs by log range. Oldest-prefix merging keeps
    // every level's runs (and the merged output) log-contiguous, which is
    // what preserves the global tiling invariant.
    std::vector<Run> inputs;
    uint32_t level = 0;
    {
      MutexLock g(mu_);
      uint32_t max_level = 0;
      for (const Run& r : runs_) max_level = std::max(max_level, r.info.level);
      bool found = false;
      for (uint32_t l = 0; l <= max_level && !found; ++l) {
        std::vector<const Run*> at;
        for (const Run& r : runs_) {
          if (r.info.level == l) at.push_back(&r);
        }
        if (at.size() >= options_.merge_fanin) {
          std::sort(at.begin(), at.end(), [](const Run* a, const Run* b) {
            return a->info.log_start < b->info.log_start;
          });
          at.resize(options_.merge_fanin);
          for (const Run* r : at) inputs.push_back(*r);
          level = l;
          found = true;
        }
      }
      if (!found) return Status::OK();
    }

    // Load each input's (sorted) entries, then k-way merge by (page, LSN).
    std::vector<std::vector<Entry>> per_input(inputs.size());
    uint64_t pages = 0;
    uint64_t total = 0;
    {
      ReaderLock io(io_mu_);
      for (size_t i = 0; i < inputs.size(); ++i) {
        per_input[i].reserve(inputs[i].info.record_count);
        SPF_RETURN_IF_ERROR(ForEachRawEntry(
            inputs[i], 0,
            [&](PageId pid, Lsn lsn, std::string_view payload) {
              per_input[i].push_back(Entry{pid, lsn, std::string(payload)});
              return true;
            },
            &pages));
        total += per_input[i].size();
      }
    }
    std::vector<Entry> merged;
    merged.reserve(total);
    using Cursor = std::pair<size_t, size_t>;  // {input index, position}
    auto later = [&](const Cursor& a, const Cursor& b) {
      const Entry& ea = per_input[a.first][a.second];
      const Entry& eb = per_input[b.first][b.second];
      return EntryBefore(eb.page_id, eb.lsn, ea.page_id, ea.lsn);
    };
    std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> heap(
        later);
    for (size_t i = 0; i < per_input.size(); ++i) {
      if (!per_input[i].empty()) heap.push({i, 0});
    }
    while (!heap.empty()) {
      auto [i, pos] = heap.top();
      heap.pop();
      merged.push_back(std::move(per_input[i][pos]));
      if (pos + 1 < per_input[i].size()) heap.push({i, pos + 1});
    }

    Lsn log_start = inputs.front().info.log_start;
    Lsn log_end = inputs.front().info.log_end;
    for (const Run& r : inputs) {
      log_start = std::min(log_start, r.info.log_start);
      log_end = std::max(log_end, r.info.log_end);
    }

    {
      WriterLock io(io_mu_);
      Run out;
      Status s = WriteRun(&merged, level + 1, log_start, log_end, &out);
      if (s.IsIOError()) return Status::OK();  // volume full: skip merging
      SPF_RETURN_IF_ERROR(s);
      MutexLock g(mu_);
      for (const Run& in : inputs) {
        runs_.erase(std::remove_if(runs_.begin(), runs_.end(),
                                   [&](const Run& r) {
                                     return r.info.seq == in.info.seq;
                                   }),
                    runs_.end());
      }
      runs_.push_back(std::move(out));
      SPF_RETURN_IF_ERROR(PublishDirectoryLocked());
      stats_.merges++;
      stats_.runs_merged += inputs.size();
      stats_.merge_reads += pages;
    }
  }
}

Status LogArchiver::ArchiveAll() {
  for (;;) {
    if (paused_ && paused_()) return Status::OK();
    SPF_ASSIGN_OR_RETURN(bool advanced, ArchiveTick());
    if (!advanced) return Status::OK();
  }
}

// --- Watermarks, stats, background loop -----------------------------------

void LogArchiver::AdvanceLogWatermark() {
  const Lsn master = log_->GetMasterRecord();
  const Lsn upto = archived_upto();
  const Lsn watermark = std::min(upto, master);
  if (watermark > 0) log_->AdvanceTruncationWatermark(watermark);
}

Lsn LogArchiver::archived_upto() const {
  MutexLock g(mu_);
  return archived_upto_;
}

ArchiveStats LogArchiver::stats() const {
  const Lsn wm = log_->truncation_watermark();
  const Lsn base = log_->first_lsn();
  MutexLock g(mu_);
  ArchiveStats s = stats_;
  s.archived_upto = archived_upto_;
  s.active_runs = runs_.size();
  s.truncated_log_bytes = wm > base ? wm - base : 0;
  return s;
}

std::vector<ArchiveRunInfo> LogArchiver::runs() const {
  MutexLock g(mu_);
  std::vector<ArchiveRunInfo> out;
  out.reserve(runs_.size());
  for (const Run& r : runs_) out.push_back(r.info);
  std::sort(out.begin(), out.end(),
            [](const ArchiveRunInfo& a, const ArchiveRunInfo& b) {
              return a.log_start < b.log_start;
            });
  return out;
}

void LogArchiver::Start() {
  if (running_.exchange(true)) return;
  stop_.store(false);
  thread_ = std::thread(&LogArchiver::BackgroundLoop, this);
}

void LogArchiver::Stop() {
  if (!running_.exchange(false)) return;
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void LogArchiver::BackgroundLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    auto advanced = ArchiveTick();
    // Errors (volume full, injected crash) and empty ticks both back off;
    // the next pass retries from the durable watermark.
    const bool progressed = advanced.ok() && advanced.value();
    uint64_t wait_ms = options_.interval_wall_ms;
    if (!progressed && wait_ms == 0) wait_ms = 1;
    for (uint64_t waited = 0; waited < wait_ms; ++waited) {
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

}  // namespace spf
