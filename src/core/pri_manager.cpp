#include "core/pri_manager.h"

#include <cstring>

#include "common/coding.h"

namespace spf {

// --- layout ---------------------------------------------------------------------

PriLayout PriLayout::Compute(uint64_t num_pages) {
  PriLayout l;
  l.num_pages = num_pages;
  l.num_windows = (num_pages + kPriEntriesPerWindow - 1) / kPriEntriesPerWindow;
  l.lower_windows = l.num_windows / 2;
  uint64_t upper_windows = l.num_windows - l.lower_windows;
  // Partition A at low addresses (after the meta page) covers the upper
  // windows; partition B at the device tail covers the lower windows.
  l.pri_a_start = 1;
  l.pri_a_pages = upper_windows;
  l.pri_b_pages = l.lower_windows;
  l.pri_b_start = num_pages - l.lower_windows;
  return l;
}

PageId PriLayout::PriPageOfWindow(uint64_t w) const {
  SPF_CHECK_LT(w, num_windows);
  if (w < lower_windows) return pri_b_start + w;
  return pri_a_start + (w - lower_windows);
}

uint64_t PriLayout::WindowOfPriPage(PageId pid) const {
  if (pid >= pri_b_start && pid < pri_b_start + pri_b_pages) {
    return pid - pri_b_start;
  }
  SPF_CHECK(pid >= pri_a_start && pid < pri_a_start + pri_a_pages)
      << "page " << pid << " is not a PRI page";
  return (pid - pri_a_start) + lower_windows;
}

bool PriLayout::IsPriPage(PageId pid) const {
  return (pid >= pri_a_start && pid < pri_a_start + pri_a_pages) ||
         (pid >= pri_b_start && pid < pri_b_start + pri_b_pages);
}

// --- PriManager -------------------------------------------------------------------

PriManager::PriManager(PriLayout layout, WriteTrackingMode mode,
                       BackupPolicy policy, PageRecoveryIndex* pri,
                       LogManager* log, TxnManager* txns,
                       BackupManager* backups, SimDevice* data_device)
    : layout_(layout),
      mode_(mode),
      policy_(policy),
      pri_(pri),
      log_(log),
      txns_(txns),
      backups_(backups),
      data_device_(data_device),
      page_size_(data_device->page_size()),
      pri_page_lsns_(layout.num_windows, kInvalidLsn) {}

void PriManager::LogAndApplyPriUpdate(PageId data_page_id, Lsn page_lsn,
                                      bool has_backup, BackupRef backup) {
  uint64_t window = PageRecoveryIndex::WindowOf(data_page_id);
  PageId pri_page = layout_.PriPageOfWindow(window);

  // One system-transaction record, not forced (section 5.2.4: "it could be
  // treated as a system transaction, which does not require forcing the
  // log upon commit"). We log the single PriUpdate record directly with
  // the system flag; begin/commit records would add no information.
  LogRecord rec;
  rec.type = LogRecordType::kPriUpdate;
  rec.flags = kLogFlagSystemTxn;
  rec.page_id = pri_page;
  PriUpdateBody body;
  body.data_page_id = data_page_id;
  body.page_lsn = page_lsn;
  body.has_backup = has_backup;
  body.backup = backup;
  rec.body = EncodePriUpdate(body);
  {
    MutexLock g(mu_);
    rec.page_prev_lsn = pri_page_lsns_[window];  // PRI page's own chain
    Lsn lsn = log_->Append(&rec);
    pri_page_lsns_[window] = lsn;
    stats_.pri_updates_logged++;
  }
  if (has_backup) {
    pri_->RecordBackup(data_page_id, backup);
    if (page_lsn != kInvalidLsn) {
      // The page has been updated up to page_lsn and the backup reflects
      // exactly that state: last_lsn stays invalid (clean vs. backup).
    }
  } else {
    pri_->RecordWrite(data_page_id, page_lsn);
  }
}

bool PriManager::OnPageWritten(PageId id, Lsn page_lsn, uint32_t update_count,
                               const char* page_data) {
  switch (mode_) {
    case WriteTrackingMode::kNone:
      return false;
    case WriteTrackingMode::kCompletedWrites: {
      // Baseline (section 5.1.2): log the completed write; no PRI, no
      // backups.
      LogRecord rec;
      rec.type = LogRecordType::kPageWriteCompleted;
      rec.flags = kLogFlagSystemTxn;
      rec.page_id = id;
      std::string body;
      PutFixed64(&body, page_lsn);
      rec.body = body;
      log_->Append(&rec);
      MutexLock g(mu_);
      stats_.completed_write_records++;
      return false;
    }
    case WriteTrackingMode::kPri:
      break;
  }

  // Backup policy: take a per-page copy when the update counter crossed
  // the threshold (section 6).
  bool take_backup =
      policy_.updates_threshold > 0 && update_count >= policy_.updates_threshold;
  if (take_backup) {
    BackupRef ref;
    if (policy_.use_in_log_images) {
      auto lsn_or = backups_->LogPageImage(id, page_data);
      if (lsn_or.ok()) {
        ref = {BackupKind::kLogImage, *lsn_or};
      } else {
        take_backup = false;
      }
    } else {
      auto slot_or = backups_->TakePageBackup(id, page_data);
      if (slot_or.ok()) {
        ref = {BackupKind::kBackupPage, *slot_or};
      } else {
        take_backup = false;
      }
    }
    if (take_backup) {
      LogAndApplyPriUpdate(id, page_lsn, /*has_backup=*/true, ref);
      MutexLock g(mu_);
      stats_.page_backups_triggered++;
      return true;
    }
  }
  LogAndApplyPriUpdate(id, page_lsn, /*has_backup=*/false, BackupRef());
  return false;
}

Status PriManager::ForcePageBackup(PageId id, const char* page_data,
                                   Lsn page_lsn) {
  SPF_ASSIGN_OR_RETURN(PageId slot, backups_->TakePageBackup(id, page_data));
  LogAndApplyPriUpdate(id, page_lsn, /*has_backup=*/true,
                       {BackupKind::kBackupPage, slot});
  MutexLock g(mu_);
  stats_.page_backups_triggered++;
  return Status::OK();
}

void PriManager::OnFullBackup(BackupId id) { pri_->RecordFullBackup(id); }

void PriManager::RecordLostWrite(PageId id, Lsn page_lsn) {
  LogAndApplyPriUpdate(id, page_lsn, /*has_backup=*/false, BackupRef());
}

void PriManager::BuildPriPageImage(uint64_t window, char* out) {
  PageId pid = layout_.PriPageOfWindow(window);
  PageView page(out, page_size_);
  page.Format(pid, PageType::kPri);
  {
    MutexLock g(mu_);
    page.set_page_lsn(pri_page_lsns_[window]);
  }
  std::string payload = pri_->SerializeWindow(window);
  SPF_CHECK_LE(payload.size() + kPageHeaderSize + 4, page_size_)
      << "PRI window overflows its page";
  EncodeFixed32(out + kPageHeaderSize, static_cast<uint32_t>(payload.size()));
  std::memcpy(out + kPageHeaderSize + 4, payload.data(), payload.size());
  page.UpdateChecksum();
}

Status PriManager::WriteDirtyWindows() {
  if (mode_ != WriteTrackingMode::kPri) return Status::OK();
  std::vector<uint64_t> dirty = pri_->DirtyWindows();  // snapshot (5.2.6)
  std::vector<char> buf(page_size_);
  for (uint64_t w : dirty) {
    PageId pid = layout_.PriPageOfWindow(w);
    BuildPriPageImage(w, buf.data());
    // WAL: the newest PriUpdate reflected in this image must be durable
    // before the page overwrites its previous version.
    Lsn head;
    {
      MutexLock g(mu_);
      head = pri_page_lsns_[w];
    }
    if (head != kInvalidLsn) log_->Force(head);
    SPF_RETURN_IF_ERROR(data_device_->WritePage(pid, buf.data()));
    pri_->ClearDirtyWindow(w);
    {
      MutexLock g(mu_);
      stats_.pri_pages_written++;
    }
    // Backup for the PRI page itself: an in-log image, referenced by the
    // covering entry in the OTHER partition.
    SPF_ASSIGN_OR_RETURN(Lsn image_lsn, backups_->LogPageImage(pid, buf.data()));
    LogAndApplyPriUpdate(pid, head, /*has_backup=*/true,
                         {BackupKind::kLogImage, image_lsn});
  }
  return Status::OK();
}

Status PriManager::LoadAllWindows() {
  std::vector<char> buf(page_size_);
  std::vector<uint64_t> failed;
  for (uint64_t w = 0; w < layout_.num_windows; ++w) {
    PageId pid = layout_.PriPageOfWindow(w);
    Status s = data_device_->ReadPage(pid, buf.data());
    if (s.ok()) {
      PageView page(buf.data(), page_size_);
      s = page.Verify(pid);
      if (s.ok() && page.type() != PageType::kPri) {
        // A fresh database has zeroed PRI pages; treat as empty windows.
        if (page.header()->magic == 0) {
          continue;
        }
        s = Status::Corruption("expected a PRI page");
      }
    }
    if (!s.ok()) {
      if (s.IsSinglePageFailureCandidate()) {
        failed.push_back(w);
        continue;
      }
      // Zeroed never-written page: empty window.
      PageView page(buf.data(), page_size_);
      if (s.IsCorruption() || page.header()->magic == 0) {
        failed.push_back(w);
        continue;
      }
      return s;
    }
    PageView page(buf.data(), page_size_);
    uint32_t len = DecodeFixed32(buf.data() + kPageHeaderSize);
    Status ds = pri_->DeserializeWindow(
        w, std::string_view(buf.data() + kPageHeaderSize + 4, len));
    if (!ds.ok()) {
      failed.push_back(w);
      continue;
    }
    MutexLock g(mu_);
    pri_page_lsns_[w] = page.page_lsn();
  }
  // Recover failed PRI pages from the other partition now that intact
  // windows are loaded.
  for (uint64_t w : failed) {
    Status s = RecoverPriWindow(w);
    if (!s.ok()) {
      // A never-written window on a fresh database is fine; a window
      // whose covering entry exists but cannot be recovered is not.
      if (s.IsNotFound()) continue;
      return s;
    }
  }
  return Status::OK();
}

Status PriManager::RecoverPriWindow(uint64_t window) {
  PageId pid = layout_.PriPageOfWindow(window);
  // The covering entry lives in the other partition (invariant P2).
  auto entry_or = pri_->Lookup(pid);
  if (!entry_or.ok()) return entry_or.status();
  const PriEntry& entry = *entry_or;
  if (entry.backup.kind != BackupKind::kLogImage) {
    return Status::MediaFailure("PRI page backup is not an in-log image");
  }
  std::vector<char> buf(page_size_);
  SPF_RETURN_IF_ERROR(backups_->ReadLogImage(entry.backup.value, pid, buf.data()));
  PageView page(buf.data(), page_size_);
  SPF_RETURN_IF_ERROR(page.Verify(pid));

  // Deserialize the image, then roll forward along the PRI page's own
  // per-page chain of PriUpdate records (newest-first via a LIFO stack,
  // exactly the Figure 10 procedure).
  uint32_t len = DecodeFixed32(buf.data() + kPageHeaderSize);
  SPF_RETURN_IF_ERROR(pri_->DeserializeWindow(
      window, std::string_view(buf.data() + kPageHeaderSize + 4, len)));

  Lsn image_lsn = page.page_lsn();
  Lsn target = entry.last_lsn != kInvalidLsn ? entry.last_lsn : image_lsn;
  std::vector<LogRecord> stack;
  Lsn cur = target;
  while (cur != kInvalidLsn && cur > image_lsn) {
    SPF_ASSIGN_OR_RETURN(LogRecord rec, log_->Read(cur));
    if (rec.type != LogRecordType::kPriUpdate || rec.page_id != pid) {
      return Status::Corruption("PRI page chain contains foreign record");
    }
    stack.push_back(rec);
    cur = rec.page_prev_lsn;
  }
  Lsn head = image_lsn;
  while (!stack.empty()) {
    LogRecord rec = std::move(stack.back());
    stack.pop_back();
    SPF_ASSIGN_OR_RETURN(PriUpdateBody body, DecodePriUpdate(rec.body));
    if (body.has_backup) {
      pri_->RecordBackup(body.data_page_id, body.backup);
    } else {
      pri_->RecordWrite(body.data_page_id, body.page_lsn);
    }
    head = rec.lsn;
  }
  {
    MutexLock g(mu_);
    pri_page_lsns_[window] = head;
    stats_.pri_pages_recovered++;
  }
  return Status::OK();
}

void PriManager::ApplyPriUpdate(PageId pri_page, Lsn lsn,
                                const PriUpdateBody& body) {
  if (body.has_backup) {
    pri_->RecordBackup(body.data_page_id, body.backup);
  } else {
    pri_->RecordWrite(body.data_page_id, body.page_lsn);
  }
  uint64_t window = layout_.WindowOfPriPage(pri_page);
  MutexLock g(mu_);
  if (lsn > pri_page_lsns_[window]) pri_page_lsns_[window] = lsn;
}

PriManagerStats PriManager::stats() const {
  MutexLock g(mu_);
  return stats_;
}

Lsn PriManager::pri_page_lsn(uint64_t window) const {
  MutexLock g(mu_);
  return pri_page_lsns_[window];
}

}  // namespace spf
