#include "core/single_page_recovery.h"

#include <cstring>
#include <vector>

#include "recovery/page_redo.h"

namespace spf {

SinglePageRecovery::SinglePageRecovery(PriManager* pri_manager,
                                       LogManager* log, BackupManager* backups,
                                       SimDevice* data_device, SimClock* clock)
    : pri_manager_(pri_manager),
      log_(log),
      backups_(backups),
      data_device_(data_device),
      clock_(clock),
      page_size_(data_device->page_size()) {}

StatusOr<PriEntry> SinglePageRecovery::LookupEntry(PageId id) const {
  auto entry_or = pri_manager_->pri()->Lookup(id);
  if (!entry_or.ok()) {
    return Status::MediaFailure(
        "page recovery index has no entry for page " + std::to_string(id) +
        ": " + entry_or.status().ToString());
  }
  return *entry_or;
}

StatusOr<PriEntry> SinglePageRecovery::LookupChainAnchor(PageId id) const {
  auto entry_or = pri_manager_->pri()->LookupAnchor(id);
  if (!entry_or.ok()) {
    return Status::MediaFailure(
        "page recovery index has no chain anchor for page " +
        std::to_string(id) + ": " + entry_or.status().ToString());
  }
  return *entry_or;
}

Status SinglePageRecovery::LoadBackupImage(PageId id, const PriEntry& entry,
                                           char* frame,
                                           SinglePageRecoveryStats* acc) {
  switch (entry.backup.kind) {
    case BackupKind::kBackupPage: {
      Status s = backups_->ReadPageBackup(entry.backup.value, frame);
      if (s.ok()) s = PageView(frame, page_size_).Verify(id);
      if (!s.ok()) {
        // The PRI's slot ref is only as durable as the log tail: a crash
        // can lose the PriUpdate that superseded it, leaving the ref
        // pointing at a recycled slot that now holds another page's
        // copy. The backup catalog models stable storage and is
        // authoritative — retry through it. (The catalog's copy is never
        // newer than the restart-reconstructed chain target: write-back
        // forces the log before the copy is taken.)
        PageId slot = backups_->CurrentPageBackupSlot(id);
        if (slot == kInvalidPageId || slot == entry.backup.value) return s;
        SPF_RETURN_IF_ERROR(backups_->ReadPageBackup(slot, frame));
        PageView page(frame, page_size_);
        SPF_RETURN_IF_ERROR(page.Verify(id));
      }
      break;
    }
    case BackupKind::kFullBackup: {
      SPF_RETURN_IF_ERROR(
          backups_->ReadFromFullBackup(entry.backup.value, id, frame));
      PageView page(frame, page_size_);
      SPF_RETURN_IF_ERROR(page.Verify(id));
      break;
    }
    case BackupKind::kLogImage: {
      SPF_RETURN_IF_ERROR(backups_->ReadLogImage(entry.backup.value, id, frame));
      PageView page(frame, page_size_);
      SPF_RETURN_IF_ERROR(page.Verify(id));
      break;
    }
    case BackupKind::kFormatRecord: {
      // The formatting log record describes the initial page image
      // (section 5.2.1: it "may substitute for an explicit backup copy").
      SPF_ASSIGN_OR_RETURN(LogRecord rec, log_->Read(entry.backup.value));
      acc->log_reads++;
      if (rec.type != LogRecordType::kPageFormat || rec.page_id != id) {
        return Status::Corruption("format-record backup reference is wrong");
      }
      std::memset(frame, 0, page_size_);
      // Formatting anchors the per-page chain at this record; the redo
      // rule stamps its LSN and the update_count bump the live format
      // made, so the rebuilt image is byte-identical.
      SPF_ASSIGN_OR_RETURN(bool applied,
                           ApplyPageRedo(rec, PageView(frame, page_size_)));
      if (!applied) {
        return Status::Corruption("format-record backup was not applied");
      }
      break;
    }
    case BackupKind::kNone:
      return Status::MediaFailure("no backup available for page " +
                                  std::to_string(id));
  }
  acc->backup_reads++;
  return Status::OK();
}

Status SinglePageRecovery::ApplyChain(std::vector<LogRecord>* chain,
                                      char* frame,
                                      SinglePageRecoveryStats* acc) {
  PageView page(frame, page_size_);
  while (!chain->empty()) {
    LogRecord rec = std::move(chain->back());
    chain->pop_back();
    SPF_ASSIGN_OR_RETURN(bool applied, ApplyPageRedo(rec, page));
    if (!applied) {
      return Status::Corruption(
          "per-page chain record " + std::to_string(rec.lsn) +
          " is not above the backup's PageLSN " +
          std::to_string(page.page_lsn()));
    }
    acc->log_records_applied++;
    acc->last_chain_length++;
  }
  return Status::OK();
}

Status SinglePageRecovery::Escalate(PageId id, const Status& s) {
  if (s.ok() || s.IsMediaFailure()) return s;
  // Escalate per Figure 10: "if anything fails ... the system can resort
  // to a media failure and appropriate recovery".
  return Status::MediaFailure("single-page recovery of page " +
                              std::to_string(id) + " failed: " + s.ToString());
}

Status SinglePageRecovery::FinishRepair(PageId id, const PriEntry& entry,
                                        char* frame,
                                        SinglePageRecoveryStats* acc) {
  // Final verification of the recovered image.
  PageView page(frame, page_size_);
  page.UpdateChecksum();
  SPF_RETURN_IF_ERROR(page.Verify(id));
  if (entry.last_lsn != kInvalidLsn && page.page_lsn() != entry.last_lsn) {
    if (page.page_lsn() < entry.last_lsn) {
      return Status::Corruption("recovered page does not reach target LSN");
    }
    // The (stable-storage) backup catalog handed us a copy NEWER than the
    // PRI certifies: the crash lost the PriUpdate of a completed write.
    // Figure 12, third case — the repair just produced the evidence, so
    // regenerate the missing record now; the certification catches up and
    // subsequent cross-checks accept the page.
    pri_manager_->RecordLostWrite(id, page.page_lsn());
  }

  // Heal the stored copy: rewrite the recovered image in place. (A
  // permanently failed location would additionally be migrated and
  // registered in the bad-block list by the repair manager.)
  SPF_RETURN_IF_ERROR(data_device_->WritePage(id, frame));
  acc->repairs_succeeded++;
  acc->last_backup_kind = entry.backup.kind;
  return Status::OK();
}

void SinglePageRecovery::MergeStats(const SinglePageRecoveryStats& acc,
                                    PageId shard_key) {
  StatShard& shard = shards_[shard_key % kStatShards];
  MutexLock g(shard.mu);
  shard.s.repairs_attempted += acc.repairs_attempted;
  shard.s.repairs_succeeded += acc.repairs_succeeded;
  shard.s.escalations += acc.escalations;
  shard.s.log_records_applied += acc.log_records_applied;
  shard.s.log_reads += acc.log_reads;
  shard.s.archive_reads += acc.archive_reads;
  shard.s.backup_reads += acc.backup_reads;
}

void SinglePageRecovery::NoteLastRepair(uint64_t chain_length, uint64_t sim_ns,
                                        BackupKind kind) {
  MutexLock g(last_mu_);
  last_chain_length_ = chain_length;
  last_sim_ns_ = sim_ns;
  last_backup_kind_ = kind;
}

SinglePageRecoveryStats SinglePageRecovery::stats() const {
  SinglePageRecoveryStats out;
  for (const StatShard& shard : shards_) {
    MutexLock g(shard.mu);
    out.repairs_attempted += shard.s.repairs_attempted;
    out.repairs_succeeded += shard.s.repairs_succeeded;
    out.escalations += shard.s.escalations;
    out.log_records_applied += shard.s.log_records_applied;
    out.log_reads += shard.s.log_reads;
    out.archive_reads += shard.s.archive_reads;
    out.backup_reads += shard.s.backup_reads;
  }
  MutexLock g(last_mu_);
  out.last_chain_length = last_chain_length_;
  out.last_sim_ns = last_sim_ns_;
  out.last_backup_kind = last_backup_kind_;
  return out;
}

void SinglePageRecovery::ResetStats() {
  for (StatShard& shard : shards_) {
    MutexLock g(shard.mu);
    shard.s = SinglePageRecoveryStats();
  }
  MutexLock g(last_mu_);
  last_chain_length_ = 0;
  last_sim_ns_ = 0;
  last_backup_kind_ = BackupKind::kNone;
}

// --- PageLSN cross-check ----------------------------------------------------------

Status PageLsnCrossCheck::VerifyOnRead(PageView page) {
  checks_.fetch_add(1, std::memory_order_relaxed);
  auto entry_or = pri_manager_->pri()->Lookup(page.page_id());
  if (!entry_or.ok()) return Status::OK();  // no information, no opinion
  const PriEntry& entry = *entry_or;
  if (entry.last_lsn == kInvalidLsn) {
    // Clean since its last backup; any PageLSN up to the backup state is
    // plausible and we cannot cheaply bound it. Accept.
    return Status::OK();
  }
  const Lsn page_lsn = page.page_lsn();
  const bool lost_pri_update =
      page_lsn > entry.last_lsn && page_lsn < log_->durable_lsn();
  if (page_lsn != entry.last_lsn && !lost_pri_update) {
    mismatches_.fetch_add(1, std::memory_order_relaxed);
    return Status::Corruption(
        "PageLSN cross-check failed: page " + std::to_string(page.page_id()) +
        " has PageLSN " + std::to_string(page_lsn) +
        " but the page recovery index certifies " +
        std::to_string(entry.last_lsn) + " (stale or forged page)");
  }
  return Status::OK();
}

}  // namespace spf
