#include "core/mirror_baseline.h"

#include "recovery/page_redo.h"

namespace spf {

Status MirrorBaseline::SeedFromPrincipal(SimDevice* principal) {
  SPF_CHECK_EQ(principal->page_size(), mirror_->page_size());
  SPF_CHECK_EQ(principal->num_pages(), mirror_->num_pages());
  std::vector<char> buf(principal->page_size());
  for (PageId p = 0; p < principal->num_pages(); ++p) {
    SPF_RETURN_IF_ERROR(principal->ReadPage(p, buf.data()));
    SPF_RETURN_IF_ERROR(mirror_->WritePage(p, buf.data()));
  }
  MutexLock g(mu_);
  applied_upto_ = log_->durable_lsn();
  return Status::OK();
}

Status MirrorBaseline::CatchUp() {
  Lsn from;
  {
    MutexLock g(mu_);
    if (applied_upto_ == kInvalidLsn) {
      return Status::FailedPrecondition("mirror not seeded");
    }
    from = applied_upto_;
  }
  SimTimer timer(clock_);
  uint64_t scanned = 0, applied = 0, writes = 0;
  PageBuffer buf(mirror_->page_size());
  Lsn end = log_->durable_lsn();
  for (auto it = log_->Scan(from, end); it.Valid(); it.Next()) {
    const LogRecord& rec = it.record();
    scanned++;
    if (!IsPageReplayRecord(rec.type) || rec.page_id == kInvalidPageId) {
      continue;
    }
    SPF_RETURN_IF_ERROR(mirror_->ReadPage(rec.page_id, buf.data()));
    PageView page = buf.view();
    SPF_ASSIGN_OR_RETURN(bool redone, ApplyPageRedo(rec, page));
    if (!redone) continue;  // the seed already reflects it
    page.UpdateChecksum();
    SPF_RETURN_IF_ERROR(mirror_->WritePage(rec.page_id, buf.data()));
    applied++;
    writes++;
  }
  MutexLock g(mu_);
  applied_upto_ = end;
  stats_.records_scanned += scanned;
  stats_.records_applied += applied;
  stats_.mirror_writes += writes;
  stats_.apply_sim_ns += timer.ElapsedNanos();
  return Status::OK();
}

Status MirrorBaseline::RepairFrom(PageId id, char* out) {
  SPF_RETURN_IF_ERROR(CatchUp());
  SPF_RETURN_IF_ERROR(mirror_->ReadPage(id, out));
  MutexLock g(mu_);
  stats_.pages_served++;
  return Status::OK();
}

}  // namespace spf
