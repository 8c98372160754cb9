#include "recovery/page_redo.h"

#include <string>

#include "btree/btree_log.h"

namespace spf {

StatusOr<bool> ApplyPageRedo(const LogRecord& rec, PageView page) {
  if (page.page_lsn() >= rec.lsn) return false;
  if (rec.type != LogRecordType::kPageFormat &&
      rec.page_prev_lsn != page.page_lsn()) {
    return Status::Corruption(
        "redo sequence check failed on page " + std::to_string(rec.page_id) +
        ": PageLSN " + std::to_string(page.page_lsn()) +
        ", record expects " + std::to_string(rec.page_prev_lsn));
  }
  SPF_RETURN_IF_ERROR(btree_log::RedoBTreeRecord(rec, page));
  page.set_page_lsn(rec.lsn);
  page.bump_update_count();
  return true;
}

}  // namespace spf
