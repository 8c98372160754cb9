// The per-page redo rule shared by every replay path: single-page repair
// and partial restore (SinglePageRecovery::ApplyChain), full media
// restore, restart redo, and the mirror baseline.
//
// Each replays a page's log records in LSN order onto an image that may
// already reflect some of them (a device image written before the crash,
// or a backup image plus the records archived after it). One rule keeps
// them byte-identical to the live path:
//
//   * skip a record the page already reflects (PageLSN >= LSN);
//   * otherwise check the per-page chain (section 5.1.4): the record's
//     page_prev_lsn must equal the PageLSN it is about to overwrite. A
//     format record starts a fresh chain and is exempt;
//   * apply, stamp the PageLSN, and bump update_count as the live append
//     did (LogManager::AppendPageRecord).

#pragma once

#include "common/statusor.h"
#include "log/log_record.h"
#include "storage/page.h"

namespace spf {

/// Applies `rec` to `page` under the rule above. Returns true when the
/// record was applied, false when the page already reflected it, and
/// Corruption when the chain check fails.
StatusOr<bool> ApplyPageRedo(const LogRecord& rec, PageView page);

}  // namespace spf
