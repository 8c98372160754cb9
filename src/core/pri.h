// Page recovery index (PRI) — the paper's new data structure (section
// 5.2.2, Figures 7 and 9).
//
// For every data page the PRI tracks two facts:
//   * the most recent BACKUP of the page — one of: an individual backup
//     page, a full database backup, an in-log page image, or the page's
//     formatting log record (Figure 7 "one of those three alternatives",
//     plus the full-backup range case);
//   * the LSN of the most recent log record pertaining to the page —
//     valid only while the page is NOT resident in the buffer pool and has
//     been updated since the last backup. This anchors single-page
//     recovery's walk of the per-page log chain.
//
// Representation: an ordered, range-compressed index. The device's page-id
// space is divided into fixed WINDOWS of kPriEntriesPerWindow ids; each
// window maps to exactly one PRI page on disk and holds range entries
// [start, end) -> {backup ref, last LSN}. A whole-database backup collapses
// each window to a single entry (the paper's "a single entry should cover
// a large range of pages"); the worst case (every page distinct) fits a
// window's PRI page exactly by construction (~16-33 bytes per page, the
// paper's 1 permille bound).
//
// Two-partition placement: partition A's PRI pages sit at LOW device
// addresses and cover the UPPER half of the page-id space; partition B's
// pages sit at HIGH addresses and cover the LOWER half. Hence no PRI page
// is covered by itself or its own partition (docs/ARCHITECTURE.md, "PRI
// placement").

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/sync.h"
#include "storage/page.h"

namespace spf {

/// What kind of backup the PRI references for a page (Figure 7).
enum class BackupKind : uint8_t {
  kNone = 0,         ///< no backup known — recovery must escalate
  kBackupPage = 1,   ///< individual copy; value = backup-device location
  kFullBackup = 2,   ///< whole-database backup; value = backup id
  kLogImage = 3,     ///< in-log page image; value = LSN of kFullPageImage
  kFormatRecord = 4, ///< value = LSN of the page's kPageFormat record
};

/// Reference to one page's most recent backup: its kind plus a
/// kind-dependent locator (Figure 7's "backup" field).
struct BackupRef {
  BackupKind kind = BackupKind::kNone;  ///< which backup form
  uint64_t value = 0;  ///< locator: device location, backup id, or LSN

  /// Field-wise equality.
  bool operator==(const BackupRef& o) const {
    return kind == o.kind && value == o.value;
  }
};

/// One page's recovery information (Figure 7's two fields).
struct PriEntry {
  BackupRef backup;  ///< most recent backup of the page
  /// LSN of the page's most recent completed update; kInvalidLsn means
  /// "not updated since the backup was taken".
  Lsn last_lsn = kInvalidLsn;

  /// Field-wise equality.
  bool operator==(const PriEntry& o) const {
    return backup == o.backup && last_lsn == o.last_lsn;
  }
};

/// Number of data-page ids covered by one PRI window/page. Chosen so a
/// window's worst case (one entry per covered page, 33 bytes each) fits an
/// 8 KiB PRI page.
constexpr uint64_t kPriEntriesPerWindow = 240;

/// Serialized size of one on-page PRI entry: start, end, lsn, value (8 B
/// each) + kind (1 B).
constexpr size_t kPriEntryWireSize = 33;

/// Cumulative index-maintenance counters (PageRecoveryIndex::stats()).
struct PriStats {
  uint64_t lookups = 0;        ///< Lookup/LookupAnchor calls
  uint64_t lookup_misses = 0;  ///< lookups that found nothing
  uint64_t updates = 0;        ///< RecordWrite/RecordBackup applications
  uint64_t range_splits = 0;   ///< range entries split by point updates
  uint64_t range_merges = 0;   ///< adjacent identical ranges re-merged
};

/// The in-memory PRI: authoritative at runtime, mirrored to PRI pages at
/// checkpoints (Figure 11: "after this log record has been saved in the
/// log, there is no urgency to write the data page of the page recovery
/// index"). Thread-safe.
class PageRecoveryIndex {
 public:
  /// Builds an empty index covering page ids [0, num_pages).
  explicit PageRecoveryIndex(uint64_t num_pages);

  SPF_DISALLOW_COPY(PageRecoveryIndex);

  /// Recovery information for `id`; NotFound if the PRI knows nothing
  /// (BackupKind::kNone territory — forces escalation to media recovery).
  StatusOr<PriEntry> Lookup(PageId id) const;

  /// Like Lookup, but tolerates a LOST backup reference: returns the
  /// entry as long as the index still holds the per-page chain anchor
  /// (last_lsn), even when backup.kind is kNone. Partial media restore
  /// uses this — it sources images from the full backup, so only the
  /// chain anchor matters. NotFound when the index has nothing at all.
  StatusOr<PriEntry> LookupAnchor(PageId id) const;

  /// Records a completed write of `id` at `page_lsn` (the PriUpdate's
  /// effect on the index).
  void RecordWrite(PageId id, Lsn page_lsn);

  /// Records a new backup for `id`; resets last_lsn (the page is clean
  /// relative to the new backup). Returns the previous backup ref so the
  /// caller can free an old backup page.
  BackupRef RecordBackup(PageId id, BackupRef backup);

  /// Collapses the whole index to "covered by full backup `backup_id`"
  /// (one range entry per window).
  void RecordFullBackup(uint64_t backup_id);

  /// Raw entry assignment (restart recovery / deserialization).
  void Apply(PageId id, const PriEntry& entry);

  // --- window/persistence interface -----------------------------------------

  /// Number of fixed-size windows the page-id space is divided into.
  uint64_t num_windows() const { return num_windows_; }
  /// The window covering page `id`.
  static uint64_t WindowOf(PageId id) { return id / kPriEntriesPerWindow; }

  /// Serializes one window's entries (the PRI page payload).
  std::string SerializeWindow(uint64_t window) const;

  /// Replaces one window's entries from SerializeWindow output.
  Status DeserializeWindow(uint64_t window, std::string_view data);

  /// Windows touched since the last ClearDirtyWindows (checkpoint uses
  /// the snapshot-then-clear pattern of section 5.2.6).
  std::vector<uint64_t> DirtyWindows() const;
  /// Marks one window clean again (after its PRI page was written).
  void ClearDirtyWindow(uint64_t window);

  // --- introspection (experiment E5) -----------------------------------------

  /// Total range entries across all windows.
  uint64_t entry_count() const;
  /// Approximate in-memory footprint: entries * wire size.
  uint64_t approx_bytes() const;
  /// Cumulative maintenance counters.
  PriStats stats() const;

 private:
  struct RangeEntry {
    PageId end;  // exclusive
    PriEntry entry;
  };
  /// One window: range entries keyed by range start, non-overlapping,
  /// confined to [window*K, (window+1)*K).
  struct Window {
    std::map<PageId, RangeEntry> ranges;
    bool dirty = false;
  };

  /// Sets entry for exactly [id, id+1), splitting ranges as needed.
  void SetPointLocked(PageId id, const PriEntry& entry) SPF_REQUIRES(mu_);
  /// Merges adjacent ranges with identical entries around `id`.
  void CoalesceLocked(Window& w, PageId id) SPF_REQUIRES(mu_);
  const RangeEntry* FindLocked(const Window& w, PageId id) const
      SPF_REQUIRES(mu_);

  const uint64_t num_pages_;
  const uint64_t num_windows_;
  mutable OrderedMutex mu_{LockRank::kPriIndex};
  std::vector<Window> windows_ SPF_GUARDED_BY(mu_);
  mutable PriStats stats_ SPF_GUARDED_BY(mu_);
};

// --- PriUpdate record body (section 5.2.4) -------------------------------------

/// Body of a kPriUpdate log record: the data page whose write completed,
/// the certified PageLSN, and optionally a new backup reference. The
/// record's page_id names the COVERING PRI PAGE (whose per-page chain it
/// extends), which is how PRI pages themselves stay recoverable.
struct PriUpdateBody {
  PageId data_page_id = kInvalidPageId;  ///< data page whose write completed
  Lsn page_lsn = kInvalidLsn;            ///< certified PageLSN of that write
  bool has_backup = false;               ///< whether `backup` is meaningful
  BackupRef backup;                      ///< new backup reference, if any
};

/// Serializes a PriUpdateBody into a log-record payload.
std::string EncodePriUpdate(const PriUpdateBody& body);
/// Parses an EncodePriUpdate payload; Corruption on malformed input.
StatusOr<PriUpdateBody> DecodePriUpdate(std::string_view data);

}  // namespace spf
