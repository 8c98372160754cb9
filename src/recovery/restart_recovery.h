// ARIES-style restart recovery after a system failure (paper section
// 5.1.2), extended with the page-recovery-index interplay of section 5.2.5
// / Figure 12, and run as an INSTANT restart: transactions are admitted
// once analysis and loser undo are done, and each page's redo runs when
// the page is first loaded.
//
//   Analysis  — from the last checkpoint: rebuilds the dirty page table
//               (DPT), the loser transaction table, the allocator, and the
//               bad-block list. A PriUpdate (or PageWriteCompleted) record
//               certifies a completed write and CANCELS the recovery
//               requirement for records at or below the certified PageLSN —
//               the optimization that spares redo its random reads
//               (Figure 4). PriUpdate records are simultaneously applied to
//               the in-memory PRI. The scan keeps each page's redo records;
//               cut at the page's final recLSN they form the RedoPlan.
//   Redo      — physical, per page, from the plan: the buffer pool applies a
//               page's planned records on its first load (PendingRedo),
//               deciding by PageLSN and verifying the per-page chain pointer
//               before every application (defensive check of section
//               5.1.4). If a page already reflects an update whose PriUpdate
//               record is missing, the write completed but its PRI update
//               was lost: redo generates the missing record (Figure 12,
//               third row). A page that fails verification on that load is
//               repaired online by single-page recovery — the PRI was loaded
//               before analysis (section 5.2.5). The database's background
//               sweep loads the pages nobody else touches.
//   Undo      — logical compensation of loser transactions via the shared
//               rollback executor; its page fixes redo on load like any
//               other.

#pragma once

#include <atomic>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "buffer/buffer_pool.h"
#include "common/sync.h"
#include "core/pri_manager.h"
#include "log/log_manager.h"
#include "recovery/checkpoint.h"
#include "recovery/rollback.h"
#include "storage/allocation.h"
#include "txn/txn_manager.h"

namespace spf {

struct RestartStats {
  Lsn analysis_start = kInvalidLsn;
  uint64_t analysis_records = 0;
  uint64_t dpt_entries_after_analysis = 0;
  uint64_t write_certifications_seen = 0;  ///< PriUpdate/WriteCompleted
  uint64_t losers = 0;

  // The redo plan, known when Restart() returns.
  uint64_t redo_plan_pages = 0;            ///< pages owing redo
  uint64_t redo_records_considered = 0;
  uint64_t redo_skipped_by_dpt = 0;        ///< never read the page (Fig. 4 win)

  // Redo itself, known once every planned page is redone
  // (Database::AwaitRestartRedo).
  uint64_t redo_applied = 0;
  uint64_t redo_skipped_by_page_lsn = 0;   ///< read, found already applied
  uint64_t redo_page_reads = 0;            ///< planned pages read from disk
  uint64_t lost_pri_updates_regenerated = 0;  ///< Figure 12 third row
  uint64_t pages_repaired_during_redo = 0;

  uint64_t undo_records = 0;

  double analysis_sim_seconds = 0;
  double redo_sim_seconds = 0;  ///< the background sweep, first page to last
  double undo_sim_seconds = 0;

  // Host time, for the per-record cost of the scan itself.
  double analysis_wall_seconds = 0;  ///< the analysis scan
  double plan_wall_seconds = 0;      ///< older records + the plan's sort
};

/// The redo every page still owes after analysis: per page, the
/// page-redo records at or above the page's final recLSN, in LSN order.
/// Installed in the buffer pool, it is applied page by page on first load;
/// the database's sweep loads the pages nobody else touches, in page
/// order. Thread-safe.
///
/// The records are kept as their log bytes, copied once into one arena
/// while analysis reads them; a page's load parses its own.
class RedoPlan : public PendingRedo {
 public:
  /// `pri_manager` (may be null) receives the Figure 12 regenerations.
  explicit RedoPlan(PriManager* pri_manager) : pri_manager_(pri_manager) {}

  bool Pending() const override {
    return pending_.load(std::memory_order_acquire) > 0;
  }
  Owed Lookup(PageId id) const override;
  StatusOr<Lsn> Apply(PageId id, PageView page, bool repaired) override;
  void Retire(PageId id) override;

  /// Lowest page id at or above `from` that still owes redo, or
  /// kInvalidPageId when none does.
  PageId NextOwed(PageId from) const;

  /// Gives up every entry not yet retired: a full media restore replays
  /// the log from its backup, which covers every planned record. A load
  /// already applying an entry finishes it.
  void Cancel();

  /// Copies the redo counters (applied, skipped, reads, regenerations,
  /// repairs) into `stats`.
  void CopyRedoCounts(RestartStats* stats) const;

 private:
  friend class RestartRecovery;  // fills the plan during analysis

  /// One record a page owes: its LSN and its log bytes in arena_.
  struct Planned {
    Lsn lsn;
    uint64_t offset;
    uint32_t size;
    LogRecordType type;
  };

  PriManager* const pri_manager_;

  // Written by RestartRecovery before the plan is installed, read-only
  // afterwards.
  std::string arena_;
  std::vector<Planned> planned_;  ///< grouped by page, each in LSN order

  mutable OrderedMutex mu_{LockRank::kRedoPlan};
  /// Page -> its records' range in planned_. Entries stay until retired,
  /// also after Cancel: a load that looked a page up before the cancel
  /// still applies its records. Only the page's own loader erases an
  /// entry, so a loader may use its range outside mu_.
  std::map<PageId, std::pair<size_t, size_t>> entries_ SPF_GUARDED_BY(mu_);
  bool cancelled_ SPF_GUARDED_BY(mu_) = false;
  /// Entries neither retired nor cancelled.
  std::atomic<size_t> pending_{0};

  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> skipped_by_page_lsn_{0};
  std::atomic<uint64_t> page_reads_{0};
  std::atomic<uint64_t> lost_pri_updates_{0};
  std::atomic<uint64_t> repaired_{0};
};

class RestartRecovery {
 public:
  /// `pri_manager` may be null (WriteTrackingMode::kNone or
  /// kCompletedWrites baselines).
  RestartRecovery(LogManager* log, BufferPool* pool, TxnManager* txns,
                  BTree* tree, PageAllocator* alloc, BadBlockList* bbl,
                  PriManager* pri_manager, SimClock* clock)
      : log_(log),
        pool_(pool),
        txns_(txns),
        tree_(tree),
        alloc_(alloc),
        bbl_(bbl),
        pri_manager_(pri_manager),
        clock_(clock) {}

  /// Runs analysis, fills `plan` and installs it in the buffer pool, then
  /// undoes the losers. On success committed effects are present and
  /// loser effects compensated, once every page has been loaded; the
  /// redo counters are left to the plan.
  StatusOr<RestartStats> Run(RedoPlan* plan);

 private:
  struct LoserInfo {
    TxnId txn_id = kInvalidTxnId;  ///< kInvalidTxnId marks a free slot
    Lsn last_lsn = kInvalidLsn;
    Lsn undo_next = kInvalidLsn;
  };

  /// The user transactions the scan has seen log but not finish: an
  /// open-addressing hash table (linear probing, backward-shift erase),
  /// so tracking a transaction allocates nothing. Few are live at once.
  class LoserTable {
   public:
    LoserTable() : slots_(size_t{1} << kMinSlotBits) {}
    /// The entry of `id`, inserted empty if absent.
    LoserInfo& FindOrInsert(TxnId id);
    void Erase(TxnId id);
    size_t size() const { return size_; }
    /// The entries in ascending txn-id order, undo's order.
    std::vector<LoserInfo> Sorted() const;

   private:
    static constexpr int kMinSlotBits = 6;
    /// Fibonacci hashing: the top bits of the product.
    size_t Home(TxnId id) const {
      return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    /// The slot holding `id`, or the free slot ending its probe run.
    size_t Probe(TxnId id) const;

    std::vector<LoserInfo> slots_;  ///< a power of two, at most half full
    int shift_ = 64 - kMinSlotBits;  ///< 64 - log2(slots_.size())
    size_t size_ = 0;
  };

  /// A page format or free, deferred: the allocator and the PRI take
  /// locks, so the scan applies these in log order in one batch before
  /// the next record that reads or replaces the same state.
  struct PageEvent {
    PageId page;
    Lsn format_lsn;  ///< kInvalidLsn for a free
  };

  Status Analysis(RedoPlan* plan, RestartStats* stats);
  /// Cuts each page's records at its final recLSN into `plan`, first
  /// scanning [redo floor, analysis start) when the floor lies lower.
  Status BuildPlan(RedoPlan* plan, RestartStats* stats);
  Status Undo(RestartStats* stats);

  /// Corruption unless `id` names a page of the data device.
  Status CheckPage(PageId id) const;
  /// Copies a page-redo record's log bytes into the plan's arena.
  void Keep(const LogRecord& rec, std::string_view raw, RedoPlan* plan);
  /// Enters `id` in the DPT with recLSN `lsn` unless it is there.
  void MarkDirty(PageId id, Lsn lsn);
  /// A completed write of `id` at PageLSN `certified` (Figure 4).
  void Certify(PageId id, Lsn certified);
  void ApplyPageEvents();

  LogManager* const log_;
  BufferPool* const pool_;
  TxnManager* const txns_;
  BTree* const tree_;
  PageAllocator* const alloc_;
  BadBlockList* const bbl_;
  PriManager* const pri_manager_;
  SimClock* const clock_;

  /// The dirty page table, indexed by page id: each dirty page's recLSN,
  /// kInvalidLsn for a clean page. Sized once to the device.
  std::vector<Lsn> rec_lsn_;
  size_t dpt_size_ = 0;
  LoserTable losers_;
  std::vector<PageEvent> page_events_;
  /// One page-redo record the scans read: its page, and its LSN and bytes
  /// (in the plan's arena).
  struct Kept {
    PageId page;
    RedoPlan::Planned planned;
  };
  /// Every page-redo record the scans read, in scan order: the analysis
  /// scan's, then the older records BuildPlan reads.
  std::vector<Kept> kept_;
  /// Lowest RECORD-BOUNDARY LSN ever inserted into the DPT. Write
  /// certifications raise individual recLSNs to certified+1, which is not
  /// a record boundary and therefore must never be used as a scan start;
  /// the floor stays a valid boundary (conservative: the scan may visit
  /// records that every entry then filters out).
  Lsn redo_scan_floor_ = kInvalidLsn;
};

}  // namespace spf
