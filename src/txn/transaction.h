// Transaction objects: user transactions and system transactions.
//
// The paper (section 5.1.5, Figure 5) separates changes to logical database
// contents (user transactions) from contents-neutral changes to their
// representation (system transactions: node splits, ghost reclamation,
// page migration, PRI maintenance). The operational differences modeled
// here:
//   * a user commit forces the log; a system commit does not — its commit
//     record reaches stable storage with (or before) the next forced write,
//     and a lost system transaction cannot lose data because it is
//     contents-neutral;
//   * system transactions acquire no locks (latches suffice);
//   * system transactions never span user interaction — they begin and
//     commit within one call.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_set>

#include "common/macros.h"
#include "log/log_manager.h"
#include "log/log_record.h"
#include "storage/page.h"

namespace spf {

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

/// One transaction's bookkeeping: identity, state, and the head of its
/// per-transaction log chain (section 5.1.1).
class Transaction {
 public:
  Transaction(TxnId id, bool is_system) : id_(id), system_(is_system) {}

  SPF_DISALLOW_COPY(Transaction);

  TxnId id() const { return id_; }
  bool is_system() const { return system_; }
  TxnState state() const { return state_; }
  Lsn first_lsn() const { return first_lsn_; }
  Lsn last_lsn() const { return last_lsn_.load(std::memory_order_relaxed); }

  /// During rollback: the next record to undo. Starts at last_lsn and is
  /// moved backward by compensation records' undo_next_lsn.
  Lsn undo_next_lsn() const { return undo_next_lsn_; }
  void set_undo_next_lsn(Lsn lsn) { undo_next_lsn_ = lsn; }

  /// True once a full-restore drain deadline (or a simulated crash)
  /// force-aborted this transaction (TxnManager::DoomActiveUserTxns /
  /// DoomAllForCrash). The restore rolls the transaction back on its own
  /// thread afterwards; the owner's Txn handle stays readable for as
  /// long as it is held — the transaction object is a control block
  /// shared between the handle and the manager's active table — but
  /// every operation on it reports kDoomed/Aborted. Dropping the handle
  /// frees the owner's share; no zombie retention is involved.
  bool doomed() const { return fate_.load() == kFateDoomed; }

  /// Claims the transaction for owner-driven finalization (commit or
  /// explicit abort). Exactly one of {finalize, doom} wins: once claimed,
  /// a drain deadline can no longer doom the transaction, and once
  /// doomed, commit/abort return Aborted instead of racing the restore's
  /// rollback. Returns false when the doom won.
  bool TryClaimFinalize() {
    uint8_t expected = kFateOpen;
    return fate_.compare_exchange_strong(expected, kFateFinalizing);
  }

  /// Dooms the transaction (restore drain deadline). Fails — and leaves
  /// the transaction alone — when the owner already claimed finalization
  /// (a commit or abort is in flight and will complete normally).
  bool TryDoom() {
    uint8_t expected = kFateOpen;
    return fate_.compare_exchange_strong(expected, kFateDoomed);
  }

  /// Releases a TryClaimFinalize claim after the finalization FAILED
  /// mid-way (e.g. an abort's rollback hit a dead device): the owner may
  /// retry, or a later restore's doom phase picks the transaction up and
  /// compensates it. No-op unless currently claimed.
  void RevertFinalizeClaim() {
    uint8_t expected = kFateFinalizing;
    fate_.compare_exchange_strong(expected, kFateOpen);
  }

  /// One-shot claim for executing a DOOMED transaction's compensating
  /// rollback. Two agents may want it: the dooming restore's rollback
  /// phase (once the transaction is no longer busy()), and the owner's
  /// own thread when its last in-flight operation drains out of the
  /// facade after the restore deferred the rollback
  /// (Database::ReapDoomedTxn). Exactly one wins, so concurrent undo of
  /// the same chain is impossible. Returns false when already claimed.
  bool TryClaimRollback() {
    bool expected = false;
    return rollback_claimed_.compare_exchange_strong(expected, true);
  }

  /// Releases a TryClaimRollback claim after the rollback FAILED mid-way
  /// (e.g. the device died again mid-undo): the next restore's doom
  /// phase — or the owner's next facade call — re-claims and resumes
  /// (CLR chains skip what this attempt already undid). No-op unless
  /// currently claimed.
  void RevertRollbackClaim() { rollback_claimed_.store(false); }

  /// Marks that this transaction's finish record (kCommitTxn, or the
  /// kEndTxn closing an abort) has been appended to the log. Set inside
  /// the TxnManager commit gate's shared section, so a checkpoint's
  /// exclusive {snapshot + append} section observes it for exactly the
  /// transactions whose finish record precedes the checkpoint-end record
  /// in the log. ActiveTxns() excludes marked transactions from the
  /// checkpoint's txn table: they are finished as far as the log is
  /// concerned (the checkpoint forces the log past their finish record
  /// before publishing the master record), and seeding them as restart
  /// losers would roll back a committed transaction.
  void mark_finish_logged() { finish_logged_.store(true); }
  /// True once the finish record has been appended (see above).
  bool finish_logged() const { return finish_logged_.load(); }

  /// Facade-operation bracket: the database facade counts every data
  /// operation run on this transaction so the restore's fallback
  /// rollback can wait out an operation that was already executing when
  /// the drain deadline fired, instead of racing it. Sequentially
  /// consistent (as are the fate accessors): the facade's
  /// {BeginOp; doomed?} handshake against the restore's
  /// {TryDoom; busy?} must not allow BOTH sides to read the stale value
  /// (the classic store-buffer outcome under weaker orderings), or an
  /// operation invisible to busy() could run forward while the restore
  /// rolls the same chain back.
  void BeginOp() { ops_in_flight_.fetch_add(1); }
  /// Closes a BeginOp bracket.
  void EndOp() { ops_in_flight_.fetch_sub(1); }
  /// True while a facade operation is executing on this transaction.
  bool busy() const { return ops_in_flight_.load() > 0; }

  /// Appends a record on this transaction's behalf: stamps txn id, the
  /// per-transaction chain pointer, and the system-transaction flag, then
  /// advances the chain head.
  Lsn Log(LogManager* log, LogRecord* rec) {
    Stamp(rec);
    Lsn lsn = log->Append(rec);
    Advance(lsn);
    return lsn;
  }

  /// Like Log() but for records that modify a page: additionally maintains
  /// the page's per-page chain and PageLSN via AppendPageRecord.
  Lsn LogPage(LogManager* log, LogRecord* rec, PageView page) {
    Stamp(rec);
    Lsn lsn = log->AppendPageRecord(rec, page);
    Advance(lsn);
    return lsn;
  }

  void set_state(TxnState s) { state_ = s; }

  /// Restart-recovery hook: re-anchors the chain head of a loser
  /// transaction reconstructed during log analysis, without logging.
  void RestoreChain(Lsn last_lsn) {
    last_lsn_.store(last_lsn, std::memory_order_relaxed);
    if (first_lsn_ == kInvalidLsn) first_lsn_ = last_lsn;
  }

  /// Keys locked by this transaction (user transactions only), released at
  /// commit/abort by the transaction manager.
  std::unordered_set<std::string>& locked_keys() { return locked_keys_; }

 private:
  void Stamp(LogRecord* rec) {
    SPF_CHECK(state_ == TxnState::kActive) << "logging on finished txn";
    rec->txn_id = id_;
    rec->prev_lsn = last_lsn();
    if (system_) rec->flags |= kLogFlagSystemTxn;
  }
  void Advance(Lsn lsn) {
    if (first_lsn_ == kInvalidLsn) first_lsn_ = lsn;
    last_lsn_.store(lsn, std::memory_order_relaxed);
    undo_next_lsn_ = lsn;
  }

  // One-shot finalization claim: open until either the owner's
  // commit/abort (kFateFinalizing) or a restore drain deadline
  // (kFateDoomed) wins the CAS.
  static constexpr uint8_t kFateOpen = 0;
  static constexpr uint8_t kFateFinalizing = 1;
  static constexpr uint8_t kFateDoomed = 2;

  const TxnId id_;
  const bool system_;
  std::atomic<uint8_t> fate_{kFateOpen};
  std::atomic<bool> rollback_claimed_{false};
  std::atomic<bool> finish_logged_{false};
  std::atomic<uint32_t> ops_in_flight_{0};
  TxnState state_ = TxnState::kActive;
  Lsn first_lsn_ = kInvalidLsn;
  /// Written only by the owner; atomic because a checkpoint's
  /// transaction-table snapshot reads it while the owner logs.
  std::atomic<Lsn> last_lsn_{kInvalidLsn};
  Lsn undo_next_lsn_ = kInvalidLsn;
  std::unordered_set<std::string> locked_keys_;
};

}  // namespace spf
