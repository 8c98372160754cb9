// TxnError — the structured error taxonomy of the v2 client API.
//
// The recovery engine heals most failures transparently (single-page
// repair, the failure funnel, the restore-gate protocol), so by the time
// an error reaches a client it falls into one of a handful of
// operationally distinct classes, and the single question a caller needs
// answered is "what do I do now?":
//
//   * retry the transaction  — lock conflicts and repair-in-progress
//     waits are transient: the same transaction logic succeeds when
//     re-run (TxnError::retryable() == true);
//   * re-begin               — the transaction was force-aborted by a
//     full-restore drain deadline (kDoomed): this handle is dead, but a
//     FRESH transaction will be admitted as soon as the restore-gate
//     readmits traffic;
//   * fix the request        — kUser errors (key not found, precondition
//     failed, invalid argument) never succeed on retry;
//   * escalate               — kStorage / kFatal errors escaped the
//     recovery ladder; retrying cannot help.
//
// A flat Status cannot express the first two distinctions (both surface
// as e.g. kAborted or kBusy), which is why Txn classifies every
// operation's outcome into a TxnError at the point where the context —
// was the handle doomed? is self-healing repair wired? — is known.

#pragma once

#include <string>

#include "common/status.h"

namespace spf {

/// Classified outcome of one operation on a Txn handle. Wraps the
/// underlying Status (implicitly convertible back to it, so existing
/// Status plumbing and SPF_CHECK_OK keep working) and adds the
/// retry-aware taxonomy the raw code cannot express.
class TxnError {
 public:
  /// The taxonomy. Ordered roughly by "how bad".
  enum class Kind : uint8_t {
    /// Success.
    kNone = 0,
    /// The request itself cannot succeed: key not found, insert of an
    /// existing key, invalid argument, operation on a finished handle.
    /// Retrying the identical request returns the identical error.
    kUser,
    /// Transient contention or repair-in-progress: lock timeout /
    /// deadlock victim, restore-gate or funnel backpressure, or a page
    /// read that hit a failed device while repair is wired (the retry
    /// parks at the restore gate). Re-running the transaction is
    /// expected to succeed — the only retryable kind.
    kTransient,
    /// The transaction was force-aborted by a full-restore drain
    /// deadline. The handle is permanently dead (every further call
    /// returns this), but the DATABASE is healing: begin a fresh
    /// transaction — it parks at the restore gate and is admitted as
    /// soon as the protocol readmits traffic.
    kDoomed,
    /// A page could not be read correctly and repair is not wired (or
    /// already failed): corruption, latent sector error, I/O error that
    /// escaped the recovery ladder. Not retryable from the client side.
    kStorage,
    /// The device failed as a whole and repair is not wired, or an
    /// internal invariant broke. Operator attention required.
    kFatal,
  };

  TxnError() = default;  ///< success (kNone / OK)

  /// Wraps an already-classified outcome.
  TxnError(Kind kind, Status status)
      : kind_(kind), status_(std::move(status)) {}

  /// Classifies a raw facade/engine Status. `doomed_handle` is the one
  /// context bit the code alone cannot carry (a doomed transaction and a
  /// finalization race both surface as kAborted); `repair_wired` decides
  /// whether a single-page-failure candidate is transient (the
  /// self-healing funnel repairs it; a retry rides the healed page) or
  /// terminal.
  static TxnError Classify(Status status, bool doomed_handle,
                           bool repair_wired) {
    if (status.ok()) return TxnError();
    Kind kind;
    switch (status.code()) {
      case Status::Code::kBusy:
      case Status::Code::kDeadlock:
        kind = Kind::kTransient;
        break;
      case Status::Code::kAborted:
        kind = doomed_handle ? Kind::kDoomed : Kind::kUser;
        break;
      case Status::Code::kCorruption:
      case Status::Code::kReadFailure:
        kind = repair_wired ? Kind::kTransient : Kind::kStorage;
        break;
      case Status::Code::kIOError:
        kind = Kind::kStorage;
        break;
      case Status::Code::kMediaFailure:
        // With repair wired a failed device is restored behind the
        // restore gate, where the retried transaction parks.
        kind = repair_wired ? Kind::kTransient : Kind::kFatal;
        break;
      case Status::Code::kInternal:
        kind = Kind::kFatal;
        break;
      default:  // kNotFound, kFailedPrecondition, kInvalidArgument, ...
        kind = Kind::kUser;
        break;
    }
    return TxnError(kind, std::move(status));
  }

  /// True on success (kNone).
  bool ok() const { return kind_ == Kind::kNone; }

  /// True when re-running the transaction is expected to succeed. This
  /// is the API contract heavy-traffic clients loop on: retryable errors
  /// are absorbed by a bounded retry, everything else surfaces.
  bool retryable() const { return kind_ == Kind::kTransient; }

  /// The classified kind.
  Kind kind() const { return kind_; }

  /// The underlying engine status (code + message).
  const Status& status() const { return status_; }

  /// Implicit view as the underlying Status, so TxnError drops into
  /// every existing Status sink (SPF_CHECK_OK, StatusOr plumbing, ...).
  operator Status() const { return status_; }  // NOLINT(runtime/explicit)

  /// Stable name of a kind ("TRANSIENT", "DOOMED", ...).
  static std::string_view KindName(Kind kind) {
    switch (kind) {
      case Kind::kNone:      return "OK";
      case Kind::kUser:      return "USER";
      case Kind::kTransient: return "TRANSIENT";
      case Kind::kDoomed:    return "DOOMED";
      case Kind::kStorage:   return "STORAGE";
      case Kind::kFatal:     return "FATAL";
    }
    return "?";
  }

  /// "<kind>[retryable]: <status>" rendering for logs and tests.
  std::string ToString() const {
    std::string out(KindName(kind_));
    if (retryable()) out += " (retryable)";
    if (!ok()) {
      out += ": ";
      out += status_.ToString();
    }
    return out;
  }

 private:
  Kind kind_ = Kind::kNone;
  Status status_;
};

}  // namespace spf
