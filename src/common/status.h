// Status: exception-free error propagation for all operational paths.
//
// Follows the RocksDB/Arrow idiom: cheap to copy when OK (no allocation),
// carries a code plus an optional message otherwise. Database code must
// return Status (or StatusOr<T>) rather than throwing; CHECK-style macros
// (see macros.h) are reserved for invariant violations that indicate bugs.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace spf {

/// Result code for every fallible operation in the library.
class Status {
 public:
  /// Error taxonomy; see docs/ARCHITECTURE.md, "Error taxonomy".
  enum class Code : uint8_t {
    kOk = 0,
    kNotFound = 1,
    /// Page contents failed a consistency test (checksum, header sanity,
    /// fence-key mismatch, PageLSN-vs-PRI mismatch). A candidate
    /// single-page failure (paper section 3.2).
    kCorruption = 2,
    /// Generic I/O error (allocation, out of space, ...).
    kIOError = 3,
    /// The device could not deliver the page at all despite retries —
    /// a "latent sector error". A candidate single-page failure.
    kReadFailure = 4,
    kBusy = 5,
    kDeadlock = 6,
    /// The transaction was rolled back (transaction failure class).
    kAborted = 7,
    kInvalidArgument = 8,
    kNotSupported = 9,
    kFailedPrecondition = 10,
    /// Unrecoverable failure of an entire device (media failure class).
    kMediaFailure = 11,
    kInternal = 12,
  };

  Status() = default;

  static Status OK() { return Status(); }
  static Status NotFound(std::string_view msg = {}) {
    return Status(Code::kNotFound, msg);
  }
  static Status Corruption(std::string_view msg = {}) {
    return Status(Code::kCorruption, msg);
  }
  static Status IOError(std::string_view msg = {}) {
    return Status(Code::kIOError, msg);
  }
  static Status ReadFailure(std::string_view msg = {}) {
    return Status(Code::kReadFailure, msg);
  }
  static Status Busy(std::string_view msg = {}) { return Status(Code::kBusy, msg); }
  static Status Deadlock(std::string_view msg = {}) {
    return Status(Code::kDeadlock, msg);
  }
  static Status Aborted(std::string_view msg = {}) {
    return Status(Code::kAborted, msg);
  }
  static Status InvalidArgument(std::string_view msg = {}) {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status NotSupported(std::string_view msg = {}) {
    return Status(Code::kNotSupported, msg);
  }
  static Status FailedPrecondition(std::string_view msg = {}) {
    return Status(Code::kFailedPrecondition, msg);
  }
  static Status MediaFailure(std::string_view msg = {}) {
    return Status(Code::kMediaFailure, msg);
  }
  static Status Internal(std::string_view msg = {}) {
    return Status(Code::kInternal, msg);
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsReadFailure() const { return code_ == Code::kReadFailure; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsDeadlock() const { return code_ == Code::kDeadlock; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsFailedPrecondition() const { return code_ == Code::kFailedPrecondition; }
  bool IsMediaFailure() const { return code_ == Code::kMediaFailure; }

  /// True if this status marks a candidate single-page failure: the page
  /// could not be read correctly and with plausible contents (paper
  /// section 3.2). These are the codes the buffer pool's read path routes
  /// into single-page recovery (Figure 8).
  bool IsSinglePageFailureCandidate() const {
    return code_ == Code::kCorruption || code_ == Code::kReadFailure;
  }

  Code code() const { return code_; }

  /// Human-readable message; empty for OK.
  std::string_view message() const {
    return msg_ ? std::string_view(*msg_) : std::string_view();
  }

  /// "<code name>: <message>" rendering for logs and test failures.
  std::string ToString() const;

  static std::string_view CodeName(Code code);

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(Code code, std::string_view msg) : code_(code) {
    if (!msg.empty()) msg_ = std::make_shared<std::string>(msg);
  }

  Code code_ = Code::kOk;
  std::shared_ptr<std::string> msg_;  // shared so Status stays cheap to copy
};

}  // namespace spf
