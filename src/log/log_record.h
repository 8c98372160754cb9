// Log record model and on-log serialization.
//
// Every record carries BOTH chains the paper distinguishes:
//   * prev_lsn       — the per-transaction log chain (section 5.1.1), used
//                      for transaction rollback;
//   * page_prev_lsn  — the per-page log chain (section 5.1.4), anchored in
//                      the data page's PageLSN (Figure 6), used for
//                      single-page recovery, page versioning, and the
//                      defensive redo-sequence check.
//
// Record bodies are opaque byte strings whose encoding belongs to the layer
// that logs them (B-tree operations, PRI maintenance, checkpoints); the log
// module stores and retrieves them without interpretation.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/statusor.h"
#include "storage/page.h"

namespace spf {

using TxnId = uint64_t;
constexpr TxnId kInvalidTxnId = 0;

/// Discriminator for every record written to the recovery log.
enum class LogRecordType : uint8_t {
  kInvalid = 0,

  // Transaction control.
  kBeginTxn = 1,
  kCommitTxn = 2,
  kAbortTxn = 3,
  kEndTxn = 4,

  // Page lifecycle (system transactions).
  kPageFormat = 10,  ///< body: initial page image descriptor; also serves as
                     ///< a backup source (section 5.2.1)
  kPageFree = 11,
  kPageMigrate = 12,  ///< body: old page id -> new page id

  // B-tree operations (bodies defined in btree/btree_log.h).
  kBTreeInsert = 20,
  kBTreeMarkGhost = 21,    ///< logical delete: record becomes a ghost
  kBTreeUpdate = 22,
  kBTreeReclaimGhost = 23, ///< system txn: physically remove ghost records
  kBTreeSplit = 24,        ///< donate upper records to a new foster child
  kBTreeAdopt = 25,        ///< parent adopts a foster child
  kBTreeGrowRoot = 26,     ///< install a new root above the old one

  // Compensation (redo-only; undo_next_lsn continues the rollback).
  kCompensation = 50,

  // Write tracking and page recovery index maintenance.
  kPageWriteCompleted = 60,  ///< section 5.1.2 optimization (baseline mode)
  kPriUpdate = 61,           ///< section 5.2.4: PRI entry update after a
                             ///< completed data page write (subsumes 60)
  kFullPageImage = 62,       ///< in-log page backup (section 5.2.1)

  // Checkpoints (section 5.2.6).
  kCheckpointBegin = 70,
  kCheckpointEnd = 71,

  kBadBlock = 80,  ///< failed location registered, must not be reused
};

std::string_view LogRecordTypeName(LogRecordType type);

/// Flag bits in LogRecord::flags.
constexpr uint8_t kLogFlagSystemTxn = 0x1;

/// One recovery-log record. `lsn` and `length` are assigned by the log
/// manager on append and recovered on read.
struct LogRecord {
  LogRecordType type = LogRecordType::kInvalid;
  uint8_t flags = 0;
  TxnId txn_id = kInvalidTxnId;
  Lsn prev_lsn = kInvalidLsn;       ///< per-transaction chain
  PageId page_id = kInvalidPageId;  ///< page this record modifies, if any
  Lsn page_prev_lsn = kInvalidLsn;  ///< per-page chain
  Lsn undo_next_lsn = kInvalidLsn;  ///< next record to undo (CLRs only)
  std::string body;

  // Assigned by the log manager.
  Lsn lsn = kInvalidLsn;
  uint32_t length = 0;

  bool is_system_txn() const { return flags & kLogFlagSystemTxn; }

  /// Serializes to the on-log format (length, crc, header, body).
  std::string Serialize() const;

  /// Human-readable one-liner for debugging and log dumps.
  std::string DebugString() const;
};

/// True for the record types that modify a data page through the per-page
/// chain (logged via LogManager::AppendPageRecord): exactly the redo set a
/// media replay re-applies and the entry set the log archiver partitions
/// into sorted runs. kPriUpdate (PRI-page chains, consumed only by
/// RecoverPriWindow), kFullPageImage, and kBadBlock carry a page_id but
/// are deliberately NOT on the per-page chain — including them in a chain
/// fetch would break the redo-sequence check. One shared predicate so the
/// media replay plan and the archive can never diverge.
inline bool IsPageReplayRecord(LogRecordType type) {
  switch (type) {
    case LogRecordType::kPageFormat:
    case LogRecordType::kBTreeInsert:
    case LogRecordType::kBTreeMarkGhost:
    case LogRecordType::kBTreeUpdate:
    case LogRecordType::kBTreeReclaimGhost:
    case LogRecordType::kBTreeSplit:
    case LogRecordType::kBTreeAdopt:
    case LogRecordType::kBTreeGrowRoot:
    case LogRecordType::kPageMigrate:
    case LogRecordType::kCompensation:
      return true;
    default:
      return false;
  }
}

/// Size of the fixed serialized header that precedes the body.
constexpr uint32_t kLogRecordHeaderSize =
    4 /*length*/ + 4 /*crc*/ + 1 /*type*/ + 1 /*flags*/ + 2 /*pad*/ +
    8 /*txn_id*/ + 8 /*prev*/ + 8 /*page_id*/ + 8 /*page_prev*/ +
    8 /*undo_next*/ + 4 /*body_len*/;

/// Parses a record from `data` (which must start at the record's first
/// byte and contain the whole record) into `*rec`, reusing the capacity
/// of rec->body, so a scan parses every record into one LogRecord without
/// allocating. Validates the CRC. Sets every field but rec->lsn.
Status ParseLogRecord(std::string_view data, LogRecord* rec);

/// As above, into a new record.
StatusOr<LogRecord> ParseLogRecord(std::string_view data);

}  // namespace spf
