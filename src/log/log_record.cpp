#include "log/log_record.h"

#include <sstream>

#include "common/coding.h"
#include "common/crc32c.h"

namespace spf {

std::string_view LogRecordTypeName(LogRecordType type) {
  switch (type) {
    case LogRecordType::kInvalid: return "Invalid";
    case LogRecordType::kBeginTxn: return "BeginTxn";
    case LogRecordType::kCommitTxn: return "CommitTxn";
    case LogRecordType::kAbortTxn: return "AbortTxn";
    case LogRecordType::kEndTxn: return "EndTxn";
    case LogRecordType::kPageFormat: return "PageFormat";
    case LogRecordType::kPageFree: return "PageFree";
    case LogRecordType::kPageMigrate: return "PageMigrate";
    case LogRecordType::kBTreeInsert: return "BTreeInsert";
    case LogRecordType::kBTreeMarkGhost: return "BTreeMarkGhost";
    case LogRecordType::kBTreeUpdate: return "BTreeUpdate";
    case LogRecordType::kBTreeReclaimGhost: return "BTreeReclaimGhost";
    case LogRecordType::kBTreeSplit: return "BTreeSplit";
    case LogRecordType::kBTreeAdopt: return "BTreeAdopt";
    case LogRecordType::kBTreeGrowRoot: return "BTreeGrowRoot";
    case LogRecordType::kCompensation: return "Compensation";
    case LogRecordType::kPageWriteCompleted: return "PageWriteCompleted";
    case LogRecordType::kPriUpdate: return "PriUpdate";
    case LogRecordType::kFullPageImage: return "FullPageImage";
    case LogRecordType::kCheckpointBegin: return "CheckpointBegin";
    case LogRecordType::kCheckpointEnd: return "CheckpointEnd";
    case LogRecordType::kBadBlock: return "BadBlock";
  }
  return "Unknown";
}

std::string LogRecord::Serialize() const {
  std::string out;
  uint32_t total = kLogRecordHeaderSize + static_cast<uint32_t>(body.size());
  out.reserve(total);
  PutFixed32(&out, total);
  PutFixed32(&out, 0);  // crc placeholder
  out.push_back(static_cast<char>(type));
  out.push_back(static_cast<char>(flags));
  out.push_back('\0');
  out.push_back('\0');
  PutFixed64(&out, txn_id);
  PutFixed64(&out, prev_lsn);
  PutFixed64(&out, page_id);
  PutFixed64(&out, page_prev_lsn);
  PutFixed64(&out, undo_next_lsn);
  PutFixed32(&out, static_cast<uint32_t>(body.size()));
  out.append(body);
  // CRC over everything after the crc field.
  uint32_t crc = crc32c::Value(out.data() + 8, out.size() - 8);
  EncodeFixed32(out.data() + 4, crc32c::Mask(crc));
  return out;
}

Status ParseLogRecord(std::string_view data, LogRecord* rec) {
  if (data.size() < kLogRecordHeaderSize) {
    return Status::Corruption("log record truncated (header)");
  }
  size_t off = 0;
  uint32_t total, masked_crc;
  GetFixed32(data, &off, &total);
  GetFixed32(data, &off, &masked_crc);
  if (total < kLogRecordHeaderSize || total > data.size()) {
    return Status::Corruption("log record length out of range");
  }
  uint32_t crc = crc32c::Value(data.data() + 8, total - 8);
  if (crc32c::Unmask(masked_crc) != crc) {
    return Status::Corruption("log record crc mismatch");
  }
  rec->length = total;
  rec->type = static_cast<LogRecordType>(data[off]);
  rec->flags = static_cast<uint8_t>(data[off + 1]);
  off += 4;  // type, flags, pad
  GetFixed64(data, &off, &rec->txn_id);
  GetFixed64(data, &off, &rec->prev_lsn);
  GetFixed64(data, &off, &rec->page_id);
  GetFixed64(data, &off, &rec->page_prev_lsn);
  GetFixed64(data, &off, &rec->undo_next_lsn);
  uint32_t body_len;
  GetFixed32(data, &off, &body_len);
  if (off + body_len > total) {
    return Status::Corruption("log record truncated (body)");
  }
  rec->body.assign(data.data() + off, body_len);
  return Status::OK();
}

StatusOr<LogRecord> ParseLogRecord(std::string_view data) {
  LogRecord rec;
  SPF_RETURN_IF_ERROR(ParseLogRecord(data, &rec));
  return rec;
}

std::string LogRecord::DebugString() const {
  std::ostringstream os;
  os << "[" << lsn << "] " << LogRecordTypeName(type);
  if (is_system_txn()) os << "(sys)";
  if (txn_id != kInvalidTxnId) os << " txn=" << txn_id;
  if (prev_lsn != kInvalidLsn) os << " prev=" << prev_lsn;
  if (page_id != kInvalidPageId) os << " page=" << page_id;
  if (page_prev_lsn != kInvalidLsn) os << " pagePrev=" << page_prev_lsn;
  if (undo_next_lsn != kInvalidLsn) os << " undoNext=" << undo_next_lsn;
  os << " body=" << body.size() << "B";
  return os.str();
}

}  // namespace spf
