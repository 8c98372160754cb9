// Unit tests for the log module: record serialization, append/force/read,
// per-transaction and per-page chains, forward scan, crash truncation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "log/log_manager.h"
#include "log/log_record.h"
#include "storage/page.h"
#include "storage/sim_device.h"

namespace spf {
namespace {

class LogTest : public ::testing::Test {
 protected:
  LogTest() : device_("wal", DeviceProfile::Instant(), &clock_), log_(&device_) {}

  LogRecord MakeRecord(LogRecordType type, TxnId txn, std::string body) {
    LogRecord rec;
    rec.type = type;
    rec.txn_id = txn;
    rec.body = std::move(body);
    return rec;
  }

  SimClock clock_;
  SimLogDevice device_;
  LogManager log_;
};

TEST_F(LogTest, RecordSerializationRoundTrip) {
  LogRecord rec;
  rec.type = LogRecordType::kBTreeInsert;
  rec.flags = kLogFlagSystemTxn;
  rec.txn_id = 42;
  rec.prev_lsn = 100;
  rec.page_id = 7;
  rec.page_prev_lsn = 88;
  rec.undo_next_lsn = 55;
  rec.body = "key=value";

  std::string wire = rec.Serialize();
  auto parsed = ParseLogRecord(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, LogRecordType::kBTreeInsert);
  EXPECT_TRUE(parsed->is_system_txn());
  EXPECT_EQ(parsed->txn_id, 42u);
  EXPECT_EQ(parsed->prev_lsn, 100u);
  EXPECT_EQ(parsed->page_id, 7u);
  EXPECT_EQ(parsed->page_prev_lsn, 88u);
  EXPECT_EQ(parsed->undo_next_lsn, 55u);
  EXPECT_EQ(parsed->body, "key=value");
}

TEST_F(LogTest, ParseRejectsCorruptRecord) {
  LogRecord rec = MakeRecord(LogRecordType::kCommitTxn, 1, "x");
  std::string wire = rec.Serialize();
  wire[wire.size() - 1] ^= 1;
  EXPECT_TRUE(ParseLogRecord(wire).status().IsCorruption());
  EXPECT_TRUE(ParseLogRecord("short").status().IsCorruption());
}

TEST_F(LogTest, AppendAssignsMonotonicLsns) {
  LogRecord a = MakeRecord(LogRecordType::kBeginTxn, 1, "");
  LogRecord b = MakeRecord(LogRecordType::kCommitTxn, 1, "");
  Lsn la = log_.Append(&a);
  Lsn lb = log_.Append(&b);
  EXPECT_EQ(la, LogManager::kLogFileHeaderSize);
  EXPECT_EQ(lb, la + a.length);
  EXPECT_NE(la, kInvalidLsn);
}

TEST_F(LogTest, ReadBack) {
  LogRecord a = MakeRecord(LogRecordType::kBTreeInsert, 3, "payload-a");
  Lsn la = log_.Append(&a);
  auto got = log_.Read(la);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->body, "payload-a");
  EXPECT_EQ(got->lsn, la);
  EXPECT_EQ(got->length, a.length);
}

TEST_F(LogTest, ReadBeforeStartRejected) {
  EXPECT_TRUE(log_.Read(0).status().IsInvalidArgument());
}

TEST_F(LogTest, DurabilityTracksForce) {
  LogRecord a = MakeRecord(LogRecordType::kBeginTxn, 1, "");
  Lsn la = log_.Append(&a);
  EXPECT_LT(log_.durable_lsn(), la + a.length);
  log_.Force(la);
  EXPECT_GE(log_.durable_lsn(), la + a.length);
}

TEST_F(LogTest, CrashDropsUnforcedRecords) {
  LogRecord a = MakeRecord(LogRecordType::kBeginTxn, 1, "");
  log_.Append(&a);
  log_.ForceAll();
  LogRecord b = MakeRecord(LogRecordType::kCommitTxn, 1, "");
  Lsn lb = log_.Append(&b);

  // Crash: staged records die with the manager, then the device loses its
  // unsynced tail (staged bytes are strictly MORE volatile than published
  // ones, so the order mirrors Database::SimulateCrash).
  log_.Crash();
  device_.DropUnsynced();

  EXPECT_TRUE(log_.Read(lb).status().IsIOError());
  auto still = log_.Read(a.lsn);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->type, LogRecordType::kBeginTxn);
}

TEST_F(LogTest, PerTransactionChain) {
  // Section 5.1.1: each record points to the prior one of the same txn.
  LogRecord r1 = MakeRecord(LogRecordType::kBeginTxn, 9, "");
  Lsn l1 = log_.Append(&r1);
  LogRecord r2 = MakeRecord(LogRecordType::kBTreeInsert, 9, "k1");
  r2.prev_lsn = l1;
  Lsn l2 = log_.Append(&r2);
  LogRecord r3 = MakeRecord(LogRecordType::kBTreeInsert, 9, "k2");
  r3.prev_lsn = l2;
  Lsn l3 = log_.Append(&r3);

  // Walk the chain backward.
  auto rec = log_.Read(l3);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->prev_lsn, l2);
  rec = log_.Read(rec->prev_lsn);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->prev_lsn, l1);
  rec = log_.Read(rec->prev_lsn);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->prev_lsn, kInvalidLsn);
}

TEST_F(LogTest, AppendPageRecordMaintainsPerPageChain) {
  // Section 5.1.4 / Figure 6: the chain is anchored in the PageLSN and
  // embedded in the log records.
  PageBuffer buf(kDefaultPageSize);
  PageView page = buf.view();
  page.Format(55, PageType::kBTreeLeaf);

  std::vector<Lsn> lsns;
  for (int i = 0; i < 5; ++i) {
    LogRecord rec = MakeRecord(LogRecordType::kBTreeInsert, 1, "upd");
    rec.page_id = 55;
    lsns.push_back(log_.AppendPageRecord(&rec, page));
  }
  EXPECT_EQ(page.page_lsn(), lsns.back());
  EXPECT_EQ(page.update_count(), 5u);

  // Walk the per-page chain from the PageLSN anchor back to the format.
  Lsn cur = page.page_lsn();
  for (int i = 4; i >= 0; --i) {
    auto rec = log_.Read(cur);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->lsn, lsns[i]);
    EXPECT_EQ(rec->page_id, 55u);
    cur = rec->page_prev_lsn;
  }
  EXPECT_EQ(cur, kInvalidLsn);
}

TEST_F(LogTest, ForwardScan) {
  std::vector<Lsn> lsns;
  for (int i = 0; i < 10; ++i) {
    LogRecord rec = MakeRecord(LogRecordType::kBTreeInsert, 1,
                               "body" + std::to_string(i));
    lsns.push_back(log_.Append(&rec));
  }
  int count = 0;
  for (auto it = log_.Scan(log_.first_lsn()); it.Valid(); it.Next()) {
    EXPECT_EQ(it.record().lsn, lsns[count]);
    EXPECT_EQ(it.record().body, "body" + std::to_string(count));
    count++;
  }
  EXPECT_EQ(count, 10);
}

TEST_F(LogTest, ScanFromMidpoint) {
  std::vector<Lsn> lsns;
  for (int i = 0; i < 6; ++i) {
    LogRecord rec = MakeRecord(LogRecordType::kBTreeUpdate, 1, "x");
    lsns.push_back(log_.Append(&rec));
  }
  int count = 0;
  for (auto it = log_.Scan(lsns[3]); it.Valid(); it.Next()) count++;
  EXPECT_EQ(count, 3);
}

TEST_F(LogTest, ScanStopsAtCorruptTail) {
  LogRecord a = MakeRecord(LogRecordType::kBeginTxn, 1, "");
  log_.Append(&a);
  // Publish the staged record first so the garbage below lands AFTER it
  // on the device (group commit stages appends off-device until a force
  // or batch threshold).
  log_.ForceAll();
  // Simulate a torn tail: append garbage directly to the device.
  device_.Append("\x40\x00\x00\x00garbage-that-is-not-a-record");
  int count = 0;
  for (auto it = log_.Scan(log_.first_lsn()); it.Valid(); it.Next()) count++;
  EXPECT_EQ(count, 1);
}

TEST_F(LogTest, ScanReadsWindowsNotRecords) {
  // Enough records for several windows, plus one record larger than a
  // window; the scan must still deliver every record in order.
  std::vector<Lsn> lsns;
  for (int i = 0; i < 3000; ++i) {
    std::string body(i == 1500 ? LogManager::Iterator::kWindowBytes + 100 : 200,
                     static_cast<char>('a' + i % 26));
    LogRecord rec = MakeRecord(LogRecordType::kBTreeInsert, 1, body);
    lsns.push_back(log_.Append(&rec));
  }
  log_.ForceAll();
  const uint64_t reads_before = device_.stats().page_reads;
  const uint64_t records_before = log_.stats().records_read;
  size_t count = 0;
  for (auto it = log_.Scan(log_.first_lsn()); it.Valid(); it.Next()) {
    ASSERT_LT(count, lsns.size());
    EXPECT_EQ(it.record().lsn, lsns[count]);
    EXPECT_EQ(it.record().body[0], static_cast<char>('a' + count % 26));
    EXPECT_EQ(it.raw(), it.record().Serialize());  // the bytes as logged
    count++;
  }
  EXPECT_EQ(count, lsns.size());
  EXPECT_EQ(log_.stats().records_read - records_before, lsns.size());
  const uint64_t windows =
      log_.durable_lsn() / LogManager::Iterator::kWindowBytes + 2;
  EXPECT_LE(device_.stats().page_reads - reads_before, windows);
}

TEST_F(LogTest, RecordsReadEqualsRecordsScansReturned) {
  for (int i = 0; i < 50; ++i) {
    LogRecord rec = MakeRecord(LogRecordType::kBTreeInsert, 1, "x");
    log_.Append(&rec);
  }
  log_.ForceAll();
  const uint64_t before = log_.stats().records_read;
  uint64_t returned = 0;
  {
    // A scan read to its end publishes its count when it ends...
    auto it = log_.Scan(log_.first_lsn());
    for (; it.Valid(); it.Next()) returned++;
    EXPECT_EQ(log_.stats().records_read - before, returned);
  }
  {
    // ...and one abandoned part-way when the iterator goes.
    auto it = log_.Scan(log_.first_lsn());
    returned++;
    for (int i = 1; i < 20; ++i) {
      it.Next();
      ASSERT_TRUE(it.Valid());
      returned++;
    }
  }
  EXPECT_EQ(returned, 70u);
  EXPECT_EQ(log_.stats().records_read - before, returned);
}

TEST_F(LogTest, ScanWithEndLeavesStagedRecordsUnpublished) {
  LogRecord a = MakeRecord(LogRecordType::kBeginTxn, 1, "");
  log_.Append(&a);
  log_.ForceAll();
  const Lsn durable = log_.durable_lsn();
  LogRecord b = MakeRecord(LogRecordType::kBeginTxn, 2, "");
  log_.Append(&b);  // staged, not yet on the device
  int count = 0;
  for (auto it = log_.Scan(log_.first_lsn(), durable); it.Valid(); it.Next()) {
    count++;
  }
  EXPECT_EQ(count, 1);
  EXPECT_EQ(device_.size(), durable);
}

TEST_F(LogTest, MasterRecord) {
  EXPECT_EQ(log_.GetMasterRecord(), kInvalidLsn);
  log_.SetMasterRecord(1234);
  EXPECT_EQ(log_.GetMasterRecord(), 1234u);
}

TEST_F(LogTest, StatsPerType) {
  LogRecord a = MakeRecord(LogRecordType::kBeginTxn, 1, "");
  LogRecord b = MakeRecord(LogRecordType::kPriUpdate, 0, "pri");
  LogRecord c = MakeRecord(LogRecordType::kPriUpdate, 0, "pri");
  log_.Append(&a);
  log_.Append(&b);
  log_.Append(&c);
  LogStats s = log_.stats();
  EXPECT_EQ(s.records_appended, 3u);
  EXPECT_EQ(s.per_type[LogRecordType::kBeginTxn], 1u);
  EXPECT_EQ(s.per_type[LogRecordType::kPriUpdate], 2u);
  EXPECT_GT(s.bytes_appended, 0u);
}

TEST_F(LogTest, TypeNamesComplete) {
  EXPECT_EQ(LogRecordTypeName(LogRecordType::kPriUpdate), "PriUpdate");
  EXPECT_EQ(LogRecordTypeName(LogRecordType::kCheckpointEnd), "CheckpointEnd");
  EXPECT_EQ(LogRecordTypeName(static_cast<LogRecordType>(255)), "Unknown");
}

TEST_F(LogTest, DebugStringMentionsChains) {
  LogRecord rec = MakeRecord(LogRecordType::kBTreeInsert, 12, "b");
  rec.page_id = 3;
  rec.page_prev_lsn = 77;
  log_.Append(&rec);
  std::string s = rec.DebugString();
  EXPECT_NE(s.find("BTreeInsert"), std::string::npos);
  EXPECT_NE(s.find("pagePrev=77"), std::string::npos);
}

}  // namespace
}  // namespace spf
