// Shared helpers for the experiment harness: workload generators, table
// printing, and duration formatting. Every bench binary prints a
// paper-style table on stdout and exits 0; absolute numbers come from the
// simulated clock (see docs/ARCHITECTURE.md, "Simulated time"), so the
// tables reproduce the SHAPE of the paper's section 6 arithmetic
// regardless of host speed.

#pragma once

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/macros.h"
#include "db/database.h"

namespace spf {
namespace bench {

/// Smoke mode: CI runs every bench with tiny parameters just to keep the
/// binaries compiling and executing. Enabled by `--smoke` on the command
/// line or the SPF_BENCH_SMOKE environment variable.
inline bool& SmokeFlag() {
  static bool smoke = std::getenv("SPF_BENCH_SMOKE") != nullptr;
  return smoke;
}

inline bool SmokeMode() { return SmokeFlag(); }

/// Call first in main(): enables smoke mode if --smoke is present.
inline void Init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) SmokeFlag() = true;
  }
}

/// Full-size value normally, tiny value under --smoke.
template <typename T>
inline T Scaled(T full, T smoke) {
  return SmokeMode() ? smoke : full;
}

inline std::string Key(int i) {
  char buf[20];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

/// Human-readable simulated duration.
inline std::string FormatSeconds(double s) {
  char buf[64];
  if (s < 1e-6) {
    snprintf(buf, sizeof(buf), "%.1f ns", s * 1e9);
  } else if (s < 1e-3) {
    snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  } else if (s < 1.0) {
    snprintf(buf, sizeof(buf), "%.1f ms", s * 1e3);
  } else if (s < 120.0) {
    snprintf(buf, sizeof(buf), "%.2f s", s);
  } else if (s < 7200.0) {
    snprintf(buf, sizeof(buf), "%.1f min", s / 60.0);
  } else {
    snprintf(buf, sizeof(buf), "%.1f h", s / 3600.0);
  }
  return buf;
}

inline std::string FormatBytes(double b) {
  char buf[64];
  if (b < 1024.0) {
    snprintf(buf, sizeof(buf), "%.0f B", b);
  } else if (b < 1024.0 * 1024) {
    snprintf(buf, sizeof(buf), "%.1f KiB", b / 1024.0);
  } else if (b < 1024.0 * 1024 * 1024) {
    snprintf(buf, sizeof(buf), "%.1f MiB", b / (1024.0 * 1024));
  } else {
    snprintf(buf, sizeof(buf), "%.2f GiB", b / (1024.0 * 1024 * 1024));
  }
  return buf;
}

/// Fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto print_sep = [&] {
      for (size_t c = 0; c < width.size(); ++c) {
        printf("+%s", std::string(width[c] + 2, '-').c_str());
      }
      printf("+\n");
    };
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < width.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : "";
        printf("| %-*s ", static_cast<int>(width[c]), cell.c_str());
      }
      printf("|\n");
    };
    print_sep();
    print_row(headers_);
    print_sep();
    for (const auto& row : rows_) print_row(row);
    print_sep();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Builds a database and loads `n` sequential records in batches.
inline std::unique_ptr<Database> MakeLoadedDb(DatabaseOptions options, int n,
                                              const std::string& value = "v") {
  auto db_or = Database::Create(options);
  SPF_CHECK(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(db_or).value();
  const int kBatch = 1000;
  for (int base = 0; base < n; base += kBatch) {
    Txn t = db->BeginTxn();
    for (int i = base; i < std::min(base + kBatch, n); ++i) {
      SPF_CHECK_OK(t.Insert(Key(i), value + "-" + std::to_string(i)));
    }
    SPF_CHECK_OK(t.Commit());
  }
  return db;
}

/// Builds a database with a full backup and interleaved per-page log
/// chains, then collects up to `burst` victim leaf pages: each of
/// `rounds` transactions updates one key per stride, so different pages'
/// chains alternate within the same log region — the multi-page failure
/// setup of the E8b/E9 serial-vs-batched axes. The pool is left empty.
inline std::unique_ptr<Database> MakeChainedBurstDb(
    DatabaseOptions options, int records, size_t burst,
    std::vector<PageId>* victims, int rounds = 4, int stride = 97) {
  auto db = MakeLoadedDb(options, records);
  SPF_CHECK_OK(db->TakeFullBackup().status());
  for (int round = 0; round < rounds; ++round) {
    Txn t = db->BeginTxn();
    for (int i = 0; i < records; i += stride) {
      SPF_CHECK_OK(t.Update(Key(i), "r" + std::to_string(round)));
    }
    SPF_CHECK_OK(t.Commit());
  }
  SPF_CHECK_OK(db->FlushAll());
  std::set<PageId> leaves;
  for (int i = 0; i < records && leaves.size() < burst; i += stride) {
    auto leaf = db->LeafPageOf(Key(i));
    SPF_CHECK(leaf.ok());
    leaves.insert(*leaf);
  }
  victims->assign(leaves.begin(), leaves.end());
  db->pool()->DiscardAll();
  return db;
}

/// The paper's per-record single-page repair (Figure 10, section 6): the
/// newest backup image, then one random log read per record of the
/// page's chain. The engine reads chains in shared segments and archive
/// runs instead; this reference walk is the serial baseline the E8b, E9
/// and E15a tables and the equivalence tests compare against. Like the
/// engine's repair it applies records through ApplyChain, heals the
/// device copy, merges its counters into the SinglePageRecovery stats
/// and leaves the rebuilt image in `frame`.
inline Status RepairPagePerRecord(Database* db, PageId id, char* frame) {
  SinglePageRecovery* spr = db->single_page_recovery();
  SimTimer timer(db->clock());
  SinglePageRecoveryStats acc;
  acc.repairs_attempted++;
  Status s = [&]() -> Status {
    SPF_ASSIGN_OR_RETURN(PriEntry entry, spr->LookupEntry(id));
    SPF_RETURN_IF_ERROR(spr->LoadBackupImage(id, entry, frame, &acc));
    const Lsn backup_lsn = PageView(frame, spr->page_size()).page_lsn();
    std::vector<LogRecord> chain;  // newest first
    for (Lsn cur = entry.last_lsn; cur != kInvalidLsn && cur > backup_lsn;) {
      SPF_ASSIGN_OR_RETURN(LogRecord rec, db->log()->Read(cur));
      acc.log_reads++;
      if (rec.page_id != id) {
        return Status::Corruption("per-page chain contains foreign record");
      }
      cur = rec.page_prev_lsn;
      chain.push_back(std::move(rec));
    }
    SPF_RETURN_IF_ERROR(spr->ApplyChain(&chain, frame, &acc));
    return spr->FinishRepair(id, entry, frame, &acc);
  }();
  if (s.ok()) {
    spr->NoteLastRepair(acc.last_chain_length, timer.ElapsedNanos(),
                        acc.last_backup_kind);
  } else {
    acc.escalations++;
  }
  spr->MergeStats(acc, id);
  return SinglePageRecovery::Escalate(id, s);
}

/// RepairPagePerRecord over `pages`, one after another.
inline Status RepairPagesPerRecord(Database* db,
                                   const std::vector<PageId>& pages) {
  std::vector<char> frame(db->options().page_size);
  for (PageId p : pages) {
    SPF_RETURN_IF_ERROR(RepairPagePerRecord(db, p, frame.data()));
  }
  return Status::OK();
}

/// Applies `n` committed single-key updates (each adds one record to the
/// key's per-page chain).
inline void UpdateKeyNTimes(Database* db, int key, int n) {
  for (int i = 0; i < n; ++i) {
    Txn t = db->BeginTxn();
    SPF_CHECK_OK(t.Update(Key(key), "u" + std::to_string(i)));
    SPF_CHECK_OK(t.Commit());
  }
}

/// Default bench device profiles: disk-backed data and log so the paper's
/// I/O arithmetic (10 ms random access, 100 MB/s sequential) applies.
inline DatabaseOptions DiskOptions(uint64_t num_pages) {
  DatabaseOptions o;
  o.num_pages = num_pages;
  o.buffer_frames = 2048;
  o.data_profile = DeviceProfile::Hdd100();
  o.log_profile = DeviceProfile::Hdd100();
  o.backup_profile = DeviceProfile::Hdd100();
  return o;
}

/// CPU-bound profile for detection-overhead microbenches.
inline DatabaseOptions InstantOptions(uint64_t num_pages) {
  DatabaseOptions o;
  o.num_pages = num_pages;
  o.buffer_frames = 4096;
  o.data_profile = DeviceProfile::Instant();
  o.log_profile = DeviceProfile::Instant();
  o.backup_profile = DeviceProfile::Instant();
  return o;
}

}  // namespace bench
}  // namespace spf
