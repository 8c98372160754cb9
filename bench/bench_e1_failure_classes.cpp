// E1 — Recovery time by failure class (paper section 6 paragraphs 1-3,
// Figure 1).
//
// Reproduces the paper's central comparison: transaction rollback takes
// well under a second; single-page recovery is "closest to that of
// transaction rollback ... a second or less" (dozens of log I/Os plus one
// backup-page I/O on disk-class storage); system restart takes seconds to
// a minute depending on checkpoint distance (instant restart admits
// transactions before redo, so the table shows both time to admission and
// time until every page is redone); media recovery is bounded by
// sequentially re-transferring the whole device plus log replay — minutes
// to hours. The decisive ordering to verify:
//
//   rollback  ~  single-page  <<  system restart  <<  media recovery
//
// All times are simulated I/O time on the hdd-100MBps profile (10 ms
// random access, 100 MB/s sequential), matching the section 6 arithmetic.

#include "bench_util.h"

namespace spf {
namespace bench {
namespace {

uint64_t Pages() { return Scaled<uint64_t>(16384, 2048); }  // 128 MiB full
int Records() { return Scaled(30000, 3000); }

void Run() {
  const uint64_t kPages = Pages();
  const int kRecords = Records();
  printf("E1: recovery time by failure class (data+log on %s, %s database)\n",
         DeviceProfile::Hdd100().name.c_str(),
         FormatBytes(static_cast<double>(kPages) * kDefaultPageSize).c_str());

  DatabaseOptions options = DiskOptions(kPages);
  options.backup_policy.updates_threshold = 0;  // explicit backups only
  auto db = MakeLoadedDb(options, kRecords);
  SPF_CHECK_OK(db->TakeFullBackup().status());
  SPF_CHECK_OK(db->Checkpoint().status());

  Table table({"failure class", "scope", "txns aborted", "recovery time",
               "technique"});

  // --- transaction failure: rollback of one 40-update transaction ------------
  {
    Txn t = db->BeginTxn();
    for (int i = 0; i < 40; ++i) {
      SPF_CHECK_OK(t.Update(Key(i * 13 + 1), "doomed"));
    }
    SimTimer timer(db->clock());
    SPF_CHECK_OK(t.Abort());
    table.AddRow({"transaction", "1 transaction", "1",
                  FormatSeconds(timer.ElapsedSeconds()),
                  "per-txn chain + compensation"});
  }

  // --- single-page failure: ~40-record chain, repaired online ----------------
  {
    // Build a page whose per-page chain has ~40 records since its backup
    // ("dozens of I/Os", section 6).
    UpdateKeyNTimes(db.get(), 777, 40);
    SPF_CHECK_OK(db->FlushAll());
    auto victim = db->LeafPageOf(Key(777));
    SPF_CHECK(victim.ok());
    db->pool()->DiscardAll();
    db->data_device()->InjectSilentCorruption(*victim);

    Txn reader = db->BeginTxn();
    SimTimer timer(db->clock());
    auto v = reader.Get(Key(777));
    double elapsed = timer.ElapsedSeconds();
    SPF_CHECK(v.ok()) << v.status().ToString();
    SPF_CHECK_OK(reader.Commit());
    auto spr = db->single_page_recovery()->stats();
    table.AddRow({"single-page", "1 page", "0",
                  FormatSeconds(elapsed),
                  "PRI + per-page chain (" +
                      std::to_string(spr.last_chain_length) + " records)"});
  }

  // --- system failure: crash + ARIES restart ---------------------------------
  {
    // Post-checkpoint activity so restart has real analysis/redo/undo work.
    Txn t = db->BeginTxn();
    for (int i = 0; i < 2000; ++i) {
      SPF_CHECK_OK(t.Put(Key(kRecords + i), "post-ckpt"));
    }
    SPF_CHECK_OK(t.Commit());
    Txn loser = db->BeginTxn();
    for (int i = 0; i < 50; ++i) {
      SPF_CHECK_OK(loser.Update(Key(i * 7 + 3), "loser"));
    }
    db->log()->ForceAll();
    size_t active = db->txns()->active_count();

    db->SimulateCrash();
    SimTimer timer(db->clock());
    auto admitted = db->Restart();
    double to_admission = timer.ElapsedSeconds();
    SPF_CHECK(admitted.ok()) << admitted.status().ToString();
    // Instant restart admits after analysis and undo; the sweep redoes
    // the remaining pages in the background.
    auto stats = db->AwaitRestartRedo();
    double to_redone = timer.ElapsedSeconds();
    SPF_CHECK(stats.ok()) << stats.status().ToString();
    table.AddRow({"system", "whole system", std::to_string(active),
                  FormatSeconds(to_admission),
                  "ARIES analysis + undo, then admission (" +
                      std::to_string(stats->redo_plan_pages) +
                      " pages owe redo)"});
    table.AddRow({"system, all redone", "whole system", "-",
                  FormatSeconds(to_redone),
                  "+ per-page redo sweep and checkpoint (" +
                      std::to_string(stats->redo_applied) + " redone)"});
  }

  // --- media failure: restore full backup + replay ----------------------------
  {
    Txn active1 = db->BeginTxn();
    SPF_CHECK_OK(active1.Update(Key(1), "in-flight"));
    db->log()->ForceAll();
    size_t active = db->txns()->active_count();
    db->data_device()->FailDevice();
    db->pool()->DiscardAll();

    SimTimer timer(db->clock());
    auto stats = db->RecoverMedia();
    double elapsed = timer.ElapsedSeconds();
    SPF_CHECK(stats.ok()) << stats.status().ToString();
    table.AddRow({"media", "whole device", std::to_string(active),
                  FormatSeconds(elapsed),
                  "restore " + std::to_string(stats->pages_restored) +
                      " pages + replay " +
                      std::to_string(stats->redo_applied) + " records"});
  }

  table.Print();
  printf(
      "\nPaper expectation (section 6): rollback < 1 s; single-page recovery\n"
      "\"a second or less\" and closest to rollback; system recovery about a\n"
      "minute; media recovery minutes-to-hours (scales with device size; see\n"
      "bench_e2_media_restore for the 100 GB / 2 TB data points).\n");
}

}  // namespace
}  // namespace bench
}  // namespace spf

int main(int argc, char** argv) {
  spf::bench::Init(argc, argv);
  spf::bench::Run();
  return 0;
}
