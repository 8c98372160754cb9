// E3 — Single-page recovery time vs. per-page chain length (paper
// section 6 paragraph 4).
//
// "It may take dozens of I/Os in order to read the required log records in
// the recovery log plus one I/O for the backup page. Thus, pure I/O time
// should perhaps be 1 s. ... The number of log records that must be
// retrieved and applied to the backup page equals the number of updates
// since the last page backup." — with a 10 ms random-read disk and one
// read per record, chain length N costs roughly N * 10 ms + one backup
// read, so the backup-every-N policy directly bounds worst-case repair
// time. The read path here does better than that bound: it reads a
// chain's log region in segments of up to 256 KiB, so a chain of dozens
// of records costs one log read. This bench sweeps N through the read
// path and prints the paper's per-record bound beside it.

#include "bench_util.h"

namespace spf {
namespace bench {
namespace {

void Run() {
  printf(
      "E3: single-page recovery time vs. updates since the last page "
      "backup\n(log on %s; the read path reads a chain's log region in\n"
      "segments of up to 256 KiB, not one random read per record)\n",
      DeviceProfile::Hdd100().name.c_str());

  Table table({"chain length", "log reads", "backup reads", "repair time",
               "time per record"});

  std::vector<int> chains{1, 5, 10, 25, 50, 100, 250, 500, 1000};
  if (SmokeMode()) chains = {1, 5, 10};
  for (int chain : chains) {
    DatabaseOptions options = DiskOptions(4096);
    options.backup_policy.updates_threshold = 0;  // no automatic backups
    auto db = MakeLoadedDb(options, 2000);
    SPF_CHECK_OK(db->TakeFullBackup().status());

    // Exactly `chain` updates of one key after the backup; each appends
    // one record to its leaf's per-page chain.
    UpdateKeyNTimes(db.get(), 1000, chain);
    SPF_CHECK_OK(db->FlushAll());
    auto victim = db->LeafPageOf(Key(1000));
    SPF_CHECK(victim.ok());
    db->pool()->DiscardAll();
    db->data_device()->InjectSilentCorruption(*victim);
    db->single_page_recovery()->ResetStats();

    SimTimer timer(db->clock());
    auto v = db->Get(Key(1000));
    double elapsed = timer.ElapsedSeconds();
    SPF_CHECK(v.ok()) << v.status().ToString();

    auto spr = db->single_page_recovery()->stats();
    table.AddRow({std::to_string(spr.last_chain_length),
                  std::to_string(spr.log_reads),
                  std::to_string(spr.backup_reads), FormatSeconds(elapsed),
                  FormatSeconds(spr.last_chain_length > 0
                                    ? elapsed / spr.last_chain_length
                                    : 0)});
  }
  table.Print();

  printf(
      "\nBackup-every-N policy bound (section 6: \"fast single-page recovery\n"
      "can be ensured with a page backup after a number of updates\"), by\n"
      "the paper's per-record arithmetic: one 10 ms random log read per\n"
      "chain record plus one backup read:\n");
  Table policy({"policy threshold N", "worst-case chain",
                "per-record bound"});
  for (int n : {10, 100, 1000}) {
    double worst = n * 0.010 + 0.010;  // N random log reads + 1 backup read
    policy.AddRow({std::to_string(n), std::to_string(n), FormatSeconds(worst)});
  }
  policy.Print();
  printf(
      "\nPaper expectation: at ~one random log I/O per update since the\n"
      "last backup, repair time is linear in the chain length and dozens\n"
      "of records => ~1 s (the bound above). Reading the chain in log\n"
      "segments keeps the measured repair well under that bound. Either\n"
      "way the delay is absorbed inside the waiting transaction, which\n"
      "never aborts.\n");
}

}  // namespace
}  // namespace bench
}  // namespace spf

int main(int argc, char** argv) {
  spf::bench::Init(argc, argv);
  spf::bench::Run();
  return 0;
}
