// E8 — Multi-page failures: from one page to the whole device (paper
// section 5.2 paragraph 2).
//
// "It is perfectly possible that multiple pages fail and that they be
// recovered at the same time ... if all pages on a storage device require
// recovery at the same time, and if their recovery is coordinated, then
// access patterns and performance of the recovery process resemble those
// of traditional media recovery."
//
// Sweep the fraction of failed data pages; repair them all via per-page
// single-page recovery (one chain walk each, random log I/O) and compare
// against one full media recovery (sequential restore + replay). The
// interesting shape: per-page repair wins by orders of magnitude for few
// pages and loses its advantage as the failed fraction approaches 100%.

#include <set>

#include "bench_util.h"

namespace spf {
namespace bench {
namespace {

uint64_t Pages() { return Scaled<uint64_t>(8192, 2048); }  // 64 MiB full size
int Records() { return Scaled(15000, 3000); }

/// Coordinated repair of a burst of concurrently failed pages: the paper's
/// serial per-page baseline (one random log read per chain record, see
/// RepairPagesPerRecord) against the RecoveryScheduler (grouped backup
/// reads + shared log segments). The paper's §5.2 multi-page scenario;
/// the batching strategy follows "Instant restore after a media failure"
/// (Sauer et al., 2017).
void RunBatchedVsSerial() {
  const size_t burst = Scaled<size_t>(64, 16);

  printf("\nE8b: %zu concurrently failed pages - serial vs batched repair\n",
         burst);

  DatabaseOptions options = DiskOptions(Pages());
  options.backup_policy.updates_threshold = 0;
  std::vector<PageId> victims;
  auto db = MakeChainedBurstDb(options, Records(), burst, &victims);
  SPF_CHECK_GE(victims.size(), burst / 2);

  auto corrupt_all = [&] {
    db->pool()->DiscardAll();
    for (PageId v : victims) db->data_device()->InjectSilentCorruption(v);
  };

  Table table({"mode", "pages", "repair time", "per page", "log reads",
               "records applied"});
  double serial_seconds = 0, batched_seconds = 0;

  corrupt_all();
  db->single_page_recovery()->ResetStats();
  {
    SimTimer timer(db->clock());
    SPF_CHECK_OK(RepairPagesPerRecord(db.get(), victims));
    serial_seconds = timer.ElapsedSeconds();
  }
  SinglePageRecoveryStats serial_stats = db->single_page_recovery()->stats();
  table.AddRow({"serial per-page", std::to_string(victims.size()),
                FormatSeconds(serial_seconds),
                FormatSeconds(serial_seconds / victims.size()),
                std::to_string(serial_stats.log_reads),
                std::to_string(serial_stats.log_records_applied)});

  corrupt_all();
  db->single_page_recovery()->ResetStats();
  {
    SimTimer timer(db->clock());
    auto result = db->RepairPages(victims);
    batched_seconds = timer.ElapsedSeconds();
    SPF_CHECK(result.ok()) << result.status().ToString();
    SPF_CHECK_EQ(result->repaired, victims.size());
  }
  SinglePageRecoveryStats batched_stats = db->single_page_recovery()->stats();
  table.AddRow({"batched scheduler", std::to_string(victims.size()),
                FormatSeconds(batched_seconds),
                FormatSeconds(batched_seconds / victims.size()),
                std::to_string(batched_stats.log_reads),
                std::to_string(batched_stats.log_records_applied)});
  table.Print();

  double speedup = serial_seconds / batched_seconds;
  printf(
      "\nBatched speedup: %.1fx in simulated time (grouped backup reads +\n"
      "shared log segments: %llu segment fetches replaced %llu random\n"
      "per-record log reads for the same %llu applied records).\n",
      speedup, static_cast<unsigned long long>(batched_stats.log_reads),
      static_cast<unsigned long long>(serial_stats.log_reads),
      static_cast<unsigned long long>(batched_stats.log_records_applied));
  if (!SmokeMode()) {
    SPF_CHECK_GE(speedup, 2.0)
        << "batched repair must beat serial by >= 2x at this burst size";
  }
}

void Run() {
  const uint64_t kPages = Pages();
  const int kRecords = Records();
  printf(
      "E8: repairing N failed pages - single-page recovery vs. one media "
      "recovery\n");
  Table table({"failed pages", "fraction", "per-page repair", "per page",
               "media recovery", "winner"});

  // Reference media recovery time, measured once on an identical database.
  double media_seconds;
  {
    DatabaseOptions options = DiskOptions(kPages);
    options.backup_policy.updates_threshold = 0;
    auto db = MakeLoadedDb(options, kRecords);
    SPF_CHECK_OK(db->TakeFullBackup().status());
    Txn t = db->BeginTxn();
    for (int i = 0; i < 1000; ++i) {
      SPF_CHECK_OK(t.Update(Key(i * 7 % kRecords), "post-backup"));
    }
    SPF_CHECK_OK(t.Commit());
    db->log()->ForceAll();
    db->data_device()->FailDevice();
    db->pool()->DiscardAll();
    auto stats = db->RecoverMedia();
    SPF_CHECK(stats.ok());
    media_seconds = stats->total_sim_seconds;
  }

  // Collect the set of allocated B-tree pages once.
  DatabaseOptions options = DiskOptions(kPages);
  options.backup_policy.updates_threshold = 0;
  auto db = MakeLoadedDb(options, kRecords);
  SPF_CHECK_OK(db->TakeFullBackup().status());
  SPF_CHECK_OK(db->FlushAll());
  std::vector<PageId> data_pages;
  const PriLayout& layout = db->pri_manager()->layout();
  for (PageId p = layout.reserved_prefix(); p < kPages; ++p) {
    if (db->allocator()->IsAllocated(p) && !layout.IsPriPage(p)) {
      data_pages.push_back(p);
    }
  }

  double media_per_data_page = 0;
  for (double fraction : {0.0, 0.05, 0.20, 0.50, 1.0}) {
    size_t count = fraction == 0.0
                       ? 1
                       : static_cast<size_t>(fraction * data_pages.size());
    if (count == 0) count = 1;
    db->pool()->DiscardAll();
    for (size_t i = 0; i < count; ++i) {
      db->data_device()->InjectSilentCorruption(data_pages[i]);
    }
    SimTimer timer(db->clock());
    auto scrub = db->Scrub();  // detects and repairs every failed page
    double elapsed = timer.ElapsedSeconds();
    SPF_CHECK(scrub.ok()) << scrub.status().ToString();
    SPF_CHECK_GE(scrub->pages_repaired, count);

    char frac[16];
    snprintf(frac, sizeof(frac), "%.0f%%",
             100.0 * static_cast<double>(count) /
                 static_cast<double>(data_pages.size()));
    // The scrub pass reads every allocated page; subtract nothing — the
    // detection scan is part of coordinated whole-set repair.
    table.AddRow({std::to_string(count), frac, FormatSeconds(elapsed),
                  FormatSeconds(elapsed / static_cast<double>(count)),
                  FormatSeconds(media_seconds),
                  elapsed < media_seconds ? "single-page" : "media"});
    if (fraction == 1.0) {
      media_per_data_page =
          media_seconds / static_cast<double>(data_pages.size());
    }
  }
  table.Print();
  printf(
      "\nDensity note: the device holds %zu allocated data pages out of\n"
      "%llu total; media recovery restores and replays the WHOLE device\n"
      "(%s per allocated page), which is why per-page repair still wins at\n"
      "100%% here. At full density the sequential restore's per-page cost\n"
      "undercuts the ~10 ms random log read each per-page repair pays -\n"
      "the access-pattern convergence of section 5.2.\n",
      data_pages.size(), static_cast<unsigned long long>(kPages),
      FormatSeconds(media_per_data_page).c_str());
  printf(
      "\nPaper expectation: a handful of failed pages repairs orders of\n"
      "magnitude faster than media recovery; as the failed fraction grows\n"
      "toward the whole device, per-page repair's random log reads approach\n"
      "(and eventually exceed) the cost of one sequential restore + replay -\n"
      "the access-pattern convergence the paper predicts.\n");
}

}  // namespace
}  // namespace bench
}  // namespace spf

int main(int argc, char** argv) {
  spf::bench::Init(argc, argv);
  spf::bench::Run();
  spf::bench::RunBatchedVsSerial();
  return 0;
}
