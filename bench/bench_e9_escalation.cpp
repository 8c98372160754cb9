// E9 — Failure-scope escalation (paper Figure 1, section 3.2).
//
// "If single-page failures are not a supported class of failures, failure
// of a single page must be handled as a media failure. In machines or
// nodes with only one storage device, a media failure is equal to a
// system failure."
//
// The same physical event — one corrupted page — is handled under three
// policies, measuring downtime (simulated) and transactions aborted:
//   1. single-page recovery supported: the reading transaction waits a
//      sub-second repair; nothing aborts;
//   2. escalated to MEDIA failure: every active transaction aborts; the
//      database is down for a full restore + replay;
//   3. escalated to SYSTEM failure (single-device node): crash + restart
//      recovery ON TOP of the media recovery.

#include <atomic>
#include <set>
#include <thread>

#include "bench_util.h"

namespace spf {
namespace bench {
namespace {

uint64_t Pages() { return Scaled<uint64_t>(8192, 2048); }
int Records() { return Scaled(15000, 3000); }

struct Scenario {
  std::string policy;
  double downtime = 0;
  uint64_t txns_aborted = 0;
  std::string note;
};

std::unique_ptr<Database> Setup(bool repair_enabled, PageId* victim) {
  DatabaseOptions options = DiskOptions(Pages());
  options.enable_single_page_repair = repair_enabled;
  options.backup_policy.updates_threshold = 0;
  auto db = MakeLoadedDb(options, Records());
  SPF_CHECK_OK(db->TakeFullBackup().status());
  UpdateKeyNTimes(db.get(), 500, 20);
  SPF_CHECK_OK(db->FlushAll());
  auto v = db->LeafPageOf(Key(500));
  SPF_CHECK(v.ok());
  *victim = *v;
  db->pool()->DiscardAll();
  return db;
}

void Run() {
  printf("E9: one corrupted page, three failure-handling scopes (Figure 1)\n");
  std::vector<Scenario> rows;

  // --- scope 1: single-page failure handled as such ----------------------------
  {
    PageId victim;
    auto db = Setup(/*repair_enabled=*/true, &victim);
    // Five concurrent-ish transactions in flight.
    std::vector<Txn> active;
    for (int i = 0; i < 5; ++i) {
      Txn t = db->BeginTxn();
      // Far from the victim's leaf so the victim stays uncached.
      SPF_CHECK_OK(t.Put(Key(900000 + i), "in-flight"));
      active.push_back(std::move(t));
    }
    db->data_device()->InjectSilentCorruption(victim);
    SimTimer timer(db->clock());
    auto v = active[0].Get(Key(500));  // hits the failure, waits
    double downtime = timer.ElapsedSeconds();
    SPF_CHECK(v.ok()) << v.status().ToString();
    for (Txn& t : active) SPF_CHECK_OK(t.Commit());
    rows.push_back({"single-page recovery", downtime, 0,
                    "reader merely delayed; all 5 txns commit"});
  }

  // --- scope 2: escalated to media failure -------------------------------------
  {
    PageId victim;
    auto db = Setup(/*repair_enabled=*/false, &victim);
    std::vector<Txn> active;
    for (int i = 0; i < 5; ++i) {
      Txn t = db->BeginTxn();
      SPF_CHECK_OK(t.Put(Key(900000 + i), "in-flight"));
      active.push_back(std::move(t));
    }
    db->log()->ForceAll();
    db->data_device()->InjectSilentCorruption(victim);
    SimTimer timer(db->clock());
    auto v = active[0].Get(Key(500));
    SPF_CHECK(v.status().IsMediaFailure()) << v.status().ToString();
    uint64_t aborted = db->txns()->active_count();
    auto stats = db->RecoverMedia();  // aborts active txns internally
    SPF_CHECK(stats.ok()) << stats.status().ToString();
    double downtime = timer.ElapsedSeconds();
    rows.push_back({"escalated: media failure", downtime, aborted,
                    "full restore + replay; all active txns aborted"});
  }

  // --- scope 3: escalated to system failure (single-device node) ----------------
  {
    PageId victim;
    auto db = Setup(/*repair_enabled=*/false, &victim);
    Txn t = db->BeginTxn();
    SPF_CHECK_OK(t.Put(Key(900001), "in-flight"));
    db->log()->ForceAll();
    uint64_t aborted = db->txns()->active_count();
    db->data_device()->InjectSilentCorruption(victim);
    SimTimer timer(db->clock());
    // The node goes down entirely: crash + ARIES restart (undoes the
    // loser); the corrupted page then surfaces on first access and,
    // without single-page recovery, forces a full media recovery.
    db->SimulateCrash();
    auto restart = db->Restart();
    SPF_CHECK(restart.ok()) << restart.status().ToString();
    auto v = db->Get(Key(500));
    SPF_CHECK(v.status().IsMediaFailure()) << v.status().ToString();
    auto media = db->RecoverMedia();
    SPF_CHECK(media.ok()) << media.status().ToString();
    double downtime = timer.ElapsedSeconds();
    rows.push_back({"escalated: system failure", downtime, aborted,
                    "node restart + ARIES restart + media recovery"});
  }

  // --- scope 4: a BURST of failed pages, serial vs batched scheduler ------------
  // The multi-page variant of scope 1: a latent-fault burst is repaired
  // online either page-by-page with the paper's per-record chain walk
  // (RepairPagesPerRecord) or as one coordinated batch through the
  // RecoveryScheduler. Neither aborts anything; the axis is repair
  // downtime.
  for (bool batched : {false, true}) {
    DatabaseOptions options = DiskOptions(Pages());
    options.backup_policy.updates_threshold = 0;
    std::vector<PageId> victims;
    auto db = MakeChainedBurstDb(options, Records(), Scaled<size_t>(64, 16),
                                 &victims);
    for (PageId v : victims) db->data_device()->InjectSilentCorruption(v);

    SimTimer timer(db->clock());
    if (batched) {
      auto result = db->RepairPages(victims);
      SPF_CHECK(result.ok()) << result.status().ToString();
      SPF_CHECK_EQ(result->repaired, victims.size());
    } else {
      SPF_CHECK_OK(RepairPagesPerRecord(db.get(), victims));
    }
    double downtime = timer.ElapsedSeconds();
    std::string label = std::to_string(victims.size()) + "-page burst: " +
                        (batched ? "batched scheduler" : "serial repair");
    rows.push_back({label, downtime, 0,
                    batched ? "grouped backups + shared log segments"
                            : "one random log read per chain record"});
  }

  // --- scope 5: a failed-page BURST hit by CONCURRENT readers ------------------
  // The self-healing axis: the same 64-page burst is discovered by 8
  // concurrent reader threads. Inline handling repairs one page per
  // reader independently; with the failure funnel the readers' reports
  // coalesce into batches that ride the scheduler's grouped-backup /
  // shared-segment machinery. Nothing aborts; the axis is total repair
  // downtime (simulated I/O) and the amount of repair work run.
  for (bool funnel : {false, true}) {
    DatabaseOptions options = DiskOptions(Pages());
    options.backup_policy.updates_threshold = 0;
    options.auto_escalate = funnel;
    options.spr_batch_limit = 128;  // keep coalesced batches on the repair rung
    std::vector<PageId> victims;
    auto db = MakeChainedBurstDb(options, Records(), Scaled<size_t>(64, 16),
                                 &victims);

    // One key per victim page, resolved BEFORE the damage (LeafPageOf
    // fixes pages, which would repair them prematurely afterwards).
    std::vector<std::string> keys;
    {
      std::set<PageId> remaining(victims.begin(), victims.end());
      for (int i = 0; i < Records() && !remaining.empty(); i += 97) {
        auto leaf = db->LeafPageOf(Key(i));
        if (leaf.ok() && remaining.erase(*leaf) > 0) keys.push_back(Key(i));
      }
      db->pool()->DiscardAll();
    }
    for (PageId v : victims) db->data_device()->InjectSilentCorruption(v);

    constexpr int kReaderThreads = 8;
    SimTimer timer(db->clock());
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kReaderThreads; ++t) {
      threads.emplace_back([&] {
        size_t i;
        while ((i = next.fetch_add(1)) < keys.size()) {
          SPF_CHECK_OK(db->Get(keys[i]).status());
        }
      });
    }
    for (auto& th : threads) th.join();
    if (funnel) db->funnel()->WaitIdle();
    double downtime = timer.ElapsedSeconds();

    StatsSnapshot stats = db->Stats();
    std::string label = std::to_string(victims.size()) +
                        "-page burst, 8 readers: " +
                        (funnel ? "funnel-coalesced" : "inline repair");
    std::string note;
    if (funnel) {
      note = std::to_string(stats.funnel.enqueued) + " reports -> " +
             std::to_string(stats.funnel.batches) + " ladder batches, " +
             std::to_string(stats.scheduler.segment_fetches) +
             " shared segment fetches";
    } else {
      note = std::to_string(stats.scheduler.single_repairs) +
             " independent inline repairs, " +
             std::to_string(stats.spr.log_reads) + " log reads";
    }
    rows.push_back({label, downtime, 0, note});
  }

  Table table({"handling scope", "downtime (sim)", "txns aborted", "notes"});
  for (const Scenario& s : rows) {
    table.AddRow({s.policy, FormatSeconds(s.downtime),
                  std::to_string(s.txns_aborted), s.note});
  }
  table.Print();
  printf(
      "\nPaper expectation: supporting the fourth failure class prevents\n"
      "the escalation entirely - sub-second delay and zero aborts, versus\n"
      "minutes-scale downtime and universal aborts when the same event is\n"
      "treated as a media or system failure.\n");
}

}  // namespace
}  // namespace bench
}  // namespace spf

int main(int argc, char** argv) {
  spf::bench::Init(argc, argv);
  spf::bench::Run();
  return 0;
}
