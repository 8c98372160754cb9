// Scrubber daemon: the self-healing pipeline end to end. A background
// scrubber detects latent faults on an aging device and reports them into
// the failure funnel (RecoveryCoordinator), whose worker drains them
// through the recovery ladder — nothing in this program ever calls
// RecoverPages, Scrub, or RepairPages.
//
// Bairavasundaram et al. (the paper's [2]) found latent sector errors in
// thousands of drives, a majority surfacing during reads and "disk
// scrubbing". Cold pages may sit corrupted for months before an
// application read would notice. Here the Scrubber runs as a real
// background thread, paced on the WALL clock (the simulated clock never
// advances under Instant-style profiles, so wall cadence is what a daemon
// wants); each round, random pages develop latent faults — a mix of
// silent corruption and transient hard read errors. The sweeps detect
// them, the funnel coalesces and heals them, and foreground traffic keeps
// flowing the whole time. The log archiver runs as a second background
// daemon, draining the durable log into sorted runs while the scrubber
// sweeps — its counters surface through the versioned StatsSnapshot (v2)
// alongside the scrubber's.

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "db/database.h"

using namespace spf;

namespace {
constexpr int kRecords = 20000;
constexpr int kRounds = 6;

std::string Key(int i) {
  char buf[20];
  snprintf(buf, sizeof(buf), "key%08d", i);
  return buf;
}

void WaitForSweeps(Database* db, uint64_t target) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (db->scrubber()->totals().sweeps_completed < target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}
}  // namespace

int main() {
  DatabaseOptions options;
  options.num_pages = 4096;
  options.scrub_pages_per_tick = 512;  // incremental sweep quantum
  // Wall-clock cadence: tick every 2 ms of host time. (The simulated
  // cadence would degrade to continuous ticking here, because scrub reads
  // are the only thing advancing the simulated clock.)
  options.scrub_wall_interval = std::chrono::milliseconds(2);
  options.recovery_workers = 4;  // the scheduler's batch fan-out
  // auto_escalate defaults to true: detection sites feed the funnel.
  auto db = std::move(Database::Create(options)).value();

  Txn t = db->BeginTxn();
  for (int i = 0; i < kRecords; ++i) {
    SPF_CHECK_OK(t.Insert(Key(i), "payload-" + std::to_string(i)));
  }
  SPF_CHECK_OK(t.Commit());
  SPF_CHECK_OK(db->TakeFullBackup().status());
  SPF_CHECK_OK(db->FlushAll());
  printf("database loaded: %d records; full backup taken\n", kRecords);

  db->scrubber()->Start();
  printf(
      "background scrubber started (%llu pages per tick, one tick per "
      "%lld ms wall time)\n\n",
      static_cast<unsigned long long>(options.scrub_pages_per_tick),
      static_cast<long long>(options.scrub_wall_interval.count()));
  db->archiver()->Start();
  printf("background log archiver started (sorted runs of ~%llu bytes)\n\n",
         static_cast<unsigned long long>(options.archive_run_bytes));

  Random rng(777);
  uint64_t total_injected = 0;

  for (int round = 1; round <= kRounds; ++round) {
    // The device ages: latent faults appear on random allocated pages —
    // a mix of silent corruption and hard read errors. The pages are
    // dropped from the pool so nothing shields the fault.
    int injected = 0;
    for (int k = 0; k < 3; ++k) {
      int key = static_cast<int>(rng.Uniform(kRecords));
      auto leaf = db->LeafPageOf(Key(key));
      if (!leaf.ok()) continue;
      db->pool()->DiscardPage(*leaf);
      if (rng.Bernoulli(0.5)) {
        db->data_device()->InjectSilentCorruption(*leaf, rng.Next());
      } else {
        db->data_device()->InjectReadError(*leaf, /*permanent=*/false);
      }
      injected++;
    }
    total_injected += injected;

    // Wait for TWO more sweep completions: the pass in flight at injection
    // time may already be past the faulted pages, but the next full pass
    // starts after the faults exist, so it must cover them all. (+2, not
    // +1, is what guarantees the background daemon — not some foreground
    // read — is the thing that detects.) Then let the funnel finish
    // draining what the sweeps reported.
    WaitForSweeps(db.get(), db->scrubber()->totals().sweeps_completed + 2);
    db->funnel()->WaitIdle();

    // Foreground traffic keeps flowing against the healed database.
    for (int i = 0; i < 200; ++i) {
      int key = static_cast<int>(rng.Uniform(kRecords));
      SPF_CHECK_OK(db->Get(Key(key)).status());
    }
    ScrubberTotals scrub = db->scrubber()->totals();
    FunnelTotals funnel = db->funnel()->totals();
    printf(
        "round %d: injected %d fault(s); daemon so far: %llu sweeps, "
        "%llu scanned, %llu detected -> funnel: %llu healed, %llu failed\n",
        round, injected,
        static_cast<unsigned long long>(scrub.sweeps_completed),
        static_cast<unsigned long long>(scrub.pages_scanned),
        static_cast<unsigned long long>(scrub.failures_detected),
        static_cast<unsigned long long>(
            funnel.repaired_spr + funnel.repaired_partial +
            funnel.repaired_full + funnel.skipped_dirty),
        static_cast<unsigned long long>(funnel.failed));
  }

  db->scrubber()->Stop();
  db->archiver()->Stop();
  db->funnel()->WaitIdle();
  StatsSnapshot stats = db->Stats();
  printf(
      "\nlifetime: injected=%llu detected=%llu reported=%llu\n",
      static_cast<unsigned long long>(total_injected),
      static_cast<unsigned long long>(stats.scrubber.failures_detected),
      static_cast<unsigned long long>(stats.scrubber.failures_reported));
  printf(
      "funnel: %llu enqueued, %llu coalesced, %llu batches -> %llu healed "
      "in place, %llu via partial restore, %llu failed\n",
      static_cast<unsigned long long>(stats.funnel.enqueued),
      static_cast<unsigned long long>(stats.funnel.coalesced),
      static_cast<unsigned long long>(stats.funnel.batches),
      static_cast<unsigned long long>(stats.funnel.repaired_spr),
      static_cast<unsigned long long>(stats.funnel.repaired_partial),
      static_cast<unsigned long long>(stats.funnel.failed));
  printf(
      "scheduler: %llu batches, %llu pages repaired, %llu shared segment "
      "fetches, %llu foreground inline repairs\n",
      static_cast<unsigned long long>(stats.scheduler.batches),
      static_cast<unsigned long long>(stats.scheduler.pages_repaired),
      static_cast<unsigned long long>(stats.scheduler.segment_fetches),
      static_cast<unsigned long long>(stats.scheduler.single_repairs));
  printf(
      "archiver: %llu runs cut (%llu live after %llu merges), %llu records "
      "/ %llu bytes archived up to LSN %llu; %llu log bytes recyclable "
      "(archived AND checkpointed)\n",
      static_cast<unsigned long long>(stats.archive.runs_written),
      static_cast<unsigned long long>(stats.archive.active_runs),
      static_cast<unsigned long long>(stats.archive.merges),
      static_cast<unsigned long long>(stats.archive.records_archived),
      static_cast<unsigned long long>(stats.archive.archived_bytes),
      static_cast<unsigned long long>(stats.archive.archived_upto),
      static_cast<unsigned long long>(stats.archive.truncated_log_bytes));

  // Final health check: everything readable and structurally sound.
  uint64_t count = 0;
  SPF_CHECK_OK(db->Scan("", "", [&count](std::string_view, std::string_view) {
    count++;
    return true;
  }));
  SPF_CHECK_OK(db->CheckOffline(nullptr));
  printf("final state: %llu records readable, offline verification OK\n",
         static_cast<unsigned long long>(count));
  FunnelTotals funnel = db->funnel()->totals();
  return count == kRecords && funnel.failed == 0 ? 0 : 1;
}
