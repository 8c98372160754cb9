// E15 — the sorted log archive: repair and restore go sequential.
//
// The paper's tail-only chain walk pays one random log read per update
// since the page's last backup (section 6). With the archiver draining
// the log into runs sorted by (page id, LSN), the same chain comes back
// from a handful of positioned sequential archive reads, and a media
// restore's replay plan shrinks its log scan to the unarchived tail while
// archived history arrives pre-partitioned per segment. Two axes:
//
//   E15a  single-page repair: tail chain walk vs archive run merge, with
//         the repaired images required to be byte-identical;
//   E15b  full media restore: replay fed by the raw tail scan vs by the
//         sorted runs plus the residual tail.
//
// `--dump-archive PATH` additionally writes the raw archive volume (every
// page, directory + runs) to PATH so tools/check_archive.py can fsck the
// on-disk format offline — CI wires the two together.

#include <string>

#include "bench_util.h"
#include "log/log_archive.h"

namespace spf {
namespace bench {
namespace {

void RunRepairAxis() {
  printf(
      "E15a: single-page repair, tail chain walk vs sorted-run merge\n"
      "(log and archive on %s: 10 ms seek, 100 MB/s sequential)\n",
      DeviceProfile::Hdd100().name.c_str());

  Table table({"chain length", "tail repair", "tail log reads",
               "archive repair", "archive page reads", "identical"});

  std::vector<int> chains{25, 100, 400};
  if (SmokeMode()) chains = {10};
  for (int chain : chains) {
    DatabaseOptions options = DiskOptions(4096);
    options.backup_policy.updates_threshold = 0;  // chain anchors at backup
    auto db = MakeLoadedDb(options, 2000);
    SPF_CHECK_OK(db->TakeFullBackup().status());
    UpdateKeyNTimes(db.get(), 1000, chain);
    SPF_CHECK_OK(db->FlushAll());
    auto victim = db->LeafPageOf(Key(1000));
    SPF_CHECK(victim.ok());
    const uint32_t page_size = db->options().page_size;
    std::vector<char> ref(page_size);
    db->data_device()->RawRead(*victim, ref.data());

    SinglePageRecovery* spr = db->single_page_recovery();

    // Baseline: the per-page chain walked backward through the log tail,
    // one random read per record.
    SPF_CHECK(db->pool()->DiscardPage(*victim));
    db->data_device()->InjectSilentCorruption(*victim);
    uint64_t log_reads_before = spr->stats().log_reads;
    SimTimer tail_timer(db->clock());
    std::vector<char> tail_img(page_size);
    SPF_CHECK_OK(RepairPagePerRecord(db.get(), *victim, tail_img.data()));
    double tail_s = tail_timer.ElapsedSeconds();
    uint64_t tail_reads = spr->stats().log_reads - log_reads_before;

    // Archived: drain the whole log into sorted runs, then repair the
    // same page as the read path does; its chain now lies wholly below
    // the archive watermark and arrives as one run merge (positioned
    // sequential reads).
    SPF_CHECK_OK(db->archiver()->ArchiveAll());
    SPF_CHECK(db->pool()->DiscardPage(*victim));
    db->data_device()->InjectSilentCorruption(*victim);
    uint64_t merge_reads_before = db->archiver()->stats().merge_reads;
    SimTimer archive_timer(db->clock());
    std::vector<char> archive_img(page_size);
    SPF_CHECK_OK(
        db->recovery_scheduler()->RepairPage(*victim, archive_img.data()));
    double archive_s = archive_timer.ElapsedSeconds();
    uint64_t archive_reads =
        db->archiver()->stats().merge_reads - merge_reads_before;

    bool identical =
        std::memcmp(tail_img.data(), ref.data(), page_size) == 0 &&
        std::memcmp(archive_img.data(), ref.data(), page_size) == 0;
    SPF_CHECK(identical) << "repaired images diverged at chain " << chain;
    table.AddRow({std::to_string(chain), FormatSeconds(tail_s),
                  std::to_string(tail_reads), FormatSeconds(archive_s),
                  std::to_string(archive_reads), "yes"});
  }
  table.Print();
  printf(
      "\nExpectation: the tail walk is linear at ~one random log I/O per\n"
      "chain record; the archive repair reads a few sequential run pages\n"
      "regardless of chain length, and both produce the same bytes.\n");
}

void RunRestoreAxis() {
  printf("\nE15b: media restore replay, raw tail scan vs sorted runs + tail\n");
  Table table({"replay source", "records scanned", "redo applied",
               "replay", "total", "archive page reads"});

  for (bool archived : {false, true}) {
    DatabaseOptions options = DiskOptions(Scaled<uint64_t>(8192, 2048));
    options.backup_policy.updates_threshold = 0;
    const int records = Scaled(8000, 1500);
    auto db = MakeLoadedDb(options, records);
    SPF_CHECK_OK(db->TakeFullBackup().status());
    // Post-backup history the restore must replay.
    for (int round = 0; round < 4; ++round) {
      Txn t = db->BeginTxn();
      for (int i = 0; i < Scaled(500, 100); ++i) {
        SPF_CHECK_OK(t.Update(Key(i * 3 % records), "r" + std::to_string(round)));
      }
      SPF_CHECK_OK(t.Commit());
    }
    db->log()->ForceAll();
    if (archived) SPF_CHECK_OK(db->archiver()->ArchiveAll());
    uint64_t merge_reads_before = db->archiver()->stats().merge_reads;

    db->data_device()->FailDevice();
    db->pool()->DiscardAll();
    auto stats = db->RecoverMedia();
    SPF_CHECK(stats.ok()) << stats.status().ToString();
    uint64_t archive_reads =
        db->archiver()->stats().merge_reads - merge_reads_before;

    // Same end state either way.
    auto check = db->Get(Key(0));
    SPF_CHECK(check.ok()) << check.status().ToString();
    SPF_CHECK(*check == "r3");

    table.AddRow({archived ? "sorted runs + tail" : "raw tail scan",
                  std::to_string(stats->records_scanned),
                  std::to_string(stats->redo_applied),
                  FormatSeconds(stats->replay_sim_seconds),
                  FormatSeconds(stats->total_sim_seconds),
                  std::to_string(archive_reads)});
  }
  table.Print();
  printf(
      "\nExpectation: with the history archived, the replay plan's log scan\n"
      "covers only the unarchived tail (records scanned drops) while the\n"
      "archived records stream from sorted runs per restore segment; the\n"
      "redo work and the restored state are identical.\n");
}

/// Writes the raw archive volume (directory pages + run extents, every
/// page verbatim) to `path` for tools/check_archive.py. Built with tiny
/// runs and a small fan-in so the dump exercises level-0 cuts, merged
/// runs, and the double-buffered directory.
void DumpArchive(const std::string& path) {
  DatabaseOptions options = InstantOptions(2048);
  options.archive_run_bytes = 4 * 1024;
  options.archive_merge_fanin = 3;
  auto db = MakeLoadedDb(options, Scaled(400, 150));
  SPF_CHECK_OK(db->archiver()->ArchiveAll());
  SPF_CHECK_GT(db->archiver()->stats().runs_written, 0u);

  SimDevice* dev = db->archive_device();
  FILE* f = fopen(path.c_str(), "wb");
  SPF_CHECK(f != nullptr) << "cannot open " << path;
  std::vector<char> page(dev->page_size());
  for (PageId p = 0; p < dev->num_pages(); ++p) {
    dev->RawRead(p, page.data());
    SPF_CHECK_EQ(fwrite(page.data(), 1, page.size(), f), page.size());
  }
  SPF_CHECK_EQ(fclose(f), 0);
  printf("\ndumped archive volume: %s (%" PRIu64 " pages x %u bytes, %zu runs)\n",
         path.c_str(), dev->num_pages(), dev->page_size(),
         db->archiver()->runs().size());
}

}  // namespace
}  // namespace bench
}  // namespace spf

int main(int argc, char** argv) {
  spf::bench::Init(argc, argv);
  std::string dump_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--dump-archive") == 0) dump_path = argv[i + 1];
  }
  spf::bench::RunRepairAxis();
  spf::bench::RunRestoreAxis();
  if (!dump_path.empty()) spf::bench::DumpArchive(dump_path);
  return 0;
}
