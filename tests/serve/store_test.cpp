// DiskResultStore: durable save/load round-trips, byte-identical serialized
// records, and LOUD misses (never crashes, never wrong results) on corrupt,
// old-schema, or fingerprint-mismatched records.
#include "serve/store.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "serve/report_json.hpp"

namespace bsr::serve {
namespace {

RunConfig small_config() {
  RunConfig cfg;
  cfg.n = 1024;
  cfg.b = 128;
  return cfg;
}

/// A fresh per-test store directory under the test's temp dir (leftovers
/// from a previous ctest run are wiped so first-load-misses stay misses).
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "bsr_store_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

void overwrite(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

TEST(DiskResultStore, MissThenSaveThenHit) {
  DiskResultStore store(fresh_dir("roundtrip"));
  const RunConfig cfg = small_config();
  const std::string fp = cfg.fingerprint() + ":roundtrip";

  EXPECT_FALSE(store.load_record(fp).has_value());
  EXPECT_EQ(store.stats().misses, 1u);

  const core::RunReport report = bsr::run(cfg);
  store.save_serialized(fp, serialize_report(report));
  EXPECT_EQ(store.stats().saves, 1u);

  const std::optional<StoredRecord> loaded = store.load_record(fp);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().rejected, 0u);
  EXPECT_EQ(serialize_report(loaded->report), serialize_report(report));
}

TEST(DiskResultStore, SerializedPathIsByteIdentical) {
  DiskResultStore store(fresh_dir("serialized"));
  const std::string fp = "fp-serialized";
  const std::string cold = serialize_report(bsr::run(small_config()));

  store.save_serialized(fp, cold);
  const std::shared_ptr<const std::string> warm = store.load_serialized(fp);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(*warm, cold);  // the byte-identity contract, cross-process

  // The daemon's read: text and report from one read, counted once.
  const std::optional<StoredRecord> record = store.load_record(fp);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->json, cold);
  EXPECT_EQ(serialize_report(record->report), cold);
  EXPECT_EQ(store.stats().hits, 2u);
  EXPECT_EQ(store.stats().rejected, 0u);
}

TEST(DiskResultStore, SurvivesReopen) {
  const std::string dir = fresh_dir("reopen");
  const std::string fp = "fp-reopen";
  const std::string cold = serialize_report(bsr::run(small_config()));
  {
    DiskResultStore store(dir);
    store.save_serialized(fp, cold);
  }
  DiskResultStore reopened(dir);  // a daemon restart
  const std::shared_ptr<const std::string> warm =
      reopened.load_serialized(fp);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(*warm, cold);
}

TEST(DiskResultStore, CorruptRecordIsALoudMissNotACrash) {
  DiskResultStore store(fresh_dir("corrupt"));
  const std::string fp = "fp-corrupt";
  store.save_serialized(fp, serialize_report(bsr::run(small_config())));

  overwrite(store.record_path(fp), "{\"schema\":1,\"fingerpr");  // truncated
  EXPECT_FALSE(store.load_record(fp).has_value());
  EXPECT_EQ(store.load_serialized(fp), nullptr);
  EXPECT_EQ(store.stats().rejected, 2u);
  EXPECT_EQ(store.stats().hits, 0u);
}

TEST(DiskResultStore, OldSchemaVersionIsRejected) {
  DiskResultStore store(fresh_dir("schema"));
  const std::string fp = "fp-schema";
  const std::string report_json = serialize_report(bsr::run(small_config()));
  store.save_serialized(fp, report_json);

  // Rewrite the record claiming a pre-historic schema version.
  overwrite(store.record_path(fp),
            "{\"schema\":0,\"fingerprint\":\"" + fp +
                "\",\"report\":" + report_json + "}");
  EXPECT_EQ(store.load_serialized(fp), nullptr);
  EXPECT_EQ(store.stats().rejected, 1u);
}

TEST(DiskResultStore, FingerprintMismatchIsRejected) {
  // A record copied to the wrong path (or a hash collision) must never be
  // served as the requested configuration's result.
  DiskResultStore store(fresh_dir("mismatch"));
  store.save_serialized("fp-A", serialize_report(bsr::run(small_config())));

  std::ifstream in(store.record_path("fp-A"), std::ios::binary);
  const std::string record((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  overwrite(store.record_path("fp-B"), record);

  EXPECT_EQ(store.load_serialized("fp-B"), nullptr);
  EXPECT_EQ(store.stats().rejected, 1u);
  // The original record still loads fine.
  EXPECT_NE(store.load_serialized("fp-A"), nullptr);
}

TEST(DiskResultStore, DeserializationFailureInsideAValidEnvelopeRejects) {
  DiskResultStore store(fresh_dir("badreport"));
  const std::string fp = "fp-badreport";
  overwrite(store.record_path(fp),
            "{\"schema\":1,\"fingerprint\":\"" + fp +
                "\",\"report\":{\"not_a_report\":true}}");
  // The envelope checks out but the report does not deserialize: every read
  // path rejects it loudly, counting one reject per read.
  EXPECT_EQ(store.load_serialized(fp), nullptr);
  EXPECT_FALSE(store.load_record(fp).has_value());
  EXPECT_EQ(store.stats().rejected, 2u);
  EXPECT_EQ(store.stats().hits, 0u);
}

TEST(DiskResultStore, EveryCorruptionClassCountsTheRejectedMetric) {
  // Satellite contract (docs/OBSERVABILITY.md): each corruption class —
  // truncated record, garbage JSON, schema drift — is a loud miss that
  // bumps the process-wide bsr_store_rejected_records_total counter, never
  // a crash and never a stale answer.
  common::Counter& rejected = common::MetricsRegistry::global().counter(
      "bsr_store_rejected_records_total", "");
  DiskResultStore store(fresh_dir("metric"));
  const std::string good = serialize_report(bsr::run(small_config()));

  const std::uint64_t before = rejected.value();

  store.save_serialized("fp-trunc", "{\"schema\":1,\"report\":" + good + "}");
  overwrite(store.record_path("fp-trunc"), "{\"schema\":1,\"fing");
  EXPECT_EQ(store.load_serialized("fp-trunc"), nullptr);
  EXPECT_EQ(rejected.value(), before + 1);

  overwrite(store.record_path("fp-garbage"), "not json at all\n");
  EXPECT_EQ(store.load_serialized("fp-garbage"), nullptr);
  EXPECT_EQ(rejected.value(), before + 2);

  overwrite(store.record_path("fp-drift"),
            "{\"schema\":999,\"fingerprint\":\"fp-drift\",\"report\":" + good +
                "}");
  EXPECT_EQ(store.load_serialized("fp-drift"), nullptr);
  EXPECT_EQ(rejected.value(), before + 3);

  // A valid record written after the carnage still round-trips: corruption
  // of one record never poisons the store.
  store.save_serialized("fp-ok", good);
  const std::shared_ptr<const std::string> ok = store.load_serialized("fp-ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(*ok, good);
}

TEST(DiskResultStore, SigkillMidSaveLeavesTheOldOrTheNewRecord) {
  // A writer process rewrites one record in a loop, alternating two reports,
  // and is killed at a seeded moment. The rename makes each save atomic, so
  // every read after a kill finds one of the two reports whole, or nothing
  // before the first save completed; never a torn record.
  const std::string dir = fresh_dir("sigkill");
  const std::string fp = "fp-sigkill";
  RunConfig sr = small_config();
  sr.strategy = "sr";
  const std::string reports[2] = {serialize_report(bsr::run(small_config())),
                                  serialize_report(bsr::run(sr))};
  ASSERT_NE(reports[0], reports[1]);
  DiskResultStore store(dir);
  Rng rng(20);
  bool saved = false;
  for (int cycle = 0; cycle < 20; ++cycle) {
    SCOPED_TRACE(cycle);
    int started[2];
    ASSERT_EQ(::pipe(started), 0);
    const pid_t child = ::fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
      DiskResultStore writer(dir);
      const char go = 1;
      (void)!::write(started[1], &go, 1);
      // Bounded, in case the test process dies before its kill.
      for (int i = 0; i < 100000; ++i) {
        writer.save_serialized(fp, reports[i % 2]);
      }
      ::_exit(0);
    }
    ::close(started[1]);
    char go = 0;
    ASSERT_EQ(::read(started[0], &go, 1), 1);
    ::close(started[0]);
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng.next_below(2000)));
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    const std::optional<StoredRecord> record = store.load_record(fp);
    if (!record.has_value()) {
      EXPECT_FALSE(saved) << "a saved record went missing";
      continue;
    }
    saved = true;
    EXPECT_TRUE(record->json == reports[0] || record->json == reports[1]);
    EXPECT_EQ(serialize_report(record->report), record->json);
  }
  EXPECT_TRUE(saved) << "no save completed in 20 cycles";
  EXPECT_EQ(store.stats().rejected, 0u);
}

TEST(DiskResultStore, TwoStoresSavingOneRecordNeitherFailNorTearIt) {
  // Two stores over one directory, as two daemons sharing it, each save one
  // record 300 times, alternating two reports, while a third store reads
  // it. Every save completes, and every read finds one report whole.
  const std::string dir = fresh_dir("two_writers");
  const std::string fp = "fp-two-writers";
  RunConfig sr = small_config();
  sr.strategy = "sr";
  const std::string reports[2] = {serialize_report(bsr::run(small_config())),
                                  serialize_report(bsr::run(sr))};
  DiskResultStore writers[2] = {DiskResultStore(dir), DiskResultStore(dir)};
  DiskResultStore reader(dir);
  constexpr int kSaves = 300;
  std::atomic<int> failed_saves{0};
  std::atomic<int> writing{2};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kSaves; ++i) {
        try {
          writers[w].save_serialized(fp, reports[(i + w) % 2]);
        } catch (const std::exception& e) {
          if (failed_saves++ == 0) ADD_FAILURE() << e.what();
        }
      }
      --writing;
    });
  }
  int wrong = 0;
  while (writing.load() > 0) {
    const std::optional<StoredRecord> record = reader.load_record(fp);
    if (record.has_value()) {
      wrong += record->json != reports[0] && record->json != reports[1];
    }
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failed_saves.load(), 0);
  EXPECT_EQ(writers[0].stats().saves + writers[1].stats().saves,
            2u * kSaves);
  EXPECT_EQ(reader.stats().rejected, 0u) << "torn records read";
  EXPECT_EQ(wrong, 0);
  const std::shared_ptr<const std::string> last = reader.load_serialized(fp);
  ASSERT_NE(last, nullptr);
  EXPECT_TRUE(*last == reports[0] || *last == reports[1]);
}

TEST(DiskResultStore, UnreadableDirectoryThrowsAtConstruction) {
  EXPECT_THROW(DiskResultStore("/proc/definitely/not/creatable"),
               std::runtime_error);
}

}  // namespace
}  // namespace bsr::serve
