// A seeded mutation corpus over the durable store's read path. Three
// serialized reports (single-node, a cluster run with device_usage, a faulty
// run with lane_faults) and their store envelopes are mutated 2250 ways:
// byte flips, truncations, deleted, duplicated, reordered and unknown
// members, inserted whitespace, non-canonical escapes, type swaps, integers
// past int range and nesting near and past the parser's 256 limit. Every
// mutant goes through deserialize_report() and DiskResultStore::load_record(),
// and each outcome (a reject, or an accept with the hashes of the served
// text and of the re-serialized report) is folded into one FNV-1a digest.
// The digest was recorded before the store read records without building a
// tree, so a reader that accepts, rejects or serves one byte differently
// from the tree reader changes it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bsr/bsr.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "json_mutator.hpp"
#include "serve/report_json.hpp"
#include "serve/store.hpp"

namespace bsr::serve {
namespace {

constexpr std::uint64_t kBasis = 14695981039346656037ull;

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = kBasis) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

RunConfig small_config() {
  RunConfig cfg;
  cfg.n = 1024;
  cfg.b = 128;
  return cfg;
}

RunConfig cluster_config() {
  RunConfig cfg = small_config();
  cfg.devices = 2;
  return cfg;
}

RunConfig faulty_config() {
  RunConfig cfg = small_config();
  cfg.variability = make_variability("jitter");
  cfg.faults = make_faults("poisson");
  cfg.faults.rate_multiplier = 225.0;
  return cfg;
}

// A '/' so that escaping it as "\/" keeps the fingerprint matching.
const std::string kFingerprint = "mutation/n=1024";

std::string envelope(const std::string& report) {
  return "{\"schema\":1,\"fingerprint\":\"" + kFingerprint +
         "\",\"report\":" + report + "}\n";
}

void overwrite(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

constexpr int kReportMutants = 500;
constexpr int kEnvelopeMutants = 250;

TEST(RecordMutation, OutcomesMatchTheTreeReader) {
  // Per process, so that two builds' suites can run at once.
  const std::string dir = ::testing::TempDir() + "bsr_record_mutation_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  DiskResultStore store(dir);
  const std::string path = store.record_path(kFingerprint);

  std::uint64_t digest = kBasis;
  int mutants = 0;
  int accepted = 0;
  int loads = 0;
  // The first reply of one mutant through the store: "R" or "A" with the
  // hashes of the served text and of the report written back out.
  const auto load = [&](const std::string& record) {
    overwrite(path, record);
    ++loads;
    const std::optional<StoredRecord> hit = store.load_record(kFingerprint);
    if (!hit.has_value()) return std::string("R");
    ++accepted;
    // The served bytes are the record's report re-emitted from a tree.
    EXPECT_EQ(hit->json, JsonValue::parse(record).at("report").dump());
    return "A" + hex(fnv1a(hit->json)) +
           hex(fnv1a(serialize_report(hit->report)));
  };
  const auto deserialize = [&](const std::string& report) {
    try {
      const core::RunReport r = deserialize_report(report);
      ++accepted;
      return "A" + hex(fnv1a(serialize_report(r)));
    } catch (const std::exception&) {
      return std::string("R");
    }
  };

  Rng rng(1919);
  for (const RunConfig& cfg :
       {small_config(), cluster_config(), faulty_config()}) {
    const std::string report = serialize_report(bsr::run(cfg));
    const std::string record = envelope(report);
    Mutator reports(report, rng);
    for (int i = 0; i < kReportMutants; ++i, ++mutants) {
      const std::string m = reports.mutate(static_cast<Op>(i % kOpCount));
      digest = fnv1a(deserialize(m), digest);
      digest = fnv1a(load(envelope(m)), digest);
    }
    Mutator records(record.substr(0, record.size() - 1), rng);
    for (int i = 0; i < kEnvelopeMutants; ++i, ++mutants) {
      const std::string m = records.mutate(static_cast<Op>(i % kOpCount));
      digest = fnv1a(load(m + "\n"), digest);
    }
  }
  std::filesystem::remove_all(dir);

  EXPECT_EQ(mutants, 2250);
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits + stats.rejected, static_cast<std::uint64_t>(loads));
  // Recorded on the tree reader.
  EXPECT_EQ(accepted, 1558);
  EXPECT_EQ(digest, 0x9912a95f4589aca6ull) << hex(digest);
}

}  // namespace
}  // namespace bsr::serve
