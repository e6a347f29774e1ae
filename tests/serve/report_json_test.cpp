// The serialization fixpoint the serving subsystem's byte-identity guarantee
// reduces to: serialize(deserialize(s)) == s, on reports with every optional
// section populated (iteration traces, device_usage, lane_faults, campaign
// counters), plus loud rejection of anything malformed.
#include "serve/report_json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "bsr/faults.hpp"
#include "bsr/variability.hpp"

namespace bsr::serve {
namespace {

RunConfig small_config() {
  RunConfig cfg;
  cfg.n = 1024;
  cfg.b = 128;
  return cfg;
}

/// A single-node run with variability AND fault campaigning on, so the
/// report carries populated lane_faults and the stochastic knobs.
RunConfig faulty_config() {
  RunConfig cfg = small_config();
  cfg.variability = make_variability("jitter");
  cfg.faults = make_faults("poisson");
  cfg.faults.rate_multiplier = 225.0;
  return cfg;
}

/// A cluster run (devices >= 1), so the report carries device_usage.
RunConfig cluster_config() {
  RunConfig cfg = small_config();
  cfg.devices = 2;
  return cfg;
}

/// An 8-device cluster run.
RunConfig rack_config() {
  RunConfig cfg = small_config();
  cfg.devices = 8;
  return cfg;
}

/// A real LU solve at n = 96.
RunConfig numeric_config() {
  RunConfig cfg;
  cfg.n = 96;
  cfg.b = 32;
  cfg.platform = "numeric_demo";
  cfg.mode = ExecutionMode::Numeric;
  return cfg;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

void expect_fixpoint(const core::RunReport& report) {
  const std::string cold = serialize_report(report);
  const core::RunReport restored = deserialize_report(cold);
  const std::string warm = serialize_report(restored);
  EXPECT_EQ(cold, warm) << "serialize(deserialize(s)) != s";
}

TEST(ReportJson, DefaultConfigReportRoundTripsByteIdentically) {
  expect_fixpoint(bsr::run(small_config()));
}

TEST(ReportJson, FaultyReportRoundTripsWithPopulatedLaneFaults) {
  const core::RunReport report = bsr::run(faulty_config());
  ASSERT_FALSE(report.lane_faults.empty());
  expect_fixpoint(report);

  const core::RunReport restored =
      deserialize_report(serialize_report(report));
  ASSERT_EQ(restored.lane_faults.size(), report.lane_faults.size());
  for (std::size_t i = 0; i < report.lane_faults.size(); ++i) {
    EXPECT_EQ(restored.lane_faults[i].lane, report.lane_faults[i].lane);
    EXPECT_EQ(restored.lane_faults[i].injected,
              report.lane_faults[i].injected);
    EXPECT_EQ(restored.lane_faults[i].unrecovered,
              report.lane_faults[i].unrecovered);
  }
  EXPECT_EQ(restored.fault_coverage(), report.fault_coverage());
}

TEST(ReportJson, ClusterReportRoundTripsWithPopulatedDeviceUsage) {
  const core::RunReport report = bsr::run(cluster_config());
  ASSERT_FALSE(report.device_usage.empty());
  expect_fixpoint(report);

  const core::RunReport restored =
      deserialize_report(serialize_report(report));
  ASSERT_EQ(restored.device_usage.size(), report.device_usage.size());
  for (std::size_t i = 0; i < report.device_usage.size(); ++i) {
    EXPECT_EQ(restored.device_usage[i].name, report.device_usage[i].name);
    EXPECT_EQ(restored.device_usage[i].energy_j,
              report.device_usage[i].energy_j);
  }
}

TEST(ReportJson, MetricsSurviveTheRoundTrip) {
  const core::RunReport report = bsr::run(small_config());
  const core::RunReport restored =
      deserialize_report(serialize_report(report));
  // Bitwise, not approximate: the store serves these as authoritative.
  EXPECT_EQ(restored.seconds(), report.seconds());
  EXPECT_EQ(restored.total_energy_j(), report.total_energy_j());
  EXPECT_EQ(restored.ed2p(), report.ed2p());
  EXPECT_EQ(restored.gflops(), report.gflops());
  ASSERT_EQ(restored.trace.iterations.size(), report.trace.iterations.size());
}

// The serializer's exact bytes, recorded before the JSON writer stopped
// building a temporary string per token. The fixpoint tests above cannot
// see a writer change that alters every document alike; these pins can.
TEST(ReportJson, SerializedBytesArePinned) {
  struct Pinned {
    const char* name;
    RunConfig config;
    std::size_t bytes;
    std::uint64_t hash;
  };
  const Pinned pinned[] = {
      {"default timing", small_config(), 5477u, 0xba740399a005f547ull},
      {"faulty timing", faulty_config(), 5617u, 0x809d898b14e3c90full},
      {"8-device cluster", rack_config(), 4621u, 0x4c3acc0bc1575394ull},
      {"numeric n = 96", numeric_config(), 2747u, 0x54026b9452b46a15ull},
  };
  for (const Pinned& want : pinned) {
    const std::string bytes = serialize_report(bsr::run(want.config));
    EXPECT_EQ(bytes.size(), want.bytes) << want.name;
    EXPECT_EQ(fnv1a(bytes), want.hash) << want.name;
  }
}

TEST(ReportJson, MalformedInputIsRejectedLoudly) {
  EXPECT_THROW((void)deserialize_report("{"), std::runtime_error);
  EXPECT_THROW((void)deserialize_report("[]"), std::runtime_error);
  EXPECT_THROW((void)deserialize_report(R"({"surprise":1})"),
               std::runtime_error);
  // Truncated mid-document.
  const std::string good = serialize_report(bsr::run(small_config()));
  EXPECT_THROW((void)deserialize_report(good.substr(0, good.size() / 2)),
               std::runtime_error);
}

TEST(ConfigJson, RoundTripPreservesTheFingerprint) {
  RunConfig cfg = faulty_config();
  cfg.strategy = "sr";
  cfg.seed = 123456789012345ULL;
  const RunConfig restored =
      config_from_json(JsonValue::parse(serialize_config(cfg)));
  EXPECT_EQ(restored.fingerprint(), cfg.fingerprint());
  EXPECT_EQ(restored.seed, cfg.seed);
  EXPECT_EQ(restored.strategy, cfg.strategy);
}

TEST(ConfigJson, AbsentFieldsKeepDefaults) {
  const RunConfig cfg =
      config_from_json(JsonValue::parse(R"({"n":2048,"strategy":"sr"})"));
  EXPECT_EQ(cfg.n, 2048);
  EXPECT_EQ(cfg.strategy, "sr");
  const RunConfig defaults;
  EXPECT_EQ(cfg.abft_policy, defaults.abft_policy);
  EXPECT_EQ(cfg.seed, defaults.seed);
  EXPECT_EQ(cfg.platform, defaults.platform);
}

TEST(ConfigJson, UnknownKeysThrowInsteadOfRunningTheWrongExperiment) {
  EXPECT_THROW(
      (void)config_from_json(JsonValue::parse(R"({"reclamationratio":0.5})")),
      std::runtime_error);
  EXPECT_THROW((void)config_from_json(
                   JsonValue::parse(R"({"variability":{"dirft":0.01}})")),
               std::runtime_error);
}

}  // namespace
}  // namespace bsr::serve
