// The serialization fixpoint the serving subsystem's byte-identity guarantee
// reduces to: serialize(deserialize(s)) == s, on reports with every optional
// section populated (iteration traces, device_usage, lane_faults, campaign
// counters), plus loud rejection of anything malformed.
#include "serve/report_json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bsr/faults.hpp"
#include "bsr/sweep.hpp"
#include "bsr/variability.hpp"
#include "common/rng.hpp"

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

/// The requests of the benchmark's paper grid (paper_grid_requests in
/// benchsuite/sim.cpp, seed 1): each cell, then the "original" baseline
/// bsr::Sweep substitutes for it, in grid order.
std::vector<RunConfig> paper_grid_requests() {
  Axis variability{"variability", {}};
  for (const char* preset : {"off", "drift"}) {
    const VariabilityConfig v = make_variability(preset);
    variability.points.push_back(
        {preset, [v](RunConfig& c) { c.variability = v; }});
  }
  const Axis axes[] = {
      variability,
      strategy_axis({"original", "r2h", "sr", "bsr"}),
      factorization_axis(
          {Factorization::Cholesky, Factorization::LU, Factorization::QR}),
      size_axis({5120, 10240, 15360, 20480, 25600, 30720}),
      ratio_axis({0.0, 0.25, 0.5, 1.0}),
      trial_axis(2, 1),
  };
  std::vector<RunConfig> cells = {RunConfig{}};
  for (const Axis& axis : axes) {
    std::vector<RunConfig> next;
    for (const RunConfig& cell : cells) {
      for (const AxisPoint& point : axis.points) {
        next.push_back(cell);
        point.apply(next.back());
      }
    }
    cells = std::move(next);
  }
  const RunConfig defaults;
  std::vector<RunConfig> out;
  for (const RunConfig& cell : cells) {
    out.push_back(cell);
    RunConfig baseline = cell;
    baseline.strategy = "original";
    baseline.reclamation_ratio = defaults.reclamation_ratio;
    baseline.fc_desired = defaults.fc_desired;
    baseline.bsr_use_optimized_guardband =
        defaults.bsr_use_optimized_guardband;
    baseline.bsr_allow_overclocking = defaults.bsr_allow_overclocking;
    baseline.bsr_use_enhanced_predictor = defaults.bsr_use_enhanced_predictor;
    out.push_back(baseline);
  }
  return out;
}

// The reports a daemon executes for the benchmark's grid traffic: the first
// configuration of each distinct fingerprint, as serve_cold sends them. The
// digest was recorded with the writer that kept a comma flag per open
// container.
TEST(ReportJson, GridReportsMatchTheParent) {
  std::set<std::string> seen;
  std::size_t reports = 0;
  std::size_t bytes = 0;
  std::uint64_t digest = 1469598103934665603ull;
  for (const RunConfig& cfg : paper_grid_requests()) {
    if (!seen.insert(cfg.fingerprint()).second) continue;
    const std::string json = serialize_report(bsr::run(cfg)) + "\n";
    ++reports;
    bytes += json.size();
    for (const unsigned char ch : json) {
      digest ^= ch;
      digest *= 1099511628211ull;
    }
  }
  EXPECT_EQ(reports, 504u);
  EXPECT_EQ(bytes, 18306085u);
  EXPECT_EQ(digest, 0xd08ca5a301a495e1ull);
}

/// Adds "<path>.<key>" to `keys` for every object member in `v`, array
/// indices left out, so each field list's keys appear once per place the
/// writer puts that list.
void collect_keys(const JsonValue& v, const std::string& path,
                  std::set<std::string>& keys) {
  if (v.is_array()) {
    for (const JsonValue& item : v.items()) collect_keys(item, path + "[]", keys);
  } else if (v.is_object()) {
    for (const auto& [key, member] : v.members()) {
      keys.insert(path + "." + key);
      collect_keys(member, path + "." + key, keys);
    }
  }
}

// The writer copies every field-list key without scanning it for bytes to
// escape, which is only right for keys that need none.
TEST(ReportJson, EveryListedKeyNeedsNoEscaping) {
  // A faulty single-node run reaches the trace's iterations and
  // lane_faults, a cluster run device_usage, both the rest of the report's
  // lists and the options echo's, and serialize_config RunConfig's.
  const core::RunReport faulty = bsr::run(faulty_config());
  const core::RunReport cluster = bsr::run(cluster_config());
  ASSERT_FALSE(faulty.trace.iterations.empty());
  ASSERT_FALSE(faulty.lane_faults.empty());
  ASSERT_FALSE(cluster.device_usage.empty());
  std::set<std::string> keys;
  collect_keys(JsonValue::parse(serialize_report(faulty)), "report", keys);
  collect_keys(JsonValue::parse(serialize_report(cluster)), "report", keys);
  collect_keys(JsonValue::parse(serialize_config(faulty_config())), "config",
               keys);
  // 114 places in a report and 46 in a config: the 139 listed keys, the
  // variability and faults lists' 21 counted under both.
  EXPECT_EQ(keys.size(), 160u);
  for (const std::string& path : keys) {
    const std::string key = path.substr(path.rfind('.') + 1);
    EXPECT_FALSE(key.empty()) << path;
    for (const char c : key) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')
          << path;
    }
  }
}

TEST(ReportJson, SerializedReportHoldsNoSpareCapacity) {
  // The daemon keeps every report it executed for its lifetime, so the text
  // is allocated at its own size, not at the size string doubling left.
  for (const RunConfig& cfg : {small_config(), faulty_config(), rack_config(),
                               numeric_config()}) {
    const std::string bytes = serialize_report(bsr::run(cfg));
    EXPECT_EQ(bytes.capacity(), bytes.size());
  }
}

/// `bytes` with its only occurrence of `from` replaced by `to`.
std::string replaced(std::string bytes, const std::string& from,
                     const std::string& to) {
  const std::size_t at = bytes.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  EXPECT_EQ(bytes.find(from, at + 1), std::string::npos) << from;
  if (at != std::string::npos) bytes.replace(at, from.size(), to);
  return bytes;
}

TEST(ReportJson, OptionsEchoReadsBackTheRegistryKey) {
  // The "options" object keeps the StrategyKind spelling; reading it back
  // yields the canonical registry key, aliases included.
  const struct {
    const char* key;
    const char* spelling;
    const char* canonical;
  } cases[] = {{"original", "Original", "original"},
               {"org", "Original", "original"},
               {"r2h", "R2H", "r2h"},
               {"sr", "SR", "sr"},
               {"BSR", "BSR", "bsr"}};
  for (const auto& c : cases) {
    RunConfig cfg = small_config();
    cfg.strategy = c.key;
    const std::string bytes = serialize_report(bsr::run(cfg));
    EXPECT_NE(bytes.find(std::string(R"("strategy":")") + c.spelling + "\""),
              std::string::npos)
        << c.key;
    const core::RunReport restored = deserialize_report(bytes);
    EXPECT_EQ(restored.config.strategy, c.canonical) << c.key;
    EXPECT_EQ(serialize_report(restored), bytes) << c.key;
  }
}

TEST(ReportJson, UnknownStrategySpellingIsRejected) {
  const std::string good = serialize_report(bsr::run(small_config()));
  ASSERT_NO_THROW((void)deserialize_report(good));
  // Only the four StrategyKind spellings are read; registry keys and other
  // spellings are not what any writer produced.
  for (const char* bad : {"bsr", "Bsr", "GreenLA", ""}) {
    const std::string bytes =
        replaced(good, R"("strategy":"BSR")",
                 std::string(R"("strategy":")") + bad + "\"");
    EXPECT_THROW((void)deserialize_report(bytes), std::runtime_error) << bad;
  }
}

TEST(ReportJson, UnstoredConfigFieldsReadBackAsDefaults) {
  RunConfig cfg = small_config();
  cfg.strategy = "sr";
  cfg.seed = 42;
  cfg.abft_policy = "single";
  cfg.bsr_use_enhanced_predictor = false;
  cfg.devices = 2;
  cfg.cluster = "nvlink_pairs";
  cfg.rebalance = true;
  const core::RunReport report = bsr::run(cfg);
  const core::RunReport restored =
      deserialize_report(serialize_report(report));
  // The echoed knobs survive...
  EXPECT_EQ(restored.config.n, cfg.n);
  EXPECT_EQ(restored.config.b, cfg.b);
  EXPECT_EQ(restored.config.strategy, "sr");
  EXPECT_EQ(restored.config.seed, 42u);
  // ...and the rest reads back as RunConfig's defaults.
  const RunConfig defaults;
  EXPECT_EQ(restored.config.abft_policy, defaults.abft_policy);
  EXPECT_EQ(restored.config.bsr_use_enhanced_predictor,
            defaults.bsr_use_enhanced_predictor);
  EXPECT_EQ(restored.config.platform, defaults.platform);
  EXPECT_EQ(restored.config.devices, defaults.devices);
  EXPECT_EQ(restored.config.cluster, defaults.cluster);
  EXPECT_EQ(restored.config.rebalance, defaults.rebalance);
  EXPECT_EQ(restored.config.trace, nullptr);
  // strategy_name is stored as is.
  EXPECT_EQ(restored.strategy_name, report.strategy_name);
  EXPECT_EQ(restored.strategy_name, "sr");
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
  // A rack run off its auto layout (which would be 4x2, tree, static
  // shares): parsed back without its layout it is a different experiment.
  RunConfig rack = small_config();
  rack.devices = 8;
  rack.cluster = "rack_8x8";
  rack.grid_p = 2;
  rack.grid_q = 4;
  rack.collective = "ring";
  rack.rebalance = true;
  for (const RunConfig& c : {cfg, rack}) {
    const RunConfig restored =
        config_from_json(JsonValue::parse(serialize_config(c)));
    EXPECT_EQ(restored.fingerprint(), c.fingerprint());
    EXPECT_EQ(restored.seed, c.seed);
    EXPECT_EQ(restored.strategy, c.strategy);
  }
}

TEST(ConfigJson, AcceptsTheClusterLayoutFields) {
  const RunConfig cfg = config_from_json(JsonValue::parse(
      R"({"devices":8,"cluster":"rack_8x8","grid_p":2,"grid_q":4,)"
      R"("collective":"ring","rebalance":true})"));
  EXPECT_EQ(cfg.grid_p, 2);
  EXPECT_EQ(cfg.grid_q, 4);
  EXPECT_EQ(cfg.collective, "ring");
  EXPECT_TRUE(cfg.rebalance);
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_NE(cfg.fingerprint().find(";grid=2x4;coll=ring;rebal=1;"),
            std::string::npos)
      << cfg.fingerprint();
}

/// A seeded random RunConfig over every field serialize_config writes. The
/// values need not pass validate() — the codec carries any config — but the
/// registry keys resolve, so fingerprint() can canonicalize them.
RunConfig random_config(Rng& rng) {
  const auto pick = [&rng](std::initializer_list<const char*> keys) {
    return std::string(keys.begin()[rng.next_below(keys.size())]);
  };
  const auto flag = [&rng] { return rng.next_below(2) == 1; };
  const auto count = [&rng](int hi) {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(hi) + 1));
  };
  const auto real = [&rng, &count] {
    // Decimals binary cannot hold, unit draws needing all 17 digits, and
    // magnitudes far from 1 on either side.
    switch (rng.next_below(4)) {
      case 0: return 0.1 * count(10);
      case 1: return rng.uniform(0.0, 1.0);
      case 2: return std::ldexp(rng.uniform(0.5, 1.0), count(200) - 100);
      default: return -rng.uniform(0.0, 1e6);
    }
  };
  RunConfig c;
  c.factorization = std::initializer_list<Factorization>{
      Factorization::Cholesky, Factorization::LU,
      Factorization::QR}.begin()[rng.next_below(3)];
  c.n = static_cast<std::int64_t>(rng.next_u64() >> count(63));
  c.b = static_cast<std::int64_t>(rng.next_below(1024));
  c.elem_bytes = flag() ? 4 : 8;
  c.strategy = pick({"original", "org", "r2h", "sr", "bsr", "BSR"});
  c.reclamation_ratio = real();
  c.fc_desired = real();
  c.bsr_use_optimized_guardband = flag();
  c.bsr_allow_overclocking = flag();
  c.bsr_use_enhanced_predictor = flag();
  c.abft_policy = pick({"adaptive", "none", "single", "full", "force_full"});
  c.recover_uncorrectable = flag();
  c.mode = flag() ? ExecutionMode::Numeric : ExecutionMode::TimingOnly;
  c.seed = rng.next_u64();
  c.error_rate_multiplier = real();
  c.noise_enabled = flag();
  c.platform = pick({"paper_default", "test_small", "numeric_demo", "paper"});

  c.variability.enabled = flag();
  c.variability.drift = real();
  c.variability.drift_cap = real();
  c.variability.transfer_jitter = real();
  c.variability.dvfs_jitter = real();
  c.variability.freq_quantum_mhz = count(200);
  c.variability.boost_budget_s = real();
  c.variability.boost_recovery = real();
  c.variability.seed = rng.next_u64();

  c.faults.enabled = flag();
  c.faults.process =
      flag() ? faultcamp::ProcessKind::Fixed : faultcamp::ProcessKind::Poisson;
  c.faults.rate_multiplier = real();
  c.faults.background_rate_per_s = real();
  c.faults.burst_mean = real();
  c.faults.hazard_sigma = real();
  c.faults.fixed_d0 = count(5);
  c.faults.fixed_d1 = count(5);
  c.faults.fixed_d2 = count(5);
  c.faults.correction_s = real();
  c.faults.rollback = flag();
  c.faults.seed = rng.next_u64();

  c.devices = flag() ? 0 : 1 << count(6);
  c.cluster = pick({"paper_cluster", "nvlink_pairs", "rack_4x8", "rack_8x8",
                    "rack"});
  if (flag()) {
    c.grid_p = count(8);
    c.grid_q = count(8);
  }
  c.collective = pick({"auto", "relay", "ring", "tree", "binomial"});
  c.rebalance = flag();
  return c;
}

TEST(ConfigJson, SerializeParseSerializeIsAFixpoint) {
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    const RunConfig cfg = random_config(rng);
    const std::string bytes = serialize_config(cfg);
    const RunConfig back = config_from_json(JsonValue::parse(bytes));
    ASSERT_EQ(serialize_config(back), bytes) << "config " << i;
    ASSERT_EQ(back.fingerprint(), cfg.fingerprint()) << bytes;
  }
}

TEST(ConfigJson, LayoutFieldsFollowClusterInEveryConfig) {
  // Single-node configs carry the cluster layout too, at its defaults, so
  // every request line has the same keys in the same order.
  const std::string defaults = serialize_config(small_config());
  EXPECT_NE(defaults.find(R"("cluster":"paper_cluster","grid_p":0,"grid_q":0,)"
                          R"("collective":"auto","rebalance":false})"),
            std::string::npos)
      << defaults;
  RunConfig rack = small_config();
  rack.devices = 8;
  rack.cluster = "rack_8x8";
  rack.grid_p = 2;
  rack.grid_q = 4;
  rack.collective = "ring";
  rack.rebalance = true;
  const std::string bytes = serialize_config(rack);
  EXPECT_NE(bytes.find(R"("cluster":"rack_8x8","grid_p":2,"grid_q":4,)"
                       R"("collective":"ring","rebalance":true})"),
            std::string::npos)
      << bytes;
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

TEST(ConfigJson, IntegersOutsideIntRangeAreRefusedNotWrapped) {
  // 4294967298 is 2 modulo 2^32: narrowed, it would read as a valid grid.
  for (const char* json :
       {R"({"grid_p":4294967298})", R"({"grid_q":-2147483649})",
        R"({"devices":4294967304})", R"({"elem_bytes":4294967304})",
        R"({"variability":{"freq_quantum_mhz":2147483648}})",
        R"({"faults":{"fixed_d0":-4294967295}})"}) {
    EXPECT_THROW((void)config_from_json(JsonValue::parse(json)),
                 std::runtime_error)
        << json;
  }
  // The bounds themselves are in range.
  EXPECT_EQ(config_from_json(JsonValue::parse(R"({"grid_p":2147483647})"))
                .grid_p,
            2147483647);
  EXPECT_EQ(config_from_json(JsonValue::parse(R"({"grid_q":-2147483648})"))
                .grid_q,
            -2147483647 - 1);
}

// ---- every serialized field reaches the fingerprint -------------------------

/// A base config for the fingerprint-coverage test below.
struct FingerprintBase {
  const char* name;
  RunConfig config;
  /// The keys fingerprint() normalizes out of this base, by its documented
  /// rules. "block.*" stands for every key of a disabled block but
  /// block.enabled: the whole block collapses to one key.
  std::vector<std::string> normalized_out;
  /// The keys whose replacement validate() rejects under this base.
  std::vector<std::string> invalid;
};

std::vector<FingerprintBase> fingerprint_bases() {
  RunConfig numeric;
  numeric.n = 4096;
  numeric.mode = ExecutionMode::Numeric;
  numeric.variability.enabled = true;
  numeric.variability.drift = 0.02;
  numeric.variability.transfer_jitter = 0.1;
  RunConfig faulty;
  faulty.n = 4096;
  faulty.strategy = "sr";
  faulty.faults.enabled = true;
  RunConfig rack;
  rack.n = 4096;
  rack.strategy = "original";
  rack.devices = 8;
  rack.cluster = "rack_8x8";
  // fingerprint()'s rules: original/r2h/sr ignore the BSR-only knobs, and
  // fc_desired too unless the run is on a cluster; recover_uncorrectable
  // only matters in numeric runs; a cluster run ignores `platform` and a
  // single-node run the cluster layout; a disabled block collapses.
  const std::vector<std::string> layout = {"cluster", "grid_p", "grid_q",
                                           "collective", "rebalance"};
  const std::vector<std::string> bsr_knobs = {
      "reclamation_ratio", "bsr_use_optimized_guardband",
      "bsr_allow_overclocking", "bsr_use_enhanced_predictor"};
  const auto join = [](std::vector<std::string> a,
                       const std::vector<std::string>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  return {
      {"numeric BSR, variability on", numeric, join({"faults.*"}, layout),
       {"faults.enabled", "devices"}},
      {"timing-only SR, faults on", faulty,
       join(join({"fc_desired", "recover_uncorrectable", "variability.*"},
                 bsr_knobs),
            layout),
       {"mode"}},
      {"Original on 8 rack_8x8 devices", rack,
       join({"recover_uncorrectable", "platform", "variability.*", "faults.*"},
            bsr_knobs),
       {"mode"}},
  };
}

/// Replacement values (JSON tokens) for every key serialize_config writes
/// that is not a bool; bools are negated. A key takes its first value
/// unequal to the base's.
const std::map<std::string, std::vector<std::string>> kReplacements = {
    {"factorization", {R"("QR")"}},
    {"n", {"2048"}},
    {"b", {"256"}},
    {"elem_bytes", {"4"}},
    {"strategy", {R"("r2h")"}},
    {"reclamation_ratio", {"0.5"}},
    {"fc_desired", {"0.99"}},
    {"abft_policy", {R"("full")"}},
    {"mode", {R"("Numeric")", R"("TimingOnly")"}},
    {"seed", {R"("7")"}},
    {"error_rate_multiplier", {"2"}},
    {"platform", {R"("test_small")"}},
    {"variability.drift", {"0.05"}},
    {"variability.drift_cap", {"0.2"}},
    {"variability.transfer_jitter", {"0.3"}},
    {"variability.dvfs_jitter", {"0.3"}},
    {"variability.freq_quantum_mhz", {"100"}},
    {"variability.boost_budget_s", {"2"}},
    {"variability.boost_recovery", {"0.25"}},
    {"variability.seed", {R"("7")"}},
    {"faults.process", {R"("Fixed")"}},
    {"faults.rate_multiplier", {"3"}},
    {"faults.background_rate_per_s", {"0.5"}},
    {"faults.burst_mean", {"2"}},
    {"faults.hazard_sigma", {"0.3"}},
    {"faults.fixed_d0", {"3"}},
    {"faults.fixed_d1", {"1"}},
    {"faults.fixed_d2", {"1"}},
    {"faults.correction_s", {"0.001"}},
    {"faults.seed", {R"("7")"}},
    {"devices", {"4"}},
    {"cluster", {R"("rack_4x8")"}},
    {"grid_p", {"8"}},
    {"grid_q", {"8"}},
    {"collective", {R"("ring")"}},
};

/// validate() couples the grid factors, so each moves with its partner at 1.
const std::map<std::string, std::string> kGridPartner = {
    {"grid_p", "grid_q"}, {"grid_q", "grid_p"}};

/// Every key of `doc`, nested keys dotted ("variability.drift").
std::vector<std::string> dotted_keys(const JsonValue& doc,
                                     const std::string& prefix = "") {
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.members()) {
    if (!value.is_object()) {
      keys.push_back(prefix + key);
      continue;
    }
    for (std::string& k : dotted_keys(value, prefix + key + ".")) {
      keys.push_back(std::move(k));
    }
  }
  return keys;
}

/// The value at dotted `path` in `doc`.
const JsonValue& value_at(const JsonValue& doc, const std::string& path) {
  const std::size_t dot = path.find('.');
  if (dot == std::string::npos) return doc.at(path);
  return value_at(doc.at(path.substr(0, dot)), path.substr(dot + 1));
}

/// `doc` with the value at dotted `path` replaced by `value`.
JsonValue with(const JsonValue& doc, const std::string& path,
               const JsonValue& value) {
  const std::size_t dot = path.find('.');
  std::vector<std::pair<std::string, JsonValue>> members = doc.members();
  for (auto& [key, v] : members) {
    if (key != path.substr(0, dot)) continue;
    v = dot == std::string::npos ? value
                                 : with(v, path.substr(dot + 1), value);
  }
  return JsonValue::make_object(std::move(members));
}

bool listed(const std::vector<std::string>& keys, const std::string& key) {
  return std::any_of(keys.begin(), keys.end(), [&key](const std::string& k) {
    if (!k.ends_with(".*")) return k == key;
    return key.starts_with(k.substr(0, k.size() - 1)) &&
           !key.ends_with(".enabled");
  });
}

TEST(ConfigJson, EverySerializedFieldReachesTheFingerprint) {
  std::set<std::string> keys;
  std::set<std::string> reached;
  for (const FingerprintBase& base : fingerprint_bases()) {
    ASSERT_NO_THROW(base.config.validate()) << base.name;
    const std::string fp = base.config.fingerprint();
    const JsonValue doc = JsonValue::parse(serialize_config(base.config));
    for (const std::string& key : dotted_keys(doc)) {
      SCOPED_TRACE(std::string(base.name) + ": " + key);
      keys.insert(key);
      const JsonValue& old = value_at(doc, key);
      JsonValue mutated;
      if (old.is_bool()) {
        mutated = with(doc, key, JsonValue::make_bool(!old.as_bool()));
      } else {
        const auto it = kReplacements.find(key);
        ASSERT_NE(it, kReplacements.end()) << "no replacement for this key";
        const auto token = std::find_if(
            it->second.begin(), it->second.end(),
            [&old](const std::string& t) { return t != old.dump(); });
        ASSERT_NE(token, it->second.end()) << "every replacement equals it";
        mutated = with(doc, key, JsonValue::parse(*token));
        if (const auto p = kGridPartner.find(key); p != kGridPartner.end()) {
          mutated = with(mutated, p->second, JsonValue::parse("1"));
        }
      }
      const RunConfig cfg = config_from_json(mutated);
      if (listed(base.invalid, key)) {
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
        continue;
      }
      ASSERT_NO_THROW(cfg.validate());
      if (listed(base.normalized_out, key)) {
        EXPECT_EQ(cfg.fingerprint(), fp) << "no longer normalized out";
      } else {
        EXPECT_NE(cfg.fingerprint(), fp) << "missing from the fingerprint";
        reached.insert(key);
      }
    }
  }
  EXPECT_EQ(reached, keys) << "some keys reach no base's fingerprint";
  for (const auto& entry : kReplacements) {
    EXPECT_TRUE(keys.contains(entry.first)) << "stale key " << entry.first;
  }
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
