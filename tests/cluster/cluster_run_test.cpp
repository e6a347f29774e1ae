// End-to-end behavior of the event-driven cluster engine and its facade:
// accounting consistency, determinism, scaling direction, strategy ordering,
// ABFT coverage accounting per device, and RunConfig dispatch/validation.
#include <gtest/gtest.h>

#include <cstddef>
#include <ostream>
#include <string>
#include <tuple>

#include "bsr/bsr.hpp"
#include "cluster/engine.hpp"
#include "energy/baselines.hpp"
#include "obs/trace.hpp"

namespace bsr {
namespace {

predict::WorkloadModel workload(std::int64_t n, std::int64_t b) {
  return predict::WorkloadModel{predict::Factorization::LU, n, b, 8};
}

cluster::ClusterOptions options(StrategyKind s) {
  cluster::ClusterOptions o;
  o.strategy = s;
  return o;
}

TEST(ClusterEngine, RejectsAGridWhoseIntProductWrapsToTheDeviceCount) {
  // 3 x 1431655768 is 8 modulo 2^32; run as a grid, owner(2) would be device
  // 8 of 0..7.
  const cluster::ClusterProfile profile =
      cluster::ClusterProfile::paper_scaleout(8);
  cluster::ClusterOptions o = options(StrategyKind::BSR);
  o.grid_p = 3;
  o.grid_q = 1431655768;
  EXPECT_THROW((void)cluster::run_cluster(profile, workload(4096, 256), o),
               std::invalid_argument);
  o.grid_p = 2;
  o.grid_q = 4;
  EXPECT_NO_THROW(
      (void)cluster::run_cluster(profile, workload(4096, 256), o));
}

/// One cluster layout of the accounting matrix below.
struct Layout {
  const char* name;  ///< test-name fragment
  const char* cluster;
  int devices;
  const char* collective;
  int grid_p;
  int grid_q;
  bool rebalance;
  /// Panels k >= 1 are factored on their owner device (a rack broadcasting
  /// by ring or tree); otherwise the host factors every panel.
  bool device_panels;
};

constexpr Layout kLayouts[] = {
    {"PaperCluster3", "paper_cluster", 3, "auto", 0, 0, false, false},
    {"NvlinkPairs4", "nvlink_pairs", 4, "auto", 0, 0, false, false},
    {"Rack4x8Auto16", "rack_4x8", 16, "auto", 0, 0, false, true},
    {"Rack8x8Ring4x2", "rack_8x8", 8, "ring", 4, 2, false, true},
    {"Rack8x8Relay8", "rack_8x8", 8, "relay", 0, 0, false, false},
    {"Rack8x8TreeRebalance16", "rack_8x8", 16, "tree", 0, 0, true, true},
};

/// Test names and CTest print a layout by its name, not its pointer bytes.
void PrintTo(const Layout& layout, std::ostream* os) { *os << layout.name; }

/// factorization x layout x hostile world (variability and faults on).
using AccountingCase = std::tuple<Factorization, Layout, bool>;

class ClusterAccounting : public ::testing::TestWithParam<AccountingCase> {};

TEST_P(ClusterAccounting, EveryStrategyConservesLaneTimeEnergyFlopsAndFaults) {
  const auto& [fact, layout, hostile] = GetParam();
  RunConfig cfg;
  cfg.factorization = fact;
  cfg.n = 4096;
  cfg.b = 256;
  cfg.cluster = layout.cluster;
  cfg.devices = layout.devices;
  cfg.collective = layout.collective;
  cfg.grid_p = layout.grid_p;
  cfg.grid_q = layout.grid_q;
  cfg.rebalance = layout.rebalance;
  if (hostile) {
    cfg.variability = make_variability("hostile");
    cfg.faults = make_faults("hostile");
    // The preset's own 0.02/s injects nothing in runs this short.
    cfg.faults.background_rate_per_s = 50.0;
  }
  const predict::WorkloadModel wl = cfg.workload();
  double pd_flops = 0.0;
  double gpu_flops = 0.0;
  for (int k = 0; k < wl.num_iterations(); ++k) {
    pd_flops += wl.iteration(k).pd_flops;
    gpu_flops += wl.iteration(k).gpu_flops();
  }
  // A documented difference from the single-node pipeline (see
  // docs/ARCHITECTURE.md): QR's last iteration charges a larft (pu_flops =
  // b^3) to the GPU, but with no trailing block left no device holds a share
  // of it, so the cluster lanes fall short by exactly that.
  const double unrun_flops =
      fact == Factorization::QR ? wl.iteration(wl.num_iterations() - 1).pu_flops
                                : 0.0;
  const double host_flops =
      layout.device_panels ? wl.iteration(0).pd_flops : pd_flops;
  for (const char* strategy : {"original", "r2h", "sr", "bsr"}) {
    SCOPED_TRACE(strategy);
    cfg.strategy = strategy;
    const core::RunReport r = run(cfg);
    const double makespan = r.seconds();
    ASSERT_GT(makespan, 0.0);
    ASSERT_EQ(r.device_usage.size(),
              1u + static_cast<std::size_t>(layout.devices));
    double lane_flops = 0.0;
    double device_energy = 0.0;
    for (std::size_t i = 0; i < r.device_usage.size(); ++i) {
      const cluster::DeviceUsage& d = r.device_usage[i];
      EXPECT_NEAR(d.busy_s + d.idle_s + d.dvfs_s, makespan, 1e-9 * makespan)
          << d.name;
      EXPECT_GT(d.energy_j, 0.0) << d.name;
      EXPECT_LE(d.recovery_s, d.busy_s) << d.name;
      EXPECT_EQ(d.faults_injected, d.faults_corrected + d.faults_recovered +
                                       d.faults_unrecovered)
          << d.name;
      lane_flops += d.flops;
      if (i > 0) device_energy += d.energy_j;
    }
    EXPECT_EQ(r.cpu_energy_j(), r.device_usage.front().energy_j);
    EXPECT_EQ(r.gpu_energy_j(), device_energy);
    EXPECT_NEAR(pd_flops + gpu_flops - lane_flops, unrun_flops,
                1e-12 * (pd_flops + gpu_flops));
    EXPECT_NEAR(r.device_usage.front().flops, host_flops, 1e-12 * pd_flops);
    if (hostile) {
      EXPECT_GE(r.faults_injected(), 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FactorizationLayoutWorld, ClusterAccounting,
    ::testing::Combine(::testing::Values(Factorization::Cholesky,
                                         Factorization::LU, Factorization::QR),
                       ::testing::ValuesIn(kLayouts), ::testing::Bool()),
    [](const ::testing::TestParamInfo<AccountingCase>& info) {
      return std::string(predict::to_string(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param).name + "_" +
             (std::get<2>(info.param) ? "Hostile" : "Deterministic");
    });

TEST(ClusterEngine, BitwiseDeterministic) {
  const cluster::ClusterProfile profile =
      cluster::ClusterProfile::paper_scaleout(4);
  const predict::WorkloadModel wl = workload(4096, 256);
  const cluster::ClusterReport a =
      cluster::run_cluster(profile, wl, options(StrategyKind::BSR));
  const cluster::ClusterReport b =
      cluster::run_cluster(profile, wl, options(StrategyKind::BSR));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_energy_j(), b.total_energy_j());  // exact, not near
  for (std::size_t d = 0; d < a.devices.size(); ++d) {
    EXPECT_EQ(a.devices[d].energy_j, b.devices[d].energy_j);
    EXPECT_EQ(a.devices[d].busy_s, b.devices[d].busy_s);
    EXPECT_EQ(a.devices[d].final_mhz, b.devices[d].final_mhz);
  }
}

TEST(ClusterEngine, SeedChangesTheRunNoiseOffDoesNot) {
  const cluster::ClusterProfile profile =
      cluster::ClusterProfile::paper_scaleout(2);
  const predict::WorkloadModel wl = workload(4096, 256);
  cluster::ClusterOptions o1 = options(StrategyKind::BSR);
  cluster::ClusterOptions o2 = o1;
  o2.seed = o1.seed + 1;
  EXPECT_NE(cluster::run_cluster(profile, wl, o1).total_energy_j(),
            cluster::run_cluster(profile, wl, o2).total_energy_j());
  o1.noise.enabled = false;
  o2.noise.enabled = false;
  EXPECT_EQ(cluster::run_cluster(profile, wl, o1).total_energy_j(),
            cluster::run_cluster(profile, wl, o2).total_energy_j());
}

TEST(ClusterEngine, MoreDevicesShortenTheMakespan) {
  const predict::WorkloadModel wl = workload(16384, 512);
  const cluster::ClusterOptions o = options(StrategyKind::Original);
  const double t1 =
      cluster::run_cluster(cluster::ClusterProfile::paper_scaleout(1), wl, o)
          .seconds();
  const double t4 =
      cluster::run_cluster(cluster::ClusterProfile::paper_scaleout(4), wl, o)
          .seconds();
  EXPECT_LT(t4, t1);
  EXPECT_GT(t4, t1 / 4.0);  // sublinear: panel + links bound it
}

TEST(ClusterEngine, SharedBusCarriesTwoStreamsBeforeQueueing) {
  // The bus is occupied only for a transfer's *service time* (its share of
  // the aggregate bus bandwidth), so the default 2x-link bus genuinely
  // overlaps two broadcasts; throttling the bus to link speed serializes
  // them and must slow the run down.
  const predict::WorkloadModel wl = workload(16384, 512);
  const cluster::ClusterOptions o = options(StrategyKind::Original);
  cluster::ClusterProfile wide = cluster::ClusterProfile::paper_scaleout(8);
  cluster::ClusterProfile narrow = wide;
  narrow.links.host_bus.bandwidth_gbs = wide.links.host_links[0].bandwidth_gbs;
  const double t_wide = cluster::run_cluster(wide, wl, o).seconds();
  const double t_narrow = cluster::run_cluster(narrow, wl, o).seconds();
  EXPECT_LT(t_wide, t_narrow);
}

TEST(ClusterEngine, DeviceFlopsExcludeChecksumOverhead) {
  // DeviceUsage::flops reports useful factorization throughput: forcing full
  // checksums must cost time/energy without inflating the flop count.
  const cluster::ClusterProfile profile =
      cluster::ClusterProfile::paper_scaleout(2);
  const predict::WorkloadModel wl = workload(4096, 256);
  cluster::ClusterOptions o = options(StrategyKind::Original);
  o.forced_abft = abft::ChecksumMode::Full;
  const cluster::ClusterReport full = cluster::run_cluster(profile, wl, o);
  o.forced_abft = abft::ChecksumMode::None;
  const cluster::ClusterReport none = cluster::run_cluster(profile, wl, o);
  for (std::size_t d = 0; d < full.devices.size(); ++d) {
    EXPECT_DOUBLE_EQ(full.devices[d].flops, none.devices[d].flops);
  }
}

TEST(ClusterEngine, CholeskyBroadcastsTheFullPanelNotTheDiagonalBlock) {
  // The distributed trailing update A22 -= L21*L21^T needs the whole m x b
  // L21 panel at every device; if the engine reused the single-node Cholesky
  // transfer volume (the b x b diagonal block only), links would be nearly
  // free and uncapping their bandwidth would change almost nothing.
  const predict::WorkloadModel chol{predict::Factorization::Cholesky, 16384,
                                    512, 8};
  const cluster::ClusterOptions o = options(StrategyKind::Original);
  const cluster::ClusterProfile paper =
      cluster::ClusterProfile::paper_scaleout(8);
  cluster::ClusterProfile fat = paper;
  for (hw::TransferModel& link : fat.links.host_links) {
    link.bandwidth_gbs *= 100.0;
  }
  fat.links.host_bus.bandwidth_gbs *= 100.0;
  const double t_paper = cluster::run_cluster(paper, chol, o).seconds();
  const double t_fat = cluster::run_cluster(fat, chol, o).seconds();
  EXPECT_GT(t_paper, 1.05 * t_fat);
}

TEST(ClusterEngine, PeerLinksRelayTheBroadcastOffTheBus) {
  // nvlink_pairs forwards the panel to odd devices over the pair's peer link
  // instead of a second host-bus transfer, so it must beat the pure-PCIe
  // topology (and in particular must not be bit-identical to it).
  const predict::WorkloadModel wl = workload(16384, 512);
  const cluster::ClusterOptions o = options(StrategyKind::Original);
  const double t_pcie =
      cluster::run_cluster(cluster::ClusterProfile::paper_scaleout(8), wl, o)
          .seconds();
  const double t_nvlink =
      cluster::run_cluster(cluster::ClusterProfile::nvlink_pairs(8), wl, o)
          .seconds();
  EXPECT_LT(t_nvlink, t_pcie);
}

TEST(ClusterEngine, ReclaimingStrategiesParkRetiredLanes) {
  // Block-cyclic ownership only shrinks, so every device eventually runs its
  // last update; SR/BSR then drop the retired lane to the floor clock while
  // Original keeps clocks pinned at base to the end.
  const cluster::ClusterProfile profile =
      cluster::ClusterProfile::paper_scaleout(4);
  const predict::WorkloadModel wl = workload(4096, 256);
  const cluster::ClusterReport bsr =
      cluster::run_cluster(profile, wl, options(StrategyKind::BSR));
  for (const cluster::DeviceUsage& d : bsr.devices) {
    EXPECT_EQ(d.final_mhz, profile.devices[0].freq.min_mhz) << d.name;
  }
  const cluster::ClusterReport org = cluster::run_cluster(
      profile, wl, options(StrategyKind::Original));
  for (const cluster::DeviceUsage& d : org.devices) {
    EXPECT_EQ(d.final_mhz, profile.devices[0].freq.base_mhz) << d.name;
  }
}

TEST(ClusterEngine, BsrSavesEnergyOverOriginal) {
  const cluster::ClusterProfile profile =
      cluster::ClusterProfile::paper_scaleout(4);
  const predict::WorkloadModel wl = workload(16384, 512);
  const double e_org =
      cluster::run_cluster(profile, wl,
                           options(StrategyKind::Original))
          .total_energy_j();
  const double e_bsr =
      cluster::run_cluster(profile, wl, options(StrategyKind::BSR))
          .total_energy_j();
  EXPECT_LT(e_bsr, e_org);
}

TEST(ClusterEngine, ForcedAbftCountsPerDevice) {
  const cluster::ClusterProfile profile =
      cluster::ClusterProfile::paper_scaleout(2);
  const predict::WorkloadModel wl = workload(4096, 256);
  cluster::ClusterOptions o = options(StrategyKind::Original);
  o.forced_abft = abft::ChecksumMode::Full;
  const cluster::ClusterReport r = cluster::run_cluster(profile, wl, o);
  for (const cluster::DeviceUsage& d : r.devices) {
    EXPECT_GT(d.iters_full, 0) << d.name;
    EXPECT_EQ(d.iters_unprotected, 0) << d.name;
  }
  EXPECT_EQ(r.iters_protected(),
            r.devices[0].iters_full + r.devices[1].iters_full);
  // Checksums cost time and energy.
  o.forced_abft = abft::ChecksumMode::None;
  const cluster::ClusterReport none = cluster::run_cluster(profile, wl, o);
  EXPECT_GT(r.makespan, none.makespan);
}

TEST(ClusterEngine, UpdatesAtClocksWith1DErrorsRunFullChecksums) {
  // Single-side checksums cannot correct 1D errors. A lane whose transition
  // the projection guard skips keeps its clock, and on this run device 7
  // kept 2000 MHz at k = 22 while ABFT-OC's ladder, asked for 2000 MHz,
  // stepped down to 1900 MHz, where single-side checksums suffice.
  obs::TraceRecorder rec;
  RunConfig cfg;
  cfg.factorization = Factorization::Cholesky;
  cfg.n = 15360;
  cfg.strategy = "bsr";
  cfg.reclamation_ratio = 0.25;
  cfg.variability = make_variability("drift");
  cfg.cluster = "rack_8x8";
  cfg.devices = 8;
  cfg.trace = &rec;
  (void)run(cfg);
  const cluster::ClusterProfile profile = make_cluster_profile("rack_8x8", 8);
  int checked = 0;
  for (const obs::TraceSpan& s : rec.spans()) {
    if (s.kind != obs::SpanKind::Update) continue;
    const hw::ErrorRates r =
        profile.devices[static_cast<std::size_t>(s.lane - 1)].errors.rates(
            s.freq_mhz, hw::Guardband::Optimized);
    if (!(r.d1 > 0.0)) continue;
    ++checked;
    EXPECT_EQ(s.abft_mode, static_cast<std::uint8_t>(abft::ChecksumMode::Full))
        << "k=" << s.k << " lane=" << s.lane << " f=" << s.freq_mhz;
  }
  EXPECT_GT(checked, 0);
}

// ---- facade: RunConfig dispatch, ClusterConfig, validation ------------------

TEST(ClusterFacade, RunConfigDispatchesToClusterEngine) {
  RunConfig cfg;
  cfg.n = 4096;
  cfg.b = 256;
  cfg.devices = 2;
  const core::RunReport r = run(cfg);
  ASSERT_EQ(r.device_usage.size(), 3u);  // host + 2 accelerators
  EXPECT_GT(r.seconds(), 0.0);
  EXPECT_GT(r.gflops(), 0.0);
  // Totals aggregate the per-device breakdown exactly.
  EXPECT_DOUBLE_EQ(r.cpu_energy_j(), r.device_usage[0].energy_j);
  EXPECT_DOUBLE_EQ(r.gpu_energy_j(), r.device_usage[1].energy_j +
                                         r.device_usage[2].energy_j);
  // Single-node runs carry no per-device breakdown.
  cfg.devices = 0;
  EXPECT_TRUE(run(cfg).device_usage.empty());
}

TEST(ClusterFacade, ReportCarriesTheConfigAsRun) {
  obs::TraceRecorder recorder;
  RunConfig cfg;
  cfg.n = 4096;
  cfg.b = 0;  // auto-tuned
  cfg.strategy = "SR";
  cfg.devices = 8;
  cfg.cluster = "rack_8x8";
  cfg.grid_p = 2;
  cfg.grid_q = 4;
  cfg.collective = "ring";
  cfg.trace = &recorder;
  const core::RunReport r = run(cfg);
  ASSERT_FALSE(recorder.empty());
  EXPECT_EQ(r.config.b, cfg.block());
  EXPECT_EQ(r.config.trace, nullptr);
  RunConfig resolved = cfg;
  resolved.b = cfg.block();
  EXPECT_EQ(r.config.fingerprint(), resolved.fingerprint());
  EXPECT_EQ(r.config.devices, 8);
  EXPECT_EQ(r.config.grid_p, 2);
  EXPECT_EQ(r.config.collective, "ring");
  // Cluster runs name their strategy by its canonical key; the echoed kind
  // keeps the legacy spelling.
  EXPECT_EQ(r.strategy_name, "sr");
  EXPECT_STREQ(core::strategy_kind_name(r.config), "SR");
  EXPECT_EQ(core::summarize(r).rfind("sr LU n=4096 b=", 0), 0u)
      << core::summarize(r);
}

TEST(ClusterFacade, ClusterConfigMatchesLoweredRunConfig) {
  ClusterConfig cc;
  cc.base.n = 4096;
  cc.base.b = 256;
  cc.devices = 3;
  cc.profile = "nvlink_pairs";
  EXPECT_EQ(cc.lowered().devices, 3);
  EXPECT_EQ(cc.lowered().cluster, "nvlink_pairs");
  const core::RunReport a = run_cluster(cc);
  const core::RunReport b = run(cc.lowered());
  EXPECT_DOUBLE_EQ(a.total_energy_j(), b.total_energy_j());
  EXPECT_EQ(a.seconds(), b.seconds());
  const cluster::ClusterReport detailed = run_cluster_detailed(cc);
  EXPECT_DOUBLE_EQ(detailed.total_energy_j(), a.total_energy_j());
  ASSERT_EQ(detailed.devices.size(), 3u);
}

TEST(ClusterFacade, ValidateRejectsBadClusterConfigs) {
  RunConfig cfg;
  cfg.devices = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.devices = 1;
  cfg.mode = ExecutionMode::Numeric;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.mode = ExecutionMode::TimingOnly;
  cfg.cluster = "no_such_topology";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.cluster = "paper_cluster";
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterFacade, RegistryOnlyStrategiesAreRejectedForClusterRuns) {
  if (!strategies().contains("cluster_test_registry_only")) {
    strategies().add("cluster_test_registry_only",
                     {std::nullopt,
                      [](const RunConfig&)
                          -> std::unique_ptr<energy::Strategy> {
                        return std::make_unique<energy::OriginalStrategy>();
                      }});
  }
  RunConfig cfg;
  cfg.strategy = "cluster_test_registry_only";
  cfg.devices = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.devices = 0;  // single-node path still accepts it
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ClusterFacade, FingerprintSeparatesDeviceCountsAndProfiles) {
  RunConfig a;
  RunConfig b;
  b.devices = 4;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  RunConfig c = b;
  c.cluster = "nvlink_pairs";
  EXPECT_NE(b.fingerprint(), c.fingerprint());
  // The profile is normalized out on single-node runs — it has no effect.
  RunConfig d;
  d.cluster = "nvlink_pairs";
  EXPECT_EQ(a.fingerprint(), d.fingerprint());
  // Aliases canonicalize.
  RunConfig e = b;
  e.cluster = "PCIE";
  EXPECT_EQ(b.fingerprint(), e.fingerprint());
}

TEST(ClusterFacade, FcDesiredStaysSignificantForNonBsrClusterRuns) {
  // The cluster engine's per-device ABFT-OC consults fc_desired under every
  // strategy, so fc must not normalize out of cluster fingerprints (it does
  // on single-node non-BSR runs, where only BsrStrategy reads it).
  RunConfig a;
  a.strategy = "r2h";
  RunConfig b = a;
  b.fc_desired = 0.5;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());  // single-node: normalized
  a.devices = 4;
  b.devices = 4;
  EXPECT_NE(a.fingerprint(), b.fingerprint());  // cluster: significant
}

TEST(ClusterFacade, ValidateMessagePrefixedExactlyOnce) {
  if (!strategies().contains("cluster_test_prefix_probe")) {
    strategies().add("cluster_test_prefix_probe",
                     {std::nullopt,
                      [](const RunConfig&)
                          -> std::unique_ptr<energy::Strategy> {
                        return std::make_unique<energy::OriginalStrategy>();
                      }});
  }
  RunConfig cfg;
  cfg.strategy = "cluster_test_prefix_probe";
  cfg.devices = 2;
  try {
    cfg.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("RunConfig: ", 0), 0u) << what;
    EXPECT_EQ(what.find("RunConfig:", 10), std::string::npos)
        << "doubled prefix: " << what;
  }
}

TEST(ClusterFacade, ProfileRegistryListsBuiltinsAndAliases) {
  EXPECT_TRUE(cluster_profiles().contains("paper_cluster"));
  EXPECT_TRUE(cluster_profiles().contains("pcie"));
  EXPECT_TRUE(cluster_profiles().contains("nvlink"));
  EXPECT_EQ(cluster_profiles().canonical("NVLINK"), "nvlink_pairs");
  const cluster::ClusterProfile p = make_cluster_profile("paper_cluster", 2);
  EXPECT_EQ(p.num_devices(), 2);
  EXPECT_THROW(make_cluster_profile("bogus", 2), std::invalid_argument);
}

TEST(ClusterFacade, WeakAxisGrowsNWithDeviceCount) {
  const Axis axis = weak_devices_axis({1, 2, 8}, 8192);
  ASSERT_EQ(axis.points.size(), 3u);
  RunConfig c1;
  c1.n = 8192;
  c1.b = 512;
  RunConfig c8 = c1;
  axis.points[0].apply(c1);
  axis.points[2].apply(c8);
  EXPECT_EQ(c1.devices, 1);
  // The 1-device point is the base cell verbatim: n and b untouched (even
  // off the 256 grid), so it shares a fingerprint — and one cached run —
  // with a strong-scaling base at the same config.
  EXPECT_EQ(c1.n, 8192);
  EXPECT_EQ(c1.b, 512);
  EXPECT_EQ(c8.devices, 8);
  EXPECT_EQ(c8.n, 16384);  // 8192 * 8^(1/3), on the 256 grid
  EXPECT_EQ(c8.b, 0);      // block re-tunes for the grown size
  RunConfig strong_base;
  strong_base.n = 2000;
  strong_base.devices = 1;
  RunConfig weak_base;
  weak_base.n = 2000;
  weak_devices_axis({1, 2}, 2000).points[0].apply(weak_base);
  EXPECT_EQ(strong_base.fingerprint(), weak_base.fingerprint());
}

TEST(ClusterFacade, SingleNodePlatformKeyNormalizedOutOfClusterFingerprints) {
  // Cluster runs ignore RunConfig::platform (the profile comes from
  // `cluster`), so a platform axis over cluster cells must cache as one run.
  RunConfig a;
  a.devices = 4;
  RunConfig b = a;
  b.platform = "test_small";
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  a.devices = 0;
  b.devices = 0;
  EXPECT_NE(a.fingerprint(), b.fingerprint());  // single-node: significant
}

}  // namespace
}  // namespace bsr
