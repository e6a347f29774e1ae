// Implementation of the bsr/cluster.hpp facade: the cluster-profile registry,
// RunConfig lowering into the cluster engine, RunReport aggregation, and the
// scaling sweep axes.
#include "bsr/cluster.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/decomposer.hpp"

namespace bsr {

Registry<ClusterProfileFactory>& cluster_profiles() {
  static Registry<ClusterProfileFactory> reg = [] {
    Registry<ClusterProfileFactory> r("cluster profile");
    r.add("paper_cluster", [](int devices) {
      cluster::check_profile_capacity("paper_cluster", devices, 16);
      return cluster::ClusterProfile::paper_scaleout(devices);
    });
    r.add("nvlink_pairs", [](int devices) {
      cluster::check_profile_capacity("nvlink_pairs", devices, 16);
      return cluster::ClusterProfile::nvlink_pairs(devices);
    });
    r.add("rack_4x8", [](int devices) {
      return cluster::ClusterProfile::rack(devices, 8, 4, "rack_4x8");
    });
    r.add("rack_8x8", [](int devices) {
      return cluster::ClusterProfile::rack(devices, 8, 8, "rack_8x8");
    });
    r.alias("pcie", "paper_cluster");
    r.alias("nvlink", "nvlink_pairs");
    r.alias("rack", "rack_8x8");
    return r;
  }();
  return reg;
}

cluster::ClusterProfile make_cluster_profile(const std::string& key,
                                             int devices) {
  return cluster_profiles().get(key)(devices);
}

ClusterProfileInfo cluster_profile_info(const std::string& key) {
  const std::string canon = cluster_profiles().canonical(key);
  if (canon == "paper_cluster" || canon == "nvlink_pairs") return {16, 0};
  if (canon == "rack_4x8") return {32, 8};
  if (canon == "rack_8x8") return {64, 8};
  return {};  // runtime-registered profile: permissive flat default
}

Registry<ClusterCollective>& collectives() {
  static Registry<ClusterCollective> reg = [] {
    Registry<ClusterCollective> r("collective");
    r.add("auto", std::nullopt);
    r.add("relay", cluster::BroadcastSchedule::Relay);
    r.add("ring", cluster::BroadcastSchedule::Ring);
    r.add("tree", cluster::BroadcastSchedule::Tree);
    r.alias("binomial", "tree");
    return r;
  }();
  return reg;
}

ResolvedClusterLayout resolved_cluster_layout(const RunConfig& cfg) {
  const ClusterProfileInfo info = cluster_profile_info(cfg.cluster);
  ResolvedClusterLayout lay;
  if (cfg.grid_p > 0) {
    lay.grid_p = cfg.grid_p;
    lay.grid_q = cfg.grid_q;
  } else if (info.devices_per_node > 0) {
    // Near-square grid: q the largest divisor of devices with q <= sqrt,
    // p >= q — the ScaLAPACK rule of thumb for minimizing broadcast volume.
    int q = 1;
    for (int c = 1; c * c <= cfg.devices; ++c) {
      if (cfg.devices % c == 0) q = c;
    }
    lay.grid_p = cfg.devices / q;
    lay.grid_q = q;
  } else {
    lay.grid_p = cfg.devices;
    lay.grid_q = 1;
  }
  const ClusterCollective coll = collectives().get(cfg.collective);
  lay.schedule = coll.has_value() ? *coll
                 : info.devices_per_node > 0
                     ? cluster::BroadcastSchedule::Tree
                     : cluster::BroadcastSchedule::Relay;
  return lay;
}

RunConfig ClusterConfig::lowered() const {
  RunConfig cfg = base;
  cfg.devices = devices;
  cfg.cluster = profile;
  return cfg;
}

namespace {

cluster::ClusterOptions lower_options(const RunConfig& cfg) {
  cluster::ClusterOptions o;
  // Registry-only strategies were already rejected by cfg.validate() on
  // every path into here; value() turns a violated precondition into a loud
  // bad_optional_access instead of silently running the wrong policy.
  o.strategy = strategies().get(cfg.strategy).kind.value();
  o.bsr = core::bsr_config(cfg);
  // nullopt (Adaptive) = per-device ABFT-OC.
  o.forced_abft = core::forced_checksum(abft_policies().get(cfg.abft_policy));
  o.seed = cfg.seed;
  o.noise.enabled = cfg.noise_enabled;
  o.variability = cfg.variability;
  o.faults = cfg.faults;
  o.trace = cfg.trace;
  const ResolvedClusterLayout lay = resolved_cluster_layout(cfg);
  // The resolved 1-D layout lowers to the engine's 0/0 default so flat
  // profiles drive the exact pre-grid code path.
  if (lay.grid_q != 1 || lay.grid_p != cfg.devices) {
    o.grid_p = lay.grid_p;
    o.grid_q = lay.grid_q;
  }
  o.schedule = lay.schedule;
  o.rebalance = cfg.rebalance;
  return o;
}

cluster::ClusterProfile profile_for(const RunConfig& cfg) {
  cluster::ClusterProfile profile =
      make_cluster_profile(cfg.cluster, cfg.devices);
  if (cfg.error_rate_multiplier != 1.0) {
    for (hw::DeviceModel& dev : profile.devices) {
      dev.errors = dev.errors.scaled(cfg.error_rate_multiplier);
    }
  }
  return profile;
}

core::RunReport wrap(const RunConfig& cfg, const cluster::ClusterReport& cr) {
  core::RunReport report;
  report.config = core::as_run(cfg);
  report.strategy_name = strategies().canonical(cfg.strategy);
  report.trace.total_time = cr.makespan;
  report.trace.cpu_energy_j = cr.host.energy_j;
  report.trace.gpu_energy_j = cr.device_energy_j();
  // ABFT coverage is accounted per device: the run-level counters aggregate
  // device-iterations (a device that ran its local update under single-side
  // checksums counts once), so overhead ratios stay comparable across device
  // counts.
  for (const cluster::DeviceUsage& dev : cr.devices) {
    report.abft.iterations_unprotected +=
        static_cast<int>(dev.iters_unprotected);
    report.abft.iterations_protected_single +=
        static_cast<int>(dev.iters_single);
    report.abft.iterations_protected_full += static_cast<int>(dev.iters_full);
  }
  report.device_usage.reserve(1 + cr.devices.size());
  report.device_usage.push_back(cr.host);
  for (const cluster::DeviceUsage& dev : cr.devices) {
    report.device_usage.push_back(dev);
  }
  if (cfg.faults.enabled) {
    // Per-lane fault accounting (host excluded: panels are not exposed) plus
    // the run-level ABFT counters, mirroring the single-node aggregation in
    // core/decomposer.cpp. The statistical process does not class-resolve
    // per device, so the class-level injected split is folded into 0D.
    for (const cluster::DeviceUsage& dev : cr.devices) {
      core::LaneFaults lf;
      lf.lane = dev.name;
      lf.injected = dev.faults_injected;
      lf.corrected = dev.faults_corrected;
      lf.recovered = dev.faults_recovered;
      lf.unrecovered = dev.faults_unrecovered;
      lf.rollbacks = dev.rollbacks;
      lf.recovery_s = dev.recovery_s;
      report.lane_faults.push_back(lf);
      report.abft.errors_injected_0d += static_cast<int>(dev.faults_injected);
      report.abft.corrected_0d += static_cast<int>(dev.faults_corrected);
      report.abft.uncorrectable += static_cast<int>(dev.faults_uncorrectable);
      report.abft.recoveries += dev.rollbacks;
    }
  }
  return report;
}

}  // namespace

core::RunReport run_cluster(const RunConfig& cfg) {
  cfg.validate();
  if (cfg.devices < 1) {
    throw std::invalid_argument(
        "run_cluster: need devices >= 1 (got " + std::to_string(cfg.devices) +
        "); devices = 0 is the single-node path (bsr::run)");
  }
  const cluster::ClusterProfile profile = profile_for(cfg);
  const cluster::ClusterReport cr =
      cluster::run_cluster(profile, cfg.workload(), lower_options(cfg));
  return wrap(cfg, cr);
}

core::RunReport run_cluster(const ClusterConfig& cfg) {
  return run_cluster(cfg.lowered());
}

cluster::ClusterReport run_cluster_detailed(const ClusterConfig& cfg) {
  const RunConfig lowered = cfg.lowered();
  lowered.validate();
  if (lowered.devices < 1) {
    throw std::invalid_argument("run_cluster_detailed: need devices >= 1");
  }
  return cluster::run_cluster(profile_for(lowered), lowered.workload(),
                              lower_options(lowered));
}

Axis devices_axis(const std::vector<int>& counts) {
  Axis axis{"devices", {}};
  for (const int g : counts) {
    axis.points.push_back(
        {std::to_string(g), [g](RunConfig& c) { c.devices = g; }});
  }
  return axis;
}

Axis weak_devices_axis(const std::vector<int>& counts, std::int64_t n1) {
  Axis axis{"devices", {}};
  for (const int g : counts) {
    // Constant flops per device: n^3 total work => n grows with d^(1/3),
    // rounded to the 256 grid the tuned block sizes like. The 1-device point
    // only sets the device count — n (and the base config's block size) stay
    // exactly as given, so it fingerprints identically to a strong-scaling
    // cell of the same base and is served from the shared result cache.
    if (g == 1) {
      axis.points.push_back({"1", [](RunConfig& c) { c.devices = 1; }});
      continue;
    }
    const double scaled =
        static_cast<double>(n1) * std::cbrt(static_cast<double>(g));
    const std::int64_t n = std::max(
        n1,
        static_cast<std::int64_t>(std::llround(scaled / 256.0) * 256));
    axis.points.push_back({std::to_string(g), [g, n](RunConfig& c) {
                             c.devices = g;
                             c.n = n;
                             c.b = 0;  // re-tune the block for the new size
                           }});
  }
  return axis;
}

}  // namespace bsr
