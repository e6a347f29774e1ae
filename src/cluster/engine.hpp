// Event-driven cluster factorization engine.
//
// Generalizes the two-lane sched::HybridPipeline to one host plus N
// accelerators: per iteration k the host factors panel k (PD), the panel is
// broadcast over the per-device links (queueing on the shared host bus), and
// every device applies the update to the trailing block columns it owns
// (block-cyclic). The owner of panel k+1 ships it back to the host as soon as
// *its own* update finishes — the look-ahead that lets PD(k+1) overlap the
// other devices' Upd(k, .) work. There is no per-iteration barrier: tasks are
// ordered only by their true dependencies on a discrete-event queue
// (cluster/event_engine.hpp), so slack is a per-device quantity.
//
// Energy-management strategies generalize per device: the slowest lane
// (host or any device) is the critical path; BSR overclocks it to reclaim the
// r fraction of its gap to the second-longest lane and down-clocks every
// other lane into its own slack, with ABFT-OC (Algorithm 1) consulted per
// device at that device's clock, covering that device's local block count.
#pragma once

#include <cstdint>
#include <optional>

#include "abft/checksum.hpp"
#include "cluster/report.hpp"
#include "cluster/topology.hpp"
#include "energy/bsr_strategy.hpp"
#include "obs/trace.hpp"
#include "predict/workload.hpp"
#include "sched/pipeline.hpp"

namespace bsr::cluster {

/// How the factored panel reaches the devices each iteration.
///
///   Relay — the pre-collective behavior: a host-rooted star over the
///       per-device links (queueing on the host bus), with a one-hop
///       opportunistic forward over a direct peer link when a lower-indexed
///       recipient already holds the panel.
///   Ring — a node-contiguous chain host -> d0 -> d1 -> ...: each recipient
///       forwards over its peer link (staging through the host only when no
///       peer link exists), so the host pays for one send however many
///       devices listen.
///   Tree — a two-level binomial broadcast: the host sends once per node
///       (crossing the inter-node network), then each node's recipients
///       double the holder set every round over intra-node peer links —
///       O(log per_node) rounds instead of a per-device host send.
enum class BroadcastSchedule { Relay, Ring, Tree };

struct ClusterOptions {
  /// One of the four built-in policies, generalized to N devices.
  /// (Registry-only strategies implement the two-lane energy::Strategy
  /// interface and cannot drive the cluster engine; core rejects them with a
  /// clear message.)
  energy::StrategyKind strategy = energy::StrategyKind::BSR;
  /// r / fc_desired / ablation switches, shared by every device pair.
  energy::BsrConfig bsr;
  /// Force one checksum mode on every device-iteration; nullopt = adaptive
  /// (ABFT-OC per device at its chosen clock).
  std::optional<abft::ChecksumMode> forced_abft;
  std::uint64_t seed = 42;
  /// Same efficiency-drift + lognormal-jitter model as the single-node
  /// pipeline; every lane gets an independent per-iteration stream derived
  /// from `seed`, so runs are bitwise reproducible.
  sched::NoiseModel noise;
  /// Seeded stochastic execution models (bsr/variability.hpp) on top of the
  /// calibrated noise: per-lane drift walks diverge the devices into genuine
  /// stragglers, transfers jitter per realized leg, DVFS transitions jitter
  /// and quantize, and boost budgets throttle long-overclocked lanes.
  /// Disabled by default — the engine is then bit-for-bit the deterministic
  /// one. Streams derive from `seed` (or variability.seed) per lane, so runs
  /// stay bitwise reproducible at any sweep thread count.
  var::Spec variability;
  /// Seeded statistical fault processes + recovery-cost model
  /// (bsr/faults.hpp): each device samples faults over its local update
  /// windows at the SDC-table rates of its *realized* clock, pays the
  /// correction latency in-lane, and redoes the window at its base clock on
  /// an uncorrectable detection. Per-lane streams derive from `seed` (or
  /// faults.seed), so campaigns stay bitwise reproducible at any sweep
  /// thread count. Disabled by default — the engine is then bit-for-bit the
  /// no-fault one.
  faultcamp::Spec faults;
  /// Optional span recorder (bsr/observability.hpp): per-event busy windows
  /// (PD / update / transfer / recovery / DVFS transitions) are emitted at
  /// the points where durations are realized. Null (the default) skips every
  /// emission; tracing observes the timeline without perturbing it, so the
  /// ClusterReport is bit-for-bit identical either way.
  obs::TraceRecorder* trace = nullptr;
  /// Process grid for the trailing-update distribution: grid_p owners across
  /// block columns, grid_q across block rows (grid_p * grid_q must equal the
  /// device count). 0/0 (default) keeps the 1-D column-cyclic layout —
  /// bit-for-bit the pre-grid engine.
  int grid_p = 0;
  int grid_q = 0;
  /// Panel-broadcast schedule. Relay (default) is bit-for-bit the
  /// pre-collective engine on the 1-D layout.
  BroadcastSchedule schedule = BroadcastSchedule::Relay;
  /// Straggler rebalancing: re-weight per-device work shares each iteration
  /// by the lanes' predicted throughput (per-lane TMU predictions absorb the
  /// variability drift walks), so a drifting-slow device sheds trailing
  /// blocks instead of pinning the critical path. Off (default) keeps the
  /// static block-cyclic shares — bit-for-bit the pre-rebalancing engine.
  bool rebalance = false;
};

/// Runs the whole factorization on the cluster; bitwise deterministic in
/// (profile, workload, options).
ClusterReport run_cluster(const ClusterProfile& profile,
                          const predict::WorkloadModel& workload,
                          const ClusterOptions& options);

}  // namespace bsr::cluster
