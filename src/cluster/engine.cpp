#include "cluster/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "abft/adaptive.hpp"
#include "cluster/distribution.hpp"
#include "cluster/event_engine.hpp"
#include "common/rng.hpp"
#include "hw/clock_table.hpp"
#include "predict/slack_history.hpp"

namespace bsr::cluster {

namespace {

using energy::StrategyKind;
using predict::OpKind;

/// What the strategy decided for one lane of one iteration. The checksum
/// mode is NOT part of the plan: protection must match the clock that
/// actually runs, and a lane's transition can be skipped (projection guard)
/// or clamped after the plan is made, so ABFT-OC is re-consulted at update
/// start against the live frequency. `core_t` carries the predicted
/// base-clock compute seconds that consultation needs.
struct LaneDecision {
  hw::Mhz freq = 0;  ///< 0 = keep current
  bool adjust = false;
  hw::Guardband gb = hw::Guardband::Default;
  bool halt_idle = false;
  double core_t = 0.0;  ///< predicted base-clock compute time (seconds)
};

/// POD event payload for the cluster graph: which transition fires, for which
/// iteration, on which device. A few words of trivially-copyable state in the
/// engine's flat preallocated heap — scheduling allocates nothing and firing
/// is a switch, where a std::function payload would pay type erasure per
/// event. Event *order* is untouched: the same schedule sites run in the same
/// sequence, so (time, seq) tie-breaks — and therefore results — are bitwise
/// identical to the closure-based engine.
struct ClusterEvent {
  enum class Kind : std::uint8_t { FinishPd, StartUpdate, FinishUpdate, StartPd };
  Kind kind = Kind::FinishPd;
  int k = 0;
  int d = 0;
};

/// One compute resource: lane 0 is the host, lanes 1..N the accelerators.
struct Lane {
  explicit Lane(const predict::WorkloadTable& work) : history(work) {}

  int index = 0;  ///< 0 = host, 1 + d = accelerator d (trace lane id)
  const hw::DeviceModel* dev = nullptr;
  const hw::ClockTable* clk = nullptr;  ///< dev's clock table (run-owned)
  hw::DvfsController dvfs;
  hw::Guardband gb = hw::Guardband::Default;
  bool halt_idle = false;
  SimTime busy_until;
  DeviceUsage use;
  std::vector<double> noise;  ///< per-iteration multiplicative factors
  predict::SlackHistory history;  ///< base-clock, global-task profiles
  // A retirement park (drop to the floor clock) in flight: the transition
  // window is settled against the makespan at the final barrier, because the
  // run may end mid-transition.
  bool parked = false;
  double park_power_w = 0.0;  ///< idle power at the pre-park clock
  SimTime park_start;
  SimTime park_lat;
  var::LaneVariability var;  ///< inert unless options.variability.enabled
  faultcamp::FaultProcess faults;  ///< inert unless options.faults.enabled
};

class ClusterRun {
 public:
  ClusterRun(const ClusterProfile& profile,
             const predict::WorkloadModel& workload,
             const ClusterOptions& options)
      : profile_(profile),
        wl_(workload),
        opt_(options),
        dist_{std::max(1, profile.num_devices()), options.grid_p,
              options.grid_q},
        // Per-run tables: iteration counts, layout, peer links and clocks
        // are pure functions of (k, d, f), computed once here.
        work_(workload),
        layout_(dist_, workload),
        peers_(profile.links, profile.num_devices()),
        iters_(workload.num_iterations()),
        blocks_total_((workload.n / workload.b) * (workload.n / workload.b)),
        // Panel-priority look-ahead (hierarchical relay only): the next
        // panel's owner updates that one column first and ships it home
        // mid-update, overlapping the host's factorization with the rest of
        // its trailing update. Fault campaigns disable it — a panel may only
        // leave the device after the whole update's checksum verification,
        // or a rollback would retract data already in flight.
        early_ship_(profile.links.hierarchical() && !options.faults.enabled &&
                    options.schedule == BroadcastSchedule::Relay),
        // Accelerator-resident panel pipeline (hierarchical ring/tree): from
        // iteration 1 on, panel k is factored on its owner device the moment
        // panel k-1 arrives there, and broadcast device-to-device from that
        // owner. The serial host panel — the 8-GPU scaling wall — leaves the
        // critical path entirely; the relay schedule keeps the legacy
        // host-staged pipeline as the comparison baseline.
        device_pd_(profile.links.hierarchical() &&
                   options.schedule != BroadcastSchedule::Relay),
        // BSR predicts by the enhanced formula unless its ablation switch
        // turns it off; every other strategy by first-iteration profiling.
        enhanced_(options.strategy == StrategyKind::BSR &&
                  options.bsr.use_enhanced_predictor) {
    const std::size_t n_lanes =
        1 + static_cast<std::size_t>(profile_.num_devices());
    lanes_.reserve(n_lanes);
    // Reserved so the lanes' table pointers stay valid while tables are
    // added.
    clocks_.reserve(n_lanes);
    panel_bytes_.resize(static_cast<std::size_t>(iters_));
    for (int k = 0; k < iters_; ++k) {
      panel_bytes_[static_cast<std::size_t>(k)] = panel_area_bytes(k);
    }
    add_lane(profile_.host);
    for (const hw::DeviceModel& dev : profile_.devices) add_lane(dev);
    link_free_.assign(lanes_.size(), SimTime::zero());
    node_bus_free_.assign(
        static_cast<std::size_t>(profile_.links.num_nodes()), SimTime::zero());
    send_free_.assign(static_cast<std::size_t>(profile_.num_devices()),
                      SimTime::zero());
    peer_free_.assign(static_cast<std::size_t>(peers_.num_ports()),
                      SimTime::zero());
    // Flat per-(iteration, lane) plan storage and reusable decide() scratch:
    // one allocation each for the whole run instead of per-iteration churn.
    plans_.resize(static_cast<std::size_t>(iters_) * lanes_.size());
    core_.resize(lanes_.size());
    over_.resize(lanes_.size());
    lane_t_.resize(lanes_.size());
    arrival_.resize(static_cast<std::size_t>(profile_.num_devices()));
    if (opt_.rebalance) {
      eff_share_.assign(static_cast<std::size_t>(iters_) *
                            static_cast<std::size_t>(profile_.num_devices()),
                        0.0);
      weights_.resize(static_cast<std::size_t>(profile_.num_devices()));
    }
    recips_.reserve(static_cast<std::size_t>(profile_.num_devices()));
    leaders_.reserve(static_cast<std::size_t>(profile_.links.num_nodes()));
    group_.reserve(static_cast<std::size_t>(profile_.num_devices()));
    // Worst simultaneous backlog: one update per device plus the finish/pd
    // chain; reserved up front so scheduling never reallocates mid-run.
    engine_.reserve(2 * lanes_.size() + 8);
    trace_ = opt_.trace;
    if (trace_ != nullptr) {
      // ~4 spans per (iteration, lane) covers update + transfer + dvfs +
      // recovery; one reservation keeps recording allocation-free.
      trace_->reserve(trace_->size() +
                      4 * static_cast<std::size_t>(iters_) * lanes_.size());
    }
  }

  ClusterReport run() {
    // Devices owning no trailing columns at all (more devices than block
    // columns) never receive work: the reclaiming strategies park them
    // immediately, and under R2H the hardware governor halts them — neither
    // should idle at base-clock power for the whole run.
    for (int d = 0; d < profile_.num_devices(); ++d) {
      if (layout_.has_work(0, d)) continue;
      Lane& lane = lanes_[static_cast<std::size_t>(1 + d)];
      if (opt_.strategy == StrategyKind::R2H) {
        lane.halt_idle = true;
      } else {
        park_lane(lane);  // no-op under Original (clocks stay pinned)
      }
    }
    // Panel 0 is resident on the host (the matrix is generated there and
    // distributed as the factorization proceeds), so PD(0) is ready at t=0.
    start_pd(0, SimTime::zero());
    const SimTime makespan =
        engine_.run([this](const ClusterEvent& ev) { dispatch(ev); });

    ClusterReport report;
    report.makespan = makespan;
    for (Lane& lane : lanes_) {
      // Settle an in-flight retirement park: its transition window burns
      // pre-park idle power and is clipped to the makespan (the run may end
      // while the clock is still stepping down).
      if (lane.parked) {
        const SimTime end = min(lane.park_start + lane.park_lat, makespan);
        if (end > lane.busy_until) {
          const double gap = (end - lane.busy_until).seconds();
          lane.use.energy_j += lane.park_power_w * gap;
          lane.use.dvfs_s += gap;
          lane.busy_until = end;
        }
      }
      // Final barrier: every lane idles (or stays halted) until the run ends.
      charge_idle(lane, makespan);
      lane.use.final_mhz = lane.dvfs.current();
      lane.use.dvfs_transitions = lane.dvfs.transitions();
    }
    report.host = lanes_[0].use;
    for (std::size_t d = 1; d < lanes_.size(); ++d) {
      report.devices.push_back(lanes_[d].use);
    }
    return report;
  }

 private:
  // -- lane helpers -----------------------------------------------------------

  /// Appends the next lane (the host first, then device 0, 1, ...).
  void add_lane(const hw::DeviceModel& dev) {
    const int index = static_cast<int>(lanes_.size());
    Lane& lane = lanes_.emplace_back(work_);
    lane.index = index;
    lane.dev = &dev;
    lane.clk = &clock_table(dev);
    lane.dvfs = dev.make_dvfs();
    lane.use.name = dev.name;
    lane.noise.assign(static_cast<std::size_t>(iters_), 1.0);
    if (opt_.noise.enabled && iters_ > 1) {
      const double drift = index == 0 ? sched::NoiseModel::cpu_drift
                                      : sched::NoiseModel::gpu_drift;
      Rng rng(opt_.seed +
              0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(index + 1));
      for (int k = 0; k < iters_; ++k) {
        const double progress =
            static_cast<double>(k) / static_cast<double>(iters_ - 1);
        lane.noise[static_cast<std::size_t>(k)] =
            (1.0 + drift * progress * progress) *
            std::exp(rng.normal(0.0, sched::NoiseModel::sigma));
      }
    }
    if (opt_.variability.enabled) {
      lane.var = var::LaneVariability(opt_.variability, opt_.seed, index,
                                      iters_, dev.freq.base_mhz);
    }
    if (opt_.faults.enabled) {
      // Same per-lane stream derivation as the variability models: lanes
      // sample from decorrelated streams keyed by (seed, lane), never from
      // event interleaving across lanes, so runs stay bitwise reproducible.
      lane.faults = faultcamp::FaultProcess(opt_.faults, opt_.seed, index);
    }
  }

  /// The run's clock table for `dev`: shared with every earlier lane whose
  /// model reads the same (the 64 GPUs of a rack differ only in name).
  const hw::ClockTable& clock_table(const hw::DeviceModel& dev) {
    for (const hw::ClockTable& t : clocks_) {
      if (hw::ClockTable::reads_same(t.device(), dev)) return t;
    }
    return clocks_.emplace_back(dev);
  }

  /// Realizes a plan's clock through the lane's variability models
  /// (quantization + thermal admission) and rewrites the decision so
  /// run_compute transitions to exactly the granted clock. Returns the clock
  /// the lane's work will run at (the pre-variability behavior when the
  /// block is disabled).
  [[nodiscard]] hw::Mhz realize_clock(Lane& lane, LaneDecision& d) const {
    const hw::Mhz f_before = lane.dvfs.current();
    hw::Mhz f = d.adjust && d.freq > 0 ? d.freq : f_before;
    f = lane.dev->freq.clamp(f, d.gb == hw::Guardband::Optimized);
    if (opt_.variability.enabled) {
      f = lane.var.admit_clock(f, lane.dev->freq,
                               d.gb == hw::Guardband::Optimized);
      d.freq = f;
      d.adjust = f != f_before;
    }
    return f;
  }

  [[nodiscard]] double idle_power(const Lane& lane) const {
    const hw::Mhz f = lane.dvfs.current();
    return lane.halt_idle ? lane.clk->halted_idle_power(f)
                          : lane.clk->idle_power(f);
  }

  /// Integrates idle energy from the lane's last busy instant to `until`.
  void charge_idle(Lane& lane, SimTime until) {
    if (until <= lane.busy_until) return;
    const double gap = (until - lane.busy_until).seconds();
    lane.use.energy_j += idle_power(lane) * gap;
    lane.use.idle_s += gap;
    lane.busy_until = until;
  }

  /// Applies a decision and runs `busy` seconds of compute on the lane,
  /// starting no earlier than `ready`; returns the completion time.
  SimTime run_compute(Lane& lane, SimTime ready, const LaneDecision& d,
                      SimTime busy, double flops) {
    const SimTime start = max(ready, lane.busy_until);
    const double idle_gap = (start - lane.busy_until).seconds();
    charge_idle(lane, start);
    lane.halt_idle = d.halt_idle;
    lane.gb = d.gb;
    lane.dvfs.set_guardband(d.gb);
    const hw::Mhz f_before = lane.dvfs.current();
    SimTime lat;
    if (d.adjust && d.freq > 0) {
      lat = lane.dvfs.set_frequency(d.freq);
      if (opt_.variability.enabled) lat = lane.var.dvfs_latency(lat);
      if (lat > SimTime::zero()) {
        lane.use.energy_j += idle_power(lane) * lat.seconds();
        lane.use.dvfs_s += lat.seconds();
      }
    }
    if (trace_ != nullptr && lat > SimTime::zero()) {
      obs::TraceSpan tv;
      tv.kind = obs::SpanKind::Dvfs;
      tv.start_ns = start.ns();
      tv.dur_ns = lat.ns();
      tv.lane = lane.index;
      tv.from_mhz = static_cast<std::int32_t>(f_before);
      tv.freq_mhz = static_cast<std::int32_t>(lane.dvfs.current());
      trace_->record(tv);
    }
    last_dvfs_lat_ = lat;
    const double p = lane.clk->busy_power(lane.dvfs.current(), lane.gb);
    lane.use.energy_j += p * busy.seconds();
    lane.use.busy_s += busy.seconds();
    lane.use.flops += flops;
    lane.busy_until = start + lat + busy;
    if (opt_.variability.enabled) {
      // Thermal accounting: the busy window at the granted clock drains the
      // boost budget; the preceding idle gap and the transition recover it.
      lane.var.account(lane.dvfs.current(), busy.seconds(),
                       idle_gap + lat.seconds());
    }
    return lane.busy_until;
  }

  /// Occupies link `device` and the shared host bus; returns completion.
  /// The link is held for the whole transfer; the bus only for its *service
  /// time* (the transfer's share of the aggregate bus bandwidth), so a
  /// 2x-link bus genuinely carries two concurrent link-speed streams before
  /// later transfers start queueing. On a hierarchical topology a transfer
  /// to a remote node additionally occupies the inter-node network and the
  /// target node's bus, each for its own service time under the same rule;
  /// on a flat topology those segments do not exist and the arithmetic is
  /// bit-for-bit the pre-hierarchical one.
  SimTime run_transfer(int device, SimTime ready, double bytes, int k) {
    const LinkTopology& links = profile_.links;
    SimTime dur_link =
        links.host_links[static_cast<std::size_t>(device)].time_for_bytes(
            bytes);
    SimTime dur_bus = links.host_bus.time_for_bytes(bytes);
    const int node = links.node(device);
    SimTime dur_inter;
    SimTime dur_node_bus;
    if (node != 0) {
      dur_inter = links.internode.time_for_bytes(bytes);
      dur_node_bus = links.node_bus.time_for_bytes(bytes);
    }
    if (opt_.variability.enabled) {
      // One jitter draw per realized transfer, from the device lane's
      // stream, scaling the link and every shared-segment service time.
      const double j =
          lanes_[static_cast<std::size_t>(1 + device)].var.transfer_factor();
      dur_link = dur_link * j;
      dur_bus = dur_bus * j;
      dur_inter = dur_inter * j;
      dur_node_bus = dur_node_bus * j;
    }
    SimTime start =
        max(max(ready, link_free_[static_cast<std::size_t>(1 + device)]),
            bus_free_);
    if (node != 0) {
      start = max(start, internode_free_);
      start = max(start, node_bus_free_[static_cast<std::size_t>(node)]);
    }
    const SimTime done =
        start + max(max(dur_link, dur_bus), max(dur_inter, dur_node_bus));
    link_free_[static_cast<std::size_t>(1 + device)] = done;
    bus_free_ = start + dur_bus;
    if (node != 0) {
      internode_free_ = start + dur_inter;
      node_bus_free_[static_cast<std::size_t>(node)] = start + dur_node_bus;
    }
    record_transfer(1 + device, k, start, done);
    return done;
  }

  /// Emits one Transfer span on the target lane's link track (no-op when
  /// tracing is off).
  void record_transfer(int lane, int k, SimTime start, SimTime done) {
    if (trace_ == nullptr) return;
    obs::TraceSpan s;
    s.kind = obs::SpanKind::Transfer;
    s.start_ns = start.ns();
    s.dur_ns = (done - start).ns();
    s.k = k;
    s.lane = lane;
    trace_->record(s);
  }

  // -- workload shares --------------------------------------------------------

  [[nodiscard]] double panel_area_bytes(int k) const {
    // The full factored panel region the trailing update consumes: m x b
    // elements (L / Householder vectors). For LU and QR this equals the
    // single-node transfer_bytes / 2; for Cholesky the single-node pipeline
    // only ships the b x b diagonal block (the GPU computes L21 in place),
    // but a *distributed* update needs the whole L21 panel at every device,
    // so the broadcast is modeled on the panel area for all three.
    const double m = static_cast<double>(wl_.remaining(k));
    const double b = static_cast<double>(
        std::min<std::int64_t>(wl_.b, wl_.remaining(k)));
    return m * b * static_cast<double>(wl_.elem_bytes);
  }

  /// panel_area_bytes(k), from the run's per-iteration table.
  [[nodiscard]] double one_way_bytes(int k) const {
    return panel_bytes_[static_cast<std::size_t>(k)];
  }

  /// Device d's effective share of iteration k's trailing-update work: the
  /// structural block-cyclic fraction, or the rebalanced one decide() stored
  /// for this iteration when straggler rebalancing is on. decide(k) always
  /// runs before any share consumer of iteration k (it fires when PD(k)
  /// starts), so the rebalanced row is never read unfilled.
  [[nodiscard]] double share_for(int k, int d) const {
    if (!opt_.rebalance) return layout_.share(k, d);
    return eff_share_[static_cast<std::size_t>(k) *
                          static_cast<std::size_t>(profile_.num_devices()) +
                      static_cast<std::size_t>(d)];
  }

  /// Noise-free compute duration of device d's local share of iteration k at
  /// clock f, split into the useful update and the checksum overhead.
  struct DeviceWork {
    SimTime update;
    SimTime abft;
    double flops = 0.0;
  };
  [[nodiscard]] DeviceWork device_work(int k, int d, hw::Mhz f,
                                       abft::ChecksumMode mode) const {
    const predict::IterationWork& w = work_.iteration(k);
    const double share = share_for(k, d);
    const hw::ClockTable& clk = *lanes_[static_cast<std::size_t>(1 + d)].clk;
    DeviceWork out;
    out.flops = w.gpu_flops() * share;
    out.update = clk.time_for_flops(out.flops, hw::KernelClass::Blas3, f);
    double chk_flops = 0.0;
    double chk_bytes = 0.0;
    if (mode == abft::ChecksumMode::SingleSide) {
      chk_flops = w.checksum_update_flops_single * share;
      chk_bytes = w.checksum_verify_bytes_single * share;
    } else if (mode == abft::ChecksumMode::Full) {
      chk_flops = w.checksum_update_flops_full * share;
      chk_bytes = w.checksum_verify_bytes_full * share;
    }
    if (chk_flops > 0.0 || chk_bytes > 0.0) {
      // Checksum work costs time and energy but is deliberately NOT added to
      // `flops`: DeviceUsage reports *useful* factorization throughput, like
      // RunReport::gflops().
      out.abft =
          clk.time_for_flops(chk_flops, hw::KernelClass::ChecksumUpdate, f) +
          clk.time_for_bytes(chk_bytes, f);
    }
    return out;
  }

  // -- strategy ---------------------------------------------------------------

  /// The lane's predicted base-clock duration of op at iteration k, by the
  /// run's formula.
  [[nodiscard]] double predicted(const Lane& lane, OpKind op, int k) const {
    return lane.history.predict(op, k, enhanced_);
  }

  /// Device d's share of the (n/b)^2 protected blocks at iteration k — the S
  /// that per-device ABFT-OC covers (both for the frequency cap at plan time
  /// and the mode choice at update start, so the two cannot disagree).
  [[nodiscard]] std::int64_t local_blocks(int k, int d) const {
    const double share = share_for(k, d);
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::llround(share * static_cast<double>(blocks_total_))));
  }

  [[nodiscard]] abft::ChecksumMode abft_mode_for(int d, hw::Mhz f,
                                                 double t_base, int k) const {
    if (opt_.forced_abft) return *opt_.forced_abft;
    const hw::ClockTable& clk = *lanes_[static_cast<std::size_t>(1 + d)].clk;
    return abft::mode_at(opt_.bsr.fc_desired, f, clk, t_base,
                         local_blocks(k, d));
  }

  /// Straggler rebalancing (generalized critical-lane selection): re-weight
  /// iteration k's work shares by each lane's predicted TMU throughput. The
  /// per-lane histories absorb the realized durations — including the
  /// variability drift walks — so a lane that has drifted slow sheds trailing
  /// blocks to the fast lanes instead of pinning every iteration's critical
  /// path. Communication volumes keep the structural block-cyclic fractions:
  /// the re-assignment rides along the panel broadcast the devices receive
  /// anyway. Uses only per-lane state recorded before PD(k) starts, so runs
  /// stay bitwise deterministic at any sweep thread count.
  void rebalance_shares(int k) {
    const int nd = profile_.num_devices();
    double* row = eff_share_.data() +
                  static_cast<std::size_t>(k) * static_cast<std::size_t>(nd);
    for (int d = 0; d < nd; ++d) row[d] = layout_.share(k, d);
    if (k == 0) return;  // empty histories: no per-lane signal yet
    double wsum = 0.0;
    for (int d = 0; d < nd; ++d) {
      const double pred =
          predicted(lanes_[static_cast<std::size_t>(1 + d)], OpKind::TMU, k);
      if (!(pred > 0.0)) return;  // defensive: keep the structural shares
      weights_[static_cast<std::size_t>(d)] = row[d] / pred;
      wsum += weights_[static_cast<std::size_t>(d)];
    }
    if (!(wsum > 0.0)) return;  // final iterations: no trailing work at all
    for (int d = 0; d < nd; ++d) {
      row[d] = weights_[static_cast<std::size_t>(d)] / wsum;
    }
  }

  /// Computes the full per-lane plan for iteration k into `plan` (a row of
  /// plans_, n_lanes wide). Called once, when PD(k) starts (deterministic
  /// point in event order), using whatever the lanes' histories hold by
  /// then.
  void decide(int k, LaneDecision* plan) {
    if (opt_.rebalance) rebalance_shares(k);
    const std::size_t n_lanes = lanes_.size();
    std::fill(plan, plan + n_lanes, LaneDecision{});
    const bool bsr = opt_.strategy == StrategyKind::BSR;
    const hw::Guardband gb = bsr && opt_.bsr.use_optimized_guardband
                                 ? hw::Guardband::Optimized
                                 : hw::Guardband::Default;
    for (std::size_t i = 0; i < n_lanes; ++i) plan[i].gb = gb;

    if (opt_.strategy == StrategyKind::Original ||
        opt_.strategy == StrategyKind::R2H || k == 0) {
      const bool r2h = opt_.strategy == StrategyKind::R2H;
      for (std::size_t i = 0; i < n_lanes; ++i) {
        const hw::FrequencyDomain& dom = lanes_[i].dev->freq;
        plan[i].freq = r2h ? dom.max_default_mhz : dom.base_mhz;
        plan[i].adjust = plan[i].freq != lanes_[i].dvfs.current();
        plan[i].halt_idle = r2h;
        if (i > 0) {
          plan[i].core_t = predicted(lanes_[i], OpKind::TMU, k) *
                           share_for(k, static_cast<int>(i) - 1);
        }
      }
      return;
    }

    // -- SR / BSR: lane time estimates at base clocks -------------------------
    // Host lane: panel factorization plus pulling the next panel home.
    // Device lane d: receiving the broadcast plus its local update share.
    // Member scratch, reused across iterations.
    std::vector<double>& core = core_;   // compute part (clock-scalable)
    std::vector<double>& over = over_;   // fixed transfer part
    std::fill(core.begin(), core.end(), 0.0);
    std::fill(over.begin(), over.end(), 0.0);
    if (device_pd_ && k > 0) {
      // Accelerator-resident panels: the host lane is idle from iteration 1
      // on; the panel cost lands on the owner device's estimate below.
      core[0] = 0.0;
      over[0] = 0.0;
    } else {
      core[0] = predicted(lanes_[0], OpKind::PD, k);
      if (k + 1 < iters_) {
        over[0] = profile_.links
                      .device_to_host(layout_.owner(k + 1),
                                      one_way_bytes(k + 1))
                      .seconds();
      }
    }
    for (std::size_t i = 1; i < n_lanes; ++i) {
      const int d = static_cast<int>(i) - 1;
      const double share = share_for(k, d);
      // The broadcast payload a device waits for is its row group's slice of
      // the panel (the whole panel on the 1-D layout, where row_slice is 1).
      const double bytes = one_way_bytes(k) * layout_.row_slice(k, d);
      core[i] = predicted(lanes_[i], OpKind::TMU, k) * share;
      over[i] = share > 0.0
                    ? profile_.links.host_to_device(d, bytes).seconds()
                    : 0.0;
      if (device_pd_ && k > 0 && d == layout_.owner(k)) {
        // The panel-owning lane additionally factors panel k this
        // iteration. Model-based estimate (the per-lane PD history is too
        // sparse under round-robin ownership to predict from).
        core[i] += lanes_[i]
                       .clk
                       ->time_for_flops(work_.iteration(k).pd_flops,
                                        hw::KernelClass::Panel,
                                        lanes_[i].dev->freq.base_mhz)
                       .seconds();
      }
    }
    std::vector<double>& lane_t = lane_t_;
    for (std::size_t i = 0; i < n_lanes; ++i) lane_t[i] = core[i] + over[i];
    std::size_t crit = 0;
    for (std::size_t i = 1; i < n_lanes; ++i) {
      if (lane_t[i] > lane_t[crit]) crit = i;
    }
    double t_second = 0.0;
    for (std::size_t i = 0; i < n_lanes; ++i) {
      if (i != crit) t_second = std::max(t_second, lane_t[i]);
    }
    const double t_max = lane_t[crit];
    const bool oc = bsr && opt_.bsr.allow_overclocking;

    // Critical lane: BSR reclaims r of the gap to the second-longest lane by
    // speeding up (plus its own DVFS latency, paper Algorithm 2 lines 6/9);
    // SR leaves it at base.
    {
      const Lane& lane = lanes_[crit];
      const double l = lane.dev->dvfs_latency.seconds();
      double t_desired = core[crit];
      const double slack = t_max - t_second;
      if (bsr && opt_.bsr.reclamation_ratio > 0.0 && slack > 0.0) {
        t_desired = core[crit] - (opt_.bsr.reclamation_ratio * slack + l);
      }
      hw::Mhz f;
      if (bsr && crit == 0 && profile_.links.hierarchical()) {
        // Rack-scale generalization of the critical-lane rule: when the
        // host panel lane is the bottleneck of a hierarchical pipeline,
        // every trailing update on every node is gated on the next panel —
        // there is no second lane to reclaim against, so BSR runs the panel
        // at the domain's top clock instead of balancing toward t_second.
        f = oc ? lane.dev->freq.max_oc_mhz : lane.dev->freq.max_default_mhz;
      } else {
        f = energy::freq_for_time(core[crit], t_desired, *lane.dev, oc);
        if (!oc) f = std::min(f, lane.dev->freq.base_mhz);
      }
      if (crit > 0 && !opt_.forced_abft) {
        // ABFT-OC may cap the clock at the coverable frequency (the checksum
        // mode itself is chosen at update start, against the live clock).
        const abft::AbftDecision ad = abft::abft_oc(
            opt_.bsr.fc_desired, f, *lane.clk, core[crit],
            local_blocks(k, static_cast<int>(crit) - 1));
        f = oc ? ad.freq : std::min(ad.freq, lane.dev->freq.base_mhz);
      }
      plan[crit].freq = f;
    }
    const double t_crit_proj =
        energy::time_at_freq(core[crit], plan[crit].freq, *lanes_[crit].clk) +
        over[crit];
    const double t_new = std::max(t_crit_proj, t_second);

    // Non-critical lanes stretch into their own slack (never past base).
    // Lanes with no work left get no plan — they never run an update again;
    // finish_update() parks them at the floor clock when they retire.
    for (std::size_t i = 0; i < n_lanes; ++i) {
      if (i == crit) continue;
      const Lane& lane = lanes_[i];
      if (core[i] <= 0.0) continue;
      const double t_target =
          t_new - over[i] - lane.dev->dvfs_latency.seconds();
      hw::Mhz f = energy::freq_for_time(core[i], t_target, *lane.dev,
                                        gb == hw::Guardband::Optimized);
      plan[i].freq = std::min(f, lane.dev->freq.base_mhz);
    }

    // Projection guard (Algorithm 2 lines 16-22): skip any transition whose
    // projected lane time would push past the iteration's critical path.
    const double eps = 1e-3 * std::max(t_max, 1e-12);
    for (std::size_t i = 0; i < n_lanes; ++i) {
      plan[i].core_t = core[i];
      if (plan[i].freq <= 0) continue;
      const double proj =
          energy::time_at_freq(core[i], plan[i].freq, *lanes_[i].clk) +
          over[i];
      const double bound = (i == crit ? t_max : std::max(t_new, t_max)) + eps;
      plan[i].adjust = proj <= bound && plan[i].freq != lanes_[i].dvfs.current();
    }
  }

  // -- event graph ------------------------------------------------------------

  void dispatch(const ClusterEvent& ev) {
    switch (ev.kind) {
      case ClusterEvent::Kind::FinishPd: finish_pd(ev.k); break;
      case ClusterEvent::Kind::StartUpdate: start_update(ev.k, ev.d); break;
      case ClusterEvent::Kind::FinishUpdate: finish_update(ev.k, ev.d); break;
      case ClusterEvent::Kind::StartPd: start_pd(ev.k, engine_.now()); break;
    }
  }

  /// The plan row for iteration k (one LaneDecision per lane).
  [[nodiscard]] LaneDecision* plan_row(int k) {
    return plans_.data() + static_cast<std::size_t>(k) * lanes_.size();
  }

  void start_pd(int k, SimTime ready) {
    decide(k, plan_row(k));
    // Panel 0 is always factored on the host (the matrix is generated
    // there); from k = 1 the accelerator-resident pipeline factors panel k
    // on its owner device, queued behind whatever that lane is running —
    // the panel-k-1 arrival that fired this event gives it lane priority
    // over the same device's iteration-k trailing update.
    const bool on_device = device_pd_ && k > 0;
    Lane& lane = on_device
                     ? lanes_[static_cast<std::size_t>(1 + layout_.owner(k))]
                     : lanes_[0];
    LaneDecision d = plan_row(k)[static_cast<std::size_t>(lane.index)];
    const predict::IterationWork& w = work_.iteration(k);
    // Realize the clock first so the busy time reflects the new frequency
    // (variability may quantize or thermally clamp the plan's choice).
    const hw::Mhz f = realize_clock(lane, d);
    SimTime busy =
        lane.clk->time_for_flops(w.pd_flops, hw::KernelClass::Panel, f);
    busy = busy * lane_noise(lane.index, k);
    if (opt_.variability.enabled) busy = busy * lane.var.compute_factor(k);
    const SimTime done = run_compute(lane, ready, d, busy, w.pd_flops);
    if (trace_ != nullptr) {
      obs::TraceSpan s;
      s.kind = obs::SpanKind::Panel;
      s.start_ns = (done - busy).ns();
      s.dur_ns = busy.ns();
      s.k = k;
      s.lane = lane.index;
      s.freq_mhz = static_cast<std::int32_t>(lane.dvfs.current());
      s.dvfs_ns = last_dvfs_lat_.ns();
      trace_->record(s);
    }
    record(lane, OpKind::PD, k, busy.seconds(), 1.0);
    engine_.schedule_at(done, ClusterEvent{ClusterEvent::Kind::FinishPd, k, 0});
  }

  /// Occupies the direct peer link between src and dst (one registration
  /// covers both directions); peer traffic bypasses the host bus entirely.
  SimTime run_peer_transfer(int dst, SimTime ready, double bytes,
                            const PeerTable::Peer& peer, int k) {
    SimTime& free = peer_free_[static_cast<std::size_t>(peer.port)];
    const SimTime start = max(ready, free);
    SimTime dur = peer.link->time_for_bytes(bytes);
    if (opt_.variability.enabled) {
      dur = dur *
            lanes_[static_cast<std::size_t>(1 + dst)].var.transfer_factor();
    }
    free = start + dur;
    record_transfer(1 + dst, k, start, free);
    return free;
  }

  /// Direct cross-node device-to-device transfer (GPUDirect-RDMA-style): the
  /// payload crosses the shared inter-node fabric once, held for the full
  /// transfer, without touching the host bus or staging through host memory.
  /// Only the ring/tree collective schedules issue these; the relay schedule
  /// predates the hierarchy and always goes through the host.
  SimTime run_internode_transfer(int dst, SimTime ready, double bytes, int k) {
    SimTime dur = profile_.links.internode.time_for_bytes(bytes);
    if (opt_.variability.enabled) {
      dur = dur *
            lanes_[static_cast<std::size_t>(1 + dst)].var.transfer_factor();
    }
    const SimTime start = max(ready, internode_free_);
    internode_free_ = start + dur;
    record_transfer(1 + dst, k, start, internode_free_);
    return internode_free_;
  }

  /// Device-to-device hop with no direct peer link: d2h, pinned-buffer
  /// staging, h2d — each leg a full contended host transfer.
  SimTime run_staged_transfer(int src, int dst, SimTime ready, double bytes,
                              int k) {
    const SimTime up = run_transfer(src, ready, bytes, k);
    return run_transfer(dst, up + profile_.links.staging_latency, bytes, k);
  }

  /// One device-to-device broadcast hop under the collective schedules: peer
  /// link when registered, the inter-node fabric when the endpoints sit on
  /// different nodes, staged through host memory otherwise.
  SimTime run_hop(int src, int dst, SimTime ready, double bytes, int k) {
    if (const PeerTable::Peer peer = peers_.find(src, dst);
        peer.link != nullptr) {
      return run_peer_transfer(dst, ready, bytes, peer, k);
    }
    if (profile_.links.node(src) != profile_.links.node(dst)) {
      return run_internode_transfer(dst, ready, bytes, k);
    }
    return run_staged_transfer(src, dst, ready, bytes, k);
  }

  void finish_pd(int k) {
    // Broadcast the factored panel to every device that owns trailing
    // blocks; each arrival fires that device's update. On the 1-D layout the
    // whole panel goes to every device; a p x q grid splits the broadcast
    // into one job per process-grid row group, carrying only that group's
    // row slice of the panel (the 2-D volume saving).
    std::fill(arrival_.begin(), arrival_.end(), SimTime());
    const double bytes = one_way_bytes(k);
    // The broadcast root: the host, or — in the accelerator-resident panel
    // pipeline — the device that just factored panel k and already holds it.
    const int source = device_pd_ && k > 0 ? layout_.owner(k) : -1;
    // Ring and tree hand the payload to the *next* panel's owner at the
    // earliest hop: its arrival gates the next panel factorization, so the
    // pipeline is only as deep as that first delivery. From a device root
    // the chain starts at the root itself (the next owner is its cyclic
    // successor, one hop away). Rotation is a hierarchical-only refinement —
    // on flat profiles the schedules keep the ascending legacy order.
    const int next_owner = k + 1 < iters_ ? layout_.owner(k + 1) : -1;
    const int lead = source >= 0
                         ? source
                         : profile_.links.hierarchical() ? next_owner : -1;
    for (int rg = 0; rg < dist_.q(); ++rg) {
      recips_.clear();
      for (int d = rg * dist_.p(); d < (rg + 1) * dist_.p(); ++d) {
        if (d < profile_.num_devices() && layout_.has_work(k, d)) {
          recips_.push_back(d);
        }
      }
      if (recips_.empty()) continue;
      // Every recipient sits in row group rg, so the first one's slice is
      // the group's.
      const double job_bytes = bytes * layout_.row_slice(k, recips_.front());
      switch (opt_.schedule) {
        case BroadcastSchedule::Relay: relay_job(k, job_bytes); break;
        case BroadcastSchedule::Ring:
          ring_job(k, job_bytes, lead, source);
          break;
        case BroadcastSchedule::Tree:
          tree_job(k, job_bytes, lead, source);
          break;
      }
      if (opt_.schedule != BroadcastSchedule::Relay) {
        // The next panel factorization fires at its owner's arrival and is
        // scheduled *before* the same-instant StartUpdate events, so it
        // gets the lane first — panel-priority, the panel column's own
        // update folded into the factorization window.
        if (device_pd_ && next_owner >= 0 && dist_.row_group(next_owner) == rg) {
          engine_.schedule_at(
              arrival_[static_cast<std::size_t>(next_owner)],
              ClusterEvent{ClusterEvent::Kind::StartPd, k + 1, 0});
        }
        schedule_job_updates(k);
      }
    }
  }

  /// The host-rooted star with opportunistic one-hop peer forwarding — the
  /// pre-collective broadcast, now restricted to one job's recipients
  /// (recips_). Every recipient either relays off the first earlier
  /// recipient it shares a peer link with, or takes its own host transfer.
  /// On a flat 1-D topology this loop is the pre-collective code path,
  /// bit-for-bit; on a hierarchical one the relay source's send port
  /// serializes (send_free_), so fanning eight peers out of one device costs
  /// eight sends, not one.
  void relay_job(int k, double bytes) {
    for (std::size_t i = 0; i < recips_.size(); ++i) {
      const int d = recips_[i];
      PeerTable::Peer relay;
      int relay_src = -1;
      for (std::size_t j = 0; j < i; ++j) {
        if (const PeerTable::Peer peer = peers_.find(recips_[j], d);
            peer.link != nullptr) {
          relay = peer;
          relay_src = recips_[j];
          break;
        }
      }
      SimTime at;
      if (relay.link != nullptr) {
        SimTime ready = arrival_[static_cast<std::size_t>(relay_src)];
        if (profile_.links.hierarchical()) {
          ready = max(ready, send_free_[static_cast<std::size_t>(relay_src)]);
        }
        at = run_peer_transfer(d, ready, bytes, relay, k);
        if (profile_.links.hierarchical()) {
          send_free_[static_cast<std::size_t>(relay_src)] = at;
        }
      } else {
        at = run_transfer(d, lanes_[0].busy_until, bytes, k);
      }
      arrival_[static_cast<std::size_t>(d)] = at;
      engine_.schedule_at(at,
                          ClusterEvent{ClusterEvent::Kind::StartUpdate, k, d});
    }
  }

  /// Seeds a job's first device with the payload: a no-op when it *is* the
  /// broadcast root, one device-to-device hop from a device root (the root's
  /// send port serializes across jobs and tree rounds), or the legacy host
  /// transfer when the root is the host (source < 0).
  SimTime seed_first(int first, int source, double bytes, int k) {
    if (first == source) return engine_.now();
    if (source >= 0) {
      const SimTime ready =
          max(engine_.now(), send_free_[static_cast<std::size_t>(source)]);
      const SimTime at = run_hop(source, first, ready, bytes, k);
      send_free_[static_cast<std::size_t>(source)] = at;
      return at;
    }
    return run_transfer(first, lanes_[0].busy_until, bytes, k);
  }

  /// Ring broadcast: root -> first recipient, then a node-contiguous chain
  /// of device-to-device hops (device ids are node-contiguous on the rack
  /// profiles), so the root pays for exactly one send per job. The chain is
  /// rotated to start at `lead` (the broadcast root when it is a recipient,
  /// else the next panel's owner) when that device is in this job.
  void ring_job(int k, double bytes, int lead, int source) {
    for (std::size_t i = 0; i < recips_.size(); ++i) {
      if (recips_[i] == lead) {
        std::rotate(recips_.begin(),
                    recips_.begin() + static_cast<std::ptrdiff_t>(i),
                    recips_.end());
        break;
      }
    }
    for (std::size_t i = 0; i < recips_.size(); ++i) {
      const int d = recips_[i];
      if (i == 0) {
        arrival_[static_cast<std::size_t>(d)] =
            seed_first(d, source, bytes, k);
      } else {
        const int src = recips_[i - 1];
        arrival_[static_cast<std::size_t>(d)] =
            run_hop(src, d, arrival_[static_cast<std::size_t>(src)], bytes, k);
      }
    }
  }

  /// Two-level binomial tree: the host seeds the first node's leader, the
  /// node leaders propagate binomially over the inter-node fabric, and each
  /// node's recipients double the holder set every round over intra-node
  /// peer links. Sends are issued in deterministic (round, rank) order and
  /// each sender's port serializes through send_free_.
  void tree_job(int k, double bytes, int lead, int source) {
    // Node leaders, in node order (recips_ is ascending and device ids are
    // node-contiguous): normally a node's first recipient, but `lead` (the
    // broadcast root when it is a recipient, else the next panel's owner)
    // is promoted to lead its node — and, by rotation, the whole tree — so
    // the pipeline-critical device holds the payload at the earliest hop.
    leaders_.clear();
    std::size_t lead_leader = recips_.size();  // index into leaders_
    for (std::size_t i = 0; i < recips_.size(); ++i) {
      if (i == 0 || profile_.links.node(recips_[i]) !=
                        profile_.links.node(recips_[i - 1])) {
        leaders_.push_back(recips_[i]);
      }
      if (recips_[i] == lead) {
        leaders_.back() = lead;
        lead_leader = leaders_.size() - 1;
      }
    }
    if (lead_leader < leaders_.size()) {
      std::rotate(leaders_.begin(),
                  leaders_.begin() + static_cast<std::ptrdiff_t>(lead_leader),
                  leaders_.end());
    }
    arrival_[static_cast<std::size_t>(leaders_[0])] =
        seed_first(leaders_[0], source, bytes, k);
    binomial_rounds(leaders_, k, bytes);
    // Intra-node fan-out over each node's contiguous slice of recips_, the
    // node's leader (the promoted lead, where it applies) at rank 0 —
    // binomial_rounds requires rank 0 to hold the payload already.
    std::size_t i = 0;
    while (i < recips_.size()) {
      const int node = profile_.links.node(recips_[i]);
      std::size_t j = i;
      group_.clear();
      while (j < recips_.size() && profile_.links.node(recips_[j]) == node) {
        group_.push_back(recips_[j]);
        ++j;
      }
      for (std::size_t u = 1; u < group_.size(); ++u) {
        if (group_[u] == lead) {
          std::swap(group_[0], group_[u]);
          break;
        }
      }
      binomial_rounds(group_, k, bytes);
      i = j;
    }
  }

  /// Standard binomial broadcast over `ranks` (rank 0 already holds the
  /// payload): in round r, every rank u < 2^r sends to rank u + 2^r.
  void binomial_rounds(const std::vector<int>& ranks, int k, double bytes) {
    for (std::size_t stride = 1; stride < ranks.size(); stride <<= 1) {
      for (std::size_t u = 0; u < stride && u + stride < ranks.size(); ++u) {
        const int src = ranks[u];
        const int dst = ranks[u + stride];
        const SimTime ready =
            max(arrival_[static_cast<std::size_t>(src)],
                send_free_[static_cast<std::size_t>(src)]);
        arrival_[static_cast<std::size_t>(dst)] =
            run_hop(src, dst, ready, bytes, k);
        send_free_[static_cast<std::size_t>(src)] =
            arrival_[static_cast<std::size_t>(dst)];
      }
    }
  }

  /// Fires StartUpdate for every recipient of the current job at its
  /// computed arrival, in ascending device order (deterministic tie-breaks).
  void schedule_job_updates(int k) {
    for (const int d : recips_) {
      engine_.schedule_at(arrival_[static_cast<std::size_t>(d)],
                          ClusterEvent{ClusterEvent::Kind::StartUpdate, k, d});
    }
  }

  void start_update(int k, int d) {
    Lane& lane = lanes_[static_cast<std::size_t>(1 + d)];
    LaneDecision dec = plan_row(k)[static_cast<std::size_t>(1 + d)];
    // Protection matches the clock that actually runs: by now the lane's
    // plan may have been guarded off, overtaken by a skipped transition, or
    // thermally clamped, so ABFT-OC is consulted here, against the realized
    // `f`, not at plan time.
    const hw::Mhz f = realize_clock(lane, dec);
    const abft::ChecksumMode mode = abft_mode_for(d, f, dec.core_t, k);
    const DeviceWork work = device_work(k, d, f, mode);
    const double noise =
        lane_noise(1 + d, k) *
        (opt_.variability.enabled ? lane.var.compute_factor(k) : 1.0);
    const SimTime busy = (work.update + work.abft) * noise;
    SimTime done = run_compute(lane, engine_.now(), dec, busy, work.flops);
    if (trace_ != nullptr) {
      obs::TraceSpan s;
      s.kind = obs::SpanKind::Update;
      s.start_ns = (done - busy).ns();
      s.dur_ns = busy.ns();
      s.k = k;
      s.lane = 1 + d;
      s.freq_mhz = static_cast<std::int32_t>(f);
      s.abft_mode = static_cast<std::uint8_t>(mode);
      s.dvfs_ns = last_dvfs_lat_.ns();
      trace_->record(s);
    }
    switch (mode) {
      case abft::ChecksumMode::None: ++lane.use.iters_unprotected; break;
      case abft::ChecksumMode::SingleSide: ++lane.use.iters_single; break;
      case abft::ChecksumMode::Full: ++lane.use.iters_full; break;
    }
    const double share = share_for(k, d);
    if (share > 0.0) {
      // Measured profiles exclude recovery time below: a fault is an
      // anomaly, not an efficiency change the predictions should learn.
      record(lane, OpKind::TMU, k, (work.update * noise).seconds(), share);
    }
    if (early_ship_ && k + 1 < iters_ && d == layout_.owner(k + 1)) {
      // Panel-priority look-ahead: the owner reorders its local update to
      // finish panel column k+1 first (one of its local_cols columns) and
      // DMAs it home at that instant, so the host factors PD(k+1) while the
      // rest of this device's trailing update is still running. The lane
      // itself stays busy until `done` — only the transfer departs early.
      const std::int64_t cols =
          std::max<std::int64_t>(1, layout_.local_cols(k, d));
      const SimTime slice_done =
          done - busy + busy * (1.0 / static_cast<double>(cols));
      const SimTime arrived =
          run_transfer(d, slice_done, one_way_bytes(k + 1), k + 1);
      engine_.schedule_at(
          arrived, ClusterEvent{ClusterEvent::Kind::StartPd, k + 1, 0});
    }
    if (opt_.faults.enabled) {
      done = expose_update(lane, dec, k, d, f, mode, work.update * noise);
    }
    engine_.schedule_at(done,
                        ClusterEvent{ClusterEvent::Kind::FinishUpdate, k, d});
  }

  /// Samples the fault process over one update window and charges the
  /// recovery cost in-lane: checksum corrections at the window's clock,
  /// rollback recomputes at the device's base clock (the safe state, like
  /// the numeric recovery model). Extends the lane's busy time — recovery
  /// genuinely delays its next panel/update — and returns the new completion
  /// time. recovery_s stays a sub-bucket of busy_s, so per-lane
  /// busy + idle + dvfs still reconciles with the makespan.
  SimTime expose_update(Lane& lane, const LaneDecision& dec, int k, int d,
                        hw::Mhz f, abft::ChecksumMode mode, SimTime exposed) {
    const hw::ErrorRates rates = lane.clk->rates(f, dec.gb);
    const faultcamp::FaultCounts counts = lane.faults.sample(rates, exposed);
    const faultcamp::Resolution res =
        faultcamp::resolve(counts, mode, opt_.faults.rollback);
    lane.use.faults_injected += res.injected.total();
    lane.use.faults_corrected += res.corrected();
    lane.use.faults_recovered += res.recovered;
    lane.use.faults_unrecovered += res.unrecovered;
    lane.use.faults_uncorrectable += res.uncorrectable;
    lane.use.rollbacks += res.rollbacks;
    SimTime extra;
    if (res.corrected() > 0) {
      const SimTime corr = SimTime::from_seconds(
          opt_.faults.correction_s * static_cast<double>(res.corrected()));
      lane.use.energy_j += lane.clk->busy_power(f, dec.gb) * corr.seconds();
      extra += corr;
    }
    if (res.rollbacks > 0) {
      const DeviceWork redo =
          device_work(k, d, lane.dev->freq.base_mhz, mode);
      const SimTime rb = redo.update + redo.abft;
      lane.use.energy_j +=
          lane.clk->busy_power(lane.dev->freq.base_mhz,
                               hw::Guardband::Default) *
          rb.seconds();
      extra += rb;
    }
    if (trace_ != nullptr &&
        (res.injected.total() > 0 || extra > SimTime::zero())) {
      obs::TraceSpan s;
      s.kind = obs::SpanKind::Recovery;
      s.start_ns = lane.busy_until.ns();
      s.dur_ns = extra.ns();
      s.k = k;
      s.lane = lane.index;
      s.freq_mhz = static_cast<std::int32_t>(f);
      s.abft_mode = static_cast<std::uint8_t>(mode);
      s.recovery_ns = extra.ns();
      s.faults_injected = res.injected.total();
      s.faults_corrected = res.corrected();
      s.rollbacks = res.rollbacks;
      trace_->record(s);
    }
    lane.use.busy_s += extra.seconds();
    lane.use.recovery_s += extra.seconds();
    lane.busy_until += extra;
    return lane.busy_until;
  }

  void finish_update(int k, int d) {
    // Look-ahead: the owner of panel k+1 ships it home the moment its own
    // update is done; the host can then factor it while the other devices
    // are still updating iteration k. (The hierarchical relay ships it
    // mid-update from start_update() instead, and the accelerator-resident
    // pipeline never ships panels home at all.)
    if (!early_ship_ && !device_pd_ && k + 1 < iters_ &&
        d == layout_.owner(k + 1)) {
      const SimTime arrived = run_transfer(
          d, lanes_[static_cast<std::size_t>(1 + d)].busy_until,
          one_way_bytes(k + 1), k + 1);
      engine_.schedule_at(
          arrived, ClusterEvent{ClusterEvent::Kind::StartPd, k + 1, 0});
    }
    // Once a device owns no trailing blocks it never works again
    // (block-cyclic ownership only shrinks): park the retired lane so it
    // does not burn last-clock idle power until the makespan barrier.
    if (k + 1 >= iters_ || !layout_.has_work(k + 1, d)) {
      park_lane(lanes_[static_cast<std::size_t>(1 + d)]);
    }
  }

  /// Drops a lane that will never work again to its floor clock (SR/BSR
  /// only; Original pins clocks and R2H's halt model already covers idling).
  /// The transition window is settled against the makespan at the barrier.
  void park_lane(Lane& lane) {
    if (opt_.strategy != StrategyKind::SR &&
        opt_.strategy != StrategyKind::BSR) {
      return;
    }
    lane.park_power_w = idle_power(lane);  // at the pre-park clock
    lane.park_start = lane.busy_until;
    lane.park_lat = lane.dvfs.set_frequency(lane.dev->freq.min_mhz);
    lane.parked = lane.park_lat > SimTime::zero();
  }

  /// Records a measured duration, normalized to the device's base clock and
  /// (for devices) scaled from the local share back to the global task, so
  /// the Table-2 complexity ratios stay applicable.
  void record(Lane& lane, OpKind op, int k, double seconds, double share) {
    const double scale = lane.clk->speed_scale(lane.dvfs.current());
    lane.history.record(op, k, seconds * scale / share);
  }

  [[nodiscard]] double lane_noise(int lane, int k) const {
    return lanes_[static_cast<std::size_t>(lane)]
        .noise[static_cast<std::size_t>(k)];
  }

  const ClusterProfile& profile_;
  const predict::WorkloadModel& wl_;
  const ClusterOptions& opt_;
  obs::TraceRecorder* trace_ = nullptr;  ///< opt_.trace; null = tracing off
  SimTime last_dvfs_lat_;  ///< transition latency of the latest run_compute
  BlockCyclic dist_;
  predict::WorkloadTable work_;  ///< every lane's history reads it
  LayoutTable layout_;
  PeerTable peers_;
  std::vector<hw::ClockTable> clocks_;  ///< one per distinct device model
  std::vector<double> panel_bytes_;     ///< panel_area_bytes per iteration
  int iters_ = 0;
  std::int64_t blocks_total_ = 0;
  bool early_ship_ = false;  ///< panel-priority look-ahead (see ctor)
  bool device_pd_ = false;   ///< accelerator-resident panels (see ctor)
  bool enhanced_ = false;    ///< the predictions' formula (see ctor)

  BasicEventEngine<ClusterEvent> engine_;
  std::vector<Lane> lanes_;
  std::vector<SimTime> link_free_;  ///< indexed like lanes_ (slot 0 unused)
  SimTime bus_free_;
  SimTime internode_free_;            ///< shared inter-node fabric
  std::vector<SimTime> node_bus_free_;  ///< per-node bus (slot 0 unused)
  std::vector<SimTime> send_free_;    ///< per-device send port (collectives)
  std::vector<SimTime> peer_free_;    ///< per PeerTable port slot
  std::vector<LaneDecision> plans_;  ///< flat (iteration, lane) plan grid
  std::vector<double> core_, over_, lane_t_;  ///< decide() scratch
  std::vector<double> eff_share_;  ///< flat (iteration, device) shares
  std::vector<double> weights_;    ///< rebalance_shares() scratch
  std::vector<SimTime> arrival_;              ///< finish_pd() scratch
  std::vector<int> recips_, leaders_, group_;  ///< broadcast-job scratch
};

}  // namespace

ClusterReport run_cluster(const ClusterProfile& profile,
                          const predict::WorkloadModel& workload,
                          const ClusterOptions& options) {
  if (profile.num_devices() < 1) {
    throw std::invalid_argument("run_cluster: profile has no devices");
  }
  if (profile.links.num_devices() !=
      static_cast<std::size_t>(profile.num_devices())) {
    throw std::invalid_argument(
        "run_cluster: link topology covers " +
        std::to_string(profile.links.num_devices()) + " devices, profile has " +
        std::to_string(profile.num_devices()));
  }
  if ((options.grid_p > 0) != (options.grid_q > 0)) {
    throw std::invalid_argument(
        "run_cluster: set both grid_p and grid_q (or neither for the 1-D "
        "layout)");
  }
  // 64-bit product: an int one could wrap round to exactly num_devices().
  if (options.grid_p > 0 &&
      std::int64_t{options.grid_p} * options.grid_q != profile.num_devices()) {
    throw std::invalid_argument(
        "run_cluster: process grid " + std::to_string(options.grid_p) + "x" +
        std::to_string(options.grid_q) + " must cover exactly " +
        std::to_string(profile.num_devices()) + " devices");
  }
  ClusterRun run(profile, workload, options);
  return run.run();
}

}  // namespace bsr::cluster
