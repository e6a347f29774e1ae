#include "sched/pipeline.hpp"

#include <cmath>

namespace bsr::sched {

HybridPipeline::HybridPipeline(const hw::PlatformProfile& platform,
                               PipelineConfig config)
    : platform_(platform),
      config_(std::move(config)),
      work_(config_.workload),
      history_(work_),
      cpu_dvfs_(platform_.cpu.make_dvfs()),
      gpu_dvfs_(platform_.gpu.make_dvfs()),
      cpu_clk_(hw::ClockState::at(platform_.cpu, cpu_dvfs_.current())),
      gpu_clk_(hw::ClockState::at(platform_.gpu, gpu_dvfs_.current())),
      cpu_clk_mhz_(cpu_dvfs_.current()),
      gpu_clk_mhz_(gpu_dvfs_.current()) {
  const int iters = num_iterations();
  cpu_noise_.resize(iters, 1.0);
  gpu_noise_.resize(iters, 1.0);
  if (config_.noise.enabled && iters > 1) {
    Rng rng(config_.seed);
    for (int k = 0; k < iters; ++k) {
      const double progress =
          static_cast<double>(k) / static_cast<double>(iters - 1);
      const double jitter_cpu = std::exp(rng.normal(0.0, NoiseModel::sigma));
      const double jitter_gpu = std::exp(rng.normal(0.0, NoiseModel::sigma));
      cpu_noise_[k] =
          (1.0 + NoiseModel::cpu_drift * progress * progress) * jitter_cpu;
      gpu_noise_[k] =
          (1.0 + NoiseModel::gpu_drift * progress * progress) * jitter_gpu;
    }
  }
  if (config_.variability.enabled) {
    cpu_var_ = var::LaneVariability(config_.variability, config_.seed,
                                    /*lane=*/0, iters,
                                    platform_.cpu.freq.base_mhz);
    gpu_var_ = var::LaneVariability(config_.variability, config_.seed,
                                    /*lane=*/1, iters,
                                    platform_.gpu.freq.base_mhz);
  }
  if (config_.faults.enabled) {
    // Faults strike the GPU's update window (the numeric injector's exposure
    // region); the lane index matches the variability numbering (1 = GPU).
    gpu_faults_ = faultcamp::FaultProcess(config_.faults, config_.seed,
                                          /*lane=*/1);
  }
  if (config_.trace != nullptr) {
    // Up to 6 spans per iteration (iteration + two lanes + two dvfs +
    // recovery); one reservation keeps recording allocation-free.
    config_.trace->reserve(config_.trace->size() +
                           6 * static_cast<std::size_t>(iters));
  }
}

double HybridPipeline::noise_factor(hw::DeviceId dev, int k) const {
  return dev == hw::DeviceId::Cpu ? cpu_noise_[k] : gpu_noise_[k];
}

void HybridPipeline::settle_clock(hw::ClockState& state, hw::Mhz& state_mhz,
                                  const hw::DeviceModel& dev, hw::Mhz f) {
  if (f == state_mhz) return;
  state = hw::ClockState::at(dev, f);
  state_mhz = f;
}

TaskDurations HybridPipeline::base_clock_durations(
    int k, abft::ChecksumMode abft_mode) const {
  return compute_durations(
      work_.iteration(k), platform_.link,
      hw::ClockState::at(platform_.cpu, platform_.cpu.freq.base_mhz),
      hw::ClockState::at(platform_.gpu, platform_.gpu.freq.base_mhz),
      abft_mode);
}

IterationOutcome HybridPipeline::run_iteration(int k, const IterationDecision& d) {
  const hw::Mhz cpu_f_before = cpu_dvfs_.current();
  const hw::Mhz gpu_f_before = gpu_dvfs_.current();
  cpu_dvfs_.set_guardband(d.cpu_guardband);
  gpu_dvfs_.set_guardband(d.gpu_guardband);

  SimTime cpu_dvfs_lat;
  SimTime gpu_dvfs_lat;
  if (config_.variability.enabled) {
    // Realize the requested clocks through the variability models: quantize
    // to the P-state grid and pass the thermal throttle. A throttled lane is
    // forced to base even when the plan kept its boosted clock, so the
    // admission runs every iteration, not only on explicit adjustments.
    const hw::Mhz cpu_req = d.adjust_cpu && d.cpu_freq > 0
                                ? d.cpu_freq
                                : cpu_dvfs_.current();
    const hw::Mhz gpu_req = d.adjust_gpu && d.gpu_freq > 0
                                ? d.gpu_freq
                                : gpu_dvfs_.current();
    const hw::Mhz cpu_granted = cpu_var_.admit_clock(
        cpu_req, platform_.cpu.freq,
        d.cpu_guardband == hw::Guardband::Optimized);
    const hw::Mhz gpu_granted = gpu_var_.admit_clock(
        gpu_req, platform_.gpu.freq,
        d.gpu_guardband == hw::Guardband::Optimized);
    if (cpu_granted != cpu_dvfs_.current()) {
      cpu_dvfs_lat = cpu_var_.dvfs_latency(cpu_dvfs_.set_frequency(cpu_granted));
    }
    if (gpu_granted != gpu_dvfs_.current()) {
      gpu_dvfs_lat = gpu_var_.dvfs_latency(gpu_dvfs_.set_frequency(gpu_granted));
    }
  } else {
    if (d.adjust_cpu && d.cpu_freq > 0) {
      cpu_dvfs_lat = cpu_dvfs_.set_frequency(d.cpu_freq);
    }
    if (d.adjust_gpu && d.gpu_freq > 0) {
      gpu_dvfs_lat = gpu_dvfs_.set_frequency(d.gpu_freq);
    }
  }
  const hw::Mhz fc = cpu_dvfs_.current();
  const hw::Mhz fg = gpu_dvfs_.current();
  settle_clock(cpu_clk_, cpu_clk_mhz_, platform_.cpu, fc);
  settle_clock(gpu_clk_, gpu_clk_mhz_, platform_.gpu, fg);

  TaskDurations t = compute_durations(work_.iteration(k), platform_.link,
                                      cpu_clk_, gpu_clk_, d.abft_mode);
  // Efficiency drift + noise on the compute lanes (the link is steady).
  t.pd = t.pd * cpu_noise_[k];
  t.pu = t.pu * gpu_noise_[k];
  t.tmu = t.tmu * gpu_noise_[k];
  t.chk_update = t.chk_update * gpu_noise_[k];
  t.chk_verify = t.chk_verify * gpu_noise_[k];
  if (config_.variability.enabled) {
    // Stochastic drift walks on top of the calibrated deterministic model;
    // the transfer rides the device lane's jitter stream.
    const double cpu_drift = cpu_var_.compute_factor(k);
    const double gpu_drift = gpu_var_.compute_factor(k);
    t.pd = t.pd * cpu_drift;
    t.pu = t.pu * gpu_drift;
    t.tmu = t.tmu * gpu_drift;
    t.chk_update = t.chk_update * gpu_drift;
    t.chk_verify = t.chk_verify * gpu_drift;
    t.transfer = t.transfer * gpu_var_.transfer_factor();
  }

  IterationOutcome o;
  o.k = k;
  o.cpu_freq = fc;
  o.gpu_freq = fg;
  o.abft_mode = d.abft_mode;
  o.pd = t.pd;
  o.pu_tmu = t.pu + t.tmu;
  o.transfer = t.transfer;
  o.abft_time = t.chk_update + t.chk_verify;
  o.cpu_dvfs = cpu_dvfs_lat;
  o.gpu_dvfs = gpu_dvfs_lat;
  o.cpu_lane = cpu_dvfs_lat + t.transfer + t.pd;
  o.gpu_lane = gpu_dvfs_lat + o.pu_tmu + o.abft_time;

  // --- Fault exposure and recovery (inert unless config_.faults.enabled) ----
  SimTime correction;
  SimTime rollback;
  if (config_.faults.enabled) {
    // The update window runs at fg under the decision's guardband: sample the
    // fault process at the SDC-table rates of that state and resolve the
    // counts against the checksum mode that actually protected the window.
    const hw::ErrorRates& rates = gpu_clk_.rates_at(d.gpu_guardband);
    const faultcamp::FaultCounts counts = gpu_faults_.sample(rates, o.pu_tmu);
    o.faults = faultcamp::resolve(counts, o.abft_mode, config_.faults.rollback);
    if (o.faults.corrected() > 0) {
      correction = SimTime::from_seconds(
          config_.faults.correction_s *
          static_cast<double>(o.faults.corrected()));
    }
    if (o.faults.rollbacks > 0) {
      // The redo re-runs the GPU update (with its checksum pass) at the base
      // clock — the safe, fault-free state, matching the numeric recovery
      // model in core/decomposer.cpp.
      const TaskDurations redo = base_clock_durations(k, d.abft_mode);
      rollback = redo.pu + redo.tmu + redo.chk_update + redo.chk_verify;
    }
    o.recovery = correction + rollback;
    // Recovery delays the GPU lane in place, so it genuinely eats into the
    // iteration's slack and shifts every later strategy decision.
    o.gpu_lane += o.recovery;
  }
  o.span = max(o.cpu_lane, o.gpu_lane);
  o.slack = o.gpu_lane - o.cpu_lane;

  // --- Energy integration ----------------------------------------------------
  const hw::DeviceModel& gpu = platform_.gpu;
  const double cpu_busy_p = cpu_clk_.busy(d.cpu_guardband);
  const double gpu_busy_p = gpu_clk_.busy(d.gpu_guardband);
  const double cpu_idle_p =
      d.halt_idle_cpu ? cpu_clk_.halted_idle_power : cpu_clk_.idle_power;
  const double gpu_idle_p =
      d.halt_idle_gpu ? gpu_clk_.halted_idle_power : gpu_clk_.idle_power;

  // One term per lane segment, added in lane order: regrouping the sum would
  // change the last bits of the energies.
  // CPU lane: dvfs -> transfer (DMA; CPU effectively idle) -> PD -> idle.
  o.cpu_energy_j += cpu_idle_p * cpu_dvfs_lat.seconds();
  o.cpu_energy_j += cpu_idle_p * t.transfer.seconds();
  o.cpu_energy_j += cpu_busy_p * t.pd.seconds();
  o.cpu_energy_j += cpu_idle_p * (o.span - o.cpu_lane).seconds();

  // GPU lane: dvfs -> PU+TMU -> ABFT -> correction/rollback -> idle.
  o.gpu_energy_j += gpu_idle_p * gpu_dvfs_lat.seconds();
  o.gpu_energy_j += gpu_busy_p * o.pu_tmu.seconds();
  o.gpu_energy_j += gpu_busy_p * o.abft_time.seconds();
  if (correction > SimTime::zero()) {
    // Checksum corrections run in-lane at the window's clock.
    o.gpu_energy_j += gpu_busy_p * correction.seconds();
  }
  if (rollback > SimTime::zero()) {
    // The rollback recompute runs at the base clock with the safe default
    // guardband — no SDCs can strike the redo.
    o.gpu_energy_j +=
        gpu.busy_power(gpu.freq.base_mhz, hw::Guardband::Default) *
        rollback.seconds();
  }
  o.gpu_energy_j += gpu_idle_p * (o.span - o.gpu_lane).seconds();

  // --- Base-clock-normalized profiles for the slack history -----------------
  o.pd_base_s = t.pd.seconds() * cpu_clk_.speed_scale;
  o.pu_tmu_base_s = o.pu_tmu.seconds() * gpu_clk_.speed_scale;
  o.transfer_s = t.transfer.seconds();
  history_.record(predict::OpKind::PD, k, o.pd_base_s);
  history_.record(predict::OpKind::TMU, k, o.pu_tmu_base_s);
  history_.record(predict::OpKind::Transfer, k, o.transfer_s);

  if (config_.variability.enabled) {
    // Thermal accounting: above-base busy time drains the boost budget, the
    // rest of the iteration span recovers it.
    const double cpu_busy = t.pd.seconds();
    const double gpu_busy = (o.pu_tmu + o.abft_time).seconds();
    cpu_var_.account(fc, cpu_busy, o.span.seconds() - cpu_busy);
    gpu_var_.account(fg, gpu_busy, o.span.seconds() - gpu_busy);
  }

  if (config_.trace != nullptr) {
    // Observation only: every value below was already realized above, so a
    // traced run's IterationOutcome stream — and therefore its RunReport —
    // is byte-identical to an untraced one.
    obs::TraceRecorder& tr = *config_.trace;
    const std::int64_t t0 = now_.ns();

    obs::TraceSpan it;
    it.kind = obs::SpanKind::Iteration;
    it.start_ns = t0;
    it.dur_ns = o.span.ns();
    it.k = k;
    it.slack_ns = o.slack.ns();
    tr.record(it);

    obs::TraceSpan cl;
    cl.kind = obs::SpanKind::CpuLane;
    cl.start_ns = t0;
    cl.dur_ns = o.cpu_lane.ns();
    cl.k = k;
    cl.lane = 0;
    cl.freq_mhz = static_cast<std::int32_t>(fc);
    cl.dvfs_ns = cpu_dvfs_lat.ns();
    tr.record(cl);

    obs::TraceSpan gl;
    gl.kind = obs::SpanKind::GpuLane;
    gl.start_ns = t0;
    gl.dur_ns = o.gpu_lane.ns();
    gl.k = k;
    gl.lane = 1;
    gl.freq_mhz = static_cast<std::int32_t>(fg);
    gl.abft_mode = static_cast<std::uint8_t>(o.abft_mode);
    gl.dvfs_ns = gpu_dvfs_lat.ns();
    gl.recovery_ns = o.recovery.ns();
    tr.record(gl);

    if (cpu_dvfs_lat > SimTime::zero()) {
      obs::TraceSpan tv;
      tv.kind = obs::SpanKind::Dvfs;
      tv.start_ns = t0;
      tv.dur_ns = cpu_dvfs_lat.ns();
      tv.k = k;
      tv.lane = 0;
      tv.from_mhz = static_cast<std::int32_t>(cpu_f_before);
      tv.freq_mhz = static_cast<std::int32_t>(fc);
      tr.record(tv);
    }
    if (gpu_dvfs_lat > SimTime::zero()) {
      obs::TraceSpan tv;
      tv.kind = obs::SpanKind::Dvfs;
      tv.start_ns = t0;
      tv.dur_ns = gpu_dvfs_lat.ns();
      tv.k = k;
      tv.lane = 1;
      tv.from_mhz = static_cast<std::int32_t>(gpu_f_before);
      tv.freq_mhz = static_cast<std::int32_t>(fg);
      tr.record(tv);
    }
    if (o.faults.injected.total() > 0 || o.recovery > SimTime::zero()) {
      // The GPU lane runs dvfs -> PU+TMU -> ABFT -> recovery, so the
      // recovery window opens where the checksum pass ends.
      obs::TraceSpan rv;
      rv.kind = obs::SpanKind::Recovery;
      rv.start_ns = t0 + (gpu_dvfs_lat + o.pu_tmu + o.abft_time).ns();
      rv.dur_ns = o.recovery.ns();
      rv.k = k;
      rv.lane = 1;
      rv.freq_mhz = static_cast<std::int32_t>(fg);
      rv.abft_mode = static_cast<std::uint8_t>(o.abft_mode);
      rv.recovery_ns = o.recovery.ns();
      rv.faults_injected =
          static_cast<std::int64_t>(o.faults.injected.total());
      rv.faults_corrected = static_cast<std::int64_t>(o.faults.corrected());
      rv.rollbacks = static_cast<std::int64_t>(o.faults.rollbacks);
      tr.record(rv);
    }
  }

  now_ += o.span;
  return o;
}

}  // namespace bsr::sched
