#include "var/models.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/chars.hpp"

namespace bsr::var {

void validate(const Spec& spec) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("variability: " + what);
  };
  // +inf meets every bound below, yet no model is defined there and JSON
  // cannot carry it. It is refused after the bound checks, so a spec they
  // reject keeps its message.
  std::string infinite;
  const auto check = [&](const char* name, double v, bool in_bounds,
                         const char* bound) {
    if (!in_bounds) {
      fail(std::string(name) + " must be " + bound + " (got " +
           std::to_string(v) + ")");
    }
    if (std::isinf(v) && infinite.empty()) {
      infinite =
          std::string(name) + " must be finite and " + bound + " (got inf)";
    }
  };
  check("drift", spec.drift, spec.drift >= 0.0, ">= 0");
  check("drift_cap", spec.drift_cap, spec.drift_cap > 0.0, "> 0");
  check("transfer_jitter", spec.transfer_jitter, spec.transfer_jitter >= 0.0,
        ">= 0");
  check("dvfs_jitter", spec.dvfs_jitter, spec.dvfs_jitter >= 0.0, ">= 0");
  if (spec.freq_quantum_mhz < 0) {
    fail("freq_quantum_mhz must be >= 0 (got " +
         std::to_string(spec.freq_quantum_mhz) + ")");
  }
  check("boost_budget_s", spec.boost_budget_s, spec.boost_budget_s >= 0.0,
        ">= 0");
  check("boost_recovery", spec.boost_recovery, spec.boost_recovery > 0.0,
        "> 0");
  if (!infinite.empty()) fail(infinite);
}

void append_fingerprint_fragment(std::string& out, const Spec& spec) {
  if (!spec.enabled) {
    out += "var=0";
    return;
  }
  out += "var=1";
  append_field(out, ";vdrift=", spec.drift);
  append_field(out, ";vcap=", spec.drift_cap);
  append_field(out, ";vtj=", spec.transfer_jitter);
  append_field(out, ";vdvfs=", spec.dvfs_jitter);
  append_field(out, ";vq=", spec.freq_quantum_mhz);
  append_field(out, ";vboost=", spec.boost_budget_s);
  append_field(out, ";vrec=", spec.boost_recovery);
  append_field(out, ";vseed=", spec.seed);
}

std::uint64_t derive_stream_seed(std::uint64_t root, std::uint64_t stream) {
  // splitmix64 over root + (stream + 1) * golden gamma — identical mixing to
  // bsr::derive_cell_seed, so stream seeds never collide with the root.
  std::uint64_t z = root + (stream + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<double> drift_walk(std::uint64_t seed, int steps, double sigma,
                               double cap) {
  std::vector<double> walk(static_cast<std::size_t>(std::max(steps, 0)), 1.0);
  if (sigma <= 0.0 || steps <= 1) return walk;
  Rng rng(seed);
  double log_factor = 0.0;
  for (int k = 1; k < steps; ++k) {
    log_factor += rng.normal(0.0, sigma);
    // Reflect into [-cap, cap]; one reflection suffices for any step smaller
    // than 2*cap, and the clamp backstops pathological sigma >= cap inputs.
    if (log_factor > cap) log_factor = 2.0 * cap - log_factor;
    if (log_factor < -cap) log_factor = -2.0 * cap - log_factor;
    log_factor = std::clamp(log_factor, -cap, cap);
    walk[static_cast<std::size_t>(k)] = std::exp(log_factor);
  }
  return walk;
}

hw::Mhz ThermalThrottle::admit(hw::Mhz requested, hw::Mhz base_mhz) {
  if (!active() || requested <= base_mhz) return requested;
  if (throttled_ || budget_s_ <= 0.0) {
    throttled_ = true;
    return base_mhz;
  }
  return requested;
}

void ThermalThrottle::account(hw::Mhz granted, hw::Mhz base_mhz, double busy_s,
                              double idle_s) {
  if (!active()) return;
  if (granted > base_mhz) {
    // A long boost may overdraw the budget; the debt is bounded at one
    // capacity so a single marathon iteration cannot starve the lane forever.
    budget_s_ = std::max(budget_s_ - busy_s, -capacity_s_);
  } else {
    budget_s_ += recovery_ * busy_s;
  }
  budget_s_ = std::min(budget_s_ + recovery_ * idle_s, capacity_s_);
  if (throttled_ && budget_s_ >= 0.5 * capacity_s_) throttled_ = false;
}

LaneVariability::LaneVariability(const Spec& spec, std::uint64_t run_seed,
                                 int lane, int iters, hw::Mhz base_mhz)
    : enabled_(spec.enabled),
      base_mhz_(base_mhz),
      quantum_(spec.freq_quantum_mhz),
      transfer_sigma_(spec.transfer_jitter),
      dvfs_sigma_(spec.dvfs_jitter) {
  if (!enabled_) return;
  const std::uint64_t root = spec.seed != 0 ? spec.seed : run_seed;
  const std::uint64_t lane_root =
      derive_stream_seed(root ^ 0x5eedab1ef0c0ffeeULL,
                         static_cast<std::uint64_t>(lane));
  drift_ = drift_walk(derive_stream_seed(lane_root, 0), iters, spec.drift,
                      spec.drift_cap);
  transfer_rng_ = Rng(derive_stream_seed(lane_root, 1));
  dvfs_rng_ = Rng(derive_stream_seed(lane_root, 2));
  throttle_ = ThermalThrottle(spec.boost_budget_s, spec.boost_recovery);
}

double LaneVariability::compute_factor(int k) const {
  if (!enabled_ || drift_.empty()) return 1.0;
  return drift_[static_cast<std::size_t>(
      std::clamp(k, 0, static_cast<int>(drift_.size()) - 1))];
}

double LaneVariability::transfer_factor() {
  if (!enabled_ || transfer_sigma_ <= 0.0) return 1.0;
  return std::exp(transfer_rng_.normal(0.0, transfer_sigma_));
}

SimTime LaneVariability::dvfs_latency(SimTime nominal) {
  if (!enabled_ || dvfs_sigma_ <= 0.0 || nominal <= SimTime::zero()) {
    return nominal;
  }
  return nominal * std::exp(dvfs_rng_.normal(0.0, dvfs_sigma_));
}

hw::Mhz LaneVariability::admit_clock(hw::Mhz requested,
                                     const hw::FrequencyDomain& dom,
                                     bool optimized_guardband) {
  if (!enabled_) return requested;
  hw::Mhz f = requested;
  if (quantum_ > 0) {
    // The P-state grid is anchored at the base clock (always grantable — a
    // lane that never requests a change must keep running at base) and
    // truncates toward it: boost requests get less boost, down-clock
    // requests keep more clock. Integer division truncates toward zero in
    // both directions, which is exactly "toward base" here.
    f = base_mhz_ + ((f - base_mhz_) / quantum_) * quantum_;
  }
  f = throttle_.admit(f, base_mhz_);
  return dom.clamp(f, optimized_guardband);
}

void LaneVariability::account(hw::Mhz granted, double busy_s, double idle_s) {
  if (!enabled_) return;
  throttle_.account(granted, base_mhz_, busy_s, idle_s);
}

}  // namespace bsr::var
