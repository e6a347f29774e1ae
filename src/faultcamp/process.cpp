#include "faultcamp/process.hpp"

#include <cmath>
#include <stdexcept>

#include "common/chars.hpp"

namespace bsr::faultcamp {

void validate(const Spec& spec) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("faults: " + what);
  };
  // +inf meets every bound below, yet no process is defined there and JSON
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
  check("rate_multiplier", spec.rate_multiplier, spec.rate_multiplier >= 0.0,
        ">= 0");
  check("background_rate_per_s", spec.background_rate_per_s,
        spec.background_rate_per_s >= 0.0, ">= 0");
  check("burst_mean", spec.burst_mean, spec.burst_mean >= 1.0, ">= 1");
  check("hazard_sigma", spec.hazard_sigma, spec.hazard_sigma >= 0.0, ">= 0");
  if (spec.fixed_d0 < 0 || spec.fixed_d1 < 0 || spec.fixed_d2 < 0) {
    fail("fixed_d0/d1/d2 must be >= 0");
  }
  check("correction_s", spec.correction_s, spec.correction_s >= 0.0, ">= 0");
  if (!infinite.empty()) fail(infinite);
}

void append_fingerprint_fragment(std::string& out, const Spec& spec) {
  if (!spec.enabled) {
    out += "flt=0";
    return;
  }
  out += "flt=1;fproc=";
  out += spec.process == ProcessKind::Poisson ? "poisson" : "fixed";
  append_field(out, ";frate=", spec.rate_multiplier);
  append_field(out, ";fbg=", spec.background_rate_per_s);
  append_field(out, ";fburst=", spec.burst_mean);
  append_field(out, ";fhaz=", spec.hazard_sigma);
  append_field(out, ";ffix=", spec.fixed_d0);
  append_field(out, ",", spec.fixed_d1);
  append_field(out, ",", spec.fixed_d2);
  append_field(out, ";fcorr=", spec.correction_s);
  append_field(out, ";frb=", spec.rollback);
  append_field(out, ";fseed=", spec.seed);
}

Resolution resolve(const FaultCounts& counts, abft::ChecksumMode mode,
                   bool rollback) {
  Resolution r;
  r.injected = counts;
  switch (mode) {
    case abft::ChecksumMode::None:
      // Nothing watches the window: every fault survives silently.
      r.unrecovered = counts.total();
      return r;
    case abft::ChecksumMode::SingleSide:
      r.corrected_d0 = counts.d0;
      r.uncorrectable = counts.d1 + counts.d2;
      break;
    case abft::ChecksumMode::Full:
      r.corrected_d0 = counts.d0;
      r.corrected_d1 = counts.d1;
      r.uncorrectable = counts.d2;
      break;
  }
  if (r.uncorrectable > 0) {
    // One redo of the affected update covers every uncorrectable detection
    // in the window (mirrors the numeric path: a single rollback per
    // iteration, however many blocks failed to repair).
    if (rollback) {
      r.rollbacks = 1;
      r.recovered = r.uncorrectable;
    } else {
      r.unrecovered = r.uncorrectable;
    }
  }
  return r;
}

namespace {
/// Stream-domain salt separating fault streams from var/'s variability
/// streams (which salt with 0x5eedab1ef0c0ffee) and from sweep cell seeds.
constexpr std::uint64_t kFaultStreamSalt = 0xfa17ca3f00d5eedULL;
}  // namespace

FaultProcess::FaultProcess(const Spec& spec, std::uint64_t run_seed, int lane)
    : enabled_(spec.enabled),
      kind_(spec.process),
      mult_(spec.rate_multiplier),
      background_(spec.background_rate_per_s),
      burst_mean_(spec.burst_mean),
      fixed_d0_(spec.fixed_d0),
      fixed_d1_(spec.fixed_d1),
      fixed_d2_(spec.fixed_d2) {
  if (!enabled_) return;
  const std::uint64_t root = spec.seed != 0 ? spec.seed : run_seed;
  const std::uint64_t lane_root = var::derive_stream_seed(
      root ^ kFaultStreamSalt, static_cast<std::uint64_t>(lane));
  arrival_rng_ = Rng(var::derive_stream_seed(lane_root, 0));
  burst_rng_ = Rng(var::derive_stream_seed(lane_root, 1));
  if (spec.hazard_sigma > 0.0) {
    Rng hazard_rng(var::derive_stream_seed(lane_root, 2));
    hazard_ = std::exp(hazard_rng.normal(0.0, spec.hazard_sigma));
  }
}

std::int64_t FaultProcess::arrivals(double mean) {
  if (mean <= 0.0) return 0;
  const auto events =
      static_cast<std::int64_t>(arrival_rng_.poisson(mean));
  if (burst_mean_ <= 1.0 || events == 0) return events;
  std::int64_t faults = events;
  for (std::int64_t e = 0; e < events; ++e) {
    faults += static_cast<std::int64_t>(burst_rng_.poisson(burst_mean_ - 1.0));
  }
  return faults;
}

FaultCounts FaultProcess::sample(const hw::ErrorRates& rates, SimTime busy) {
  FaultCounts c;
  if (!enabled_) return c;
  const double t = busy.seconds();
  if (t <= 0.0) return c;
  if (kind_ == ProcessKind::Fixed) {
    // Deterministic fig09-style replay: each class's configured count
    // strikes every window whose clock exposes *that class* (nonzero table
    // rate), so the replay stays inside the world ABFT-OC reasons about —
    // fault-free states stay fault-free, and 1D faults only land where the
    // model says 1D faults exist. rate_multiplier scales the counts
    // (rounded), so a campaign's rate axis means the same thing under both
    // processes. No RNG involved.
    const auto scaled = [this](std::int64_t fixed) {
      return static_cast<std::int64_t>(
          std::llround(static_cast<double>(fixed) * mult_));
    };
    if (rates.d0 > 0.0) c.d0 = scaled(fixed_d0_);
    if (rates.d1 > 0.0) c.d1 = scaled(fixed_d1_);
    if (rates.d2 > 0.0) c.d2 = scaled(fixed_d2_);
    return c;
  }
  c.d0 = arrivals((rates.d0 * mult_ + background_) * hazard_ * t);
  c.d1 = arrivals(rates.d1 * mult_ * hazard_ * t);
  c.d2 = arrivals(rates.d2 * mult_ * hazard_ * t);
  return c;
}

}  // namespace bsr::faultcamp
