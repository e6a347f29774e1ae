#include "hw/perf_model.hpp"

#include <cmath>

namespace bsr::hw {

namespace {
constexpr double kVerifyBandwidthFreqExponent = 0.2;
}

double PerfModel::speed_scale(Mhz f, const FrequencyDomain& dom) const {
  const double ratio =
      static_cast<double>(f) / static_cast<double>(dom.base_mhz);
  return std::pow(ratio, freq_exponent);
}

double PerfModel::time_scale(Mhz f, const FrequencyDomain& dom) const {
  const double ratio =
      static_cast<double>(dom.base_mhz) / static_cast<double>(f);
  return std::pow(ratio, freq_exponent);
}

double PerfModel::gflops_at(KernelClass k, double speed) const {
  double base = 0.0;
  switch (k) {
    case KernelClass::Blas3: base = blas3_gflops_base; break;
    case KernelClass::Panel: base = panel_gflops_base; break;
    case KernelClass::ChecksumUpdate: base = checksum_gflops_base; break;
  }
  return base * speed;
}

double PerfModel::gflops(KernelClass k, Mhz f, const FrequencyDomain& dom) const {
  return gflops_at(k, speed_scale(f, dom));
}

double PerfModel::verify_bandwidth(Mhz f, const FrequencyDomain& dom) const {
  const double ratio =
      static_cast<double>(f) / static_cast<double>(dom.base_mhz);
  return mem_bandwidth_gbs * 1e9 *
         std::pow(ratio, kVerifyBandwidthFreqExponent);
}

SimTime PerfModel::time_at_rate(double flops, double gflops) {
  if (flops <= 0.0) return SimTime::zero();
  const double rate = gflops * 1e9;
  return SimTime::from_seconds(flops / rate);
}

SimTime PerfModel::time_at_bandwidth(double bytes, double bytes_per_s) {
  if (bytes <= 0.0) return SimTime::zero();
  return SimTime::from_seconds(bytes / bytes_per_s);
}

SimTime PerfModel::time_for_flops(double flops, KernelClass k, Mhz f,
                                  const FrequencyDomain& dom) const {
  if (flops <= 0.0) return SimTime::zero();
  return time_at_rate(flops, gflops(k, f, dom));
}

SimTime PerfModel::time_for_bytes(double bytes, Mhz f,
                                  const FrequencyDomain& dom) const {
  if (bytes <= 0.0) return SimTime::zero();
  return time_at_bandwidth(bytes, verify_bandwidth(f, dom));
}

}  // namespace bsr::hw
