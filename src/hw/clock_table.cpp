#include "hw/clock_table.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace bsr::hw {

namespace {

/// Bitwise equality of two padding-free structs of doubles or ints.
template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

}  // namespace

ClockState ClockState::at(const DeviceModel& dev, Mhz f) {
  ClockState s;
  s.speed_scale = dev.perf.speed_scale(f, dev.freq);
  s.time_scale = dev.perf.time_scale(f, dev.freq);
  for (int k = 0; k < kNumKernelClasses; ++k) {
    s.gflops[static_cast<std::size_t>(k)] =
        dev.perf.gflops_at(static_cast<KernelClass>(k), s.speed_scale);
  }
  s.verify_bandwidth = dev.perf.verify_bandwidth(f, dev.freq);
  for (const Guardband g : {Guardband::Default, Guardband::Optimized}) {
    s.busy_power[static_cast<std::size_t>(g)] = dev.busy_power(f, g);
    s.rates[static_cast<std::size_t>(g)] = dev.errors.rates(f, g);
  }
  s.idle_power = dev.idle_power(f);
  s.halted_idle_power = dev.halted_idle_power(f);
  return s;
}

ClockTable::ClockTable(const DeviceModel& dev) : dev_(&dev) {
  const FrequencyDomain& dom = dev.freq;
  if (dom.step_mhz <= 0) return;  // no grid: every clock is computed
  min_mhz_ = dom.min_mhz;
  step_mhz_ = dom.step_mhz;
  const Mhz hi = std::max(dom.max_default_mhz, dom.max_oc_mhz);
  for (Mhz f = dom.min_mhz; f <= hi; f += dom.step_mhz) {
    states_.push_back(ClockState::at(dev, f));
  }
}

const ClockState* ClockTable::state(Mhz f) const {
  const std::int64_t off = std::int64_t{f} - min_mhz_;
  if (off < 0 || off % step_mhz_ != 0) return nullptr;
  const std::int64_t i = off / step_mhz_;
  if (i >= static_cast<std::int64_t>(states_.size())) return nullptr;
  return &states_[static_cast<std::size_t>(i)];
}

SimTime ClockTable::time_for_flops(double flops, KernelClass k, Mhz f) const {
  if (const ClockState* s = state(f)) return s->time_for_flops(flops, k);
  return dev_->perf.time_for_flops(flops, k, f, dev_->freq);
}

SimTime ClockTable::time_for_bytes(double bytes, Mhz f) const {
  if (const ClockState* s = state(f)) return s->time_for_bytes(bytes);
  return dev_->perf.time_for_bytes(bytes, f, dev_->freq);
}

double ClockTable::busy_power(Mhz f, Guardband g) const {
  if (const ClockState* s = state(f)) return s->busy(g);
  return dev_->busy_power(f, g);
}

double ClockTable::idle_power(Mhz f) const {
  if (const ClockState* s = state(f)) return s->idle_power;
  return dev_->idle_power(f);
}

double ClockTable::halted_idle_power(Mhz f) const {
  if (const ClockState* s = state(f)) return s->halted_idle_power;
  return dev_->halted_idle_power(f);
}

ErrorRates ClockTable::rates(Mhz f, Guardband g) const {
  if (const ClockState* s = state(f)) return s->rates_at(g);
  return dev_->errors.rates(f, g);
}

double ClockTable::speed_scale(Mhz f) const {
  if (const ClockState* s = state(f)) return s->speed_scale;
  return dev_->perf.speed_scale(f, dev_->freq);
}

double ClockTable::time_scale(Mhz f) const {
  if (const ClockState* s = state(f)) return s->time_scale;
  return dev_->perf.time_scale(f, dev_->freq);
}

bool ClockTable::reads_same(const DeviceModel& a, const DeviceModel& b) {
  return same_bits(a.freq, b.freq) && same_bits(a.guardband, b.guardband) &&
         same_bits(a.power, b.power) && same_bits(a.perf, b.perf) &&
         a.errors.same_bits(b.errors);
}

}  // namespace bsr::hw
