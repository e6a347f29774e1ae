// Every clock-table entry has the bits of the function that defines it: for
// every registered platform and every cluster-profile device model, at every
// on-grid clock and both guardbands, and at an off-grid clock a 30 MHz
// variability quantum produces. Compared with memcmp, so -0.0 against +0.0
// or a NaN payload would fail too.
#include "hw/clock_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bsr/bsr.hpp"

namespace bsr::hw {
namespace {

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

struct Model {
  std::string name;
  DeviceModel dev;
};

/// The CPU and GPU of every registered platform, and the host and first and
/// last device of every registered cluster profile at capacity.
std::vector<Model> every_model() {
  std::vector<Model> out;
  for (const std::string& key : platforms().keys()) {
    const PlatformProfile p = make_platform(key);
    out.push_back({key + " cpu", p.cpu});
    out.push_back({key + " gpu", p.gpu});
  }
  for (const std::string& key : cluster_profiles().keys()) {
    const cluster::ClusterProfile c =
        make_cluster_profile(key, cluster_profile_info(key).capacity);
    out.push_back({key + " host", c.host});
    out.push_back({key + " device 0", c.devices.front()});
    out.push_back({key + " last device", c.devices.back()});
  }
  return out;
}

std::vector<Mhz> grid_clocks(const FrequencyDomain& dom) {
  std::vector<Mhz> out;
  for (Mhz f = dom.min_mhz; f <= std::max(dom.max_default_mhz, dom.max_oc_mhz);
       f += dom.step_mhz) {
    out.push_back(f);
  }
  return out;
}

constexpr Guardband kGuardbands[] = {Guardband::Default, Guardband::Optimized};
constexpr KernelClass kClasses[] = {KernelClass::Blas3, KernelClass::Panel,
                                    KernelClass::ChecksumUpdate};

/// Every accessor of `table` at clock f against the DeviceModel functions.
void expect_accessors_match(const ClockTable& table, const DeviceModel& dev,
                            Mhz f, const std::string& where) {
  for (const double work : {0.0, 1.0, 3.7e9, 6.1e12}) {
    for (const KernelClass k : kClasses) {
      const SimTime want = dev.perf.time_for_flops(work, k, f, dev.freq);
      const SimTime got = table.time_for_flops(work, k, f);
      EXPECT_EQ(want.ns(), got.ns()) << where << " flops " << work;
    }
    EXPECT_EQ(dev.perf.time_for_bytes(work, f, dev.freq).ns(),
              table.time_for_bytes(work, f).ns())
        << where << " bytes " << work;
  }
  for (const Guardband g : kGuardbands) {
    const double busy = dev.busy_power(f, g);
    const double got_busy = table.busy_power(f, g);
    EXPECT_TRUE(same_bits(busy, got_busy)) << where;
    const ErrorRates rates = dev.errors.rates(f, g);
    const ErrorRates got_rates = table.rates(f, g);
    EXPECT_TRUE(same_bits(rates, got_rates)) << where;
  }
  const double idle = dev.idle_power(f);
  const double halted = dev.halted_idle_power(f);
  const double speed = dev.perf.speed_scale(f, dev.freq);
  const double slow = dev.perf.time_scale(f, dev.freq);
  const double got_idle = table.idle_power(f);
  const double got_halted = table.halted_idle_power(f);
  const double got_speed = table.speed_scale(f);
  const double got_slow = table.time_scale(f);
  EXPECT_TRUE(same_bits(idle, got_idle)) << where;
  EXPECT_TRUE(same_bits(halted, got_halted)) << where;
  EXPECT_TRUE(same_bits(speed, got_speed)) << where;
  EXPECT_TRUE(same_bits(slow, got_slow)) << where;
}

TEST(ClockTable, EveryEntryHasTheBitsOfItsDefiningFunction) {
  int checked = 0;
  for (const Model& m : every_model()) {
    const DeviceModel& dev = m.dev;
    const ClockTable table(dev);
    for (const Mhz f : grid_clocks(dev.freq)) {
      const std::string where = m.name + " @ " + std::to_string(f);
      const ClockState* s = table.state(f);
      ASSERT_NE(s, nullptr) << where;
      for (const KernelClass k : kClasses) {
        const double want = dev.perf.gflops(k, f, dev.freq);
        EXPECT_TRUE(same_bits(want, s->gflops[static_cast<std::size_t>(k)]))
            << where;
      }
      const double bw = dev.perf.verify_bandwidth(f, dev.freq);
      EXPECT_TRUE(same_bits(bw, s->verify_bandwidth)) << where;
      for (const Guardband g : kGuardbands) {
        const double busy = dev.busy_power(f, g);
        EXPECT_TRUE(same_bits(busy, s->busy(g))) << where;
        const ErrorRates rates = dev.errors.rates(f, g);
        EXPECT_TRUE(same_bits(rates, s->rates_at(g))) << where;
      }
      const double idle = dev.idle_power(f);
      const double halted = dev.halted_idle_power(f);
      EXPECT_TRUE(same_bits(idle, s->idle_power)) << where;
      EXPECT_TRUE(same_bits(halted, s->halted_idle_power)) << where;
      // The scales as the engines wrote them inline before they were
      // factored into PerfModel.
      const double speed =
          std::pow(static_cast<double>(f) /
                       static_cast<double>(dev.freq.base_mhz),
                   dev.perf.freq_exponent);
      const double slow =
          std::pow(static_cast<double>(dev.freq.base_mhz) /
                       static_cast<double>(f),
                   dev.perf.freq_exponent);
      EXPECT_TRUE(same_bits(speed, s->speed_scale)) << where;
      EXPECT_TRUE(same_bits(slow, s->time_scale)) << where;
      expect_accessors_match(table, dev, f, where);
      ++checked;
    }
    // A 30 MHz quantum anchored at base lands between grid states: computed,
    // never tabulated.
    const Mhz off = dev.freq.base_mhz + 30;
    EXPECT_EQ(table.state(off), nullptr) << m.name;
    expect_accessors_match(table, dev, off, m.name + " off-grid");
    // Below the floor and above the top state are off the grid too.
    EXPECT_EQ(table.state(dev.freq.min_mhz - dev.freq.step_mhz), nullptr);
    EXPECT_EQ(table.state(dev.freq.max_oc_mhz + dev.freq.step_mhz), nullptr);
  }
  EXPECT_GT(checked, 200);
}

TEST(ClockTable, ModelsThatDifferOnlyInNameShareOneTable) {
  const cluster::ClusterProfile rack = make_cluster_profile("rack_8x8", 64);
  for (const DeviceModel& dev : rack.devices) {
    EXPECT_TRUE(ClockTable::reads_same(rack.devices.front(), dev)) << dev.name;
  }
  EXPECT_FALSE(ClockTable::reads_same(rack.host, rack.devices.front()));
  // Any field a table reads tells two models apart.
  DeviceModel other = rack.devices.front();
  other.perf.freq_exponent = 0.95;
  EXPECT_FALSE(ClockTable::reads_same(rack.devices.front(), other));
  other = rack.devices.front();
  other.errors = other.errors.scaled(2.0);
  EXPECT_FALSE(ClockTable::reads_same(rack.devices.front(), other));
  other = rack.devices.front();
  other.power.idle_activity *= 2.0;
  EXPECT_FALSE(ClockTable::reads_same(rack.devices.front(), other));
  // Fields no table reads do not.
  other = rack.devices.front();
  other.dvfs_latency = SimTime::from_millis(1.0);
  other.thermal.ambient_c = 99.0;
  EXPECT_TRUE(ClockTable::reads_same(rack.devices.front(), other));
}

}  // namespace
}  // namespace bsr::hw
