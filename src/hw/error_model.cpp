#include "hw/error_model.hpp"

#include <algorithm>
#include <cstring>

namespace bsr::hw {

ErrorRateModel::ErrorRateModel(std::map<Mhz, ErrorRates> table)
    : table_(std::move(table)) {}

ErrorRates ErrorRateModel::rates(Mhz f, Guardband g) const {
  if (g == Guardband::Default || table_.empty()) return {};
  const auto hi = table_.lower_bound(f);
  if (hi == table_.begin() && f < hi->first) return {};  // below first entry
  if (hi != table_.end() && hi->first == f) return hi->second;
  if (hi == table_.begin()) return {};
  const auto lo = std::prev(hi);
  if (hi == table_.end()) return lo->second;  // extrapolate flat above table
  // Linear interpolation between grid points.
  const double t = static_cast<double>(f - lo->first) /
                   static_cast<double>(hi->first - lo->first);
  ErrorRates out;
  out.d0 = lo->second.d0 + t * (hi->second.d0 - lo->second.d0);
  out.d1 = lo->second.d1 + t * (hi->second.d1 - lo->second.d1);
  out.d2 = lo->second.d2 + t * (hi->second.d2 - lo->second.d2);
  return out;
}

double ErrorRateModel::lambda(Mhz f, ErrType t, Guardband g) const {
  return rates(f, g).of(t);
}

ErrorRateModel ErrorRateModel::scaled(double factor) const {
  std::map<Mhz, ErrorRates> table;
  for (const auto& [f, r] : table_) {
    table[f] = {.d0 = r.d0 * factor, .d1 = r.d1 * factor, .d2 = r.d2 * factor};
  }
  return ErrorRateModel(std::move(table));
}

bool ErrorRateModel::same_bits(const ErrorRateModel& other) const {
  return std::equal(table_.begin(), table_.end(), other.table_.begin(),
                    other.table_.end(), [](const auto& a, const auto& b) {
                      return a.first == b.first &&
                             std::memcmp(&a.second, &b.second,
                                         sizeof(ErrorRates)) == 0;
                    });
}

Mhz ErrorRateModel::fault_free_max(const FrequencyDomain& dom) const {
  Mhz best = dom.min_mhz;
  for (Mhz f = dom.min_mhz; f <= dom.max_oc_mhz; f += dom.step_mhz) {
    if (rates(f, Guardband::Optimized).fault_free()) best = f;
  }
  return best;
}

}  // namespace bsr::hw
