// SDC error-rate model R(f, ErrType) — paper §3.1.2.
//
// With the optimized guardband, frequencies above the fault-free limit run at
// insufficient core voltage and suffer silent data corruptions at a rate that
// grows with clock. Rates are classified by degree of error propagation:
// 0D (standalone element), 1D (row/column), 2D (beyond one row/column).
// The table is piecewise per 100 MHz grid point with linear interpolation in
// between, shaped like the paper's Fig. 5(b) measurements: fault-free through
// 1700 MHz, 0D errors from 1800 MHz, 1D from 2000 MHz, 2D trace-level at the
// very top.
#pragma once

#include <map>
#include <vector>

#include "hw/frequency.hpp"
#include "hw/guardband.hpp"

namespace bsr::hw {

enum class ErrType { D0 = 0, D1 = 1, D2 = 2 };

struct ErrorRates {
  double d0 = 0.0;  ///< events / second of busy execution
  double d1 = 0.0;
  double d2 = 0.0;

  [[nodiscard]] double of(ErrType t) const {
    switch (t) {
      case ErrType::D0: return d0;
      case ErrType::D1: return d1;
      case ErrType::D2: return d2;
    }
    return 0.0;
  }
  [[nodiscard]] double total() const { return d0 + d1 + d2; }
  [[nodiscard]] bool fault_free() const { return total() <= 0.0; }
};

class ErrorRateModel {
 public:
  ErrorRateModel() = default;

  /// `table` maps frequency (MHz) to rates; frequencies below the smallest key
  /// are fault-free. With the *default* guardband every reachable frequency is
  /// fault-free (the default guardband exists precisely to guarantee that).
  explicit ErrorRateModel(std::map<Mhz, ErrorRates> table);

  [[nodiscard]] ErrorRates rates(Mhz f, Guardband g) const;
  [[nodiscard]] double lambda(Mhz f, ErrType t, Guardband g) const;

  /// Highest frequency with zero error rate under the optimized guardband.
  [[nodiscard]] Mhz fault_free_max(const FrequencyDomain& dom) const;

  /// A copy with every rate multiplied by `factor` — used to compress
  /// paper-scale fault exposure into reduced-size numeric experiments while
  /// keeping coverage estimation, frequency policy, and injection consistent.
  [[nodiscard]] ErrorRateModel scaled(double factor) const;

  /// True when both tables hold the same clocks with bitwise-equal rates.
  [[nodiscard]] bool same_bits(const ErrorRateModel& other) const;

 private:
  std::map<Mhz, ErrorRates> table_;
};

}  // namespace bsr::hw
