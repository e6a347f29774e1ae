#include "core/options.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/ascii.hpp"

namespace bsr::core {

std::int64_t tuned_block(std::int64_t n) {
  const std::int64_t raw = (n / 60 + 32) / 64 * 64;
  return std::clamp<std::int64_t>(raw, 64, 512);
}

BsrKnobUse bsr_knob_use(const std::string& strategy_key, int devices) {
  const bool knobs = !(strategy_key == "original" || strategy_key == "r2h" ||
                       strategy_key == "sr");
  return {knobs, knobs || devices >= 1};
}

const char* to_string(StrategyKind s) {
  switch (s) {
    case StrategyKind::Original: return "Original";
    case StrategyKind::R2H: return "R2H";
    case StrategyKind::SR: return "SR";
    case StrategyKind::BSR: return "BSR";
  }
  return "?";
}

const char* to_string(ExecutionMode m) {
  return m == ExecutionMode::TimingOnly ? "TimingOnly" : "Numeric";
}

predict::Factorization factorization_from_string(const std::string& s) {
  const std::string v = ascii_lower(s);
  if (v == "cholesky" || v == "cho") return predict::Factorization::Cholesky;
  if (v == "lu") return predict::Factorization::LU;
  if (v == "qr") return predict::Factorization::QR;
  throw std::invalid_argument("unknown factorization: " + s);
}

}  // namespace bsr::core
