#include "core/report.hpp"

#include <sstream>

#include "bsr/registry.hpp"

namespace bsr::core {

const char* strategy_kind_name(const RunConfig& config) {
  return to_string(
      strategies().get(config.strategy).kind.value_or(StrategyKind::BSR));
}

RunConfig as_run(const RunConfig& config) {
  RunConfig out = config;
  out.b = config.block();
  // A cached report must not point at a recorder its caller may already have
  // freed.
  out.trace = nullptr;
  return out;
}

// (Reserved for heavier report formatting; the human-readable summary lives
// here so report.hpp stays header-light.)
std::string summarize(const RunReport& r) {
  std::ostringstream ss;
  ss << (r.strategy_name.empty() ? strategy_kind_name(r.config)
                                 : r.strategy_name.c_str())
     << " " << to_string(r.config.factorization)
     << " n=" << r.config.n << " b=" << r.config.b << ": " << r.seconds()
     << " s, " << r.total_energy_j() << " J (CPU " << r.cpu_energy_j()
     << " + GPU " << r.gpu_energy_j() << "), " << r.gflops() << " GFLOP/s";
  if (r.numeric_executed) {
    ss << ", residual=" << r.residual
       << (r.numeric_correct ? " [correct]" : " [CORRUPTED]");
  }
  return ss.str();
}

}  // namespace bsr::core
