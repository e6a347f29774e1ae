// Public facade: run {Cholesky, LU, QR} under an energy-saving strategy on the
// simulated CPU-GPU platform, optionally executing the real numerics with real
// ABFT protection and fault injection.
//
// Quickstart (new API — see include/bsr/bsr.hpp and docs/API_MIGRATION.md):
//   bsr::RunConfig cfg;                              // paper defaults
//   cfg.factorization = bsr::Factorization::LU;
//   cfg.strategy = "bsr";                            // registry key
//   cfg.reclamation_ratio = 0.0;                     // max energy saving
//   auto report = bsr::run(cfg);
//   std::cout << report.total_energy_j() << " J\n";
#pragma once

#include <optional>

#include "abft/checksum.hpp"
#include "bsr/run_config.hpp"
#include "core/report.hpp"
#include "energy/bsr_strategy.hpp"
#include "hw/platform.hpp"

namespace bsr::core {

class Decomposer {
 public:
  explicit Decomposer(
      hw::PlatformProfile platform = hw::PlatformProfile::paper_default());

  [[nodiscard]] const hw::PlatformProfile& platform() const { return platform_; }

  /// Validates `cfg`, then runs one factorization under it; the strategy
  /// and ABFT policy are resolved through the bsr:: registries, so
  /// registry-only strategies work here. The config's `platform` key is
  /// ignored — this Decomposer's platform is used (bsr::run(cfg) resolves the
  /// key). Configs with devices >= 1 run on the cluster engine instead.
  [[nodiscard]] RunReport run(const RunConfig& cfg) const;

 private:
  hw::PlatformProfile platform_;
};

std::string summarize(const RunReport& r);

// ---- lowerings both engines share -------------------------------------------

/// The config's r, fc_desired and ablation switches, as BSR reads them on
/// either engine.
energy::BsrConfig bsr_config(const RunConfig& cfg);

/// The checksum mode `policy` forces on every iteration (every
/// device-iteration on clusters); nullopt for Adaptive, where ABFT-OC
/// chooses.
std::optional<abft::ChecksumMode> forced_checksum(AbftPolicy policy);

}  // namespace bsr::core
