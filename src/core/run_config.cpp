#include "bsr/run_config.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "bsr/cluster.hpp"
#include "bsr/registry.hpp"
#include "common/chars.hpp"
#include "core/decomposer.hpp"
#include "faultcamp/process.hpp"
#include "var/models.hpp"

namespace bsr {

namespace {

/// Bytes reserved for a fingerprint. The paper grid's single-node configs
/// with both blocks off fit (at most 255 bytes, seed included), so a grid's
/// stored keys take no more than that; an enabled block grows it once.
constexpr std::size_t kFingerprintReserve = 256;

}  // namespace

std::int64_t RunConfig::block() const {
  if (b > 0) return b;
  return std::min(core::tuned_block(n), n);
}

void RunConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("RunConfig: " + what);
  };
  if (n <= 0) fail("need n > 0 (got n=" + std::to_string(n) + ")");
  if (b < 0) fail("need b >= 0 (0 = auto-tune; got b=" + std::to_string(b) + ")");
  if (b > n) {
    fail("need b <= n (got b=" + std::to_string(b) +
         ", n=" + std::to_string(n) + ")");
  }
  // Bounds on what one config may ask the engines to allocate: per-iteration
  // traces and tables grow with ceil(n / b), and a numeric run holds the
  // n x n matrix twice. Computed without n + b - 1, which overflows near
  // INT64_MAX.
  const std::int64_t bb = block();
  const std::int64_t iterations = n / bb + (n % bb != 0 ? 1 : 0);
  if (iterations > kMaxIterations) {
    fail("need ceil(n / b) <= " + std::to_string(kMaxIterations) +
         " iterations (got n=" + std::to_string(n) +
         ", b=" + std::to_string(bb) + ": " + std::to_string(iterations) +
         ")");
  }
  if (mode == ExecutionMode::Numeric && n > kMaxNumericN) {
    fail("numeric runs need n <= " + std::to_string(kMaxNumericN) +
         " (got n=" + std::to_string(n) + ")");
  }
  if (!(reclamation_ratio >= 0.0 && reclamation_ratio <= 1.0)) {
    fail("reclamation_ratio must be in [0, 1] (got " +
         std::to_string(reclamation_ratio) + ")");
  }
  if (!(fc_desired > 0.0 && fc_desired < 1.0)) {
    fail("fc_desired must be in (0, 1) (got " + std::to_string(fc_desired) +
         ")");
  }
  if (elem_bytes != 4 && elem_bytes != 8) {
    fail("elem_bytes must be 4 or 8 (got " + std::to_string(elem_bytes) + ")");
  }
  if (!std::isfinite(error_rate_multiplier) || error_rate_multiplier < 0.0) {
    fail("error_rate_multiplier must be finite and >= 0 (got " +
         std::to_string(error_rate_multiplier) + ")");
  }
  if (devices < 0 || devices > 4096) {
    fail("devices must be in [0, 4096] (got " + std::to_string(devices) + ")");
  }
  if (devices >= 1 && mode == ExecutionMode::Numeric) {
    fail("cluster runs (devices >= 1) are timing-only; numeric execution is "
         "single-node");
  }
  // The variability block validates itself; its message gets our prefix.
  try {
    var::validate(variability);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  // So does the faults block — which is additionally timing-only: numeric
  // runs inject *real* faults (fault/injector.hpp), and running both models
  // at once would double-count every error.
  try {
    faultcamp::validate(faults);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  if (faults.enabled && mode == ExecutionMode::Numeric) {
    fail(
        "faults: the statistical fault block is timing-only; numeric runs "
        "perform real injection (disable faults or use "
        "ExecutionMode::TimingOnly)");
  }
  // Registry keys: get() throws listing the known keys on a miss.
  try {
    (void)strategies().get(strategy);
    (void)abft_policies().get(abft_policy);
    (void)platforms().get(platform);
    if (devices >= 1) {
      (void)cluster_profiles().get(cluster);
      (void)collectives().get(collective);
    }
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  if (devices >= 1 && !strategies().get(strategy).kind) {
    fail("strategy \"" + strategy +
         "\" is registry-only (no built-in generalization); the cluster "
         "engine supports original/r2h/sr/bsr");
  }
  if (devices >= 1) {
    // Capacity is checked here — before any sweep cell runs — so an
    // oversized --devices / weak_devices_axis count fails naming the profile
    // and its rack size, not as a generic error deep in the sweep.
    const ClusterProfileInfo info = cluster_profile_info(cluster);
    try {
      cluster::check_profile_capacity(cluster_profiles().canonical(cluster),
                                      devices, info.capacity);
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
    if ((grid_p > 0) != (grid_q > 0)) {
      fail("set both grid_p and grid_q (or neither for the auto layout); got "
           "grid_p=" + std::to_string(grid_p) +
           ", grid_q=" + std::to_string(grid_q));
    }
    if (grid_p < 0 || grid_q < 0) {
      fail("process grid must be positive (got grid_p=" +
           std::to_string(grid_p) + ", grid_q=" + std::to_string(grid_q) +
           ")");
    }
    // The product is taken in 64 bits: daemon requests set both factors,
    // and an int product could wrap round to exactly `devices`.
    const std::int64_t cells = std::int64_t{grid_p} * grid_q;
    if (grid_p > 0 && cells != devices) {
      fail("process grid " + std::to_string(grid_p) + "x" +
           std::to_string(grid_q) + " must cover exactly devices=" +
           std::to_string(devices) + " (got " + std::to_string(cells) + ")");
    }
  }
}

std::string RunConfig::fingerprint() const {
  std::string fp;
  fp.reserve(kFingerprintReserve);
  fp += "fact=";
  fp += predict::to_string(factorization);
  append_field(fp, ";n=", n);
  append_field(fp, ";b=", block());
  append_field(fp, ";elem=", elem_bytes);
  // Keys are canonicalized so "BSR", "bsr", and alias spellings ("org" vs
  // "original") fingerprint — and therefore cache — identically.
  const std::string strat = strategies().canonical(strategy);
  fp += ";strategy=";
  fp += strat;
  // The BSR-only knobs a strategy ignores are normalized out
  // (core::bsr_knob_use has the rule): a (strategy x r) grid runs Original
  // once, not once per r.
  const core::BsrKnobUse use = core::bsr_knob_use(strat, devices);
  const RunConfig defaults;
  const RunConfig& knobs = use.knobs ? *this : defaults;
  append_field(fp, ";r=", knobs.reclamation_ratio);
  append_field(fp, ";fc=", use.fc ? fc_desired : defaults.fc_desired);
  append_field(fp, ";gb=", knobs.bsr_use_optimized_guardband);
  append_field(fp, ";oc=", knobs.bsr_allow_overclocking);
  append_field(fp, ";pred=", knobs.bsr_use_enhanced_predictor);
  fp += ";abft=";
  fp += abft_policies().canonical(abft_policy);
  // recover_uncorrectable only influences numeric execution; normalizing it
  // out in timing-only runs lets e.g. fig09's "Single" and "Single+recovery"
  // overhead rows share one cached timing run.
  append_field(fp, ";recover=",
               mode == ExecutionMode::Numeric && recover_uncorrectable);
  fp += ";mode=";
  fp += core::to_string(mode);
  append_field(fp, ";seed=", seed);
  append_field(fp, ";erm=", error_rate_multiplier);
  append_field(fp, ";noise=", noise_enabled);
  // Exactly one of the two platform keys applies per run, so the other is
  // normalized out (mirrors the BSR-knob normalization above): cluster runs
  // ignore the single-node `platform`, single-node runs ignore `cluster`.
  fp += ";platform=";
  fp += devices >= 1 ? std::string("-") : platforms().canonical(platform);
  append_field(fp, ";devices=", devices);
  fp += ";cluster=";
  fp += devices >= 1 ? cluster_profiles().canonical(cluster) : std::string("-");
  // Grid / collective / rebalance only drive cluster runs, and are recorded
  // *resolved* (never the literal "auto"), so an explicit layout and the
  // auto choice that resolves to it share one cache entry, while different
  // layouts on the same profile can never alias.
  if (devices >= 1) {
    const ResolvedClusterLayout lay = resolved_cluster_layout(*this);
    append_field(fp, ";grid=", lay.grid_p);
    append_field(fp, "x", lay.grid_q);
    fp += ";coll=";
    switch (lay.schedule) {
      case cluster::BroadcastSchedule::Relay: fp += "relay"; break;
      case cluster::BroadcastSchedule::Ring: fp += "ring"; break;
      case cluster::BroadcastSchedule::Tree: fp += "tree"; break;
    }
    append_field(fp, ";rebal=", rebalance);
  } else {
    fp += ";grid=-;coll=-;rebal=0";
  }
  // Disabled variability collapses to "var=0" whatever the other fields say,
  // so toggling a block off restores the deterministic-world cache key.
  fp += ';';
  var::append_fingerprint_fragment(fp, variability);
  // Same contract for the faults block ("flt=0" when disabled): a campaign
  // trial's faults-off baseline shares the deterministic world's cache key.
  fp += ';';
  faultcamp::append_fingerprint_fragment(fp, faults);
  return fp;
}

core::RunReport run(const RunConfig& cfg) {
  cfg.validate();
  const core::Decomposer dec(make_platform(cfg.platform));
  return dec.run(cfg);
}

std::uint64_t derive_cell_seed(std::uint64_t root, std::uint64_t index) {
  // splitmix64 over root + (index + 1) * golden gamma: cheap, well mixed, and
  // cells of one grid never collide with the root seed itself.
  std::uint64_t z = root + (index + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace bsr
