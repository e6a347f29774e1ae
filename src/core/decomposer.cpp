#include "core/decomposer.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "abft/update.hpp"
#include "bsr/cluster.hpp"
#include "bsr/registry.hpp"
#include "fault/injector.hpp"
#include "la/lapack.hpp"
#include "la/verify.hpp"

namespace bsr::core {

using la::idx;

namespace {

/// Relative residual above which a numeric result counts as corrupted. Clean
/// double-precision runs land around 1e-13 (single precision around 1e-5); a
/// single surviving SDC of our injected magnitude pushes the residual many
/// orders of magnitude higher either way.
template <typename T>
constexpr double residual_threshold() {
  return sizeof(T) == 8 ? 1e-6 : 1e-2;
}

class NumericRunnerBase {
 public:
  virtual ~NumericRunnerBase() = default;
  /// Returns the number of recovery recomputations performed.
  virtual int run_iteration(const sched::IterationOutcome& o,
                            abft::AbftStats& stats) = 0;
  [[nodiscard]] virtual double final_residual() const = 0;
  [[nodiscard]] virtual double threshold() const = 0;
};

/// Executes the real factorization iteration-by-iteration, mirroring the
/// simulated pipeline's schedule: the strategy's frequency choice determines
/// the SDC rates, the simulated GPU busy time determines the exposure window,
/// and the chosen checksum mode determines what gets detected and repaired.
template <typename T>
class NumericRunner final : public NumericRunnerBase {
 public:
  NumericRunner(const RunConfig& cfg, const hw::DeviceModel& gpu)
      : cfg_(cfg),
        b_(cfg.block()),
        gpu_(gpu),
        injector_(Rng(cfg.seed ^ 0xFA17FA17ull)) {
    Rng rng(cfg.seed);
    a_ = la::Matrix<T>(cfg.n, cfg.n);
    if (cfg.factorization == predict::Factorization::Cholesky) {
      la::fill_spd(a_.view(), rng);
    } else {
      la::fill_random(a_.view(), rng);
    }
    a0_ = a_;
    if (cfg.factorization == predict::Factorization::LU) {
      ipiv_.assign(cfg.n, 0);
    }
    if (cfg.factorization == predict::Factorization::QR) {
      tau_.assign(cfg.n, T(0));
    }
  }

  int run_iteration(const sched::IterationOutcome& o,
                    abft::AbftStats& stats) override {
    recoveries_ = 0;
    if (broken_) return 0;
    switch (cfg_.factorization) {
      case predict::Factorization::Cholesky: iterate_cholesky(o, stats); break;
      case predict::Factorization::LU: iterate_lu(o, stats); break;
      case predict::Factorization::QR: iterate_qr(o, stats); break;
    }
    return recoveries_;
  }

  [[nodiscard]] double threshold() const override {
    return residual_threshold<T>();
  }

  [[nodiscard]] double final_residual() const override {
    // A factorization that broke down has no bounded residual.
    if (broken_) return std::numeric_limits<double>::infinity();
    switch (cfg_.factorization) {
      case predict::Factorization::Cholesky:
        return la::cholesky_residual(a0_.view(), a_.view());
      case predict::Factorization::LU:
        return la::lu_residual(a0_.view(), a_.view(), ipiv_);
      case predict::Factorization::QR:
        return la::qr_residual(a0_.view(), a_.view(), tau_);
    }
    return 0.0;
  }

 private:
  /// Injects SDCs into the GPU-written region per the iteration's clock and
  /// busy time, then (if protected) scrubs with the checksums. Returns the
  /// number of mismatched blocks the checksums could not repair.
  int expose_and_scrub(la::MatrixView<T> region, abft::BlockChecksums<T>* chk,
                       const sched::IterationOutcome& o,
                       abft::AbftStats& stats) {
    const hw::ErrorRates rates =
        gpu_.errors.rates(o.gpu_freq, hw::Guardband::Optimized);
    const fault::InjectionCounts counts =
        injector_.inject(region, rates, o.pu_tmu);
    stats.errors_injected_0d += counts.d0;
    stats.errors_injected_1d += counts.d1;
    stats.errors_injected_2d += counts.d2;
    if (chk == nullptr) return 0;
    const abft::VerifyResult r = abft::scrub(*chk, region);
    stats.merge_verify(r);
    return r.uncorrectable;
  }

  void iterate_lu(const sched::IterationOutcome& o, abft::AbftStats& stats) {
    const idx n = cfg_.n;
    const idx j0 = static_cast<idx>(o.k) * b_;
    const idx m = n - j0;
    const idx bb = std::min<idx>(b_, m);
    const idx mt = m - bb;

    std::vector<idx> piv;
    la::getf2(a_.block(j0, j0, m, bb), piv);
    for (idx i = 0; i < bb; ++i) ipiv_[j0 + i] = piv[i] + j0;
    // The panel already swapped its own columns; swap the rest.
    if (j0 > 0) la::laswp(a_.block(0, 0, n, j0), ipiv_, j0, j0 + bb);
    if (j0 + bb < n) {
      la::laswp(a_.block(0, j0 + bb, n, n - j0 - bb), ipiv_, j0, j0 + bb);
    }
    if (mt <= 0) return;

    la::trsm(la::Side::Left, la::Uplo::Lower, la::Op::NoTrans, la::Diag::Unit,
             T(1), a_.block(j0, j0, bb, bb).as_const(),
             a_.block(j0, j0 + bb, bb, mt));
    auto l21 = a_.block(j0 + bb, j0, mt, bb).as_const();
    auto u12 = a_.block(j0, j0 + bb, bb, mt).as_const();
    auto c = a_.block(j0 + bb, j0 + bb, mt, mt);

    if (o.abft_mode == abft::ChecksumMode::None) {
      la::gemm(la::Op::NoTrans, la::Op::NoTrans, T(-1), l21, u12, T(1), c);
      expose_and_scrub(c, nullptr, o, stats);
      return;
    }
    // Genuine ABFT flow: encode the pre-update trailing matrix, propagate the
    // checksums *through* the GEMM (no re-encode), then detect/correct.
    la::Matrix<T> snapshot;
    if (cfg_.recover_uncorrectable) snapshot = la::to_matrix(c.as_const());
    abft::BlockChecksums<T> chk(mt, mt, bb, o.abft_mode);
    chk.encode(c.as_const());
    abft::protected_gemm_update(c, l21, u12, chk);
    if (expose_and_scrub(c, &chk, o, stats) > 0 && cfg_.recover_uncorrectable) {
      // Roll back and recompute the trailing update at a safe clock.
      la::copy_into(snapshot.view().as_const(), c);
      la::gemm(la::Op::NoTrans, la::Op::NoTrans, T(-1), l21, u12, T(1), c);
      ++stats.recoveries;
      ++recoveries_;
    }
  }

  void iterate_cholesky(const sched::IterationOutcome& o,
                        abft::AbftStats& stats) {
    const idx n = cfg_.n;
    const idx j0 = static_cast<idx>(o.k) * b_;
    const idx m = n - j0;
    const idx bb = std::min<idx>(b_, m);
    const idx mt = m - bb;

    auto akk = a_.block(j0, j0, bb, bb);
    if (la::potf2(akk) != 0) {
      // An uncorrected SDC made the trailing matrix indefinite: the numeric
      // work stops here, and the timing run goes on.
      broken_ = true;
      return;
    }
    if (mt <= 0) return;

    la::trsm(la::Side::Right, la::Uplo::Lower, la::Op::Trans, la::Diag::NonUnit,
             T(1), akk.as_const(), a_.block(j0 + bb, j0, mt, bb));
    auto l21 = a_.block(j0 + bb, j0, mt, bb).as_const();
    // TMU kept as a full (symmetric) GEMM so checksum propagation applies; the
    // factorization itself only ever reads the lower triangle.
    la::Matrix<T> l21t(bb, mt);
    for (idx j = 0; j < mt; ++j) {
      for (idx i = 0; i < bb; ++i) l21t(i, j) = l21(j, i);
    }
    auto c = a_.block(j0 + bb, j0 + bb, mt, mt);
    if (o.abft_mode == abft::ChecksumMode::None) {
      la::gemm(la::Op::NoTrans, la::Op::NoTrans, T(-1), l21,
               l21t.view().as_const(), T(1), c);
      expose_and_scrub(c, nullptr, o, stats);
      return;
    }
    la::Matrix<T> snapshot;
    if (cfg_.recover_uncorrectable) snapshot = la::to_matrix(c.as_const());
    abft::BlockChecksums<T> chk(mt, mt, bb, o.abft_mode);
    chk.encode(c.as_const());
    abft::protected_gemm_update(c, l21, l21t.view().as_const(), chk);
    if (expose_and_scrub(c, &chk, o, stats) > 0 && cfg_.recover_uncorrectable) {
      la::copy_into(snapshot.view().as_const(), c);
      la::gemm(la::Op::NoTrans, la::Op::NoTrans, T(-1), l21,
               l21t.view().as_const(), T(1), c);
      ++stats.recoveries;
      ++recoveries_;
    }
  }

  void iterate_qr(const sched::IterationOutcome& o, abft::AbftStats& stats) {
    const idx n = cfg_.n;
    const idx j0 = static_cast<idx>(o.k) * b_;
    const idx m = n - j0;
    const idx bb = std::min<idx>(b_, m);
    const idx tc = n - j0 - bb;

    std::vector<T> ptau;
    la::geqr2(a_.block(j0, j0, m, bb), ptau);
    std::copy(ptau.begin(), ptau.end(), tau_.begin() + j0);
    if (tc <= 0) return;

    auto v = a_.block(j0, j0, m, bb).as_const();
    la::Matrix<T> t(bb, bb);
    la::larft(v, ptau.data(), t.view());
    auto c = a_.block(j0, j0 + bb, m, tc);
    la::Matrix<T> snapshot;
    if (cfg_.recover_uncorrectable && o.abft_mode != abft::ChecksumMode::None) {
      snapshot = la::to_matrix(c.as_const());
    }
    la::larfb_left_trans(v, t.view().as_const(), c);

    if (o.abft_mode == abft::ChecksumMode::None) {
      expose_and_scrub(c, nullptr, o, stats);
      return;
    }
    // Block reflectors are not a plain GEMM from the checksums' viewpoint, so
    // the trailing region is re-encoded from the computed result each
    // iteration (detection interval unchanged; cost charged via Table 2).
    abft::BlockChecksums<T> chk(m, tc, bb, o.abft_mode);
    chk.encode(c.as_const());
    if (expose_and_scrub(c, &chk, o, stats) > 0 && cfg_.recover_uncorrectable) {
      la::copy_into(snapshot.view().as_const(), c);
      la::larfb_left_trans(v, t.view().as_const(), c);
      ++stats.recoveries;
      ++recoveries_;
    }
  }

  const RunConfig& cfg_;
  const idx b_;  ///< cfg_.block(), the resolved panel width
  const hw::DeviceModel& gpu_;
  fault::Injector injector_;
  int recoveries_ = 0;
  bool broken_ = false;  ///< a Cholesky pivot failed; no numeric work since
  la::Matrix<T> a_;
  la::Matrix<T> a0_;
  std::vector<idx> ipiv_;
  std::vector<T> tau_;
};

}  // namespace

energy::BsrConfig bsr_config(const RunConfig& cfg) {
  return {.reclamation_ratio = cfg.reclamation_ratio,
          .fc_desired = cfg.fc_desired,
          .use_optimized_guardband = cfg.bsr_use_optimized_guardband,
          .allow_overclocking = cfg.bsr_allow_overclocking,
          .use_enhanced_predictor = cfg.bsr_use_enhanced_predictor};
}

std::optional<abft::ChecksumMode> forced_checksum(AbftPolicy policy) {
  switch (policy) {
    case AbftPolicy::Adaptive: break;
    case AbftPolicy::ForceNone: return abft::ChecksumMode::None;
    case AbftPolicy::ForceSingle: return abft::ChecksumMode::SingleSide;
    case AbftPolicy::ForceFull: return abft::ChecksumMode::Full;
  }
  return std::nullopt;
}

Decomposer::Decomposer(hw::PlatformProfile platform)
    : platform_(std::move(platform)) {}

RunReport Decomposer::run(const RunConfig& cfg) const {
  cfg.validate();
  if (cfg.devices >= 1) {
    // Cluster runs resolve their own profile (cfg.cluster); this Decomposer's
    // single-node platform does not apply.
    return bsr::run_cluster(cfg);
  }
  const StrategyEntry& entry = strategies().get(cfg.strategy);
  const std::optional<abft::ChecksumMode> forced =
      forced_checksum(abft_policies().get(cfg.abft_policy));
  const auto strategy = entry.make(cfg);

  sched::PipelineConfig pc;
  pc.workload = cfg.workload();
  pc.noise.enabled = cfg.noise_enabled;
  pc.seed = cfg.seed;
  pc.variability = cfg.variability;
  pc.faults = cfg.faults;
  pc.trace = cfg.trace;
  // The error-rate multiplier rescales the *platform* so the coverage math,
  // the BSR/ABFT-OC frequency policy, and the fault injector all observe the
  // same world (DESIGN.md: exposure compression for reduced-size numerics).
  // The deep copy is skipped at the default multiplier (sweeps run thousands
  // of cells; the copy was pure overhead on every one of them).
  std::optional<hw::PlatformProfile> scaled;
  if (cfg.error_rate_multiplier != 1.0) {
    scaled = platform_;
    scaled->gpu.errors = scaled->gpu.errors.scaled(cfg.error_rate_multiplier);
  }
  const hw::PlatformProfile& platform = scaled ? *scaled : platform_;
  sched::HybridPipeline pipe(platform, pc);

  RunReport report;
  report.config = as_run(cfg);
  if (!entry.kind) {
    // Registry-only strategies have no StrategyKind, so the "options" echo
    // reads BSR for them; record the real name so summarize() and consumers
    // do not mislabel the run.
    report.strategy_name = strategies().canonical(cfg.strategy);
  }

  std::unique_ptr<NumericRunnerBase> numeric;
  if (cfg.mode == ExecutionMode::Numeric) {
    if (cfg.elem_bytes == 4) {
      numeric = std::make_unique<NumericRunner<float>>(cfg, platform.gpu);
    } else {
      numeric = std::make_unique<NumericRunner<double>>(cfg, platform.gpu);
    }
    report.numeric_executed = true;
  }

  for (int k = 0; k < pipe.num_iterations(); ++k) {
    sched::IterationDecision d = strategy->decide(k, pipe);
    if (forced) d.abft_mode = *forced;
    const sched::IterationOutcome o = pipe.run_iteration(k, d);
    report.trace.add(o);
    switch (o.abft_mode) {
      case abft::ChecksumMode::None: ++report.abft.iterations_unprotected; break;
      case abft::ChecksumMode::SingleSide:
        ++report.abft.iterations_protected_single;
        break;
      case abft::ChecksumMode::Full: ++report.abft.iterations_protected_full; break;
    }
    if (numeric) {
      const int recoveries = numeric->run_iteration(o, report.abft);
      if (recoveries > 0) {
        // The redo runs the GPU op again at the base clock (safe, fault-free)
        // with the verification pass repeated.
        const sched::TaskDurations redo =
            pipe.base_clock_durations(k, d.abft_mode);
        const SimTime penalty =
            (redo.pu + redo.tmu + redo.chk_update + redo.chk_verify) *
            static_cast<double>(recoveries);
        report.recovery_time += penalty;
        report.recovery_energy_j +=
            platform.gpu.busy_power(platform.gpu.freq.base_mhz,
                                    d.gpu_guardband) *
            penalty.seconds();
      }
    }
  }

  if (numeric) {
    report.residual = numeric->final_residual();
    report.numeric_correct = report.residual < numeric->threshold();
  }

  if (cfg.faults.enabled) {
    // Aggregate the statistical fault campaign (faultcamp/process.hpp) into
    // the run-level ABFT stats and the per-lane accounting. The recovery
    // time below is already inside trace.total_time — it delayed the GPU
    // lane in place — so it is reported, not re-added.
    LaneFaults gpu;
    gpu.lane = "gpu";
    for (const sched::IterationOutcome& o : report.trace.iterations) {
      const faultcamp::Resolution& f = o.faults;
      report.abft.errors_injected_0d += static_cast<int>(f.injected.d0);
      report.abft.errors_injected_1d += static_cast<int>(f.injected.d1);
      report.abft.errors_injected_2d += static_cast<int>(f.injected.d2);
      report.abft.corrected_0d += static_cast<int>(f.corrected_d0);
      report.abft.corrected_1d += static_cast<int>(f.corrected_d1);
      report.abft.uncorrectable += static_cast<int>(f.uncorrectable);
      report.abft.recoveries += f.rollbacks;
      gpu.injected += f.injected.total();
      gpu.corrected += f.corrected();
      gpu.recovered += f.recovered;
      gpu.unrecovered += f.unrecovered;
      gpu.rollbacks += f.rollbacks;
      gpu.recovery_s += o.recovery.seconds();
    }
    report.lane_faults.push_back(gpu);
  }
  return report;
}

}  // namespace bsr::core
