// Google Benchmark micro-benchmarks for the numeric substrate — the BLAS-3
// and factorization kernels that back the numeric execution mode, plus the
// ABFT checksum primitives — and for the simulator's own hot loop: cluster
// sweep and fault-campaign throughput in cells (runs) per second. The kernel
// numbers are host-side sanity benchmarks (the *simulated* device performance
// comes from hw::PerfModel, not from these numbers); the throughput numbers
// are the product metric the committed BENCH_kernels.json trajectory and the
// CI perf gate (tools/perf_gate.py) defend. The daemon's report codec, its
// request decode and the run fingerprint get the same treatment in bytes per
// second, and Algorithm 1's checksum ladder in decisions per second.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <optional>
#include <string>

#include "abft/adaptive.hpp"
#include "abft/checksum.hpp"
#include "abft/update.hpp"
#include "bsr/bsr.hpp"
#include "common/rng.hpp"
#include "la/lapack.hpp"
#include "la/verify.hpp"
#include "predict/workload.hpp"
#include "serve/protocol.hpp"
#include "serve/report_json.hpp"
#include "serve/store.hpp"

using namespace bsr;
using la::idx;
using la::Matrix;

namespace {

Matrix<double> random_matrix(idx m, idx n, std::uint64_t seed) {
  Matrix<double> a(m, n);
  Rng rng(seed);
  la::fill_random(a.view(), rng);
  return a;
}

void BM_Gemm(benchmark::State& state) {
  const idx n = state.range(0);
  const Matrix<double> a = random_matrix(n, n, 1);
  const Matrix<double> b = random_matrix(n, n, 2);
  Matrix<double> c(n, n);
  for (auto _ : state) {
    la::gemm(la::Op::NoTrans, la::Op::NoTrans, 1.0, a.view(), b.view(), 0.0,
             c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(128)->Arg(256)->Arg(512);

void BM_Potrf(benchmark::State& state) {
  const idx n = state.range(0);
  Matrix<double> spd(n, n);
  Rng rng(3);
  la::fill_spd(spd.view(), rng);
  for (auto _ : state) {
    Matrix<double> a = spd;
    benchmark::DoNotOptimize(la::potrf(a.view(), 64));
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      n * n * n / 3.0 * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Potrf)->Arg(256)->Arg(512);

void BM_Getrf(benchmark::State& state) {
  const idx n = state.range(0);
  const Matrix<double> src = random_matrix(n, n, 4);
  std::vector<idx> ipiv;
  for (auto _ : state) {
    Matrix<double> a = src;
    benchmark::DoNotOptimize(la::getrf(a.view(), 64, ipiv));
  }
  state.counters["GFLOP/s"] =
      benchmark::Counter(2.0 * n * n * n / 3.0 * state.iterations() / 1e9,
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Getrf)->Arg(256)->Arg(512);

void BM_Geqrf(benchmark::State& state) {
  const idx n = state.range(0);
  const Matrix<double> src = random_matrix(n, n, 5);
  std::vector<double> tau;
  for (auto _ : state) {
    Matrix<double> a = src;
    benchmark::DoNotOptimize(la::geqrf(a.view(), 64, tau));
  }
  state.counters["GFLOP/s"] =
      benchmark::Counter(4.0 * n * n * n / 3.0 * state.iterations() / 1e9,
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Geqrf)->Arg(256)->Arg(512);

// The numeric mode's input fill (A = B B^T + n I, n^3 flops over the lower
// triangle) and explicit Q (4n^3/3 flops): with the factorization itself
// they dominate a numeric solve, so a return of their strided loops shows.
void BM_FillSpd(benchmark::State& state) {
  const idx n = state.range(0);
  Matrix<double> a(n, n);
  for (auto _ : state) {
    Rng rng(11);
    la::fill_spd(a.view(), rng);
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(n) * n * n * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FillSpd)->Arg(512);

void BM_FormQ(benchmark::State& state) {
  const idx n = state.range(0);
  Matrix<double> a = random_matrix(n, n, 12);
  std::vector<double> tau;
  la::geqrf(a.view(), 64, tau);
  for (auto _ : state) {
    const Matrix<double> q = la::form_q(a.view().as_const(), tau);
    benchmark::DoNotOptimize(q.data());
  }
  state.counters["GFLOP/s"] =
      benchmark::Counter(4.0 * n * n * n / 3.0 * state.iterations() / 1e9,
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FormQ)->Arg(512);

// The residual check that ends every numeric solve, on a clean factor. The
// nominal flop counts are fixed: L*U's triangles (2n^3/3), the lower
// triangle of L*L^T (n^3/3), and form_q plus Q*R (4n^3/3 + n^3).
void BM_LuResidual(benchmark::State& state) {
  const idx n = state.range(0);
  const Matrix<double> a = random_matrix(n, n, 13);
  Matrix<double> f = a;
  std::vector<idx> ipiv;
  la::getrf(f.view(), 64, ipiv);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        la::lu_residual(a.view(), f.view().as_const(), ipiv));
  }
  state.counters["GFLOP/s"] =
      benchmark::Counter(2.0 * n * n * n / 3.0 * state.iterations() / 1e9,
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LuResidual)->Arg(512);

void BM_CholeskyResidual(benchmark::State& state) {
  const idx n = state.range(0);
  Matrix<double> a(n, n);
  Rng rng(14);
  la::fill_spd(a.view(), rng);
  Matrix<double> f = a;
  la::potrf(f.view(), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        la::cholesky_residual(a.view().as_const(), f.view().as_const()));
  }
  state.counters["GFLOP/s"] =
      benchmark::Counter(static_cast<double>(n) * n * n / 3.0 *
                             state.iterations() / 1e9,
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CholeskyResidual)->Arg(512);

void BM_QrResidual(benchmark::State& state) {
  const idx n = state.range(0);
  const Matrix<double> a = random_matrix(n, n, 15);
  Matrix<double> f = a;
  std::vector<double> tau;
  la::geqrf(f.view(), 64, tau);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        la::qr_residual(a.view(), f.view().as_const(), tau));
  }
  state.counters["GFLOP/s"] =
      benchmark::Counter(7.0 * n * n * n / 3.0 * state.iterations() / 1e9,
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_QrResidual)->Arg(512);

void BM_ChecksumEncode(benchmark::State& state) {
  const idx n = state.range(0);
  const Matrix<double> a = random_matrix(n, n, 6);
  abft::BlockChecksums<double> chk(n, n, 64, abft::ChecksumMode::Full);
  for (auto _ : state) {
    chk.encode(a.view());
    benchmark::DoNotOptimize(chk.col_checksums().data());
  }
}
BENCHMARK(BM_ChecksumEncode)->Arg(256)->Arg(512);

void BM_ChecksumVerify(benchmark::State& state) {
  const idx n = state.range(0);
  Matrix<double> a = random_matrix(n, n, 7);
  abft::BlockChecksums<double> chk(n, n, 64, abft::ChecksumMode::Full);
  chk.encode(a.view());
  for (auto _ : state) {
    const auto r = chk.verify_and_correct(
        a.view(), abft::BlockChecksums<double>::suggested_tolerance(
                      a.view(), 64));
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_ChecksumVerify)->Arg(256)->Arg(512);

void BM_ProtectedGemmUpdate(benchmark::State& state) {
  const idx n = state.range(0);
  const idx kb = 64;
  const Matrix<double> l = random_matrix(n, kb, 8);
  const Matrix<double> u = random_matrix(kb, n, 9);
  Matrix<double> c0 = random_matrix(n, n, 10);
  abft::BlockChecksums<double> chk(n, n, 64, abft::ChecksumMode::Full);
  chk.encode(c0.view());
  for (auto _ : state) {
    Matrix<double> c = c0;
    abft::BlockChecksums<double> k2 = chk;
    abft::protected_gemm_update(c.view(), l.view(), u.view(), k2);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_ProtectedGemmUpdate)->Arg(256)->Arg(512);

// Algorithm 1 (ABFT-OC) as BSR runs it on a grid-size LU (n = 15360,
// b = 256, S = 3600 blocks): the checksum ladder from each overclocked target
// 1800-2200 MHz, for each iteration's TMU time at base clock. Its cost is the
// coverage sums of the steps whose bound does not already miss the target;
// decisions/s counts ladders.
void BM_AbftOc(benchmark::State& state) {
  const hw::DeviceModel gpu = hw::PlatformProfile::paper_default().gpu;
  const predict::WorkloadModel wl{
      .fact = predict::Factorization::LU, .n = 15360, .b = 256};
  std::vector<double> t_base;
  for (int k = 0; k < wl.num_iterations(); ++k) {
    const double flops = wl.iteration(k).tmu_flops;
    if (flops <= 0.0) continue;
    t_base.push_back(gpu.perf
                         .time_for_flops(flops, hw::KernelClass::Blas3,
                                         gpu.freq.base_mhz, gpu.freq)
                         .seconds());
  }
  std::int64_t decisions = 0;
  for (auto _ : state) {
    for (const double t : t_base) {
      for (hw::Mhz f = 1800; f <= 2200; f += 100) {
        const abft::AbftDecision d = abft::abft_oc(0.999999, f, gpu, t, 3600);
        benchmark::DoNotOptimize(&d);
        ++decisions;
      }
    }
  }
  state.counters["decisions/s"] = benchmark::Counter(
      static_cast<double>(decisions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AbftOc);

// Simulator throughput: cells (unique runs) per second through the full Sweep
// engine — config expansion, fingerprinting, cluster event simulation, and
// aggregation. A fresh Sweep is built every iteration because the result
// cache would otherwise serve every repeat for free; unique_runs counts what
// was actually simulated. One thread, so the rate divides cells by the CPU
// time that simulated them: on the shared pool the benchmark thread's CPU
// time is mostly waiting.
void BM_ClusterSweep(benchmark::State& state) {
  std::int64_t cells = 0;
  for (auto _ : state) {
    RunConfig base;
    base.n = 2048;
    base.b = 128;
    Sweep sweep(base);
    sweep.over(trial_axis(2, /*root_seed=*/99))
        .over(devices_axis({1, 4, 8}))
        .over(strategy_axis({"original", "bsr"}))
        .threads(1);
    const SweepResult grid = sweep.run();
    benchmark::DoNotOptimize(&grid);
    cells += grid.unique_runs;
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClusterSweep);

// Fault-campaign throughput: seeded Poisson injection, recovery-cost
// simulation, and per-cell aggregation on top of the sweep engine. Same
// fresh-object-per-iteration and one-thread rules as BM_ClusterSweep.
void BM_FaultCampaign(benchmark::State& state) {
  std::int64_t runs = 0;
  for (auto _ : state) {
    RunConfig base;
    base.n = 2048;
    base.b = 128;
    base.faults = make_faults("poisson");
    FaultCampaign camp(base, /*trials=*/20);
    camp.over(devices_axis({1, 4, 8}))
        .over(strategy_axis({"original", "bsr"}))
        .threads(1);
    const CampaignResult result = camp.run();
    benchmark::DoNotOptimize(&result);
    runs += result.unique_runs;
  }
  state.counters["runs/s"] = benchmark::Counter(
      static_cast<double>(runs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FaultCampaign);

// Rack-scale campaign throughput on the hierarchical cluster path the two
// counters above never reach: a 2-D process grid, the tree broadcast over
// intra-node peer links and remote node buses, under hostile variability
// and Poisson faults. Same fresh-object-per-iteration and one-thread rules.
void BM_RackCampaign(benchmark::State& state) {
  std::int64_t runs = 0;
  for (auto _ : state) {
    RunConfig base;
    base.n = 4096;
    base.cluster = "rack_8x8";
    base.collective = "tree";
    base.reclamation_ratio = 0.25;
    base.variability = make_variability("hostile");
    base.faults = make_faults("poisson");
    FaultCampaign camp(base, /*trials=*/4);
    camp.over(devices_axis({16, 64}))
        .over(strategy_axis({"original", "bsr"}))
        .threads(1);
    const CampaignResult result = camp.run();
    benchmark::DoNotOptimize(&result);
    runs += result.unique_runs;
  }
  state.counters["runs/s"] = benchmark::Counter(
      static_cast<double>(runs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RackCampaign);

// The daemon's codec on a grid-size report: n = 15360 LU under BSR, about
// 36 KB serialized. bytes/s counts report bytes produced.
RunConfig grid_cell() {
  RunConfig cfg;
  cfg.factorization = Factorization::LU;
  cfg.n = 15360;
  cfg.strategy = "bsr";
  return cfg;
}

void BM_ReportSerialize(benchmark::State& state) {
  const RunReport report = run(grid_cell());
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string json = serve::serialize_report(report);
    benchmark::DoNotOptimize(json.data());
    bytes += static_cast<std::int64_t>(json.size());
  }
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReportSerialize);

// One durable-store hit as the daemon takes it: read the record, vet its
// envelope and deserialize the report in one pass over the text, and keep
// the report's own bytes as the reply.
void BM_StoreHit(benchmark::State& state) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bsr_bench_store_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  serve::DiskResultStore store(dir.string());
  const RunConfig cfg = grid_cell();
  const std::string fp = cfg.fingerprint();
  store.save_serialized(fp, serve::serialize_report(run(cfg)));
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::optional<serve::StoredRecord> record = store.load_record(fp);
    if (!record.has_value()) {
      state.SkipWithError("store hit missed");
      break;
    }
    benchmark::DoNotOptimize(record->json.data());
    bytes += static_cast<std::int64_t>(record->json.size());
  }
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreHit);

// A daemon request's fixed cost around its result-table lookup, on the same
// grid cell: the fingerprint that keys the table, and the decode of the run
// request line that carries the cell (its syntax and op, then its config).
// bytes/s counts fingerprint bytes written and request bytes decoded.
void BM_Fingerprint(benchmark::State& state) {
  const RunConfig cfg = grid_cell();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string fp = cfg.fingerprint();
    benchmark::DoNotOptimize(fp.data());
    bytes += static_cast<std::int64_t>(fp.size());
  }
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fingerprint);

void BM_RunRequestDecode(benchmark::State& state) {
  const std::string line = R"({"op":"run","config":)" +
                           serve::serialize_config(grid_cell()) + "}";
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const serve::Request req = serve::parse_request(line);
    const RunConfig cfg = serve::config_from_json(req.config);
    benchmark::DoNotOptimize(&cfg);
    bytes += static_cast<std::int64_t>(line.size());
  }
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RunRequestDecode);

}  // namespace
