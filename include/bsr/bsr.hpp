// bsr/bsr.hpp — umbrella header: the stable public API of the BSR library.
//
// Everything a driver needs to declare, run, and report experiment grids:
//
//   bsr::RunConfig   one validated configuration (bsr/run_config.hpp)
//   bsr::Registry    string-keyed strategies / platforms / ABFT policies /
//                    sinks (bsr/registry.hpp)
//   bsr::Sweep       parallel grid execution with baseline caching
//                    (bsr/sweep.hpp)
//   bsr::ResultSink  Table / CSV / JSON structured output
//                    (bsr/result_sink.hpp)
//   bsr::ClusterConfig  N-device scale-out runs on the event-driven cluster
//                    engine, with per-device reporting (bsr/cluster.hpp)
//   bsr::VariabilityConfig  seeded stochastic execution models (drift,
//                    jitter, thermal throttling) (bsr/variability.hpp)
//   bsr::FaultConfig / bsr::FaultCampaign  seeded fault-injection campaigns
//                    with recovery-cost simulation (bsr/faults.hpp)
//   bsr::Decomposer  the single-run facade, re-exported from core
//   bsr::Cli         registered-flag command-line parsing with --help
//   bsr::TraceRecorder / bsr::MetricsRegistry  deterministic run tracing
//                    with Perfetto export, unified metrics, build stamps
//                    (bsr/observability.hpp)
//
// Quickstart:
//   bsr::RunConfig cfg;                       // paper defaults: LU, n=30720
//   cfg.strategy = "bsr";                     // any bsr::strategies() key
//   cfg.reclamation_ratio = 0.0;              // r=0: maximum energy saving
//   auto report = bsr::run(cfg);              // one run, or...
//   auto grid = bsr::Sweep(cfg)               // ...a cached, parallel grid
//                   .over(bsr::strategy_axis({"r2h", "sr", "bsr"}))
//                   .baseline("original")
//                   .run();
//
// The deeper module headers ("hw/platform.hpp", "sched/pipeline.hpp", ...)
// remain available for advanced use but carry no stability promise; see
// docs/ARCHITECTURE.md.
#pragma once

#include "bsr/cluster.hpp"
#include "bsr/faults.hpp"
#include "bsr/observability.hpp"
#include "bsr/registry.hpp"
#include "bsr/result_sink.hpp"
#include "bsr/run_config.hpp"
#include "bsr/sweep.hpp"
#include "bsr/variability.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/stdio_stream.hpp"
#include "common/table_printer.hpp"
#include "core/decomposer.hpp"
#include "core/report.hpp"
#include "energy/pareto.hpp"
#include "hw/platform.hpp"

/// The stable public API of the BSR library: one-run and grid execution,
/// string-keyed registries of every pluggable ingredient, structured result
/// sinks, cluster scale-out, seeded execution-variability models, and seeded
/// fault-injection campaigns with recovery-cost simulation.
namespace bsr {

/// Re-exported single-run engine (construct with a resolved platform, call
/// run(RunConfig)); prefer bsr::run / bsr::Sweep unless you need to pin a
/// platform object across runs.
using core::Decomposer;
/// Re-exported performance-tuned block size for a matrix order (the paper's
/// "block size tuned for performance"; RunConfig::b = 0 applies it).
using core::tuned_block;

}  // namespace bsr
