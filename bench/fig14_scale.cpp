// Fig. 14 (beyond the paper): strong and weak scaling of the energy
// strategies over 1-8 GPUs on the event-driven cluster engine.
//
// The paper evaluates BSR on exactly one CPU+GPU pair; its slack-reclamation
// model is per-device-pair and nothing in it is limited to two devices
// (ISSUE 3). This driver stresses that claim at cluster scale: the same
// factorization distributed block-cyclically over N replicated paper GPUs,
// swept through bsr::Sweep.
//
//   strong scaling: fixed n, devices in {1, 2, 4, 8};
//   weak scaling:   n grows as devices^(1/3), constant flops per device.
//
// --format=csv|json emits one machine-readable result set with a `device`
// column: per-device rows ("host", "gpu0", ...) plus a "total" row per cell,
// so per-device and total energy/time/ED2P flow through every ResultSink.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsr/bsr.hpp"

using namespace bsr;

namespace {

/// Fail-fast parser for --devices (common/cli.hpp list helper): a bad token
/// names itself and exits 2 instead of escaping as std::terminate. The 4096
/// ceiling matches RunConfig::validate() and keeps the int cast exact.
std::vector<int> parse_counts_or_exit(const std::string& csv) {
  std::vector<int> out;
  for (const long long v : parse_int_list_or_exit(
           "devices", csv, 1, 4096, "a GPU count in [1, 4096]", "1,2,4,8")) {
    out.push_back(static_cast<int>(v));
  }
  return out;
}

/// One scaling curve: pointers into the single sweep's rows, in GPU-count
/// order, with the device count recovered from each cell label.
struct Curve {
  const char* scaling;
  std::vector<const SweepRow*> rows;
  std::vector<int> counts;
};

/// Emits per-device rows plus a total row for every cell of the curve.
void emit_device_rows(const Curve& curve, ResultSink& sink) {
  for (std::size_t i = 0; i < curve.rows.size(); ++i) {
    const core::RunReport& r = *curve.rows[i]->report;
    const std::string devices = std::to_string(curve.counts[i]);
    const std::string n = std::to_string(r.config.n);
    int gpu = 0;
    for (const DeviceUsage& d : r.device_usage) {
      const bool host = &d == &r.device_usage.front();
      const double t = d.busy_s + d.idle_s + d.dvfs_s;
      sink.add_row({curve.scaling, devices, n,
                    host ? "host" : "gpu" + std::to_string(gpu++),
                    TablePrinter::num(t), TablePrinter::num(d.energy_j),
                    TablePrinter::num(d.ed2p()),
                    TablePrinter::num(d.gflops())});
    }
    sink.add_row({curve.scaling, devices, n, "total",
                  TablePrinter::num(r.seconds()),
                  TablePrinter::num(r.total_energy_j()),
                  TablePrinter::num(r.ed2p()), TablePrinter::num(r.gflops())});
  }
}

void print_totals_table(const Curve& curve, const char* title) {
  TablePrinter t({"GPUs", "n", "Time (s)", "Energy (J)", "ED2P",
                  "GFLOP/s", "Speedup", "Efficiency"});
  const core::RunReport& first = *curve.rows.front()->report;
  for (std::size_t i = 0; i < curve.rows.size(); ++i) {
    const core::RunReport& r = *curve.rows[i]->report;
    // Weak-scaling cells grow n, so speedup is work-scaled ("scaled
    // speedup"); for strong scaling the flops ratio is exactly 1.
    const double speedup = first.seconds() / r.seconds() *
                           r.config.workload().total_flops() /
                           first.config.workload().total_flops();
    char sp[32];
    std::snprintf(sp, sizeof(sp), "%.2fx", speedup);
    // Efficiency relative to the curve's own base point: speedup per
    // *added* device scaling, so a curve starting at 2 GPUs reads 100%.
    const double scale = static_cast<double>(curve.counts[i]) /
                         static_cast<double>(curve.counts.front());
    t.add_row({std::to_string(curve.counts[i]), std::to_string(r.config.n),
               TablePrinter::num(r.seconds()),
               TablePrinter::num(r.total_energy_j()),
               TablePrinter::num(r.ed2p()), TablePrinter::num(r.gflops()), sp,
               TablePrinter::pct(speedup / scale)});
  }
  std::printf("-- %s --\n%s\n", title, t.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.arg_int("n", 30720, "matrix order (fixed for strong scaling)")
      .arg_int("b", 0, "block (panel) size; 0 = auto-tune per n "
                       "(weak-scaled cells with grown n always re-tune)")
      .arg_string("strategy", "bsr", "strategy registry key")
      .arg_double("r", 0.0, "BSR reclamation ratio in [0, 1]")
      .arg_string("cluster", "paper_cluster", "cluster profile registry key")
      .arg_string("devices", "1,2,4,8", "comma-separated GPU counts")
      .arg_string("nodes", "",
                  "comma-separated rack node counts; each count runs "
                  "devices = nodes x devices_per_node of --cluster (rack "
                  "profiles only; overrides --devices)")
      .arg_string("grid", "auto",
                  "process grid PxQ (e.g. 4x2; P*Q must equal each device "
                  "count) or auto (near-square on racks, 1-D on flat)")
      .arg_string("collective", "auto",
                  "panel-broadcast schedule registry key (auto, relay, "
                  "ring, tree)")
      .arg_flag("rebalance",
                "re-weight per-device work shares every iteration by "
                "predicted throughput (straggler rebalancing)")
      .arg_string("format", "table", "output: table, csv, or json");
  add_variability_flags(cli);
  add_list_flag(cli);
  add_trace_flag(cli);
  add_version_flag(cli);
  if (!cli.parse_or_exit(argc, argv)) return 0;
  if (handled_list_flag(cli)) return 0;
  if (handled_version_flag(cli, "bench_fig14_scale")) return 0;
  const std::string format = cli.get("format");
  require_result_sink_or_exit(format);
  const std::int64_t n = cli.get_int("n");

  RunConfig base;
  base.n = n;
  base.b = cli.get_int("b");
  base.strategy = cli.get("strategy");
  base.reclamation_ratio = cli.get_double("r");
  base.cluster = cli.get("cluster");
  base.collective = cli.get("collective");
  base.rebalance = cli.get_bool("rebalance");
  if (const std::string grid = cli.get("grid"); grid != "auto") {
    int p = 0;
    int q = 0;
    char tail = '\0';
    if (std::sscanf(grid.c_str(), "%dx%d%c", &p, &q, &tail) != 2 || p < 1 ||
        q < 1) {
      std::fprintf(stderr,
                   "error: --grid wants PxQ with positive integers (e.g. "
                   "4x2) or auto; got \"%s\"\n",
                   grid.c_str());
      return 2;
    }
    base.grid_p = p;
    base.grid_q = q;
  }
  apply_variability_flags_or_exit(cli, base);

  // --nodes axes run whole rack chassis: each count lowers to
  // nodes x devices_per_node accelerators of the profile. Flat profiles
  // have no node size, so the flag fails loudly naming the profile.
  std::vector<int> counts;
  if (const std::string nodes = cli.get("nodes"); !nodes.empty()) {
    const ClusterProfileInfo info = cluster_profile_info(base.cluster);
    if (info.devices_per_node <= 0) {
      std::fprintf(stderr,
                   "error: --nodes needs a rack profile with a per-node "
                   "device count; profile \"%s\" is flat (use --devices)\n",
                   base.cluster.c_str());
      return 2;
    }
    for (const long long v : parse_int_list_or_exit(
             "nodes", nodes, 1, 4096, "a node count in [1, 4096]", "1,2,4")) {
      counts.push_back(static_cast<int>(v) * info.devices_per_node);
    }
  } else {
    counts = parse_counts_or_exit(cli.get("devices"));
  }

  // Both curves run as one grid so the shared result cache executes the
  // 1-GPU cell — identical in strong and weak scaling, and the single most
  // expensive simulation — exactly once.
  Axis cells{"cell", {}};
  for (const int g : counts) {
    cells.points.push_back(
        {"strong/" + std::to_string(g), [g](RunConfig& c) { c.devices = g; }});
  }
  for (const AxisPoint& p : weak_devices_axis(counts, n).points) {
    cells.points.push_back({"weak/" + p.label, p.apply});
  }
  SweepResult grid;
  try {
    grid = Sweep(base).over(cells).run();
  } catch (const std::invalid_argument& e) {
    // Cell validation failures (--r 2, unknown --strategy / --cluster) fail
    // loudly, in the same style as Cli::parse_or_exit.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // --trace re-runs the first strong-scaling cell (smallest cluster) with a
  // recorder attached; the recorded run is byte-identical to the grid's.
  if (const std::string tpath = trace_path(cli); !tpath.empty()) {
    RunConfig traced = base;
    traced.devices = counts.front();
    try {
      run_traced(traced, tpath, "bench_fig14_scale");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    std::fprintf(stderr, "trace: wrote %s\n", tpath.c_str());
  }

  Curve strong{"strong", {}, counts};
  Curve weak{"weak", {}, counts};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    strong.rows.push_back(&grid.rows[i]);
    weak.rows.push_back(&grid.rows[counts.size() + i]);
  }

  if (format != "table") {
    auto sink = make_result_sink(format, stdout_stream());
    sink->begin({"scaling", "devices", "n", "device", "time_s", "energy_j",
                 "ed2p", "gflops"});
    emit_device_rows(strong, *sink);
    emit_device_rows(weak, *sink);
    sink->end();
    return 0;
  }

  std::printf(
      "== Fig. 14: strong / weak scaling, %s on %s, base n=%lld ==\n\n",
      base.strategy.c_str(), base.cluster.c_str(), static_cast<long long>(n));
  print_totals_table(strong, "strong scaling (fixed n)");
  print_totals_table(weak, "weak scaling (constant flops per GPU)");

  // Per-device breakdown of the largest strong-scaling cell.
  const SweepRow& big = *strong.rows.back();
  TablePrinter t({"Device", "Busy (s)", "Idle (s)", "Energy (J)", "GFLOP/s",
                  "Final MHz", "ABFT iters"});
  for (const DeviceUsage& d : big.report->device_usage) {
    t.add_row({d.name, TablePrinter::num(d.busy_s),
               TablePrinter::num(d.idle_s), TablePrinter::num(d.energy_j),
               TablePrinter::num(d.gflops()), std::to_string(d.final_mhz),
               std::to_string(d.iters_single + d.iters_full)});
  }
  std::printf("-- per-device breakdown, %d GPUs (strong) --\n%s\n",
              counts.back(), t.to_string().c_str());
  std::printf("sweep: %zu unique runs for %zu requested, %.1f ms\n",
              grid.unique_runs, grid.requested_runs, grid.wall_seconds * 1e3);
  return 0;
}
