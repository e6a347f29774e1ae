#include "serve/report_json.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/ascii.hpp"

namespace bsr::serve {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("report_json: " + what);
}

// ---- enum spellings ---------------------------------------------------------
// Serialized with the repo's to_string() spellings; the parsers here accept
// exactly those spellings (registry-key case-insensitivity is a CLI nicety,
// not a wire-format one — this module only reads its own output).

/// The strategies() key of a StrategyKind spelling (each lowercases to it).
std::string strategy_key_from(const std::string& s) {
  if (s == "Original" || s == "R2H" || s == "SR" || s == "BSR") {
    return ascii_lower(s);
  }
  fail("unknown StrategyKind \"" + s + "\"");
}

core::ExecutionMode mode_from(const std::string& s) {
  if (s == "TimingOnly") return core::ExecutionMode::TimingOnly;
  if (s == "Numeric") return core::ExecutionMode::Numeric;
  fail("unknown ExecutionMode \"" + s + "\"");
}

faultcamp::ProcessKind process_from(const std::string& s) {
  if (s == "Poisson") return faultcamp::ProcessKind::Poisson;
  if (s == "Fixed") return faultcamp::ProcessKind::Fixed;
  fail("unknown ProcessKind \"" + s + "\"");
}

const char* to_string(faultcamp::ProcessKind k) {
  return k == faultcamp::ProcessKind::Poisson ? "Poisson" : "Fixed";
}

abft::ChecksumMode checksum_mode_from(std::int64_t v) {
  switch (v) {
    case 0: return abft::ChecksumMode::None;
    case 1: return abft::ChecksumMode::SingleSide;
    case 2: return abft::ChecksumMode::Full;
    default: fail("ChecksumMode out of range: " + std::to_string(v));
  }
}

// ---- field helpers ----------------------------------------------------------

// Refuses rather than narrows: a wrapped value (4294967298 -> 2) would be a
// different, valid-looking config.
int as_int(const JsonValue& v) {
  const std::int64_t x = v.to_int64();
  if (x < std::numeric_limits<int>::min() ||
      x > std::numeric_limits<int>::max()) {
    fail("integer " + std::to_string(x) + " is out of int range");
  }
  return static_cast<int>(x);
}

SimTime as_time(const JsonValue& v) { return SimTime(v.to_int64()); }

// ---- var::Spec --------------------------------------------------------------

void write_var(JsonWriter& w, const var::Spec& s) {
  w.obj_open();
  w.key("enabled").value(s.enabled);
  w.key("drift").value(s.drift);
  w.key("drift_cap").value(s.drift_cap);
  w.key("transfer_jitter").value(s.transfer_jitter);
  w.key("dvfs_jitter").value(s.dvfs_jitter);
  w.key("freq_quantum_mhz").value(s.freq_quantum_mhz);
  w.key("boost_budget_s").value(s.boost_budget_s);
  w.key("boost_recovery").value(s.boost_recovery);
  w.key("seed").value_u64(s.seed);
  w.obj_close();
}

var::Spec read_var(const JsonValue& v) {
  var::Spec s;
  s.enabled = v.at("enabled").as_bool();
  s.drift = v.at("drift").to_double();
  s.drift_cap = v.at("drift_cap").to_double();
  s.transfer_jitter = v.at("transfer_jitter").to_double();
  s.dvfs_jitter = v.at("dvfs_jitter").to_double();
  s.freq_quantum_mhz = as_int(v.at("freq_quantum_mhz"));
  s.boost_budget_s = v.at("boost_budget_s").to_double();
  s.boost_recovery = v.at("boost_recovery").to_double();
  s.seed = v.at("seed").to_uint64();
  return s;
}

// ---- faultcamp::Spec --------------------------------------------------------

void write_faults(JsonWriter& w, const faultcamp::Spec& s) {
  w.obj_open();
  w.key("enabled").value(s.enabled);
  w.key("process").value(to_string(s.process));
  w.key("rate_multiplier").value(s.rate_multiplier);
  w.key("background_rate_per_s").value(s.background_rate_per_s);
  w.key("burst_mean").value(s.burst_mean);
  w.key("hazard_sigma").value(s.hazard_sigma);
  w.key("fixed_d0").value(s.fixed_d0);
  w.key("fixed_d1").value(s.fixed_d1);
  w.key("fixed_d2").value(s.fixed_d2);
  w.key("correction_s").value(s.correction_s);
  w.key("rollback").value(s.rollback);
  w.key("seed").value_u64(s.seed);
  w.obj_close();
}

faultcamp::Spec read_faults(const JsonValue& v) {
  faultcamp::Spec s;
  s.enabled = v.at("enabled").as_bool();
  s.process = process_from(v.at("process").as_string());
  s.rate_multiplier = v.at("rate_multiplier").to_double();
  s.background_rate_per_s = v.at("background_rate_per_s").to_double();
  s.burst_mean = v.at("burst_mean").to_double();
  s.hazard_sigma = v.at("hazard_sigma").to_double();
  s.fixed_d0 = as_int(v.at("fixed_d0"));
  s.fixed_d1 = as_int(v.at("fixed_d1"));
  s.fixed_d2 = as_int(v.at("fixed_d2"));
  s.correction_s = v.at("correction_s").to_double();
  s.rollback = v.at("rollback").as_bool();
  s.seed = v.at("seed").to_uint64();
  return s;
}

// ---- RunReport::config: the "options" echo ---------------------------------
// A report echoes the paper's per-run knobs of the config it ran, with the
// strategy in its StrategyKind spelling; the other RunConfig fields are not
// stored and read back as defaults.

void write_options(JsonWriter& w, const RunConfig& c) {
  w.obj_open();
  w.key("factorization").value(predict::to_string(c.factorization));
  w.key("n").value(c.n);
  w.key("b").value(c.b);
  w.key("strategy").value(core::strategy_kind_name(c));
  w.key("reclamation_ratio").value(c.reclamation_ratio);
  w.key("fc_desired").value(c.fc_desired);
  w.key("mode").value(core::to_string(c.mode));
  w.key("seed").value_u64(c.seed);
  w.key("error_rate_multiplier").value(c.error_rate_multiplier);
  w.key("noise_enabled").value(c.noise_enabled);
  w.key("elem_bytes").value(c.elem_bytes);
  w.key("recover_uncorrectable").value(c.recover_uncorrectable);
  w.key("variability");
  write_var(w, c.variability);
  w.key("faults");
  write_faults(w, c.faults);
  w.obj_close();
}

RunConfig read_options(const JsonValue& v) {
  RunConfig c;
  c.factorization =
      core::factorization_from_string(v.at("factorization").as_string());
  c.n = v.at("n").to_int64();
  c.b = v.at("b").to_int64();
  c.strategy = strategy_key_from(v.at("strategy").as_string());
  c.reclamation_ratio = v.at("reclamation_ratio").to_double();
  c.fc_desired = v.at("fc_desired").to_double();
  c.mode = mode_from(v.at("mode").as_string());
  c.seed = v.at("seed").to_uint64();
  c.error_rate_multiplier = v.at("error_rate_multiplier").to_double();
  c.noise_enabled = v.at("noise_enabled").as_bool();
  c.elem_bytes = as_int(v.at("elem_bytes"));
  c.recover_uncorrectable = v.at("recover_uncorrectable").as_bool();
  c.variability = read_var(v.at("variability"));
  c.faults = read_faults(v.at("faults"));
  return c;
}

// ---- sched::IterationOutcome / RunTrace -------------------------------------

void write_iteration(JsonWriter& w, const sched::IterationOutcome& it) {
  w.obj_open();
  w.key("k").value(it.k);
  w.key("cpu_freq").value(it.cpu_freq);
  w.key("gpu_freq").value(it.gpu_freq);
  w.key("abft_mode").value(static_cast<int>(it.abft_mode));
  w.key("pd_ns").value(it.pd.ns());
  w.key("pu_tmu_ns").value(it.pu_tmu.ns());
  w.key("transfer_ns").value(it.transfer.ns());
  w.key("abft_ns").value(it.abft_time.ns());
  w.key("cpu_dvfs_ns").value(it.cpu_dvfs.ns());
  w.key("gpu_dvfs_ns").value(it.gpu_dvfs.ns());
  w.key("cpu_lane_ns").value(it.cpu_lane.ns());
  w.key("gpu_lane_ns").value(it.gpu_lane.ns());
  w.key("span_ns").value(it.span.ns());
  w.key("slack_ns").value(it.slack.ns());
  w.key("cpu_energy_j").value(it.cpu_energy_j);
  w.key("gpu_energy_j").value(it.gpu_energy_j);
  w.key("pd_base_s").value(it.pd_base_s);
  w.key("pu_tmu_base_s").value(it.pu_tmu_base_s);
  w.key("transfer_s").value(it.transfer_s);
  w.key("injected_d0").value(it.faults.injected.d0);
  w.key("injected_d1").value(it.faults.injected.d1);
  w.key("injected_d2").value(it.faults.injected.d2);
  w.key("corrected_d0").value(it.faults.corrected_d0);
  w.key("corrected_d1").value(it.faults.corrected_d1);
  w.key("recovered").value(it.faults.recovered);
  w.key("unrecovered").value(it.faults.unrecovered);
  w.key("uncorrectable").value(it.faults.uncorrectable);
  w.key("rollbacks").value(it.faults.rollbacks);
  w.key("recovery_ns").value(it.recovery.ns());
  w.obj_close();
}

sched::IterationOutcome read_iteration(const JsonValue& v) {
  sched::IterationOutcome it;
  it.k = as_int(v.at("k"));
  it.cpu_freq = as_int(v.at("cpu_freq"));
  it.gpu_freq = as_int(v.at("gpu_freq"));
  it.abft_mode = checksum_mode_from(v.at("abft_mode").to_int64());
  it.pd = as_time(v.at("pd_ns"));
  it.pu_tmu = as_time(v.at("pu_tmu_ns"));
  it.transfer = as_time(v.at("transfer_ns"));
  it.abft_time = as_time(v.at("abft_ns"));
  it.cpu_dvfs = as_time(v.at("cpu_dvfs_ns"));
  it.gpu_dvfs = as_time(v.at("gpu_dvfs_ns"));
  it.cpu_lane = as_time(v.at("cpu_lane_ns"));
  it.gpu_lane = as_time(v.at("gpu_lane_ns"));
  it.span = as_time(v.at("span_ns"));
  it.slack = as_time(v.at("slack_ns"));
  it.cpu_energy_j = v.at("cpu_energy_j").to_double();
  it.gpu_energy_j = v.at("gpu_energy_j").to_double();
  it.pd_base_s = v.at("pd_base_s").to_double();
  it.pu_tmu_base_s = v.at("pu_tmu_base_s").to_double();
  it.transfer_s = v.at("transfer_s").to_double();
  it.faults.injected.d0 = v.at("injected_d0").to_int64();
  it.faults.injected.d1 = v.at("injected_d1").to_int64();
  it.faults.injected.d2 = v.at("injected_d2").to_int64();
  it.faults.corrected_d0 = v.at("corrected_d0").to_int64();
  it.faults.corrected_d1 = v.at("corrected_d1").to_int64();
  it.faults.recovered = v.at("recovered").to_int64();
  it.faults.unrecovered = v.at("unrecovered").to_int64();
  it.faults.uncorrectable = v.at("uncorrectable").to_int64();
  it.faults.rollbacks = as_int(v.at("rollbacks"));
  it.recovery = as_time(v.at("recovery_ns"));
  return it;
}

void write_trace(JsonWriter& w, const sched::RunTrace& t) {
  w.obj_open();
  w.key("total_time_ns").value(t.total_time.ns());
  w.key("cpu_energy_j").value(t.cpu_energy_j);
  w.key("gpu_energy_j").value(t.gpu_energy_j);
  w.key("iterations").arr_open();
  for (const sched::IterationOutcome& it : t.iterations) write_iteration(w, it);
  w.arr_close();
  w.obj_close();
}

sched::RunTrace read_trace(const JsonValue& v) {
  sched::RunTrace t;
  // Fields are assigned directly (not via RunTrace::add, which accumulates
  // aggregates) so the stored aggregates round-trip exactly.
  t.total_time = as_time(v.at("total_time_ns"));
  t.cpu_energy_j = v.at("cpu_energy_j").to_double();
  t.gpu_energy_j = v.at("gpu_energy_j").to_double();
  for (const JsonValue& it : v.at("iterations").items()) {
    t.iterations.push_back(read_iteration(it));
  }
  return t;
}

// ---- abft::AbftStats --------------------------------------------------------

void write_abft(JsonWriter& w, const abft::AbftStats& a) {
  w.obj_open();
  w.key("iterations_protected_single").value(a.iterations_protected_single);
  w.key("iterations_protected_full").value(a.iterations_protected_full);
  w.key("iterations_unprotected").value(a.iterations_unprotected);
  w.key("errors_injected_0d").value(a.errors_injected_0d);
  w.key("errors_injected_1d").value(a.errors_injected_1d);
  w.key("errors_injected_2d").value(a.errors_injected_2d);
  w.key("corrected_0d").value(a.corrected_0d);
  w.key("corrected_1d").value(a.corrected_1d);
  w.key("uncorrectable").value(a.uncorrectable);
  w.key("recoveries").value(a.recoveries);
  w.obj_close();
}

abft::AbftStats read_abft(const JsonValue& v) {
  abft::AbftStats a;
  a.iterations_protected_single = as_int(v.at("iterations_protected_single"));
  a.iterations_protected_full = as_int(v.at("iterations_protected_full"));
  a.iterations_unprotected = as_int(v.at("iterations_unprotected"));
  a.errors_injected_0d = as_int(v.at("errors_injected_0d"));
  a.errors_injected_1d = as_int(v.at("errors_injected_1d"));
  a.errors_injected_2d = as_int(v.at("errors_injected_2d"));
  a.corrected_0d = as_int(v.at("corrected_0d"));
  a.corrected_1d = as_int(v.at("corrected_1d"));
  a.uncorrectable = as_int(v.at("uncorrectable"));
  a.recoveries = as_int(v.at("recoveries"));
  return a;
}

// ---- cluster::DeviceUsage ---------------------------------------------------

void write_device(JsonWriter& w, const cluster::DeviceUsage& d) {
  w.obj_open();
  w.key("name").value(d.name);
  w.key("busy_s").value(d.busy_s);
  w.key("idle_s").value(d.idle_s);
  w.key("dvfs_s").value(d.dvfs_s);
  w.key("energy_j").value(d.energy_j);
  w.key("flops").value(d.flops);
  w.key("dvfs_transitions").value(d.dvfs_transitions);
  w.key("final_mhz").value(d.final_mhz);
  w.key("iters_unprotected").value(d.iters_unprotected);
  w.key("iters_single").value(d.iters_single);
  w.key("iters_full").value(d.iters_full);
  w.key("faults_injected").value(d.faults_injected);
  w.key("faults_corrected").value(d.faults_corrected);
  w.key("faults_recovered").value(d.faults_recovered);
  w.key("faults_unrecovered").value(d.faults_unrecovered);
  w.key("faults_uncorrectable").value(d.faults_uncorrectable);
  w.key("rollbacks").value(d.rollbacks);
  w.key("recovery_s").value(d.recovery_s);
  w.obj_close();
}

cluster::DeviceUsage read_device(const JsonValue& v) {
  cluster::DeviceUsage d;
  d.name = v.at("name").as_string();
  d.busy_s = v.at("busy_s").to_double();
  d.idle_s = v.at("idle_s").to_double();
  d.dvfs_s = v.at("dvfs_s").to_double();
  d.energy_j = v.at("energy_j").to_double();
  d.flops = v.at("flops").to_double();
  d.dvfs_transitions = as_int(v.at("dvfs_transitions"));
  d.final_mhz = as_int(v.at("final_mhz"));
  d.iters_unprotected = v.at("iters_unprotected").to_int64();
  d.iters_single = v.at("iters_single").to_int64();
  d.iters_full = v.at("iters_full").to_int64();
  d.faults_injected = v.at("faults_injected").to_int64();
  d.faults_corrected = v.at("faults_corrected").to_int64();
  d.faults_recovered = v.at("faults_recovered").to_int64();
  d.faults_unrecovered = v.at("faults_unrecovered").to_int64();
  d.faults_uncorrectable = v.at("faults_uncorrectable").to_int64();
  d.rollbacks = as_int(v.at("rollbacks"));
  d.recovery_s = v.at("recovery_s").to_double();
  return d;
}

// ---- core::LaneFaults -------------------------------------------------------

void write_lane(JsonWriter& w, const core::LaneFaults& l) {
  w.obj_open();
  w.key("lane").value(l.lane);
  w.key("injected").value(l.injected);
  w.key("corrected").value(l.corrected);
  w.key("recovered").value(l.recovered);
  w.key("unrecovered").value(l.unrecovered);
  w.key("rollbacks").value(l.rollbacks);
  w.key("recovery_s").value(l.recovery_s);
  w.obj_close();
}

core::LaneFaults read_lane(const JsonValue& v) {
  core::LaneFaults l;
  l.lane = v.at("lane").as_string();
  l.injected = v.at("injected").to_int64();
  l.corrected = v.at("corrected").to_int64();
  l.recovered = v.at("recovered").to_int64();
  l.unrecovered = v.at("unrecovered").to_int64();
  l.rollbacks = as_int(v.at("rollbacks"));
  l.recovery_s = v.at("recovery_s").to_double();
  return l;
}

// ---- lenient spec readers for request configs -------------------------------
// Reports round-trip strictly (every field present, read with at()); request
// configs are hand-written, so their sub-objects follow the same
// absent-means-default rule as the top level — but unknown keys still throw.

var::Spec var_from_config(const JsonValue& value) {
  var::Spec s;
  for (const auto& [key, v] : value.members()) {
    if (key == "enabled") s.enabled = v.as_bool();
    else if (key == "drift") s.drift = v.to_double();
    else if (key == "drift_cap") s.drift_cap = v.to_double();
    else if (key == "transfer_jitter") s.transfer_jitter = v.to_double();
    else if (key == "dvfs_jitter") s.dvfs_jitter = v.to_double();
    else if (key == "freq_quantum_mhz") s.freq_quantum_mhz = as_int(v);
    else if (key == "boost_budget_s") s.boost_budget_s = v.to_double();
    else if (key == "boost_recovery") s.boost_recovery = v.to_double();
    else if (key == "seed") s.seed = v.to_uint64();
    else fail("unknown variability field \"" + key + "\"");
  }
  return s;
}

faultcamp::Spec faults_from_config(const JsonValue& value) {
  faultcamp::Spec s;
  for (const auto& [key, v] : value.members()) {
    if (key == "enabled") s.enabled = v.as_bool();
    else if (key == "process") s.process = process_from(v.as_string());
    else if (key == "rate_multiplier") s.rate_multiplier = v.to_double();
    else if (key == "background_rate_per_s") s.background_rate_per_s = v.to_double();
    else if (key == "burst_mean") s.burst_mean = v.to_double();
    else if (key == "hazard_sigma") s.hazard_sigma = v.to_double();
    else if (key == "fixed_d0") s.fixed_d0 = as_int(v);
    else if (key == "fixed_d1") s.fixed_d1 = as_int(v);
    else if (key == "fixed_d2") s.fixed_d2 = as_int(v);
    else if (key == "correction_s") s.correction_s = v.to_double();
    else if (key == "rollback") s.rollback = v.as_bool();
    else if (key == "seed") s.seed = v.to_uint64();
    else fail("unknown faults field \"" + key + "\"");
  }
  return s;
}

}  // namespace

// ---- RunReport --------------------------------------------------------------

std::string serialize_report(const core::RunReport& report) {
  JsonWriter w;
  w.obj_open();
  w.key("options");
  write_options(w, report.config);
  w.key("strategy_name").value(report.strategy_name);
  w.key("trace");
  write_trace(w, report.trace);
  w.key("abft");
  write_abft(w, report.abft);
  w.key("numeric_executed").value(report.numeric_executed);
  w.key("residual").value(report.residual);
  w.key("numeric_correct").value(report.numeric_correct);
  w.key("recovery_time_ns").value(report.recovery_time.ns());
  w.key("recovery_energy_j").value(report.recovery_energy_j);
  w.key("device_usage").arr_open();
  for (const cluster::DeviceUsage& d : report.device_usage) write_device(w, d);
  w.arr_close();
  w.key("lane_faults").arr_open();
  for (const core::LaneFaults& l : report.lane_faults) write_lane(w, l);
  w.arr_close();
  w.obj_close();
  return w.take();
}

core::RunReport deserialize_report(const JsonValue& value) {
  core::RunReport r;
  r.config = read_options(value.at("options"));
  r.strategy_name = value.at("strategy_name").as_string();
  r.trace = read_trace(value.at("trace"));
  r.abft = read_abft(value.at("abft"));
  r.numeric_executed = value.at("numeric_executed").as_bool();
  r.residual = value.at("residual").to_double();
  r.numeric_correct = value.at("numeric_correct").as_bool();
  r.recovery_time = as_time(value.at("recovery_time_ns"));
  r.recovery_energy_j = value.at("recovery_energy_j").to_double();
  for (const JsonValue& d : value.at("device_usage").items()) {
    r.device_usage.push_back(read_device(d));
  }
  for (const JsonValue& l : value.at("lane_faults").items()) {
    r.lane_faults.push_back(read_lane(l));
  }
  return r;
}

core::RunReport deserialize_report(const std::string& json) {
  return deserialize_report(JsonValue::parse(json));
}

// ---- RunConfig --------------------------------------------------------------

std::string serialize_config(const RunConfig& c) {
  JsonWriter w;
  w.obj_open();
  w.key("factorization").value(predict::to_string(c.factorization));
  w.key("n").value(c.n);
  w.key("b").value(c.b);
  w.key("elem_bytes").value(c.elem_bytes);
  w.key("strategy").value(c.strategy);
  w.key("reclamation_ratio").value(c.reclamation_ratio);
  w.key("fc_desired").value(c.fc_desired);
  w.key("bsr_use_optimized_guardband").value(c.bsr_use_optimized_guardband);
  w.key("bsr_allow_overclocking").value(c.bsr_allow_overclocking);
  w.key("bsr_use_enhanced_predictor").value(c.bsr_use_enhanced_predictor);
  w.key("abft_policy").value(c.abft_policy);
  w.key("recover_uncorrectable").value(c.recover_uncorrectable);
  w.key("mode").value(core::to_string(c.mode));
  w.key("seed").value_u64(c.seed);
  w.key("error_rate_multiplier").value(c.error_rate_multiplier);
  w.key("noise_enabled").value(c.noise_enabled);
  w.key("platform").value(c.platform);
  w.key("variability");
  write_var(w, c.variability);
  w.key("faults");
  write_faults(w, c.faults);
  w.key("devices").value(c.devices);
  w.key("cluster").value(c.cluster);
  w.key("grid_p").value(c.grid_p);
  w.key("grid_q").value(c.grid_q);
  w.key("collective").value(c.collective);
  w.key("rebalance").value(c.rebalance);
  w.obj_close();
  return w.take();
}

RunConfig config_from_json(const JsonValue& value) {
  RunConfig c;
  for (const auto& [key, v] : value.members()) {
    if (key == "factorization") {
      c.factorization = core::factorization_from_string(v.as_string());
    } else if (key == "n") {
      c.n = v.to_int64();
    } else if (key == "b") {
      c.b = v.to_int64();
    } else if (key == "elem_bytes") {
      c.elem_bytes = as_int(v);
    } else if (key == "strategy") {
      c.strategy = v.as_string();
    } else if (key == "reclamation_ratio") {
      c.reclamation_ratio = v.to_double();
    } else if (key == "fc_desired") {
      c.fc_desired = v.to_double();
    } else if (key == "bsr_use_optimized_guardband") {
      c.bsr_use_optimized_guardband = v.as_bool();
    } else if (key == "bsr_allow_overclocking") {
      c.bsr_allow_overclocking = v.as_bool();
    } else if (key == "bsr_use_enhanced_predictor") {
      c.bsr_use_enhanced_predictor = v.as_bool();
    } else if (key == "abft_policy") {
      c.abft_policy = v.as_string();
    } else if (key == "recover_uncorrectable") {
      c.recover_uncorrectable = v.as_bool();
    } else if (key == "mode") {
      c.mode = mode_from(v.as_string());
    } else if (key == "seed") {
      c.seed = v.to_uint64();
    } else if (key == "error_rate_multiplier") {
      c.error_rate_multiplier = v.to_double();
    } else if (key == "noise_enabled") {
      c.noise_enabled = v.as_bool();
    } else if (key == "platform") {
      c.platform = v.as_string();
    } else if (key == "variability") {
      c.variability = var_from_config(v);
    } else if (key == "faults") {
      c.faults = faults_from_config(v);
    } else if (key == "devices") {
      c.devices = as_int(v);
    } else if (key == "cluster") {
      c.cluster = v.as_string();
    } else if (key == "grid_p") {
      c.grid_p = as_int(v);
    } else if (key == "grid_q") {
      c.grid_q = as_int(v);
    } else if (key == "collective") {
      c.collective = v.as_string();
    } else if (key == "rebalance") {
      c.rebalance = v.as_bool();
    } else {
      fail("unknown config field \"" + key + "\"");
    }
  }
  return c;
}

}  // namespace bsr::serve
