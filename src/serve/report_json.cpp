#include "serve/report_json.hpp"

#include <concepts>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/ascii.hpp"

namespace bsr::serve {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("report_json: " + what);
}

// ---- scalar codecs ----------------------------------------------------------
// A member's C++ type picks its codec: put() writes it, get() reads it back.
// Enums use the repo's to_string() spellings (ChecksumMode its integer value)
// and the parsers accept exactly those (registry-key case-insensitivity is a
// CLI nicety, not a wire-format one — this module only reads its own output).

void put(JsonWriter& w, bool x) { w.value(x); }
void put(JsonWriter& w, int x) { w.value(x); }
void put(JsonWriter& w, std::int64_t x) { w.value(x); }
void put(JsonWriter& w, std::uint64_t x) { w.value_u64(x); }
void put(JsonWriter& w, double x) { w.value(x); }
void put(JsonWriter& w, const std::string& x) { w.value(x); }
void put(JsonWriter& w, SimTime x) { w.value(x.ns()); }
void put(JsonWriter& w, Factorization x) { w.value(predict::to_string(x)); }
void put(JsonWriter& w, ExecutionMode x) { w.value(core::to_string(x)); }
void put(JsonWriter& w, faultcamp::ProcessKind x) {
  w.value(x == faultcamp::ProcessKind::Poisson ? "Poisson" : "Fixed");
}
void put(JsonWriter& w, abft::ChecksumMode x) { w.value(static_cast<int>(x)); }

void get(const JsonValue& v, bool& x) { x = v.as_bool(); }
// Refuses rather than narrows: a wrapped value (4294967298 -> 2) would be a
// different, valid-looking config.
void get(const JsonValue& v, int& x) {
  const std::int64_t i = v.to_int64();
  if (i < std::numeric_limits<int>::min() ||
      i > std::numeric_limits<int>::max()) {
    fail("integer " + std::to_string(i) + " is out of int range");
  }
  x = static_cast<int>(i);
}
void get(const JsonValue& v, std::int64_t& x) { x = v.to_int64(); }
void get(const JsonValue& v, std::uint64_t& x) { x = v.to_uint64(); }
void get(const JsonValue& v, double& x) { x = v.to_double(); }
void get(const JsonValue& v, std::string& x) { x = v.as_string(); }
void get(const JsonValue& v, SimTime& x) { x = SimTime(v.to_int64()); }
void get(const JsonValue& v, Factorization& x) {
  x = core::factorization_from_string(v.as_string());
}
void get(const JsonValue& v, ExecutionMode& x) {
  const std::string& s = v.as_string();
  if (s == "TimingOnly") x = ExecutionMode::TimingOnly;
  else if (s == "Numeric") x = ExecutionMode::Numeric;
  else fail("unknown ExecutionMode \"" + s + "\"");
}
void get(const JsonValue& v, faultcamp::ProcessKind& x) {
  const std::string& s = v.as_string();
  if (s == "Poisson") x = faultcamp::ProcessKind::Poisson;
  else if (s == "Fixed") x = faultcamp::ProcessKind::Fixed;
  else fail("unknown ProcessKind \"" + s + "\"");
}
void get(const JsonValue& v, abft::ChecksumMode& x) {
  const std::int64_t i = v.to_int64();  // None = 0, SingleSide = 1, Full = 2
  if (i < 0 || i > 2) fail("ChecksumMode out of range: " + std::to_string(i));
  x = static_cast<abft::ChecksumMode>(i);
}

// ---- field lists ------------------------------------------------------------
// One list per wire struct, and the only place a member's wire name lives:
// fields(s, visit) calls visit(key, member) for every serialized member, in
// wire order. `s` may be const (the writer) or mutable (the readers).

/// `S` is `T`, const or not.
template <typename S, typename T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

void fields(Of<var::Spec> auto& s, auto&& visit) {
  visit("enabled", s.enabled);
  visit("drift", s.drift);
  visit("drift_cap", s.drift_cap);
  visit("transfer_jitter", s.transfer_jitter);
  visit("dvfs_jitter", s.dvfs_jitter);
  visit("freq_quantum_mhz", s.freq_quantum_mhz);
  visit("boost_budget_s", s.boost_budget_s);
  visit("boost_recovery", s.boost_recovery);
  visit("seed", s.seed);
}

void fields(Of<faultcamp::Spec> auto& s, auto&& visit) {
  visit("enabled", s.enabled);
  visit("process", s.process);
  visit("rate_multiplier", s.rate_multiplier);
  visit("background_rate_per_s", s.background_rate_per_s);
  visit("burst_mean", s.burst_mean);
  visit("hazard_sigma", s.hazard_sigma);
  visit("fixed_d0", s.fixed_d0);
  visit("fixed_d1", s.fixed_d1);
  visit("fixed_d2", s.fixed_d2);
  visit("correction_s", s.correction_s);
  visit("rollback", s.rollback);
  visit("seed", s.seed);
}

void fields(Of<RunConfig> auto& s, auto&& visit) {
  visit("factorization", s.factorization);
  visit("n", s.n);
  visit("b", s.b);
  visit("elem_bytes", s.elem_bytes);
  visit("strategy", s.strategy);
  visit("reclamation_ratio", s.reclamation_ratio);
  visit("fc_desired", s.fc_desired);
  visit("bsr_use_optimized_guardband", s.bsr_use_optimized_guardband);
  visit("bsr_allow_overclocking", s.bsr_allow_overclocking);
  visit("bsr_use_enhanced_predictor", s.bsr_use_enhanced_predictor);
  visit("abft_policy", s.abft_policy);
  visit("recover_uncorrectable", s.recover_uncorrectable);
  visit("mode", s.mode);
  visit("seed", s.seed);
  visit("error_rate_multiplier", s.error_rate_multiplier);
  visit("noise_enabled", s.noise_enabled);
  visit("platform", s.platform);
  visit("variability", s.variability);
  visit("faults", s.faults);
  visit("devices", s.devices);
  visit("cluster", s.cluster);
  visit("grid_p", s.grid_p);
  visit("grid_q", s.grid_q);
  visit("collective", s.collective);
  visit("rebalance", s.rebalance);
}

void fields(Of<sched::IterationOutcome> auto& s, auto&& visit) {
  visit("k", s.k);
  visit("cpu_freq", s.cpu_freq);
  visit("gpu_freq", s.gpu_freq);
  visit("abft_mode", s.abft_mode);
  visit("pd_ns", s.pd);
  visit("pu_tmu_ns", s.pu_tmu);
  visit("transfer_ns", s.transfer);
  visit("abft_ns", s.abft_time);
  visit("cpu_dvfs_ns", s.cpu_dvfs);
  visit("gpu_dvfs_ns", s.gpu_dvfs);
  visit("cpu_lane_ns", s.cpu_lane);
  visit("gpu_lane_ns", s.gpu_lane);
  visit("span_ns", s.span);
  visit("slack_ns", s.slack);
  visit("cpu_energy_j", s.cpu_energy_j);
  visit("gpu_energy_j", s.gpu_energy_j);
  visit("pd_base_s", s.pd_base_s);
  visit("pu_tmu_base_s", s.pu_tmu_base_s);
  visit("transfer_s", s.transfer_s);
  visit("injected_d0", s.faults.injected.d0);
  visit("injected_d1", s.faults.injected.d1);
  visit("injected_d2", s.faults.injected.d2);
  visit("corrected_d0", s.faults.corrected_d0);
  visit("corrected_d1", s.faults.corrected_d1);
  visit("recovered", s.faults.recovered);
  visit("unrecovered", s.faults.unrecovered);
  visit("uncorrectable", s.faults.uncorrectable);
  visit("rollbacks", s.faults.rollbacks);
  visit("recovery_ns", s.recovery);
}

// The reader assigns the stored aggregates directly (not via RunTrace::add,
// which accumulates them), so they round-trip exactly.
void fields(Of<sched::RunTrace> auto& s, auto&& visit) {
  visit("total_time_ns", s.total_time);
  visit("cpu_energy_j", s.cpu_energy_j);
  visit("gpu_energy_j", s.gpu_energy_j);
  visit("iterations", s.iterations);
}

void fields(Of<abft::AbftStats> auto& s, auto&& visit) {
  visit("iterations_protected_single", s.iterations_protected_single);
  visit("iterations_protected_full", s.iterations_protected_full);
  visit("iterations_unprotected", s.iterations_unprotected);
  visit("errors_injected_0d", s.errors_injected_0d);
  visit("errors_injected_1d", s.errors_injected_1d);
  visit("errors_injected_2d", s.errors_injected_2d);
  visit("corrected_0d", s.corrected_0d);
  visit("corrected_1d", s.corrected_1d);
  visit("uncorrectable", s.uncorrectable);
  visit("recoveries", s.recoveries);
}

void fields(Of<cluster::DeviceUsage> auto& s, auto&& visit) {
  visit("name", s.name);
  visit("busy_s", s.busy_s);
  visit("idle_s", s.idle_s);
  visit("dvfs_s", s.dvfs_s);
  visit("energy_j", s.energy_j);
  visit("flops", s.flops);
  visit("dvfs_transitions", s.dvfs_transitions);
  visit("final_mhz", s.final_mhz);
  visit("iters_unprotected", s.iters_unprotected);
  visit("iters_single", s.iters_single);
  visit("iters_full", s.iters_full);
  visit("faults_injected", s.faults_injected);
  visit("faults_corrected", s.faults_corrected);
  visit("faults_recovered", s.faults_recovered);
  visit("faults_unrecovered", s.faults_unrecovered);
  visit("faults_uncorrectable", s.faults_uncorrectable);
  visit("rollbacks", s.rollbacks);
  visit("recovery_s", s.recovery_s);
}

void fields(Of<core::LaneFaults> auto& s, auto&& visit) {
  visit("lane", s.lane);
  visit("injected", s.injected);
  visit("corrected", s.corrected);
  visit("recovered", s.recovered);
  visit("unrecovered", s.unrecovered);
  visit("rollbacks", s.rollbacks);
  visit("recovery_s", s.recovery_s);
}

// Every member after the leading "options" echo (see write_options).
void fields(Of<core::RunReport> auto& s, auto&& visit) {
  visit("strategy_name", s.strategy_name);
  visit("trace", s.trace);
  visit("abft", s.abft);
  visit("numeric_executed", s.numeric_executed);
  visit("residual", s.residual);
  visit("numeric_correct", s.numeric_correct);
  visit("recovery_time_ns", s.recovery_time);
  visit("recovery_energy_j", s.recovery_energy_j);
  visit("device_usage", s.device_usage);
  visit("lane_faults", s.lane_faults);
}

// ---- codecs generated from the lists ----------------------------------------

/// A visitor that accepts every member: the probe behind Listed.
struct AnyField {
  void operator()(std::string_view /*key*/, const auto& /*member*/) const {}
};

/// A struct with a field list.
template <typename T>
concept Listed = requires(const T& s) { fields(s, AnyField{}); };

template <Listed T>
void put(JsonWriter& w, const T& s);
template <typename T>
void put(JsonWriter& w, const std::vector<T>& xs);
template <Listed T>
void get(const JsonValue& v, T& s);
template <typename T>
void get(const JsonValue& v, std::vector<T>& xs);

/// Writes each member it visits as "key":value.
struct Writer {
  JsonWriter& w;
  void operator()(std::string_view key, const auto& member) const {
    w.key(key);
    put(w, member);
  }
};

/// Reads each member it visits from `v`, where its key must be present.
struct Reader {
  const JsonValue& v;
  void operator()(std::string_view key, auto& member) const {
    get(v.at(std::string(key)), member);
  }
};

template <Listed T>
void put(JsonWriter& w, const T& s) {
  w.obj_open();
  fields(s, Writer{w});
  w.obj_close();
}

template <typename T>
void put(JsonWriter& w, const std::vector<T>& xs) {
  w.arr_open();
  for (const T& x : xs) put(w, x);
  w.arr_close();
}

/// The strict report reader: every listed key must be present.
template <Listed T>
void get(const JsonValue& v, T& s) {
  fields(s, Reader{v});
}

template <typename T>
void get(const JsonValue& v, std::vector<T>& xs) {
  for (const JsonValue& x : v.items()) get(x, xs.emplace_back());
}

/// The lenient request reader. Request configs are hand-written, so an absent
/// key keeps its default, in nested blocks too; but an unknown key throws
/// (`what` names the block), and a repeated key replaces its earlier value.
template <Listed T>
void get_lenient(const JsonValue& v, T& s, const std::string& what) {
  for (const auto& entry : v.members()) {
    const std::string& key = entry.first;
    bool known = false;
    fields(s, [&](std::string_view k, auto& member) {
      if (known || key != k) return;
      known = true;
      if constexpr (Listed<std::remove_reference_t<decltype(member)>>) {
        member = {};
        get_lenient(entry.second, member, key);
      } else {
        get(entry.second, member);
      }
    });
    if (!known) fail("unknown " + what + " field \"" + key + "\"");
  }
}

// ---- RunReport::config: the "options" echo ---------------------------------
// A report echoes the paper's per-run knobs of the config it ran, with the
// strategy in its StrategyKind spelling; the other RunConfig fields are not
// stored and read back as defaults. The echo is frozen at these 14 keys, so
// it stays a hand-written pair over the scalar codecs and the spec lists.

/// The strategies() key of a StrategyKind spelling (each lowercases to it).
std::string strategy_key_from(const std::string& s) {
  if (s == "Original" || s == "R2H" || s == "SR" || s == "BSR") {
    return ascii_lower(s);
  }
  fail("unknown StrategyKind \"" + s + "\"");
}

void write_options(JsonWriter& w, const RunConfig& c) {
  const Writer field{w};
  w.obj_open();
  field("factorization", c.factorization);
  field("n", c.n);
  field("b", c.b);
  w.key("strategy").value(core::strategy_kind_name(c));
  field("reclamation_ratio", c.reclamation_ratio);
  field("fc_desired", c.fc_desired);
  field("mode", c.mode);
  field("seed", c.seed);
  field("error_rate_multiplier", c.error_rate_multiplier);
  field("noise_enabled", c.noise_enabled);
  field("elem_bytes", c.elem_bytes);
  field("recover_uncorrectable", c.recover_uncorrectable);
  field("variability", c.variability);
  field("faults", c.faults);
  w.obj_close();
}

RunConfig read_options(const JsonValue& v) {
  RunConfig c;
  const Reader field{v};
  field("factorization", c.factorization);
  field("n", c.n);
  field("b", c.b);
  c.strategy = strategy_key_from(v.at("strategy").as_string());
  field("reclamation_ratio", c.reclamation_ratio);
  field("fc_desired", c.fc_desired);
  field("mode", c.mode);
  field("seed", c.seed);
  field("error_rate_multiplier", c.error_rate_multiplier);
  field("noise_enabled", c.noise_enabled);
  field("elem_bytes", c.elem_bytes);
  field("recover_uncorrectable", c.recover_uncorrectable);
  field("variability", c.variability);
  field("faults", c.faults);
  return c;
}

}  // namespace

// ---- RunReport --------------------------------------------------------------

std::string serialize_report(const core::RunReport& report) {
  JsonWriter w;
  w.obj_open();
  w.key("options");
  write_options(w, report.config);
  fields(report, Writer{w});
  w.obj_close();
  return w.take();
}

core::RunReport deserialize_report(const JsonValue& value) {
  core::RunReport r;
  r.config = read_options(value.at("options"));
  get(value, r);
  return r;
}

core::RunReport deserialize_report(const std::string& json) {
  return deserialize_report(JsonValue::parse(json));
}

// ---- RunConfig --------------------------------------------------------------

std::string serialize_config(const RunConfig& c) {
  JsonWriter w;
  put(w, c);
  return w.take();
}

RunConfig config_from_json(const JsonValue& value) {
  RunConfig c;
  get_lenient(value, c, "config");
  return c;
}

}  // namespace bsr::serve
