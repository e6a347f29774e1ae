#include "serve/report_json.hpp"

#include <bitset>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/ascii.hpp"
#include "serve/config_fields.hpp"

namespace bsr::serve {

namespace {

// ---- scalar codecs ----------------------------------------------------------
// A member's C++ type picks its codec: put() writes it, get() reads it back
// from a cursor's token (config_fields.hpp has the readers of the config's
// types). Enums use the repo's to_string() spellings (ChecksumMode its
// integer value) and the parsers accept exactly those (registry-key
// case-insensitivity is a CLI nicety, not a wire-format one — this module
// only reads its own output).

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

void get(const JsonToken& t, SimTime& x) { x = SimTime(t.to_int64()); }
void get(const JsonToken& t, abft::ChecksumMode& x) {
  const std::int64_t i = t.to_int64();  // None = 0, SingleSide = 1, Full = 2
  if (i < 0 || i > 2) fail("ChecksumMode out of range: " + std::to_string(i));
  x = static_cast<abft::ChecksumMode>(i);
}

// ---- field lists ------------------------------------------------------------
// One list per report struct, and the only place a member's wire name lives
// (config_fields.hpp has the config's lists): fields(s, visit) calls
// visit(key, member) for every serialized member, in wire order. `s` may be
// const (the writer) or mutable (the reader).

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

/// A struct with a field list.
template <typename T>
concept Listed = requires(const T& s) { fields(s, AnyField{}); };

/// A member read from one scalar token.
template <typename T>
concept Scalar = requires(const JsonToken& t, T& x) { get(t, x); };

template <Listed T>
void put(JsonWriter& w, const T& s);
template <typename T>
void put(JsonWriter& w, const std::vector<T>& xs);
template <Scalar T>
void read(JsonCursor& c, T& x);
template <Listed T>
void read(JsonCursor& c, T& s);
template <typename T>
void read(JsonCursor& c, std::vector<T>& xs);

/// Writes each member it visits as "key":value. Every listed key is
/// [a-z0-9_]+ (ReportJson.EveryListedKeyNeedsNoEscaping), so it is written
/// as it is, without a scan for bytes to escape.
struct Writer {
  JsonWriter& w;
  void operator()(std::string_view key, const auto& member) const {
    w.plain_key(key);
    put(w, member);
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

/// The text reader: fills the members `list` names from the object at the
/// cursor, where list(visit) calls visit(key, member) for each member in
/// writer order (at most 64). Writer output is read in one pass: each key
/// is compared with the one the writer puts there, and its value converts
/// straight into the member. From the first key out of that order, each
/// key is looked up in the list instead. Either way the first occurrence of
/// a key wins; unknown and repeated members are skipped, their syntax still
/// checked; and a listed key that never appears throws.
template <typename List>
void read_object(JsonCursor& c, const List& list) {
  std::bitset<64> seen;  // set() throws for a list longer than 64
  std::size_t count = 0;
  bool more = c.begin_object();
  bool in_order = true;
  std::optional<std::string_view> stray;  // the first key out of order
  list([&](std::string_view key, auto& member) {
    const std::size_t i = count++;
    if (!in_order || !more) {
      in_order = false;
      return;
    }
    const std::string_view k = c.key();
    if (!same_key(k, key)) {
      in_order = false;
      stray = k;
      return;
    }
    read(c, member);
    seen.set(i);
    more = c.next_member();
  });
  // Reads the value of member `k` into the first listed member of that
  // name not read yet, or skips it.
  const auto place = [&](std::string_view k) {
    bool placed = false;
    std::size_t i = 0;
    list([&](std::string_view key, auto& member) {
      const std::size_t at = i++;
      if (placed || !same_key(k, key)) return;
      placed = true;
      if (seen.test(at)) {
        c.skip();
        return;
      }
      read(c, member);
      seen.set(at);
    });
    if (!placed) c.skip();
  };
  if (stray.has_value()) {
    place(*stray);
    more = c.next_member();
  }
  for (; more; more = c.next_member()) place(c.key());
  if (seen.count() == count) return;
  std::size_t i = 0;
  list([&](std::string_view key, const auto& /*member*/) {
    if (!seen.test(i++)) fail("missing member \"" + std::string(key) + "\"");
  });
}

template <Scalar T>
void read(JsonCursor& c, T& x) {
  get(c.token(), x);
}

template <Listed T>
void read(JsonCursor& c, T& s) {
  read_object(c, [&s](auto&& visit) { fields(s, visit); });
}

template <typename T>
void read(JsonCursor& c, std::vector<T>& xs) {
  if (!c.begin_array()) return;
  do {
    read(c, xs.emplace_back());
  } while (c.next_item());
}

// ---- RunReport::config: the "options" echo ---------------------------------
// A report echoes the paper's per-run knobs of the config it ran, with the
// strategy in its StrategyKind spelling; the other RunConfig fields are not
// stored and read back as defaults. The echo is frozen at these 14 keys, so
// it has its own hand-written list over the scalar codecs and the spec
// lists, with a stand-in for the strategy.

void options_fields(Of<RunConfig> auto& c, auto& strategy, auto&& visit) {
  visit("factorization", c.factorization);
  visit("n", c.n);
  visit("b", c.b);
  visit("strategy", strategy);
  visit("reclamation_ratio", c.reclamation_ratio);
  visit("fc_desired", c.fc_desired);
  visit("mode", c.mode);
  visit("seed", c.seed);
  visit("error_rate_multiplier", c.error_rate_multiplier);
  visit("noise_enabled", c.noise_enabled);
  visit("elem_bytes", c.elem_bytes);
  visit("recover_uncorrectable", c.recover_uncorrectable);
  visit("variability", c.variability);
  visit("faults", c.faults);
}

/// The strategy as the echo reads it: a StrategyKind spelling, stored as
/// the strategies() key it lowercases to.
struct StrategyEcho {
  std::string& key;
};

void get(const JsonToken& t, StrategyEcho& x) {
  const std::string_view s = t.as_string();
  if (s != "Original" && s != "R2H" && s != "SR" && s != "BSR") {
    fail("unknown StrategyKind \"" + std::string(s) + "\"");
  }
  x.key = ascii_lower(std::string(s));
}

void write_options(JsonWriter& w, const RunConfig& c) {
  const std::string strategy = core::strategy_kind_name(c);
  w.obj_open();
  options_fields(c, strategy, Writer{w});
  w.obj_close();
}

/// The report's "options" member, read into its config.
struct OptionsEcho {
  RunConfig& config;
};

void read(JsonCursor& c, OptionsEcho& options) {
  RunConfig& config = options.config;
  StrategyEcho strategy{config.strategy};
  read_object(c, [&](auto&& visit) {
    options_fields(config, strategy, visit);
  });
}

}  // namespace

// ---- RunReport --------------------------------------------------------------

std::string serialize_report(const core::RunReport& report) {
  // A paper-grid report is 31-46 KB, so it is written without regrowing
  // the buffer; a larger one grows from there.
  constexpr std::size_t kReserve = std::size_t{64} << 10;
  JsonWriter w;
  w.reserve(kReserve);
  w.obj_open();
  w.plain_key("options");
  write_options(w, report.config);
  fields(report, Writer{w});
  w.obj_close();
  // The daemon keeps every report it executed for its lifetime, so the
  // text is copied out at exactly its size and the buffer freed here. A
  // buffer kept across calls would save the allocation, but as a block
  // that lives on in the heap it kept the memory freed below it from going
  // back to the system: 2 MB more peak RSS in a numeric run.
  return std::string(w.str());
}

core::RunReport read_report(JsonCursor& cursor) {
  core::RunReport r;
  OptionsEcho options{r.config};
  read_object(cursor, [&](auto&& visit) {
    visit("options", options);
    fields(r, visit);
  });
  return r;
}

core::RunReport deserialize_report(const std::string& json) {
  JsonCursor cursor(json);
  core::RunReport r = read_report(cursor);
  cursor.finish();
  return r;
}

// ---- RunConfig --------------------------------------------------------------

std::string serialize_config(const RunConfig& c) {
  JsonWriter w;
  put(w, c);
  return w.take();
}

}  // namespace bsr::serve
