// The request config's wire codec, private to serve/: the field lists of
// RunConfig and its variability and faults blocks, and the readers of their
// scalar members. Two files include it: report_json.cpp, whose writer and
// report reader also handle the config echo, and config_json.cpp, the
// lenient request reader. That reader has a file of its own because GCC
// decides inlining per file, and the report reader, a hot path, should not
// be recompiled differently when the request reader changes. Everything
// here has internal linkage in each file that includes it.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "bsr/run_config.hpp"
#include "common/json.hpp"

namespace bsr::serve {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("report_json: " + what);
}

// ---- scalar readers ---------------------------------------------------------
// get(token, member) converts one token into a member of that type, and
// throws on a token of another kind or out of the member's range.

void get(const JsonToken& t, bool& x) { x = t.as_bool(); }
// Refuses rather than narrows: a wrapped value (4294967298 -> 2) would be a
// different, valid-looking config.
void get(const JsonToken& t, int& x) {
  const std::int64_t i = t.to_int64();
  if (i < std::numeric_limits<int>::min() ||
      i > std::numeric_limits<int>::max()) {
    fail("integer " + std::to_string(i) + " is out of int range");
  }
  x = static_cast<int>(i);
}
void get(const JsonToken& t, std::int64_t& x) { x = t.to_int64(); }
void get(const JsonToken& t, std::uint64_t& x) { x = t.to_uint64(); }
void get(const JsonToken& t, double& x) { x = t.to_double(); }
void get(const JsonToken& t, std::string& x) { x = t.as_string(); }
void get(const JsonToken& t, Factorization& x) {
  x = core::factorization_from_string(std::string(t.as_string()));
}
void get(const JsonToken& t, ExecutionMode& x) {
  const std::string_view s = t.as_string();
  if (s == "TimingOnly") x = ExecutionMode::TimingOnly;
  else if (s == "Numeric") x = ExecutionMode::Numeric;
  else fail("unknown ExecutionMode \"" + std::string(s) + "\"");
}
void get(const JsonToken& t, faultcamp::ProcessKind& x) {
  const std::string_view s = t.as_string();
  if (s == "Poisson") x = faultcamp::ProcessKind::Poisson;
  else if (s == "Fixed") x = faultcamp::ProcessKind::Fixed;
  else fail("unknown ProcessKind \"" + std::string(s) + "\"");
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

/// A visitor that accepts every member: the probe for "has a field list".
struct AnyField {
  void operator()(std::string_view /*key*/, const auto& /*member*/) const {}
};

/// Whether a member's key is `key`. Spelled out so that the compare against
/// a field's literal expands inline instead of calling string_view::compare.
bool same_key(std::string_view a, std::string_view key) {
  return a.size() == key.size() &&
         std::memcmp(a.data(), key.data(), key.size()) == 0;
}

}  // namespace

}  // namespace bsr::serve
