// bsr/registry.hpp — string-keyed registries behind the experiment API.
//
// Every pluggable ingredient of a run is resolved by name through a
// bsr::Registry: energy strategies, ABFT policies, platform profiles, and
// result sinks. The four paper strategies, the three built-in platforms, and
// the Table/CSV/JSON sinks are pre-registered; new scenarios register
// themselves at startup and immediately work with RunConfig, Sweep, and every
// bench flag — no core/ edits required.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bsr/result_sink.hpp"
#include "bsr/run_config.hpp"
#include "common/ascii.hpp"
#include "energy/strategy.hpp"
#include "hw/platform.hpp"

namespace bsr {

/// A flat name -> value map with case-insensitive keys, alias support,
/// duplicate rejection, and lookup misses that name the registry and list
/// every known key (so a typo'd --strategy tells you what exists).
template <typename Value>
class Registry {
 public:
  /// `kind` names the registry in error messages ("strategy", "platform"...).
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  /// Registers `value` under `key`; throws std::invalid_argument if the key
  /// (or an alias of the same spelling) already exists.
  void add(const std::string& key, Value value) {
    const std::string k = normalize(key);
    if (entries_.count(k) != 0 || aliases_.count(k) != 0) {
      throw std::invalid_argument(kind_ + " registry: duplicate key \"" + key +
                                  '"');
    }
    entries_.emplace(k, std::move(value));
  }

  /// Registers `name` as an alternate spelling of the existing `target` key.
  void alias(const std::string& name, const std::string& target) {
    const std::string a = normalize(name);
    const std::string t = normalize(target);
    if (entries_.count(a) != 0 || aliases_.count(a) != 0) {
      throw std::invalid_argument(kind_ + " registry: duplicate key \"" + name +
                                  '"');
    }
    if (entries_.count(t) == 0) {
      throw std::invalid_argument(kind_ + " registry: alias \"" + name +
                                  "\" targets unknown key \"" + target + '"');
    }
    aliases_.emplace(a, t);
  }

  /// True when `key` (canonical or alias, any case) resolves.
  [[nodiscard]] bool contains(const std::string& key) const {
    const std::string k = normalize(key);
    return entries_.count(k) != 0 || aliases_.count(k) != 0;
  }

  /// Resolves `key` (canonical or alias, any case); the miss diagnostic lists
  /// all known canonical keys.
  [[nodiscard]] const Value& get(const std::string& key) const {
    std::string k = normalize(key);
    if (const auto a = aliases_.find(k); a != aliases_.end()) k = a->second;
    const auto it = entries_.find(k);
    if (it == entries_.end()) {
      std::string known;
      for (const auto& [name, value] : entries_) {
        (void)value;
        known += known.empty() ? "" : ", ";
        known += name;
      }
      throw std::invalid_argument(kind_ + " registry: unknown key \"" + key +
                                  "\" (known: " + known + ")");
    }
    return it->second;
  }

  /// Resolves `key` (any case, alias or canonical) to its canonical
  /// spelling; throws like get() when unknown. Use this wherever keys are
  /// compared or serialized (RunConfig::fingerprint does) so "BSR", "bsr",
  /// and an alias like "org"/"original" denote one configuration.
  [[nodiscard]] std::string canonical(const std::string& key) const {
    std::string k = normalize(key);
    if (const auto a = aliases_.find(k); a != aliases_.end()) return a->second;
    if (entries_.count(k) == 0) (void)get(key);  // throw with known keys
    return k;
  }

  /// Canonical keys (no aliases), sorted.
  [[nodiscard]] std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, value] : entries_) {
      (void)value;
      out.push_back(name);
    }
    return out;
  }

 private:
  static std::string normalize(std::string s) { return ascii_lower(std::move(s)); }

  std::string kind_;
  std::map<std::string, Value> entries_;   // canonical key -> value
  std::map<std::string, std::string> aliases_;  // alias -> canonical key
};

/// One registered strategy: a factory, plus the enum tag of the four
/// built-ins (registry-only strategies leave it empty — they run on the
/// single-node engine only, and a report's "options" echo reads BSR for
/// them).
struct StrategyEntry {
  /// Enum tag of the four built-ins; empty for registry-only entries.
  std::optional<core::StrategyKind> kind;
  /// Builds the strategy object for one run; receives the whole RunConfig,
  /// so custom strategies may read any field.
  std::function<std::unique_ptr<energy::Strategy>(const RunConfig&)> make;
};

/// Builds one simulated platform profile (a platforms() registry value).
using PlatformFactory = std::function<hw::PlatformProfile()>;
/// Builds one result sink writing to the stream (a result_sinks() value).
using SinkFactory = std::function<std::unique_ptr<ResultSink>(std::ostream&)>;

/// Strategy registry, pre-loaded on first use with the paper's four:
/// original (alias org), r2h, sr, bsr.
Registry<StrategyEntry>& strategies();
/// Platform registry: paper_default (aliases paper, default), test_small,
/// numeric_demo (alias numeric).
Registry<PlatformFactory>& platforms();
/// ABFT policy registry: adaptive, none, single, full (aliases force_*).
Registry<core::AbftPolicy>& abft_policies();
/// Result-sink registry: table, csv, json.
Registry<SinkFactory>& result_sinks();

/// Prints every registry's canonical keys (strategies, platforms, ABFT
/// policies, result sinks, cluster profiles, variability presets, fault
/// presets) to `out`, grouped under one header per registry with the keys
/// indented beneath it — the implementation behind the grid benches' --list
/// flag, so users can discover keys (runtime-registered ones included)
/// without reading source.
void print_registered_keys(std::ostream& out);

class Cli;

/// Registers the grid benches' standard `--list` switch (chainable).
Cli& add_list_flag(Cli& cli);
/// True when --list was given: the registry keys have been printed to
/// stdout and the driver should `return 0`.
bool handled_list_flag(const Cli& cli);

/// Resolves `key` through bsr::platforms() and builds the profile.
hw::PlatformProfile make_platform(const std::string& key);
/// Resolves `key` through bsr::result_sinks() and builds a sink on `out`.
std::unique_ptr<ResultSink> make_result_sink(const std::string& key,
                                             std::ostream& out);

}  // namespace bsr
