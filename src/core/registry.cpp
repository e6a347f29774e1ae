// Global registries and their built-in entries. Construction is lazy
// (function-local statics) so registration order is well-defined and static
// initialization order cannot bite user code that registers its own entries
// from a namespace-scope initializer.
#include "bsr/registry.hpp"

#include <ostream>

#include "bsr/cluster.hpp"
#include "bsr/faults.hpp"
#include "bsr/variability.hpp"
#include "common/cli.hpp"
#include "common/stdio_stream.hpp"
#include "core/decomposer.hpp"
#include "energy/baselines.hpp"
#include "energy/bsr_strategy.hpp"
#include "energy/sr.hpp"

namespace bsr {

Registry<StrategyEntry>& strategies() {
  static Registry<StrategyEntry> reg = [] {
    Registry<StrategyEntry> r("strategy");
    r.add("original",
          {StrategyKind::Original,
           [](const RunConfig&) -> std::unique_ptr<energy::Strategy> {
             return std::make_unique<energy::OriginalStrategy>();
           }});
    r.add("r2h", {StrategyKind::R2H,
                  [](const RunConfig&) -> std::unique_ptr<energy::Strategy> {
                    return std::make_unique<energy::RaceToHaltStrategy>();
                  }});
    r.add("sr", {StrategyKind::SR,
                 [](const RunConfig&) -> std::unique_ptr<energy::Strategy> {
                   return std::make_unique<energy::SlackReclamationStrategy>();
                 }});
    r.add("bsr",
          {StrategyKind::BSR,
           [](const RunConfig& cfg) -> std::unique_ptr<energy::Strategy> {
             return std::make_unique<energy::BsrStrategy>(
                 core::bsr_config(cfg));
           }});
    r.alias("org", "original");
    return r;
  }();
  return reg;
}

Registry<PlatformFactory>& platforms() {
  static Registry<PlatformFactory> reg = [] {
    Registry<PlatformFactory> r("platform");
    r.add("paper_default", [] { return hw::PlatformProfile::paper_default(); });
    r.add("test_small", [] { return hw::PlatformProfile::test_small(); });
    r.add("numeric_demo", [] { return hw::PlatformProfile::numeric_demo(); });
    r.alias("paper", "paper_default");
    r.alias("default", "paper_default");
    r.alias("numeric", "numeric_demo");
    return r;
  }();
  return reg;
}

Registry<core::AbftPolicy>& abft_policies() {
  static Registry<core::AbftPolicy> reg = [] {
    Registry<core::AbftPolicy> r("abft policy");
    r.add("adaptive", core::AbftPolicy::Adaptive);
    r.add("none", core::AbftPolicy::ForceNone);
    r.add("single", core::AbftPolicy::ForceSingle);
    r.add("full", core::AbftPolicy::ForceFull);
    r.alias("force_none", "none");
    r.alias("force_single", "single");
    r.alias("force_full", "full");
    return r;
  }();
  return reg;
}

Registry<SinkFactory>& result_sinks() {
  static Registry<SinkFactory> reg = [] {
    Registry<SinkFactory> r("result sink");
    r.add("table", [](std::ostream& out) -> std::unique_ptr<ResultSink> {
      return std::make_unique<TableSink>(out);
    });
    r.add("csv", [](std::ostream& out) -> std::unique_ptr<ResultSink> {
      return std::make_unique<CsvSink>(out);
    });
    r.add("json", [](std::ostream& out) -> std::unique_ptr<ResultSink> {
      return std::make_unique<JsonSink>(out);
    });
    return r;
  }();
  return reg;
}

void print_registered_keys(std::ostream& out) {
  // One header per registry with its keys indented beneath it, so the dump
  // stays scannable as registries grow (runtime-registered keys included).
  const auto group = [&out](const char* header,
                            const std::vector<std::string>& keys) {
    out << header << '\n' << " ";
    for (std::size_t i = 0; i < keys.size(); ++i) {
      out << (i == 0 ? " " : ", ") << keys[i];
    }
    out << '\n';
  };
  group("strategies", strategies().keys());
  group("platforms", platforms().keys());
  group("abft policies", abft_policies().keys());
  group("result sinks", result_sinks().keys());
  group("cluster profiles", cluster_profiles().keys());
  group("collectives", collectives().keys());
  group("variability presets", variability_presets().keys());
  group("fault presets", fault_presets().keys());
}

Cli& add_list_flag(Cli& cli) {
  return cli.arg_flag("list",
                      "print every registry's keys grouped under headers "
                      "(strategies / platforms / abft policies / result "
                      "sinks / cluster profiles / collectives / variability "
                      "presets / fault presets) and exit");
}

bool handled_list_flag(const Cli& cli) {
  if (!cli.get_bool("list")) return false;
  print_registered_keys(stdout_stream());
  return true;
}

hw::PlatformProfile make_platform(const std::string& key) {
  return platforms().get(key)();
}

std::unique_ptr<ResultSink> make_result_sink(const std::string& key,
                                             std::ostream& out) {
  return result_sinks().get(key)(out);
}

}  // namespace bsr
