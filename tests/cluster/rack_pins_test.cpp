// Serialized-report pins for the rack-scale cluster engine. The only cluster
// pin in ReportJson.SerializedBytesArePinned is 8 devices on the flat
// paper_cluster: a 1-D layout with relay broadcasts and no peer link, node
// bus or process grid. These runs reach the rest: 2-D grids, ring and tree
// collectives, intra-node peer links, remote node buses, straggler
// rebalancing, and the variability and fault streams on top. The sizes and
// FNV-1a hashes were recorded before the engine read per-run tables, so a
// table that differs from the function it replaces by one ulp anywhere in a
// run changes a hash here.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bsr/bsr.hpp"
#include "serve/report_json.hpp"

namespace bsr {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// n = 4096 under hostile variability and Poisson faults at x225, BSR at
/// r = 0.25 so its critical lanes overclock into the faulting clocks.
RunConfig rack_base(const char* profile, int devices, const char* collective) {
  RunConfig cfg;
  cfg.n = 4096;
  cfg.cluster = profile;
  cfg.devices = devices;
  cfg.collective = collective;
  cfg.reclamation_ratio = 0.25;
  cfg.variability = make_variability("hostile");
  cfg.faults = make_faults("poisson");
  cfg.faults.rate_multiplier = 225.0;
  return cfg;
}

struct Pinned {
  std::string name;
  RunConfig config;
  std::size_t bytes;
  std::uint64_t hash;
};

RunConfig with_strategy(RunConfig cfg, const char* strategy) {
  cfg.strategy = strategy;
  return cfg;
}

RunConfig tree_4x2_rebalanced() {
  RunConfig cfg = rack_base("rack_8x8", 8, "tree");
  cfg.grid_p = 4;
  cfg.grid_q = 2;
  cfg.rebalance = true;
  return cfg;
}

TEST(RackPins, SerializedBytesMatchTheParent) {
  const RunConfig tree8 = tree_4x2_rebalanced();
  const RunConfig ring16 = rack_base("rack_8x8", 16, "ring");
  const RunConfig tree64 = rack_base("rack_8x8", 64, "tree");
  const Pinned pinned[] = {
      {"rack_8x8 8 tree 4x2 rebalance original",
       with_strategy(tree8, "original"), 5652u, 0x238e13e8c43b604cull},
      {"rack_8x8 8 tree 4x2 rebalance sr", with_strategy(tree8, "sr"), 5721u,
       0xe6c0a605faaade55ull},
      {"rack_8x8 8 tree 4x2 rebalance bsr", with_strategy(tree8, "bsr"),
       5730u, 0x47f38eba55dbe2cdull},
      {"rack_8x8 16 ring original", with_strategy(ring16, "original"), 9813u,
       0x4355647970c318c7ull},
      {"rack_8x8 16 ring sr", with_strategy(ring16, "sr"), 10048u,
       0x16a269aa75e6a20full},
      {"rack_8x8 16 ring bsr", with_strategy(ring16, "bsr"), 9868u,
       0x267454d64b1c9da8ull},
      {"rack_8x8 64 tree original", with_strategy(tree64, "original"), 34745u,
       0x29ba6d7cc58d5152ull},
      {"rack_8x8 64 tree sr", with_strategy(tree64, "sr"), 35525u,
       0xda39bde767f24ebaull},
      {"rack_8x8 64 tree bsr", with_strategy(tree64, "bsr"), 34845u,
       0xa8642d6dc6062bbaull},
      {"rack_4x8 32 relay bsr", rack_base("rack_4x8", 32, "relay"), 18637u,
       0x9f3d38835ace8822ull},
      {"nvlink_pairs 4 bsr", rack_base("nvlink_pairs", 4, "auto"), 3647u,
       0x92bc51bfccf5a7b9ull},
  };
  for (const Pinned& want : pinned) {
    const std::string bytes = serve::serialize_report(run(want.config));
    EXPECT_EQ(bytes.size(), want.bytes) << want.name;
    EXPECT_EQ(fnv1a(bytes), want.hash) << want.name;
  }
}

}  // namespace
}  // namespace bsr
