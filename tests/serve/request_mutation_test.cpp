// A seeded mutation corpus over the daemon's request decoder. Four request
// lines (a single-node run with both blocks, a rack run, a sweep over four
// axes, and stats) are mutated 2000 ways with the store corpus's mutator
// (json_mutator.hpp) plus runs of trailing bytes and of whitespace. Every
// mutant goes to a memory-only daemon with a stub runner over one
// connection, in order, and every reply line is folded into one FNV-1a
// digest: the syntax error and its offset, the object and op checks, config
// errors and their order, validate()'s message, which member wins when one
// repeats, the fingerprint, the memory-or-executed source and the stats
// counters all reach it. The digest was recorded while the daemon still
// decoded each line into a JsonValue tree, so a decoder that answers one
// line differently changes it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "json_mutator.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace bsr::serve {
namespace {

constexpr std::uint64_t kBasis = 14695981039346656037ull;

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = kBasis) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// A report that depends on the config but costs nothing to make.
core::RunReport stub_report(const RunConfig& cfg) {
  core::RunReport r;
  r.config = cfg;
  r.strategy_name = cfg.strategy;
  r.trace.total_time = SimTime(cfg.n * 1000 + cfg.block());
  r.trace.cpu_energy_j = cfg.reclamation_ratio + 1.0;
  return r;
}

// Writer-style lines: no whitespace, so the mutator can scan them.
const char* const kBases[] = {
    R"({"op":"run","config":{"factorization":"QR","n":2048,"b":128,)"
    R"("strategy":"bsr","reclamation_ratio":0.25,"fc_desired":0.999,)"
    R"("bsr_allow_overclocking":false,"abft_policy":"adaptive","seed":"7",)"
    R"("error_rate_multiplier":1.5,"platform":"paper_default",)"
    R"("variability":{"enabled":true,"drift":0.02,"freq_quantum_mhz":100,)"
    R"("seed":"3"},"faults":{"enabled":true,"process":"Poisson",)"
    R"("rate_multiplier":2.5,"fixed_d0":1,"seed":"9"}}})",
    R"({"op":"run","config":{"n":4096,"b":256,"strategy":"sr","devices":8,)"
    R"("cluster":"rack_8x8","grid_p":4,"grid_q":2,"collective":"tree",)"
    R"("rebalance":true,"mode":"TimingOnly"}})",
    R"({"op":"sweep","config":{"n":2048,"b":128,"seed":"5"},)"
    R"("axes":{"strategy":["sr","bsr"],"r":[0.25,0.5],"n":[1024,2048],)"
    R"("abft":["adaptive","none"]}})",
    R"({"op":"stats","config":{"n":1024}})",
};

constexpr int kMutantsPerBase = 500;

/// Bytes after the request object.
std::string trailing(const std::string& line, Rng& rng) {
  static const char* const kTails[] = {" ",   "x",   "}",      "{}", ",",
                                       "0",   "\t\t", "null", "\"s\"",
                                       " {\"op\":\"stats\"}"};
  return line + kTails[rng.next_below(10)];
}

/// A run of up to 64 spaces, tabs and carriage returns at a random byte.
std::string whitespace_run(std::string line, Rng& rng) {
  static const char kSpaces[] = {' ', '\t', '\r'};
  std::string run(1 + rng.next_below(64), ' ');
  for (char& c : run) c = kSpaces[rng.next_below(3)];
  return line.insert(rng.next_below(line.size() + 1), run);
}

TEST(RequestMutation, RepliesMatchTheTreeDecoder) {
  ServerConfig config;
  config.tcp_port = 0;
  config.workers = 1;
  config.runner = stub_report;
  Server server(std::move(config));
  server.start();
  Client client = Client::connect_tcp(server.port());

  std::uint64_t digest = kBasis;
  int mutants = 0;
  int ok = 0;
  Rng rng(2323);
  for (const std::string base : kBases) {
    Mutator mutator(base, rng);
    for (int i = 0; i < kMutantsPerBase; ++i, ++mutants) {
      const int op = i % (kOpCount + 2);
      std::string line = op < kOpCount ? mutator.mutate(static_cast<Op>(op))
                         : op == kOpCount ? trailing(base, rng)
                                          : whitespace_run(base, rng);
      // One request per line: a newline the mutation put in is a space.
      for (char& c : line) {
        if (c == '\n') c = ' ';
      }
      // The daemon answers no empty line.
      const std::string reply = line.empty() ? "-" : client.call_raw(line);
      ok += reply.rfind(R"({"ok":true)", 0) == 0;
      digest = fnv1a(reply + "\n", digest);
    }
  }
  const std::string stats = client.call_raw(R"({"op":"stats"})");
  server.stop();

  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(mutants, 2000);
  // Recorded on the tree decoder.
  EXPECT_EQ(ok, 880) << stats;
  EXPECT_EQ(digest, 0x356f6a62164849fcull) << hex;
}

}  // namespace
}  // namespace bsr::serve
