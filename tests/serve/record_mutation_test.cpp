// A seeded mutation corpus over the durable store's read path. Three
// serialized reports (single-node, a cluster run with device_usage, a faulty
// run with lane_faults) and their store envelopes are mutated 2250 ways:
// byte flips, truncations, deleted, duplicated, reordered and unknown
// members, inserted whitespace, non-canonical escapes, type swaps, integers
// past int range and nesting near and past the parser's 256 limit. Every
// mutant goes through deserialize_report() and DiskResultStore::load_record(),
// and each outcome (a reject, or an accept with the hashes of the served
// text and of the re-serialized report) is folded into one FNV-1a digest.
// The digest was recorded before the store read records without building a
// tree, so a reader that accepts, rejects or serves one byte differently
// from the tree reader changes it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bsr/bsr.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "serve/report_json.hpp"
#include "serve/store.hpp"

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

RunConfig small_config() {
  RunConfig cfg;
  cfg.n = 1024;
  cfg.b = 128;
  return cfg;
}

RunConfig cluster_config() {
  RunConfig cfg = small_config();
  cfg.devices = 2;
  return cfg;
}

RunConfig faulty_config() {
  RunConfig cfg = small_config();
  cfg.variability = make_variability("jitter");
  cfg.faults = make_faults("poisson");
  cfg.faults.rate_multiplier = 225.0;
  return cfg;
}

// A '/' so that escaping it as "\/" keeps the fingerprint matching.
const std::string kFingerprint = "mutation/n=1024";

std::string envelope(const std::string& report) {
  return "{\"schema\":1,\"fingerprint\":\"" + kFingerprint +
         "\",\"report\":" + report + "}\n";
}

// ---- a scanner for the canonical base texts ---------------------------------
// The bases are writer output: no whitespace, so each value is found by its
// first byte. The scanner lists every value in document order.

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

struct Node {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t key = kNone;  ///< the member's key, for a member's value
  int parent = -1;          ///< the enclosing container's node
  char kind = 0;            ///< '{', '[', '"', '0' (number) or 'l' (literal)
};

char kind_of(char first) {
  if (first == '{' || first == '[' || first == '"') return first;
  return first == 't' || first == 'f' || first == 'n' ? 'l' : '0';
}

std::vector<Node> scan(const std::string& text) {
  std::vector<Node> nodes;
  std::size_t pos = 0;
  const auto skip_string = [&] {
    for (++pos; text[pos] != '"'; ++pos) {
      if (text[pos] == '\\') ++pos;
    }
    ++pos;
  };
  std::function<void(int, std::size_t)> value = [&](int parent,
                                                    std::size_t key) {
    const int self = static_cast<int>(nodes.size());
    const char c = text[pos];
    nodes.push_back({pos, 0, key, parent, kind_of(c)});
    if (c == '{' || c == '[') {
      ++pos;
      if (text[pos] == (c == '{' ? '}' : ']')) {
        ++pos;
      } else {
        for (;;) {
          std::size_t k = kNone;
          if (c == '{') {
            k = pos;
            skip_string();
            ++pos;  // ':'
          }
          value(self, k);
          if (text[pos++] != ',') break;
        }
      }
    } else if (c == '"') {
      skip_string();
    } else {
      while (text[pos] != ',' && text[pos] != ']' && text[pos] != '}') ++pos;
    }
    nodes[static_cast<std::size_t>(self)].end = pos;
  };
  value(-1, kNone);
  return nodes;
}

// ---- mutations --------------------------------------------------------------

enum Op {
  kFlip,
  kTruncate,
  kDelete,
  kDuplicate,
  kReorder,
  kUnknown,
  kWhitespace,
  kEscape,
  kTypeSwap,
  kIntRange,
  kDeepNest,
  kOpCount
};

class Mutator {
 public:
  Mutator(const std::string& text, Rng& rng)
      : text_(text), nodes_(scan(text)), rng_(rng) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const Node& n = nodes_[i];
      if (n.key != kNone) members_.push_back(i);
      if (n.kind == '{') objects_.push_back(i);
      if (n.key != kNone) quotes_.push_back(n.key);
      if (n.kind == '"') quotes_.push_back(n.begin);
      if (n.kind == '0' && text.find_first_of(".eE", n.begin) >= n.end) {
        integers_.push_back(i);
      }
    }
  }

  std::string mutate(Op op) {
    std::string t = text_;
    switch (op) {
      case kFlip: {
        const std::size_t at = below(t.size());
        t[at] = static_cast<char>(t[at] ^ (1 << below(8)));
        return t;
      }
      case kTruncate: t.resize(below(t.size())); return t;
      case kDelete: {
        const Node& m = member();
        std::size_t from = m.key;
        std::size_t to = m.end;
        if (t[from - 1] == ',') --from;
        else if (t[to] == ',') ++to;
        return t.erase(from, to - from);
      }
      case kDuplicate: {
        const Node& m = member();
        const Node& other = nodes_[below(nodes_.size())];
        const std::string copy =
            t.substr(m.key, m.begin - m.key) +
            (coin() ? span(m) : span(other));
        return coin() ? t.insert(m.key, copy + ",")
                      : t.insert(m.end, "," + copy);
      }
      case kReorder: {
        const Node& m = member();
        std::vector<std::size_t> siblings;
        for (const std::size_t i : members_) {
          if (nodes_[i].parent == m.parent && &nodes_[i] != &m) {
            siblings.push_back(i);
          }
        }
        if (siblings.empty()) return t;
        const Node& s = nodes_[siblings[below(siblings.size())]];
        const Node& first = s.key < m.key ? s : m;
        const Node& second = s.key < m.key ? m : s;
        const std::string a = t.substr(first.key, first.end - first.key);
        const std::string b = t.substr(second.key, second.end - second.key);
        t.replace(second.key, b.size(), a);
        return t.replace(first.key, a.size(), b);
      }
      case kUnknown: {
        static const char* const kValues[] = {
            "0", "\"?\"", "[1,{\"a\":null}]", "{\"k\":[true,false]}",
            "-2.5e-3"};
        return insert_member(t, std::string("\"x_unknown\":") +
                                    kValues[below(5)]);
      }
      case kWhitespace: {
        static const char* const kSpaces[] = {" ", "\n", "\t", "\r\n", "  "};
        const char* ws = kSpaces[below(5)];
        if (coin()) return t.insert(below(t.size() + 1), ws);
        const Node& n = nodes_[below(nodes_.size())];
        return t.insert(coin() ? n.begin : n.end, ws);
      }
      case kEscape: {
        // A member's key or a string value.
        const std::size_t open = quotes_[below(quotes_.size())];
        const std::size_t close = t.find('"', open + 1);
        const std::size_t at = open + 1 + below(close - open);
        if (at == close || coin() || t[at - 1] == '\\' || t[at] == '\\') {
          return t.insert(at, "\\/");
        }
        char hex[8];
        std::snprintf(hex, sizeof(hex), coin() ? "\\u%04x" : "\\u%04X",
                      static_cast<unsigned char>(t[at]));
        return t.replace(at, 1, hex);
      }
      case kTypeSwap: {
        static const char* const kSwaps[] = {"\"7\"", "7",  "true", "null",
                                             "[]",    "{}", "1.5",  "\"\""};
        const Node& n = nodes_[below(nodes_.size())];
        std::string swap;
        do {
          swap = kSwaps[below(8)];
        } while (kind_of(swap[0]) == n.kind);
        return t.replace(n.begin, n.end - n.begin, swap);
      }
      case kIntRange: {
        static const char* const kBig[] = {
            "2147483648",           "-2147483649",
            "4294967298",           "9223372036854775808",
            "-9223372036854775809", "18446744073709551616",
            "99999999999999999999"};
        const Node& n = nodes_[integers_[below(integers_.size())]];
        return t.replace(n.begin, n.end - n.begin, kBig[below(7)]);
      }
      case kDeepNest: {
        // Past the limit, or near it, where the envelope's two levels
        // decide between accept and reject. Half go in as an unknown
        // member, which a reader skips but must still check.
        const std::size_t depth = coin() ? 300 : 250 + below(9);
        const std::string nest =
            coin() ? std::string(depth, '[') + std::string(depth, ']')
                   : repeat("{\"a\":", depth) + "0" + std::string(depth, '}');
        if (coin()) return insert_member(t, "\"x_deep\":" + nest);
        const Node& n = nodes_[below(nodes_.size())];
        return t.replace(n.begin, n.end - n.begin, nest);
      }
      case kOpCount: break;
    }
    return t;
  }

 private:
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_.next_below(n));
  }
  bool coin() { return rng_.next_below(2) == 1; }
  std::string span(const Node& n) const {
    return text_.substr(n.begin, n.end - n.begin);
  }
  static std::string repeat(const std::string& s, std::size_t times) {
    std::string out;
    for (std::size_t i = 0; i < times; ++i) out += s;
    return out;
  }
  /// `t` with `member` inserted into an object: half the time the root.
  std::string insert_member(std::string& t, const std::string& member) {
    const Node& o = nodes_[coin() ? 0 : objects_[below(objects_.size())]];
    if (t[o.begin + 1] == '}') return t.insert(o.begin + 1, member);
    std::vector<std::size_t> inside;
    for (const std::size_t i : members_) {
      if (&nodes_[static_cast<std::size_t>(nodes_[i].parent)] == &o) {
        inside.push_back(i);
      }
    }
    const Node& at = nodes_[inside[below(inside.size())]];
    return coin() ? t.insert(at.key, member + ",")
                  : t.insert(at.end, "," + member);
  }

  /// A member: half the time one of the root object's.
  const Node& member() {
    if (coin()) {
      std::vector<std::size_t> root;
      for (const std::size_t i : members_) {
        if (nodes_[i].parent == 0) root.push_back(i);
      }
      return nodes_[root[below(root.size())]];
    }
    return nodes_[members_[below(members_.size())]];
  }

  const std::string text_;
  std::vector<Node> nodes_;
  Rng& rng_;
  std::vector<std::size_t> members_;
  std::vector<std::size_t> objects_;
  std::vector<std::size_t> quotes_;  ///< opening quotes of keys and strings
  std::vector<std::size_t> integers_;
};

void overwrite(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

constexpr int kReportMutants = 500;
constexpr int kEnvelopeMutants = 250;

TEST(RecordMutation, OutcomesMatchTheTreeReader) {
  // Per process, so that two builds' suites can run at once.
  const std::string dir = ::testing::TempDir() + "bsr_record_mutation_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  DiskResultStore store(dir);
  const std::string path = store.record_path(kFingerprint);

  std::uint64_t digest = kBasis;
  int mutants = 0;
  int accepted = 0;
  int loads = 0;
  // The first reply of one mutant through the store: "R" or "A" with the
  // hashes of the served text and of the report written back out.
  const auto load = [&](const std::string& record) {
    overwrite(path, record);
    ++loads;
    const std::optional<StoredRecord> hit = store.load_record(kFingerprint);
    if (!hit.has_value()) return std::string("R");
    ++accepted;
    // The served bytes are the record's report re-emitted from a tree.
    EXPECT_EQ(hit->json, JsonValue::parse(record).at("report").dump());
    return "A" + hex(fnv1a(hit->json)) +
           hex(fnv1a(serialize_report(hit->report)));
  };
  const auto deserialize = [&](const std::string& report) {
    try {
      const core::RunReport r = deserialize_report(report);
      ++accepted;
      return "A" + hex(fnv1a(serialize_report(r)));
    } catch (const std::exception&) {
      return std::string("R");
    }
  };

  Rng rng(1919);
  for (const RunConfig& cfg :
       {small_config(), cluster_config(), faulty_config()}) {
    const std::string report = serialize_report(bsr::run(cfg));
    const std::string record = envelope(report);
    Mutator reports(report, rng);
    for (int i = 0; i < kReportMutants; ++i, ++mutants) {
      const std::string m = reports.mutate(static_cast<Op>(i % kOpCount));
      digest = fnv1a(deserialize(m), digest);
      digest = fnv1a(load(envelope(m)), digest);
    }
    Mutator records(record.substr(0, record.size() - 1), rng);
    for (int i = 0; i < kEnvelopeMutants; ++i, ++mutants) {
      const std::string m = records.mutate(static_cast<Op>(i % kOpCount));
      digest = fnv1a(load(m + "\n"), digest);
    }
  }
  std::filesystem::remove_all(dir);

  EXPECT_EQ(mutants, 2250);
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits + stats.rejected, static_cast<std::uint64_t>(loads));
  // Recorded on the tree reader.
  EXPECT_EQ(accepted, 1558);
  EXPECT_EQ(digest, 0x9912a95f4589aca6ull) << hex(digest);
}

}  // namespace
}  // namespace bsr::serve
