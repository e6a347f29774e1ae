// A seeded mutator for compact JSON texts, shared by the mutation corpora
// over the store's record reader (record_mutation_test.cpp) and the
// daemon's request decoder (request_mutation_test.cpp). Given writer output
// (no whitespace) and an Rng, mutate() returns one mutant per call: byte
// flips, truncations, deleted, duplicated, reordered and unknown members,
// inserted whitespace, non-canonical escapes, type swaps, integers past int
// range and nesting near and past the parser's 256 limit. The same seed
// gives the same mutants, so a digest over their outcomes can be pinned.
#pragma once

#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace bsr::serve {

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

inline char kind_of(char first) {
  if (first == '{' || first == '[' || first == '"') return first;
  return first == 't' || first == 'f' || first == 'n' ? 'l' : '0';
}

inline std::vector<Node> scan(const std::string& text) {
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

}  // namespace bsr::serve
