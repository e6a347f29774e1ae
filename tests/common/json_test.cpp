#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace bsr {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_FALSE(JsonValue::parse("false").as_bool());
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(JsonValue::parse("42").to_int64(), 42);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-3.25e2").to_double(), -325.0);
}

TEST(JsonParse, ObjectPreservesMemberOrder) {
  const JsonValue v = JsonValue::parse(R"({"z":1,"a":2,"m":3})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "m");
  EXPECT_EQ(v.at("a").to_int64(), 2);
  EXPECT_EQ(v.find("nope"), nullptr);
  EXPECT_THROW((void)v.at("nope"), std::runtime_error);
}

TEST(JsonParse, NumberTokensAreVerbatim) {
  // The byte-identity contract of the serve store: dump() re-emits the
  // source token, not a re-formatted double.
  const JsonValue v = JsonValue::parse("[1.50, 1e2, -0.0, 10000000000]");
  EXPECT_EQ(v.items()[0].number_token(), "1.50");
  EXPECT_EQ(v.items()[1].number_token(), "1e2");
  EXPECT_EQ(v.dump(), "[1.50,1e2,-0.0,10000000000]");
}

TEST(JsonParse, ParseDumpIsIdentityOnWriterOutput) {
  for (const std::string doc : {
           R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null},)"
           R"("e":"q\"uo\\te","f":-1.25e-3})",
           // Sibling objects at one depth, empty and nested ones between.
           R"([{"a":1,"b":{"c":2}},{},{"d":[{"e":3},{"f":4,"g":5}]},{"h":6}])",
       }) {
    EXPECT_EQ(JsonValue::parse(doc).dump(), doc);
  }
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\nb\tc\\d\"e")").as_string(),
            "a\nb\tc\\d\"e");
  // \u0041 = 'A'; a surrogate pair decodes to UTF-8.
  EXPECT_EQ(JsonValue::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(JsonValue::parse(R"("\uD83D\uDE00")").as_string(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonParse, ErrorsAreLoud) {
  EXPECT_THROW((void)JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{\"a\":1} trailing"),
               std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("nul"), std::runtime_error);
  try {
    (void)JsonValue::parse("[1, @]");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("json:"), std::string::npos);
  }

  // Nesting is bounded, so hostile input throws instead of overflowing the
  // stack: 1 MB of '[' or of '{"a":', and one level past the limit.
  EXPECT_THROW((void)JsonValue::parse(std::string(1 << 20, '[')),
               std::runtime_error);
  std::string objects;
  while (objects.size() < (1u << 20)) objects += "{\"a\":";
  EXPECT_THROW((void)JsonValue::parse(objects), std::runtime_error);
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(JsonValue::parse(nested(256)).dump(), nested(256));
  try {
    (void)JsonValue::parse(nested(257));
    FAIL() << "expected a nesting error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "json: nesting deeper than 256 at offset 256");
  }
}

TEST(JsonParse, TypeMismatchedAccessorsThrow) {
  const JsonValue v = JsonValue::parse("[1]");
  EXPECT_THROW((void)v.as_string(), std::runtime_error);
  EXPECT_THROW((void)v.as_bool(), std::runtime_error);
  EXPECT_THROW((void)v.members(), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("1.5").to_int64(), std::runtime_error);
}

TEST(JsonParse, Uint64RoundTripsAsQuotedString) {
  // Seeds above int64 range travel as strings (see common/json.hpp).
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  JsonWriter w;
  w.value_u64(big);
  const JsonValue v = JsonValue::parse(w.str());
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.to_uint64(), big);
  // Integer number tokens convert too.
  EXPECT_EQ(JsonValue::parse("42").to_uint64(), 42u);
}

TEST(JsonWriter, BuildsCompactDocuments) {
  JsonWriter w;
  w.obj_open();
  w.key("n").value(std::int64_t{4096});
  w.key("name").value("bsr");
  w.key("on").value(true);
  w.key("xs").arr_open();
  w.value(1.5);
  w.value(std::int64_t{-2});
  w.arr_close();
  w.key("nested").obj_open();
  w.obj_close();
  w.key("spliced").raw(R"([1,2])");
  w.obj_close();
  EXPECT_EQ(w.str(),
            R"({"n":4096,"name":"bsr","on":true,"xs":[1.5,-2],)"
            R"("nested":{},"spliced":[1,2]})");
}

TEST(JsonWriter, DoublesUseShortestExactForm) {
  JsonWriter w;
  w.arr_open();
  w.value(0.1);
  w.value(1.0);
  w.arr_close();
  const JsonValue v = JsonValue::parse(w.str());
  EXPECT_DOUBLE_EQ(v.items()[0].to_double(), 0.1);
  EXPECT_DOUBLE_EQ(v.items()[1].to_double(), 1.0);
  // Shortest form re-serializes byte-identically (the store fixpoint).
  EXPECT_EQ(json_double(v.items()[0].to_double()),
            v.items()[0].number_token());
}

TEST(JsonHelpers, QuoteEscapes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c\nd"), R"("a\"b\\c\nd")");
  EXPECT_EQ(json_quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonHelpers, DoubleClampsNonFinite) {
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN()), "0");
}

// ---- Byte equivalence with the allocating writer ---------------------------
// The writer and dump() append into one buffer. These references are the
// earlier implementations, which built a temporary string per key, number
// and nested value; every byte must match them.

std::string ref_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string ref_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, ptr);
}

std::string ref_dump(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return v.as_bool() ? "true" : "false";
    case JsonValue::Kind::Number: return v.number_token();
    case JsonValue::Kind::String: return ref_quote(v.as_string());
    case JsonValue::Kind::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        if (i > 0) out += ',';
        out += ref_dump(v.items()[i]);
      }
      out += ']';
      return out;
    }
    case JsonValue::Kind::Object: {
      std::string out = "{";
      for (std::size_t i = 0; i < v.members().size(); ++i) {
        if (i > 0) out += ',';
        out += ref_quote(v.members()[i].first);
        out += ':';
        out += ref_dump(v.members()[i].second);
      }
      out += '}';
      return out;
    }
  }
  return "null";
}

/// `s` written by JsonWriter as a member key and as a string value.
void expect_writer_quotes_like_reference(const std::string& s) {
  JsonWriter w;
  w.obj_open();
  w.key(s).value(std::string_view(s));
  w.obj_close();
  EXPECT_EQ(w.str(), "{" + ref_quote(s) + ":" + ref_quote(s) + "}");
  EXPECT_EQ(json_quote(s), ref_quote(s));
}

TEST(JsonBytes, EveryOneByteStringQuotesLikeTheReference) {
  for (int b = 0; b < 256; ++b) {
    SCOPED_TRACE(b);
    expect_writer_quotes_like_reference(std::string(1, static_cast<char>(b)));
  }
}

TEST(JsonBytes, EscapesAnywhereInAStringQuoteLikeTheReference) {
  const std::vector<std::string> cases = {
      "",
      "\"start",
      "mid\\dle",
      "end\n",
      "\x01\x1f\t\r\n\"\\",
      "a\x7f\x80\xff z",
      "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80",  // 2-, 3-, 4-byte UTF-8
      std::string("nul\0inside", 10),
  };
  for (const std::string& s : cases) {
    SCOPED_TRACE(s);
    expect_writer_quotes_like_reference(s);
  }
}

TEST(JsonBytes, IntegersWriteLikeToString) {
  for (const std::int64_t v :
       {std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max(), std::int64_t{0},
        std::int64_t{-1}}) {
    JsonWriter w;
    w.value(v);
    EXPECT_EQ(w.str(), std::to_string(v));
  }
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max()}) {
    JsonWriter w;
    w.value_u64(v);
    EXPECT_EQ(w.str(), "\"" + std::to_string(v) + "\"");
  }
}

TEST(JsonBytes, DoublesWriteLikeTheReference) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v :
       {0.0, -0.0, std::numeric_limits<double>::denorm_min(), DBL_MAX,
        -DBL_MAX, 1.0 / 3.0, 1e-300,
        std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    SCOPED_TRACE(v);
    EXPECT_EQ(json_double(v), ref_double(v));
    JsonWriter w;
    w.value(v);
    EXPECT_EQ(w.str(), ref_double(v));
  }
}

TEST(JsonBytes, ParseThenDumpMatchesTheRecursiveReference) {
  const std::string doc =
      R"({"k\"ey":{"\u0001\n":[1,-2.5e-3,"x\\y",[],{}]},"t\tab":)"
      R"([true,false,null,[[["deep\u00e9"]]]],"":"",)"
      R"("\ud83d\ude00":{"n":10000000000,"e":"\/\b\f"}})";
  const JsonValue v = JsonValue::parse(doc);
  EXPECT_EQ(v.dump(), ref_dump(v));
  std::string appended = "prefix";
  v.dump_to(appended);
  EXPECT_EQ(appended, "prefix" + ref_dump(v));
}

// ---- Comma placement ------------------------------------------------------
// The writer places commas by the last byte written. The reference is the
// earlier writer, which kept one "a comma is due" flag per open container.

class RefWriter {
 public:
  void obj_open() { open('{'); }
  void obj_close() { close('}'); }
  void arr_open() { open('['); }
  void arr_close() { close(']'); }
  void key(std::string_view k) {
    comma();
    out_ += ref_quote(k) + ":";
    if (!due_.empty()) due_.back() = false;  // the value follows unseparated
  }
  void plain_key(std::string_view k) { key(k); }
  void value(std::string_view s) { scalar(ref_quote(s)); }
  void value(bool b) { scalar(b ? "true" : "false"); }
  void value(double v) { scalar(ref_double(v)); }
  void value(std::int64_t v) { scalar(std::to_string(v)); }
  void value_u64(std::uint64_t v) { scalar("\"" + std::to_string(v) + "\""); }
  void raw(std::string_view json) { scalar(std::string(json)); }
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void comma() {
    if (due_.empty()) return;
    if (due_.back()) out_ += ',';
    due_.back() = true;
  }
  void open(char c) {
    comma();
    out_ += c;
    due_.push_back(false);
  }
  void close(char c) {
    out_ += c;
    due_.pop_back();
  }
  void scalar(const std::string& text) {
    comma();
    out_ += text;
  }

  std::string out_;
  std::vector<bool> due_;
};

/// One random JSON value written to `w`: containers nested up to `depth`
/// (empty ones included), every scalar kind, raw() splices of whole values,
/// and keys and strings holding '{', '[', ':' and bytes that need escaping.
/// The same `rng` state gives the same calls on any writer.
template <typename W>
void write_random_value(W& w, Rng& rng, int depth) {
  static const char* const kStrings[] = {"", "{", "[", ":", "a:", "{[:",
                                         "x\"y", "tab\t", "}", "]"};
  static const char* const kPlainKeys[] = {"k", "cpu_freq", "d0", "_"};
  static const char* const kRaw[] = {"{}", "[]", "[1,{\"a:\":[]}]", "\":\"",
                                     "null", "-0.5", "{\"{\":\"[\"}"};
  const std::uint64_t kind = rng.next_below(depth > 0 ? 10 : 7);
  switch (kind) {
    case 0: w.value(std::string_view(kStrings[rng.next_below(10)])); return;
    case 1: w.value(rng.next_below(2) == 0); return;
    case 2: w.value(rng.uniform(-1e6, 1e6)); return;
    case 3:
      w.value(static_cast<std::int64_t>(rng.next_below(40)) - 20);
      return;
    case 4: w.value_u64(rng.next_below(UINT64_MAX)); return;
    case 5:
    case 6: w.raw(kRaw[rng.next_below(7)]); return;
    case 7: {
      w.arr_open();
      for (std::uint64_t i = rng.next_below(4); i > 0; --i) {
        write_random_value(w, rng, depth - 1);
      }
      w.arr_close();
      return;
    }
    default: {
      w.obj_open();
      for (std::uint64_t i = rng.next_below(4); i > 0; --i) {
        if (rng.next_below(2) == 0) {
          w.key(kStrings[rng.next_below(10)]);
        } else {
          w.plain_key(kPlainKeys[rng.next_below(4)]);
        }
        write_random_value(w, rng, depth - 1);
      }
      w.obj_close();
    }
  }
}

TEST(JsonWriter, RandomDocumentsMatchTheCommaStackWriter) {
  int containers = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    SCOPED_TRACE(seed);
    Rng a(seed);
    Rng b(seed);
    JsonWriter w;
    RefWriter ref;
    write_random_value(w, a, 4);
    write_random_value(ref, b, 4);
    ASSERT_EQ(w.str(), ref.str());
    EXPECT_NO_THROW((void)JsonValue::parse(w.str())) << w.str();
    containers += w.str().front() == '{' || w.str().front() == '[';
  }
  EXPECT_GT(containers, 500);
}

}  // namespace
}  // namespace bsr
