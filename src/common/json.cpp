#include "common/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <system_error>

namespace bsr {

namespace {

/// Containers nested deeper than this are rejected (see JsonValue::parse).
constexpr int kMaxDepth = 256;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("json: " + what);
}

[[noreturn]] void fail_at(const std::string& what, std::size_t offset) {
  fail(what + " at offset " + std::to_string(offset));
}

// ---- append helpers ---------------------------------------------------------
// Every writer in this file appends into the caller's buffer: no temporary
// string per key, number or nested value.

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the bytes not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {  // the other control characters: \u00XX
        constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
      }
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

/// std::to_chars output of `v` (an integer, or a finite double in shortest
/// round-trip form) appended to `out`; "0" when it does not format.
template <typename T>
void append_chars(std::string& out, T v) {
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) {
    out += '0';
    return;
  }
  out.append(buf, ptr);
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';  // JSON has no NaN or infinity
    return;
  }
  append_chars(out, v);
}

/// Recursive-descent parser over a string_view with an explicit cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail_at("trailing characters", pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail_at("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail_at(std::string("expected '") + c + "', got '" + text_[pos_] + "'",
              pos_);
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{':
      case '[': {
        // Bounded recursion: an untrusted line of 100 000 '[' must throw,
        // not overflow the stack.
        if (depth_ == kMaxDepth) {
          fail_at("nesting deeper than " + std::to_string(kMaxDepth), pos_);
        }
        ++depth_;
        JsonValue v = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail_at("bad literal", pos_);
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail_at("bad literal", pos_);
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail_at("bad literal", pos_);
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object({});
    }
    // Members collect in this depth's scratch, then move into a vector of
    // exactly their count: one allocation per object instead of one per
    // doubling, and sibling objects reuse the scratch.
    auto& members = member_scratch_[static_cast<std::size_t>(depth_)];
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') break;
      if (c != ',') fail_at("expected ',' or '}' in object", pos_ - 1);
    }
    std::vector<std::pair<std::string, JsonValue>> exact(
        std::make_move_iterator(members.begin()),
        std::make_move_iterator(members.end()));
    members.clear();
    return JsonValue::make_object(std::move(exact));
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') break;
      if (c != ',') fail_at("expected ',' or ']' in array", pos_ - 1);
    }
    return JsonValue::make_array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy each run of bytes that need no decoding with one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
          break;
        }
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) fail_at("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail_at("raw control character in string", pos_ - 1);
      if (pos_ >= text_.size()) fail_at("unterminated escape", pos_);
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail_at("bad escape character", pos_ - 1);
      }
    }
  }

  /// Decodes \uXXXX (and a low surrogate when XXXX is a high surrogate) to
  /// UTF-8 bytes appended to `out`.
  void append_unicode_escape(std::string& out) {
    const auto hex4 = [&]() -> unsigned {
      if (pos_ + 4 > text_.size()) fail_at("truncated \\u escape", pos_);
      unsigned v = 0;
      for (int i = 0; i < 4; ++i) {
        const char c = text_[pos_++];
        v <<= 4;
        if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
        else fail_at("bad hex digit in \\u escape", pos_ - 1);
      }
      return v;
    };
    unsigned cp = hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (!consume_literal("\\u")) fail_at("unpaired high surrogate", pos_);
      const unsigned lo = hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail_at("bad low surrogate", pos_);
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail_at("unpaired low surrogate", pos_);
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    const auto digit = [&]() {
      return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digit()) fail_at("bad number", start);
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (digit()) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digit()) fail_at("bad number (no digits after '.')", start);
      while (digit()) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digit()) fail_at("bad number (empty exponent)", start);
      while (digit()) ++pos_;
    }
    return JsonValue::make_number(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< containers open at pos_
  /// Per nesting depth, the members of the object being parsed there.
  std::array<std::vector<std::pair<std::string, JsonValue>>, kMaxDepth + 1>
      member_scratch_;
};

}  // namespace

// ---- JsonValue --------------------------------------------------------------

JsonValue JsonValue::parse(std::string_view text) { return Parser(text).run(); }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(std::string token) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.scalar_ = std::move(token);
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.scalar_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::Array;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::Object;
  v.members_ = std::move(members);
  return v;
}

namespace {
const char* kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return "bool";
    case JsonValue::Kind::Number: return "number";
    case JsonValue::Kind::String: return "string";
    case JsonValue::Kind::Array: return "array";
    case JsonValue::Kind::Object: return "object";
  }
  return "?";
}

void require_kind(JsonValue::Kind got, JsonValue::Kind want) {
  if (got != want) {
    fail(std::string("expected ") + kind_name(want) + ", got " +
         kind_name(got));
  }
}
}  // namespace

bool JsonValue::as_bool() const {
  require_kind(kind_, Kind::Bool);
  return bool_;
}

const std::string& JsonValue::as_string() const {
  require_kind(kind_, Kind::String);
  return scalar_;
}

const std::string& JsonValue::number_token() const {
  require_kind(kind_, Kind::Number);
  return scalar_;
}

double JsonValue::to_double() const {
  require_kind(kind_, Kind::Number);
  double out = 0.0;
  const auto [ptr, ec] =
      std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), out);
  if (ec != std::errc() || ptr != scalar_.data() + scalar_.size()) {
    fail("number token \"" + scalar_ + "\" does not parse as double");
  }
  return out;
}

std::int64_t JsonValue::to_int64() const {
  require_kind(kind_, Kind::Number);
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(scalar_.data(), scalar_.data() + scalar_.size(), out);
  if (ec != std::errc() || ptr != scalar_.data() + scalar_.size()) {
    fail("number token \"" + scalar_ + "\" is not an int64");
  }
  return out;
}

std::uint64_t JsonValue::to_uint64() const {
  const std::string& token =
      kind_ == Kind::String ? scalar_ : number_token();
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    fail("token \"" + token + "\" is not a uint64");
  }
  return out;
}

const std::vector<JsonValue>& JsonValue::items() const {
  require_kind(kind_, Kind::Array);
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  require_kind(kind_, Kind::Object);
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  require_kind(kind_, Kind::Object);
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) fail("missing member \"" + key + "\"");
  return *v;
}

void JsonValue::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::Null: out += "null"; return;
    case Kind::Bool: out += bool_ ? "true" : "false"; return;
    case Kind::Number: out += scalar_; return;
    case Kind::String: append_quoted(out, scalar_); return;
    case Kind::Array:
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        items_[i].dump_to(out);
      }
      out += ']';
      return;
    case Kind::Object:
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        append_quoted(out, members_[i].first);
        out += ':';
        members_[i].second.dump_to(out);
      }
      out += '}';
      return;
  }
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

// ---- writer helpers ---------------------------------------------------------

std::string json_quote(std::string_view s) {
  std::string out;
  append_quoted(out, s);
  return out;
}

std::string json_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

// ---- JsonWriter -------------------------------------------------------------

void JsonWriter::comma() {
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::obj_open() {
  comma();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::obj_close() {
  out_ += '}';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::arr_open() {
  comma();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::arr_close() {
  out_ += ']';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  append_quoted(out_, k);
  out_ += ':';
  // The value that follows must not emit another comma.
  if (!needs_comma_.empty()) needs_comma_.back() = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  append_quoted(out_, s);
  if (!needs_comma_.empty()) needs_comma_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  if (!needs_comma_.empty()) needs_comma_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  append_double(out_, v);
  if (!needs_comma_.empty()) needs_comma_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  append_chars(out_, v);
  if (!needs_comma_.empty()) needs_comma_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::value_u64(std::uint64_t v) {
  comma();
  out_ += '"';
  append_chars(out_, v);
  out_ += '"';
  if (!needs_comma_.empty()) needs_comma_.back() = true;
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
  if (!needs_comma_.empty()) needs_comma_.back() = true;
  return *this;
}

}  // namespace bsr
