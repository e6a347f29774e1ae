#include "common/json.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "common/chars.hpp"

namespace bsr {

namespace {

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

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';  // JSON has no NaN or infinity
    return;
  }
  append_chars(out, v);
}

/// JsonValue::parse's tree, built over a JsonCursor.
class TreeBuilder {
 public:
  explicit TreeBuilder(std::string_view text) : cursor_(text) {}

  JsonValue run() {
    JsonValue v = value();
    cursor_.finish();
    return v;
  }

 private:
  JsonValue value() {
    const JsonToken t = cursor_.token();
    switch (t.kind) {
      case JsonValue::Kind::Object: return object();
      case JsonValue::Kind::Array: return array();
      case JsonValue::Kind::String:
        return JsonValue::make_string(std::string(t.text));
      case JsonValue::Kind::Number:
        return JsonValue::make_number(std::string(t.text));
      case JsonValue::Kind::Bool: return JsonValue::make_bool(t.boolean);
      case JsonValue::Kind::Null: break;
    }
    return JsonValue::make_null();
  }

  JsonValue array() {
    std::vector<JsonValue> items;
    if (cursor_.begin_array()) {
      do {
        items.push_back(value());
      } while (cursor_.next_item());
    }
    return JsonValue::make_array(std::move(items));
  }

  JsonValue object() {
    if (!cursor_.begin_object()) return JsonValue::make_object({});
    // Members collect in this depth's scratch, then move into a vector of
    // exactly their count: one allocation per object instead of one per
    // doubling, and sibling objects reuse the scratch.
    auto& members = member_scratch_[static_cast<std::size_t>(cursor_.depth())];
    do {
      std::string key(cursor_.key());
      members.emplace_back(std::move(key), value());
    } while (cursor_.next_member());
    std::vector<std::pair<std::string, JsonValue>> exact(
        std::make_move_iterator(members.begin()),
        std::make_move_iterator(members.end()));
    members.clear();
    return JsonValue::make_object(std::move(exact));
  }

  JsonCursor cursor_;
  /// Per nesting depth, the members of the object being parsed there.
  std::array<std::vector<std::pair<std::string, JsonValue>>,
             JsonCursor::kMaxDepth + 1>
      member_scratch_;
};

}  // namespace

// ---- JsonCursor -------------------------------------------------------------

void JsonCursor::fail_at(const std::string& what, std::size_t offset) {
  bsr::fail_at(what, offset);
}

void JsonCursor::fail_expected(char c) const {
  fail_at(std::string("expected '") + c + "', got '" + *p_ + "'", offset());
}

void JsonCursor::skip() {
  switch (peek()) {
    case '{':
      if (begin_object()) {
        do {
          (void)key();
          skip();
        } while (next_member());
      }
      return;
    case '[':
      if (begin_array()) {
        do {
          skip();
        } while (next_item());
      }
      return;
    default: (void)token();
  }
}

std::string_view JsonCursor::decode(const char* start) {
  scratch_.assign(start, p_);
  for (;;) {
    // Copy each run of bytes that need no decoding with one append.
    const char* const run = p_;
    while (p_ != end_) {
      const char c = *p_;
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        break;
      }
      ++p_;
    }
    scratch_.append(run, p_);
    if (p_ == end_) fail_at("unterminated string", offset());
    const char c = *p_++;
    if (c == '"') return scratch_;
    if (c != '\\') fail_at("raw control character in string", offset() - 1);
    if (p_ == end_) fail_at("unterminated escape", offset());
    const char esc = *p_++;
    switch (esc) {
      case '"': scratch_ += '"'; break;
      case '\\': scratch_ += '\\'; break;
      case 'n': scratch_ += '\n'; break;
      case 'r': scratch_ += '\r'; break;
      case 't': scratch_ += '\t'; break;
      // The writer spells these three otherwise ('/' raw, the other two as
      // \u0008 and \u000c).
      case '/': scratch_ += '/'; ++noncanonical_; break;
      case 'b': scratch_ += '\b'; ++noncanonical_; break;
      case 'f': scratch_ += '\f'; ++noncanonical_; break;
      case 'u': append_unicode_escape(); break;
      default: fail_at("bad escape character", offset() - 1);
    }
  }
}

/// Decodes \uXXXX (and a low surrogate when XXXX is a high surrogate) to
/// UTF-8 bytes appended to scratch_. The writer escapes only control
/// characters other than \n, \r and \t this way, as \u00xx in lower case;
/// any other \u escape counts as noncanonical.
void JsonCursor::append_unicode_escape() {
  const std::string_view digits(
      p_, std::min<std::size_t>(4, static_cast<std::size_t>(end_ - p_)));
  const auto hex4 = [&]() -> unsigned {
    if (end_ - p_ < 4) fail_at("truncated \\u escape", offset());
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = *p_++;
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail_at("bad hex digit in \\u escape", offset() - 1);
    }
    return v;
  };
  unsigned cp = hex4();
  if (cp >= 0x20 || cp == '\n' || cp == '\r' || cp == '\t' ||
      digits.find_first_of("ABCDEF") != std::string_view::npos) {
    ++noncanonical_;
  }
  if (cp >= 0xD800 && cp <= 0xDBFF) {
    if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u') {
      fail_at("unpaired high surrogate", offset());
    }
    p_ += 2;
    const unsigned lo = hex4();
    if (lo < 0xDC00 || lo > 0xDFFF) fail_at("bad low surrogate", offset());
    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
  } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
    fail_at("unpaired low surrogate", offset());
  }
  std::string& out = scratch_;
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

// ---- JsonValue --------------------------------------------------------------

JsonValue JsonValue::parse(std::string_view text) {
  return TreeBuilder(text).run();
}

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

[[noreturn]] void fail_kind(JsonValue::Kind got, JsonValue::Kind want) {
  fail(std::string("expected ") + kind_name(want) + ", got " +
       kind_name(got));
}

void require_kind(JsonValue::Kind got, JsonValue::Kind want) {
  if (got != want) fail_kind(got, want);
}
}  // namespace

// ---- JsonToken --------------------------------------------------------------

void JsonToken::fail_kind(JsonValue::Kind want) const {
  bsr::fail_kind(kind, want);
}

void JsonToken::fail_convert(const char* what, const char* why) const {
  fail(std::string(what) + " \"" + std::string(text) + "\" " + why);
}

// ---- JsonValue accessors ----------------------------------------------------

bool JsonValue::as_bool() const { return token().as_bool(); }

const std::string& JsonValue::as_string() const {
  require_kind(kind_, Kind::String);
  return scalar_;
}

const std::string& JsonValue::number_token() const {
  require_kind(kind_, Kind::Number);
  return scalar_;
}

double JsonValue::to_double() const { return token().to_double(); }

std::int64_t JsonValue::to_int64() const { return token().to_int64(); }

std::uint64_t JsonValue::to_uint64() const { return token().to_uint64(); }

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
  // No comma where nothing precedes this token in its container: there the
  // last byte is the container's '{' or '[', or the ':' of the key this
  // value belongs to. No complete value ends with one of those bytes (a
  // string ends with '"', a number with a digit, a literal with a letter, a
  // container with '}' or ']'), so they mark exactly those places.
  if (out_.empty()) return;
  const char last = out_.back();
  if (last != '{' && last != '[' && last != ':') out_ += ',';
}

JsonWriter& JsonWriter::obj_open() {
  comma();
  out_ += '{';
  return *this;
}

JsonWriter& JsonWriter::obj_close() {
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::arr_open() {
  comma();
  out_ += '[';
  return *this;
}

JsonWriter& JsonWriter::arr_close() {
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  append_quoted(out_, k);
  out_ += ':';
  return *this;
}

JsonWriter& JsonWriter::plain_key(std::string_view k) {
  comma();
  out_ += '"';
  out_ += k;
  out_ += "\":";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  append_quoted(out_, s);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  append_double(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  if (v >= 0 && v <= 9) {
    out_ += static_cast<char>('0' + v);  // most of a report's counters
  } else {
    append_chars(out_, v);
  }
  return *this;
}

JsonWriter& JsonWriter::value_u64(std::uint64_t v) {
  comma();
  out_ += '"';
  append_chars(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
  return *this;
}

}  // namespace bsr
