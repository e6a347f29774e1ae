// Minimal JSON support for the serving subsystem (bsr/serve.hpp): a strict
// RFC 8259 pull cursor, a parser into an order-preserving value tree built on
// that cursor, and a deterministic compact writer.
//
// Two properties the serve wire protocol and the durable result store lean
// on:
//
//  * Verbatim numbers. JsonValue stores a number as its source token, and
//    dump() re-emits that token unchanged, so parse() + dump() is the
//    identity on any document this library wrote — the byte-identity
//    contract of the result store ("a warm response equals the cold one")
//    reduces to the writers being deterministic, which JsonWriter is.
//  * Order preservation. Object members keep insertion/parse order (no
//    map-induced resorting), for the same reason.
//
// The writer formats doubles with std::to_chars (shortest form that parses
// back to exactly the same value) so serialize -> deserialize -> serialize is
// byte-stable; integers are emitted as plain decimal. Seeds and other uint64
// values that can exceed int64 range are the caller's concern — the report
// serializers write them as strings.
#pragma once

#include <charconv>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace bsr {

struct JsonToken;

/// One parsed JSON value: null, bool, number (verbatim token), string,
/// array, or object (order-preserving). Parse errors and type-mismatched
/// accessors throw std::runtime_error with a "json:"-prefixed message.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  /// Parses exactly one JSON document (leading/trailing whitespace allowed;
  /// anything else after the value is an error). Throws std::runtime_error
  /// with the byte offset on malformed input. Arrays and objects may nest
  /// at most 256 deep ("json: nesting deeper than 256 at offset N"), so an
  /// untrusted line cannot exhaust the stack; the documents this library
  /// writes nest at most 5 deep (store record > report > trace > iterations
  /// > iteration).
  static JsonValue parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }

  /// The boolean payload; throws unless kind() == Bool.
  [[nodiscard]] bool as_bool() const;
  /// The decoded string payload; throws unless kind() == String.
  [[nodiscard]] const std::string& as_string() const;
  /// The raw source token of a number ("-3.25e2"); throws unless Number.
  [[nodiscard]] const std::string& number_token() const;
  /// Number converted to double; throws unless Number.
  [[nodiscard]] double to_double() const;
  /// Number converted to int64; throws unless it is an integer token in
  /// int64 range (no '.', no exponent, no overflow).
  [[nodiscard]] std::int64_t to_int64() const;
  /// String or integer-number token converted to uint64 (the report
  /// serializers write uint64 seeds as strings); throws on anything else.
  [[nodiscard]] std::uint64_t to_uint64() const;

  /// Array elements; throws unless kind() == Array.
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  /// Object members in insertion order; throws unless kind() == Object.
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const;
  /// Pointer to the member named `key`, or nullptr; throws unless Object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  /// The member named `key`; throws (naming the key) when absent.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;

  /// Compact re-serialization: no whitespace, object order preserved,
  /// number tokens verbatim — the identity transform on writer output.
  [[nodiscard]] std::string dump() const;
  /// dump() appended to `out`: one buffer for the whole tree.
  void dump_to(std::string& out) const;

  // -- construction (used by tests; the serializers use JsonWriter) -----------
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(std::string token);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

  /// This value as a scalar token (see JsonToken); an array or object gives
  /// a token of its kind, which every conversion refuses.
  [[nodiscard]] JsonToken token() const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::string scalar_;  // number token or decoded string
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// One JSON value seen as a scalar: its kind, and the bytes a conversion
/// reads (a number's source token, a string's decoded bytes). Both
/// JsonValue::token() and JsonCursor::token() give one, so one set of
/// conversions serves the tree and the cursor. The view lives as long as
/// its source: the JsonValue, or the cursor until it reads the next string.
/// Conversions throw std::runtime_error ("json: ...") on a kind mismatch or
/// a token that does not convert.
struct JsonToken {
  JsonValue::Kind kind = JsonValue::Kind::Null;
  std::string_view text;  ///< number token or decoded string, else empty
  bool boolean = false;   ///< the value of a Bool

  [[nodiscard]] bool as_bool() const {
    require(JsonValue::Kind::Bool);
    return boolean;
  }
  [[nodiscard]] std::string_view as_string() const {
    require(JsonValue::Kind::String);
    return text;
  }
  /// A number token as a double (std::from_chars: out-of-range refuses).
  [[nodiscard]] double to_double() const {
    require(JsonValue::Kind::Number);
    double out = 0.0;
    if (!convert(out)) fail_convert("number token", "does not parse as double");
    return out;
  }
  /// An integer number token in int64 range (no '.', no exponent).
  [[nodiscard]] std::int64_t to_int64() const {
    require(JsonValue::Kind::Number);
    std::int64_t out = 0;
    if (!convert(out)) fail_convert("number token", "is not an int64");
    return out;
  }
  /// A string or integer number token as a uint64.
  [[nodiscard]] std::uint64_t to_uint64() const {
    if (kind != JsonValue::Kind::String) require(JsonValue::Kind::Number);
    std::uint64_t out = 0;
    if (!convert(out)) fail_convert("token", "is not a uint64");
    return out;
  }
  /// Throws as a conversion does ("json: expected object, got number")
  /// unless the token is of kind `want`.
  void require(JsonValue::Kind want) const {
    if (kind != want) fail_kind(want);
  }

 private:
  /// std::from_chars over the whole text; false when any byte is left.
  template <typename T>
  bool convert(T& out) const {
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc() && ptr == text.data() + text.size();
  }
  [[noreturn]] void fail_kind(JsonValue::Kind want) const;
  [[noreturn]] void fail_convert(const char* what, const char* why) const;
};

inline JsonToken JsonValue::token() const {
  const bool scalar = kind_ == Kind::Number || kind_ == Kind::String;
  return {kind_, scalar ? std::string_view(scalar_) : std::string_view(),
          bool_};
}

/// A pull cursor over one JSON document, and the only JSON grammar in the
/// repository: JsonValue::parse builds its tree with one, and readers that
/// know the shape they expect (serve/report_json) fill their structs from
/// one directly, with no tree in between.
///
/// The caller drives it value by value; each call skips the whitespace in
/// front of its token. Every error throws std::runtime_error
/// ("json: <what> at offset N"): strings follow RFC 8259 (escapes,
/// surrogate pairs, no raw control characters), numbers its token grammar,
/// containers nest at most 256 deep, and finish() refuses anything but
/// whitespace after the document.
///
///   JsonCursor c(text);
///   for (bool more = c.begin_object(); more; more = c.next_member()) {
///     const std::string_view key = c.key();
///     if (key == "n") n = c.token().to_int64();
///     else c.skip();
///   }
///   c.finish();
class JsonCursor {
 public:
  /// Containers nested deeper than this are refused.
  static constexpr int kMaxDepth = 256;

  explicit JsonCursor(std::string_view text)
      : begin_(text.data()), p_(text.data()), end_(text.data() + text.size()) {}

  /// The first byte of the next value: '{', '[', '"', 't', 'f', 'n', or
  /// the start of a number (checked when the value is read). Throws at the
  /// end of the input.
  char peek() {
    skip_ws();
    if (p_ == end_) fail_at("unexpected end of input", offset());
    return *p_;
  }

  /// Enters the object at the cursor: true when a member follows (read its
  /// key() next), false for "{}", which is then consumed whole.
  bool begin_object() { return begin('{', '}'); }
  /// The next member's key, decoded, with its ':' consumed; the view lives
  /// until the cursor reads the next string.
  std::string_view key() {
    expect('"');
    const std::string_view k = string();
    expect(':');
    return k;
  }
  /// After a member's value: true at ',' (another member follows), false at
  /// '}' (the object is closed).
  bool next_member() { return next('}', "expected ',' or '}' in object"); }

  /// Enters the array at the cursor: true when an item follows.
  bool begin_array() { return begin('[', ']'); }
  /// After an item: true at ',', false at ']' (the array is closed).
  bool next_item() { return next(']', "expected ',' or ']' in array"); }

  /// Reads the scalar at the cursor. An array or object is left unread and
  /// gives a token of its kind, so a conversion refuses it.
  JsonToken token() {
    switch (peek()) {
      case '"': ++p_; return {JsonValue::Kind::String, string(), false};
      case 't': literal("true"); return {JsonValue::Kind::Bool, {}, true};
      case 'f': literal("false"); return {JsonValue::Kind::Bool, {}, false};
      case 'n': literal("null"); return {};
      case '{': return {JsonValue::Kind::Object, {}, false};
      case '[': return {JsonValue::Kind::Array, {}, false};
      default: return {JsonValue::Kind::Number, number(), false};
    }
  }

  /// Reads past one value of any kind, checking it as strictly as the rest.
  void skip();

  /// Requires that nothing but whitespace is left.
  void finish() {
    skip_ws();
    if (p_ != end_) fail_at("trailing characters", offset());
  }

  /// Bytes consumed so far.
  [[nodiscard]] std::size_t offset() const {
    return static_cast<std::size_t>(p_ - begin_);
  }
  /// Containers open at the cursor.
  [[nodiscard]] int depth() const { return depth_; }
  /// How many places read so far JsonValue::dump() would write differently:
  /// each run of whitespace between tokens, and each string escape that the
  /// writer spells otherwise ("\/", "\b", "\f", "\u0041", "\u000A", a
  /// surrogate pair...). Unchanged across a value means that the value's
  /// text is exactly what dump() writes for it.
  [[nodiscard]] std::size_t noncanonical() const { return noncanonical_; }

 private:
  [[noreturn]] static void fail_at(const std::string& what,
                                   std::size_t offset);
  [[noreturn]] void fail_expected(char c) const;

  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  void skip_ws() {
    // Every token starts above ' ', so one compare passes writer output.
    if (p_ == end_ || static_cast<unsigned char>(*p_) > ' ') return;
    const char* const start = p_;
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
    noncanonical_ += p_ != start;
  }

  void expect(char c) {
    if (peek() != c) fail_expected(c);
    ++p_;
  }

  bool begin(char open, char close) {
    if (peek() != open) fail_expected(open);
    // Bounded recursion: an untrusted line of 100 000 '[' must throw, not
    // overflow the stack of a recursive reader.
    if (depth_ == kMaxDepth) {
      fail_at("nesting deeper than " + std::to_string(kMaxDepth), offset());
    }
    ++p_;
    ++depth_;
    if (peek() != close) return true;
    ++p_;
    --depth_;
    return false;
  }

  bool next(char close, const char* error) {
    const char c = peek();
    ++p_;
    if (c == close) {
      --depth_;
      return false;
    }
    if (c != ',') fail_at(error, offset() - 1);
    return true;
  }

  void literal(std::string_view lit) {
    if (std::string_view(p_, static_cast<std::size_t>(end_ - p_))
            .substr(0, lit.size()) != lit) {
      fail_at("bad literal", offset());
    }
    p_ += lit.size();
  }

  /// The string whose opening quote was just consumed, decoded. A string
  /// without escapes is a view of the text; one with escapes goes through
  /// decode() into scratch_.
  std::string_view string() {
    const char* const start = p_;
    for (const char* p = p_; p != end_; ++p) {
      const char c = *p;
      if (c == '"') {
        p_ = p + 1;
        return {start, static_cast<std::size_t>(p - start)};
      }
      if (c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        p_ = p;
        break;
      }
    }
    return decode(start);
  }
  std::string_view decode(const char* start);
  void append_unicode_escape();

  /// The number token at the cursor (RFC 8259's grammar), as a view.
  std::string_view number() {
    const char* const start = p_;
    const char* p = p_;
    if (p != end_ && *p == '-') ++p;
    if (p == end_ || !is_digit(*p)) fail_at("bad number", offset());
    if (*p == '0') {
      ++p;
    } else {
      while (p != end_ && is_digit(*p)) ++p;
    }
    if (p != end_ && *p == '.') {
      ++p;
      if (p == end_ || !is_digit(*p)) {
        fail_at("bad number (no digits after '.')", offset());
      }
      while (p != end_ && is_digit(*p)) ++p;
    }
    if (p != end_ && (*p == 'e' || *p == 'E')) {
      ++p;
      if (p != end_ && (*p == '+' || *p == '-')) ++p;
      if (p == end_ || !is_digit(*p)) {
        fail_at("bad number (empty exponent)", offset());
      }
      while (p != end_ && is_digit(*p)) ++p;
    }
    p_ = p;
    return {start, static_cast<std::size_t>(p - start)};
  }

  const char* begin_;
  const char* p_;
  const char* end_;
  int depth_ = 0;  ///< containers open at p_
  std::size_t noncanonical_ = 0;
  std::string scratch_;  ///< the last decoded string that had escapes
};

/// JSON-escapes `s` and wraps it in double quotes.
std::string json_quote(std::string_view s);

/// Shortest decimal form of `v` that parses back to exactly the same double
/// (std::to_chars). Non-finite values, which JSON cannot represent, are
/// clamped to "0" — the simulator never produces them in reports.
std::string json_double(double v);

/// Deterministic compact JSON builder. Commas are managed automatically;
/// the caller supplies structure:
///
///   JsonWriter w;
///   w.obj_open();
///   w.key("n"); w.value(std::int64_t{4096});
///   w.key("xs"); w.arr_open(); w.value(1.5); w.arr_close();
///   w.obj_close();
///   w.str();  // {"n":4096,"xs":[1.5]}
///
/// A comma goes before every value, key and container unless the last byte
/// written is '{', '[' or a key's ':'. That is exactly where a comma belongs
/// for any well-formed call sequence: one top-level value, a key before
/// each object member, and raw() given one whole JSON value.
class JsonWriter {
 public:
  JsonWriter& obj_open();
  JsonWriter& obj_close();
  JsonWriter& arr_open();
  JsonWriter& arr_close();
  /// Emits the member key (inside an object, before each value).
  JsonWriter& key(std::string_view k);
  /// key() for a key that needs no escaping, copied as it is: `k` must hold
  /// no '"', '\\' or control character (serve/report_json's field-list
  /// keys are [a-z0-9_]+).
  JsonWriter& plain_key(std::string_view k);
  JsonWriter& value(std::string_view s);  ///< string value (escaped)
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  JsonWriter& value(double v);  ///< shortest exact round-trip form
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  /// uint64 written as a quoted decimal string (see file comment).
  JsonWriter& value_u64(std::uint64_t v);
  /// Splices pre-serialized JSON verbatim (e.g. a stored report payload).
  JsonWriter& raw(std::string_view json);

  /// Makes room for a document of `bytes` without regrowing.
  void reserve(std::size_t bytes) { out_.reserve(bytes); }
  /// The document built so far.
  [[nodiscard]] const std::string& str() const { return out_; }
  /// Moves the document out (the writer is spent afterwards).
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void comma();

  std::string out_;
};

}  // namespace bsr
