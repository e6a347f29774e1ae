// Minimal JSON support for the serving subsystem (bsr/serve.hpp): a strict
// RFC 8259 parser into an order-preserving value tree, and a deterministic
// compact writer.
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

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bsr {

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

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::string scalar_;  // number token or decoded string
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
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
class JsonWriter {
 public:
  JsonWriter& obj_open();
  JsonWriter& obj_close();
  JsonWriter& arr_open();
  JsonWriter& arr_close();
  /// Emits the member key (inside an object, before each value).
  JsonWriter& key(std::string_view k);
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

  /// The document built so far.
  [[nodiscard]] const std::string& str() const { return out_; }
  /// Moves the document out (the writer is spent afterwards).
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void comma();

  std::string out_;
  std::vector<bool> needs_comma_;  // one nesting level per open container
};

}  // namespace bsr
