// The bsr_served wire protocol: newline-delimited JSON, one request object
// per line, one response object per line (docs/SERVING.md is the spec).
//
// Requests:   {"op":"run","config":{...}}
//             {"op":"sweep","config":{...},"axes":{...}}
//             {"op":"stats"}
//             {"op":"metrics"}
//             {"op":"shutdown"}
// Responses:  {"ok":true,"op":...,...}        (op-specific payload)
//             {"ok":false,"error":"...","retry":bool}
//
// This header owns request parsing and the error/overload response shapes;
// success responses are assembled by the server (they splice cached report
// JSON verbatim).
#pragma once

#include <string>
#include <string_view>

namespace bsr::serve {

/// One parsed request line. The spans are views of the line, which must
/// outlive the Request; a span is empty when its member is absent (a
/// present value has at least one byte).
struct Request {
  std::string op;  ///< "run", "sweep", "stats", "metrics", or "shutdown"
  /// The text of the first "config" member's value (config_from_json reads
  /// it).
  std::string_view config;
  /// The text of the first "axes" member's value.
  std::string_view axes;
};

/// Parses one request line in one pass over a JsonCursor, with no tree:
/// the whole line's JSON syntax is checked first, and a syntax error throws
/// std::runtime_error naming its offset. Then it throws std::runtime_error
/// for a line that is not an object, a missing or non-string "op", or an op
/// outside the five known ones. The first "op", "config" and "axes" members
/// count; later ones and unknown members are only checked for syntax.
Request parse_request(std::string_view line);

/// {"ok":false,"error":<message>,"retry":<retry>} — `retry` tells clients
/// whether the same request can succeed later (true for backpressure,
/// false for malformed requests).
std::string error_response(const std::string& message, bool retry);

/// The admission-control rejection: error_response("overloaded", true).
std::string overloaded_response();

}  // namespace bsr::serve
