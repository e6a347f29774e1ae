#include "serve/protocol.hpp"

#include <stdexcept>

#include "common/json.hpp"

namespace bsr::serve {

Request parse_request(std::string_view line) {
  Request req;
  JsonCursor c(line);
  const bool object = c.peek() == '{';
  bool has_op = false;
  bool op_is_string = false;
  // The text of the value at the cursor, which is read past it.
  const auto span = [&] {
    const std::size_t from = c.offset();
    c.skip();
    return line.substr(from, c.offset() - from);
  };
  if (!object) {
    c.skip();
  } else if (c.begin_object()) {
    do {
      const std::string_view key = c.key();
      if (key == "op" && !has_op) {
        has_op = true;
        op_is_string = c.peek() == '"';
        if (op_is_string) {
          req.op = c.token().as_string();
        } else {
          c.skip();
        }
      } else if (key == "config" && req.config.empty()) {
        req.config = span();
      } else if (key == "axes" && req.axes.empty()) {
        req.axes = span();
      } else {
        c.skip();
      }
    } while (c.next_member());
  }
  c.finish();

  if (!object) throw std::runtime_error("request must be a JSON object");
  if (!op_is_string) {
    throw std::runtime_error("request needs a string \"op\" field");
  }
  if (req.op != "run" && req.op != "sweep" && req.op != "stats" &&
      req.op != "metrics" && req.op != "shutdown") {
    throw std::runtime_error(
        "unknown op \"" + req.op +
        "\" (known ops: run, sweep, stats, metrics, shutdown)");
  }
  return req;
}

std::string error_response(const std::string& message, bool retry) {
  JsonWriter w;
  w.obj_open();
  w.key("ok").value(false);
  w.key("error").value(message);
  w.key("retry").value(retry);
  w.obj_close();
  return w.take();
}

std::string overloaded_response() { return error_response("overloaded", true); }

}  // namespace bsr::serve
