#include "serve/client.hpp"

#include <stdexcept>
#include <utility>

namespace bsr::serve {

Client Client::connect_unix_socket(const std::string& path) {
  return Client(connect_unix(path));
}

Client Client::connect_tcp(std::uint16_t port) {
  return Client(connect_tcp_localhost(port));
}

std::string Client::call_raw(const std::string& request_json) {
  socket_.send_all({request_json, "\n"});
  std::optional<std::string> line = reader_.read_line();
  if (!line.has_value()) {
    throw std::runtime_error("serve: daemon closed the connection");
  }
  return *std::move(line);
}

JsonValue Client::call(const std::string& request_json) {
  return JsonValue::parse(call_raw(request_json));
}

JsonValue Client::run(const std::string& config_json) {
  if (config_json.empty()) return call(R"({"op":"run"})");
  JsonWriter w;
  w.obj_open();
  w.key("op").value("run");
  w.key("config").raw(config_json);
  w.obj_close();
  return call(w.take());
}

JsonValue Client::stats() { return call(R"({"op":"stats"})"); }

JsonValue Client::shutdown() { return call(R"({"op":"shutdown"})"); }

}  // namespace bsr::serve
