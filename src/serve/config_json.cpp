// The lenient request reader: RunConfig from a request's "config" text, read
// over a JsonCursor with no tree in between (report_json.hpp declares it).

#include <string>
#include <string_view>

#include "serve/config_fields.hpp"
#include "serve/report_json.hpp"

namespace bsr::serve {

namespace {

/// A nested block of the config: a struct with a field list.
template <typename T>
concept Block = requires(const T& s) { fields(s, AnyField{}); };

/// Fills `s` from the object at the cursor. Request configs are hand-written,
/// so an absent key keeps its default, in nested blocks too; but an unknown
/// key throws (`what` names the block), and a repeated key replaces its
/// earlier value. A nested block restarts from its defaults.
template <Block T>
void read_lenient(JsonCursor& c, T& s, std::string_view what) {
  c.token().require(JsonValue::Kind::Object);
  for (bool more = c.begin_object(); more; more = c.next_member()) {
    // The key's view lives until the member's value is read.
    const std::string_view key = c.key();
    bool known = false;
    fields(s, [&](std::string_view k, auto& member) {
      if (known || !same_key(key, k)) return;
      known = true;
      if constexpr (Block<std::remove_reference_t<decltype(member)>>) {
        member = {};
        read_lenient(c, member, k);
      } else {
        get(c.token(), member);
      }
    });
    if (!known) {
      fail("unknown " + std::string(what) + " field \"" + std::string(key) +
           "\"");
    }
  }
}

}  // namespace

RunConfig config_from_json(std::string_view text) {
  JsonCursor c(text);
  RunConfig config;
  read_lenient(c, config, "config");
  c.finish();
  return config;
}

RunConfig config_from_json(const JsonValue& value) {
  return config_from_json(value.dump());
}

}  // namespace bsr::serve
