// RunReport and RunConfig <-> JSON, the serialization layer of the serving
// subsystem (bsr/serve.hpp): the durable result store persists reports as
// JSON records, and the wire protocol carries configs in and reports out.
//
// The contract the store and the daemon build on: serialize_report() is
// deterministic, and deserialize_report() restores every field it wrote
// exactly (a report's config is echoed as the paper's per-run knobs only;
// see RunReport::config), so
//
//   serialize_report(deserialize_report(s)) == s
//
// for any s this module wrote — byte-identity of a warm (store-served)
// response with the cold run that produced it reduces to this fixpoint,
// which tests/serve/report_json_test.cpp asserts on fully populated
// reports. Doubles are written in shortest-exact form (common/json.hpp),
// SimTime as integer nanoseconds, and uint64 seeds as quoted decimal
// strings (they can exceed the int64 range JSON numbers round-trip safely).
//
// Each wire struct (RunConfig, its variability and faults blocks, and every
// report struct) has one field list, and a field's wire name lives there
// and nowhere else: config_fields.hpp holds the config's lists and
// report_json.cpp the report's. The writer, the strict report reader and
// the lenient request reader (config_json.cpp) are all generated from them,
// each reading straight from the text over a JsonCursor, with the member's
// C++ type picking its codec. Only the report's frozen "options" echo has a
// hand-written list. A new RunConfig field therefore needs one line in
// RunConfig's list, plus its checks in RunConfig::validate() and its
// spelling in RunConfig::fingerprint();
// ConfigJson.EverySerializedFieldReachesTheFingerprint fails until the
// fingerprint line exists.
#pragma once

#include <string>
#include <string_view>

#include "bsr/run_config.hpp"
#include "common/json.hpp"
#include "core/report.hpp"

namespace bsr::serve {

/// Deterministic compact JSON for one report (the config echo, the full
/// iteration trace, device_usage, lane_faults, and every other field). The
/// string's capacity is its size: callers that keep reports, such as the
/// daemon's result table, hold no spare bytes.
std::string serialize_report(const core::RunReport& report);

/// Rebuilds a report from serialize_report() output, reading the text once
/// with no tree in between. Throws std::runtime_error ("json: ..." or
/// "report_json: ...") on malformed or schema-incompatible input — callers
/// at the store boundary catch and treat it as a miss.
core::RunReport deserialize_report(const std::string& json);

/// deserialize_report() of the value at `cursor`, which is left just past
/// it: how a store record's report is read in place.
core::RunReport read_report(JsonCursor& cursor);

/// Deterministic compact JSON for one RunConfig, inverse of
/// config_from_json (field names match the RunConfig members).
std::string serialize_config(const RunConfig& config);

/// Builds a RunConfig from the text of a request's "config" object, read
/// once with no tree in between. Every member is optional — absent fields
/// keep their RunConfig defaults — but unknown keys throw (a typo'd knob
/// must not silently run the default experiment), and a repeated key's last
/// value wins. Errors come in member order, so text whose syntax is already
/// checked (serve/protocol.hpp's spans) throws exactly what a tree reader
/// would. The result is NOT validated; callers run cfg.validate() so
/// registry-key errors surface with RunConfig's own messages.
RunConfig config_from_json(std::string_view text);

/// config_from_json() of a parsed config object's text (value.dump()).
RunConfig config_from_json(const JsonValue& value);

}  // namespace bsr::serve
