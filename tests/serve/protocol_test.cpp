#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/json.hpp"

namespace bsr::serve {
namespace {

TEST(Protocol, ParsesTheFourOps) {
  EXPECT_EQ(parse_request(R"({"op":"run"})").op, "run");
  EXPECT_EQ(parse_request(R"({"op":"sweep","axes":{}})").op, "sweep");
  EXPECT_EQ(parse_request(R"({"op":"stats"})").op, "stats");
  EXPECT_EQ(parse_request(R"({"op":"shutdown"})").op, "shutdown");
}

TEST(Protocol, SpansCarryTheFirstConfigAndAxesText) {
  const Request req = parse_request(R"({"op":"run","config":{"n":4096}})");
  EXPECT_EQ(req.config, R"({"n":4096})");
  EXPECT_TRUE(req.axes.empty());
  // The first of a repeated member counts, and a span keeps the whitespace
  // before its value.
  const Request sweep = parse_request(
      R"({"axes": {"n":[1]},"op":"sweep","config":{},"axes":{"r":[0]}})");
  EXPECT_EQ(sweep.op, "sweep");
  EXPECT_EQ(sweep.config, "{}");
  EXPECT_EQ(sweep.axes, R"( {"n":[1]})");
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_THROW((void)parse_request("not json"), std::runtime_error);
  EXPECT_THROW((void)parse_request("[1,2]"), std::runtime_error);
  EXPECT_THROW((void)parse_request(R"({"config":{}})"), std::runtime_error);
  EXPECT_THROW((void)parse_request(R"({"op":42})"), std::runtime_error);
  // Nesting past the parser's limit throws instead of overflowing the stack.
  EXPECT_THROW((void)parse_request(std::string(1 << 20, '[')),
               std::runtime_error);
  try {
    (void)parse_request(R"({"op":"launch_missiles"})");
    FAIL() << "expected a protocol error";
  } catch (const std::runtime_error& e) {
    // The error names the known ops so a typo is self-diagnosing.
    EXPECT_NE(std::string(e.what()).find("run, sweep, stats, metrics, shutdown"),
              std::string::npos);
  }
}

TEST(Protocol, ErrorResponsesAreWellFormedJson) {
  const JsonValue v = JsonValue::parse(error_response("bad \"thing\"", false));
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("error").as_string(), "bad \"thing\"");
  EXPECT_FALSE(v.at("retry").as_bool());
}

TEST(Protocol, OverloadedResponseAsksForRetry) {
  const JsonValue v = JsonValue::parse(overloaded_response());
  EXPECT_FALSE(v.at("ok").as_bool());
  EXPECT_EQ(v.at("error").as_string(), "overloaded");
  EXPECT_TRUE(v.at("retry").as_bool());
}

}  // namespace
}  // namespace bsr::serve
