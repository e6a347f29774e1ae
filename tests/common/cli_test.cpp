#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace bsr {
namespace {

struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    storage.insert(storage.begin(), "prog");
    for (auto& s : storage) argv.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(argv.size()); }
  char** data() { return argv.data(); }

  std::vector<std::string> storage;
  std::vector<char*> argv;
};

Cli registered_cli() {
  Cli cli;
  cli.arg_int("n", 30720, "matrix order")
      .arg_double("r", 0.25, "reclamation ratio")
      .arg_string("fact", "lu", "factorization name")
      .arg_flag("verbose", "chatty output");
  return cli;
}

TEST(Cli, RegisteredDefaultsAndOverrides) {
  Cli cli = registered_cli();
  Argv argv({"--n=4096", "--fact", "qr", "--verbose"});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_EQ(cli.get_int("n"), 4096);          // overridden, =value form
  EXPECT_EQ(cli.get("fact"), "qr");           // overridden, space form
  EXPECT_TRUE(cli.get_bool("verbose"));       // bare switch
  EXPECT_DOUBLE_EQ(cli.get_double("r"), 0.25);  // registered default
}

TEST(Cli, ParsesKeyValue) {
  Cli cli = registered_cli();
  cli.arg_string("trace", "", "trace output path");
  Argv argv({"--n=4096", "--fact=lu", "--trace=run=1.json"});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_EQ(cli.get_int("n"), 4096);
  EXPECT_EQ(cli.get("n"), "4096");  // the string getter sees the raw token
  EXPECT_EQ(cli.get("fact"), "lu");
  // Only the first '=' separates name from value.
  EXPECT_EQ(cli.get("trace"), "run=1.json");
}

TEST(Cli, BareFlagIsTrue) {
  Cli cli = registered_cli();
  Argv argv({"--verbose", "--n=8"});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_EQ(cli.get("verbose"), "1");
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get_int("n"), 8);
  // A switch never consumes the next bare token: it is a positional.
  Cli greedy = registered_cli();
  Argv trailing({"--verbose", "true"});
  EXPECT_THROW((void)greedy.parse(trailing.argc(), trailing.data()),
               std::invalid_argument);
}

TEST(Cli, DefaultsWhenMissing) {
  // Benches and the trace/version helpers read registered flags through the
  // (name, default) getters: an absent flag yields the explicit default, not
  // the registered one, and a given flag yields its value.
  Cli cli = registered_cli();
  cli.arg_string("faults", "poisson", "fault preset");
  Argv argv({"--r=0.15", "--fact=cholesky"});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_EQ(cli.get("faults", ""), "");
  EXPECT_FALSE(cli.get_bool("verbose", false));
  EXPECT_TRUE(cli.get_bool("verbose", true));
  EXPECT_FALSE(cli.has("n"));
  EXPECT_DOUBLE_EQ(cli.get_double("r", 0.0), 0.15);
  EXPECT_EQ(cli.get("fact", ""), "cholesky");
  EXPECT_TRUE(cli.has("r"));
}

TEST(Cli, ParsesDouble) {
  Cli cli;
  cli.arg_double("r", 0.0, "ratio")
      .arg_double("fc", 0.0, "coverage")
      .arg_double("drift", 0.0, "drift")
      .arg_double("scale", 0.0, "scale");
  Argv argv({"--r=0.15", "--fc", "0.9999995", "--drift=1e-3", "--scale=2"});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_DOUBLE_EQ(cli.get_double("r"), 0.15);
  EXPECT_DOUBLE_EQ(cli.get_double("fc"), 0.9999995);
  EXPECT_DOUBLE_EQ(cli.get_double("drift"), 0.001);  // exponent form
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 2.0);    // integer spelling
  EXPECT_DOUBLE_EQ(cli.get_double("r", 0.0), 0.15);
}

TEST(Cli, BoolVariants) {
  Cli cli;
  cli.arg_flag("a", "").arg_flag("b", "").arg_flag("c", "").arg_flag("d", "");
  cli.arg_flag("e", "").arg_flag("f", "");
  Argv argv({"--a=true", "--b=0", "--c=yes", "--d", "--e=no", "--f=1"});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_TRUE(cli.get_bool("a"));
  EXPECT_FALSE(cli.get_bool("b"));
  EXPECT_TRUE(cli.get_bool("c"));
  EXPECT_TRUE(cli.get_bool("d"));  // bare switch
  EXPECT_TRUE(cli.has("d"));
  EXPECT_FALSE(cli.get_bool("e"));
  EXPECT_TRUE(cli.get_bool("f"));
  // The explicit-default getters read the same spellings.
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("e", true));
}

TEST(Cli, RejectsPositional) {
  // Anywhere on the line, and a single-dash flag is a positional too (only
  // -h is special); the message names the token and points at --help.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--n=8", "lu"}, {"--n", "8", "extra", "--verbose"}, {"-n"}}) {
    Cli cli = registered_cli();
    Argv argv(args);
    try {
      (void)cli.parse(argv.argc(), argv.data());
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("positional"), std::string::npos) << what;
      EXPECT_NE(what.find("--help"), std::string::npos) << what;
    }
  }
}

TEST(Cli, IgnoresBenchmarkFlags) {
  // Google Benchmark's own switches (bare and =value) may sit anywhere on a
  // bench's command line; they are skipped, never stored, and do not disturb
  // a space-separated value that follows them.
  Cli cli = registered_cli();
  Argv argv({"--benchmark_list_tests", "--n", "8",
             "--benchmark_min_time=0.01s", "--fact=qr"});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_EQ(cli.get_int("n"), 8);
  EXPECT_EQ(cli.get("fact"), "qr");
  EXPECT_FALSE(cli.has("benchmark_list_tests"));
  EXPECT_FALSE(cli.has("benchmark_min_time"));
}

TEST(Cli, UnknownFlagFailsLoudlyListingKnownFlags) {
  Cli cli = registered_cli();
  Argv argv({"--nn=4096"});  // the typo the old parser silently swallowed
  try {
    (void)cli.parse(argv.argc(), argv.data());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--nn"), std::string::npos) << what;
    for (const char* known : {"--n", "--r", "--fact", "--verbose"}) {
      EXPECT_NE(what.find(known), std::string::npos) << what;
    }
    EXPECT_NE(what.find("--help"), std::string::npos) << what;
  }
}

TEST(Cli, HelpIsAutoGeneratedFromRegistrations) {
  Cli cli = registered_cli();
  Argv argv({"--help"});
  std::ostringstream out;
  EXPECT_FALSE(cli.parse(argv.argc(), argv.data(), out));  // caller exits 0
  const std::string help = out.str();
  EXPECT_NE(help.find("usage:"), std::string::npos) << help;
  EXPECT_NE(help.find("--n=<int>"), std::string::npos) << help;
  EXPECT_NE(help.find("matrix order"), std::string::npos) << help;
  EXPECT_NE(help.find("[default: 30720]"), std::string::npos) << help;
  EXPECT_NE(help.find("--fact=<string>"), std::string::npos) << help;
  EXPECT_NE(help.find("--verbose"), std::string::npos) << help;
  EXPECT_NE(help.find("--help"), std::string::npos) << help;
}

TEST(Cli, RegistrationModeStillRejectsPositionals) {
  Cli cli = registered_cli();
  Argv argv({"positional"});
  EXPECT_THROW((void)cli.parse(argv.argc(), argv.data()),
               std::invalid_argument);
}

TEST(Cli, UnregisteredGetterIsAProgrammingError) {
  Cli cli = registered_cli();
  Argv argv({});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_THROW((void)cli.get_int("never_registered"), std::logic_error);
  EXPECT_THROW(cli.arg_int("n", 1, "dup registration"), std::logic_error);
}

TEST(Cli, ValueFlagWithoutValueFailsLoudly) {
  Cli cli = registered_cli();
  Argv trailing({"--n"});
  EXPECT_THROW((void)cli.parse(trailing.argc(), trailing.data()),
               std::invalid_argument);
  Cli cli2 = registered_cli();
  Argv followed({"--n", "--verbose"});  // next token is a flag, not a value
  EXPECT_THROW((void)cli2.parse(followed.argc(), followed.data()),
               std::invalid_argument);
}

TEST(Cli, GarbageNumericValuesFailLoudly) {
  const auto expect_rejected = [](std::vector<std::string> args) {
    Cli cli = registered_cli();
    Argv argv(std::move(args));
    try {
      (void)cli.parse(argv.argc(), argv.data());
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--"), std::string::npos);
    }
  };
  expect_rejected({"--n=2048O"});  // trailing typo, not silently 2048
  expect_rejected({"--n=abc"});
  expect_rejected({"--r=0.5x"});
  Cli ok = registered_cli();
  Argv argv({"--n=2048", "--r=0.5"});
  EXPECT_TRUE(ok.parse(argv.argc(), argv.data()));
}

TEST(Cli, DoubleDefaultIsExact) {
  Cli cli;
  cli.arg_double("fc", 0.9999995, "coverage target").arg_double("r", 0.25, "");
  Argv argv({});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_DOUBLE_EQ(cli.get_double("fc"), 0.9999995);  // not rounded via text
  // The string form and help text carry the exact (shortest round-trip)
  // value too, without uglifying short defaults.
  EXPECT_EQ(cli.get("fc"), "0.9999995");
  EXPECT_EQ(cli.get("r"), "0.25");
  EXPECT_NE(cli.help_text("p").find("[default: 0.9999995]"), std::string::npos);
}

TEST(Cli, SwitchValueTyposFailLoudly) {
  Cli cli = registered_cli();
  Argv argv({"--verbose=ture"});  // must not silently mean false
  EXPECT_THROW((void)cli.parse(argv.argc(), argv.data()),
               std::invalid_argument);
  Cli ok = registered_cli();
  Argv argv2({"--verbose=false"});
  ASSERT_TRUE(ok.parse(argv2.argc(), argv2.data()));
  EXPECT_FALSE(ok.get_bool("verbose"));
}

TEST(Cli, SpaceSeparatedNegativeValues) {
  Cli cli;
  cli.arg_double("r", 0.0, "ratio");
  Argv argv({"--r", "-0.5"});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_DOUBLE_EQ(cli.get_double("r"), -0.5);
}

TEST(Cli, BenchmarkFlagsPassThroughInRegistrationMode) {
  Cli cli = registered_cli();
  Argv argv({"--benchmark_filter=.*", "--n=8"});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_EQ(cli.get_int("n"), 8);
  EXPECT_FALSE(cli.has("benchmark_filter"));
}

TEST(CliHelpers, PositiveIntInRangePassesThrough) {
  Cli cli;
  cli.arg_int("trials", 20, "trial count");
  Argv argv({"--trials", "7"});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_EQ(positive_int_or_exit(cli, "trials"), 7);
  EXPECT_EQ(int_flag_in_range_or_exit(cli, "trials", 0, 100), 7);
}

TEST(CliHelpers, DefaultValueAlsoGoesThroughTheBoundsCheck) {
  Cli cli;
  cli.arg_int("workers", 4, "worker count");
  Argv argv({});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_EQ(positive_int_or_exit(cli, "workers", 256), 4);
}

using CliHelpersDeath = ::testing::Test;

TEST(CliHelpersDeath, ZeroTrialsExitsTwoWithRangeMessage) {
  Cli cli;
  cli.arg_int("trials", 20, "trial count");
  Argv argv({"--trials=0"});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_EXIT((void)positive_int_or_exit(cli, "trials"),
              ::testing::ExitedWithCode(2),
              "error: --trials: 0 is out of range \\(expected 1\\.\\.");
}

TEST(CliHelpersDeath, NegativeAndOverflowingValuesExitTwo) {
  Cli cli;
  cli.arg_int("threads", 1, "sweep threads").arg_int("port", 0, "tcp port");
  Argv argv({"--threads=-3", "--port=70000"});
  ASSERT_TRUE(cli.parse(argv.argc(), argv.data()));
  EXPECT_EXIT((void)positive_int_or_exit(cli, "threads"),
              ::testing::ExitedWithCode(2), "out of range");
  EXPECT_EXIT((void)int_flag_in_range_or_exit(cli, "port", 0, 65535),
              ::testing::ExitedWithCode(2),
              "error: --port: 70000 is out of range \\(expected 0\\.\\.65535\\)");
}

}  // namespace
}  // namespace bsr
