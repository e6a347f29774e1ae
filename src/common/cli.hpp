// Registered-flag command-line parsing shared by benches and examples.
//
// Drivers declare their flags up front (name, default, help text), then
// parse(): unknown flags fail loudly with the known-flag list instead of
// silently falling back to defaults on a typo, and --help prints usage
// auto-generated from the registrations.
//
//   bsr::Cli cli;
//   cli.arg_int("n", 30720, "matrix order")
//      .arg_double("r", 0.0, "reclamation ratio in [0, 1]");
//   if (!cli.parse_or_exit(argc, argv)) return 0;  // false: --help printed
//   const std::int64_t n = cli.get_int("n");
//
// Both --name=value and --name value are accepted; a bare --name is "1"
// (useful for booleans).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace bsr {

class Cli {
 public:
  /// Declare flags with arg_*(), then call parse().
  Cli() = default;

  // -- registration (chainable) -----------------------------------------------
  Cli& arg_int(const std::string& name, std::int64_t def,
               const std::string& help);
  Cli& arg_double(const std::string& name, double def, const std::string& help);
  Cli& arg_string(const std::string& name, const std::string& def,
                  const std::string& help);
  /// A boolean switch, default false; set with --name or --name=true /
  /// --name=false (switches never consume a following bare token).
  Cli& arg_flag(const std::string& name, const std::string& help);

  /// Parses argv against the registered flags. Returns false when --help (or
  /// -h) was requested — usage has been printed to `out` and the caller
  /// should exit successfully. Throws std::invalid_argument on an unknown
  /// flag (message lists the known flags) or a positional argument.
  /// --benchmark* flags pass through untouched for Google Benchmark binaries.
  bool parse(int argc, char** argv, std::ostream& out);
  bool parse(int argc, char** argv);  // `out` = bsr::stdout_stream()

  /// parse() for driver main()s: user input errors (unknown flag, bad
  /// value, positional) print "error: ..." to stderr and exit(2) instead of
  /// escaping as an exception (which would std::terminate and look like a
  /// crash). Returns false when --help was printed — return 0 from main.
  bool parse_or_exit(int argc, char** argv);

  /// The auto-generated usage text.
  [[nodiscard]] std::string help_text(const std::string& program) const;

  // -- lookup -----------------------------------------------------------------
  [[nodiscard]] bool has(const std::string& name) const;

  /// Registered-flag getters: the default comes from the registration.
  /// Throw std::logic_error when `name` was never registered.
  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Explicit-default getters: `def` (not the registered default) when the
  /// flag was not given on the command line.
  [[nodiscard]] std::string get(const std::string& name, const std::string& def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool def) const;

 private:
  struct Spec {
    std::string value_name;  // "<int>", "<float>", "<string>", "" for switches
    std::string default_value;  // display form (help text) and string getter
    std::string help;
    bool takes_value = true;
    double double_default = 0.0;  // exact value for get_double (the display
                                  // string is rounded for readability)
  };

  Cli& add_spec(const std::string& name, Spec spec);
  [[nodiscard]] const Spec& spec_or_throw(const std::string& name) const;
  [[nodiscard]] const Spec& spec_of_type(const std::string& name,
                                         const std::string& value_name) const;
  static void check_value(const std::string& name, const Spec& spec,
                          const std::string& value);

  std::vector<std::pair<std::string, Spec>> specs_;  // registration order
  std::map<std::string, std::string> flags_;
};

// Shared fail-fast parsers for the benches' comma-separated list flags
// (--devices 1,2,4,8 / --drift 0,0.01,... / --rates 25,75,225). Any empty
// list, malformed token, non-finite value, or value below `min_value`
// prints `error: --<flag>: "<token>" is not <what> (expected e.g. --<flag>
// <example>)` to stderr and exits 2, in Cli::parse_or_exit style.

/// Parses a comma-separated list of doubles for --`flag` (see above).
std::vector<double> parse_double_list_or_exit(const std::string& flag,
                                              const std::string& csv,
                                              double min_value,
                                              const std::string& what,
                                              const std::string& example);
/// Parses a comma-separated list of integers in [min_value, max_value] for
/// --`flag`; tokens must parse fully as base-10 integers, and values beyond
/// the bounds fail loudly rather than truncating later (see above).
std::vector<long long> parse_int_list_or_exit(const std::string& flag,
                                              const std::string& csv,
                                              long long min_value,
                                              long long max_value,
                                              const std::string& what,
                                              const std::string& example);
/// Splits a comma-separated list of non-empty string tokens for --`flag`
/// (no conversion); an empty list exits like the numeric parsers.
std::vector<std::string> parse_string_list_or_exit(const std::string& flag,
                                                   const std::string& csv,
                                                   const std::string& what,
                                                   const std::string& example);

// Bounds-checked scalar flag readers, the single-value counterpart of the
// list parsers above. Benches and daemons read counted flags (--trials,
// --workers, --queue-depth, --port) through these instead of hand-rolled
// `if (x < 1)` checks, so every driver rejects bad input the same way:
// `error: --<flag>: <value> is out of range (expected <min>..<max>)` to
// stderr, exit 2.

/// Reads the registered <int> flag --`flag` from `cli` and checks
/// min_value <= value <= max_value; out-of-range exits loudly (see above).
long long int_flag_in_range_or_exit(const Cli& cli, const std::string& flag,
                                    long long min_value, long long max_value);

/// int_flag_in_range_or_exit with min_value 1 — the common shape for count
/// flags that must be strictly positive.
long long positive_int_or_exit(const Cli& cli, const std::string& flag,
                               long long max_value = 1000000000);

}  // namespace bsr
