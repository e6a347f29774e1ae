#include "common/cli.hpp"

// <iostream> is deliberately avoided library-wide: its ios_base::Init adds
// ~0.5 ms of static-initialization startup to every linking binary (see
// common/stdio_stream.hpp).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/stdio_stream.hpp"

namespace bsr {

Cli& Cli::add_spec(const std::string& name, Spec spec) {
  for (const auto& [existing, unused] : specs_) {
    (void)unused;
    if (existing == name) {
      throw std::logic_error("Cli: flag --" + name + " registered twice");
    }
  }
  specs_.emplace_back(name, std::move(spec));
  return *this;
}

Cli& Cli::arg_int(const std::string& name, std::int64_t def,
                  const std::string& help) {
  return add_spec(name, Spec{"<int>", std::to_string(def), help, true});
}

Cli& Cli::arg_double(const std::string& name, double def,
                     const std::string& help) {
  // Shortest string that round-trips exactly, so the help text stays
  // readable ("0.25") while get() and get_double() both see the true value.
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, def);
    if (std::stod(buf) == def) break;
  }
  return add_spec(name, Spec{"<float>", buf, help, true, def});
}

Cli& Cli::arg_string(const std::string& name, const std::string& def,
                     const std::string& help) {
  return add_spec(name, Spec{"<string>", def, help, true});
}

Cli& Cli::arg_flag(const std::string& name, const std::string& help) {
  return add_spec(name, Spec{"", "0", help, false});
}

bool Cli::parse(int argc, char** argv) {
  return parse(argc, argv, stdout_stream());
}

bool Cli::parse_or_exit(int argc, char** argv) {
  try {
    return parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

bool Cli::parse(int argc, char** argv, std::ostream& out) {
  const std::string program = argc > 0 ? argv[0] : "program";
  const auto known = [&](const std::string& name) -> const Spec* {
    for (const auto& [n, spec] : specs_) {
      if (n == name) return &spec;
    }
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--benchmark", 0) == 0) continue;
    if (arg == "--help" || arg == "-h") {
      out << help_text(program);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument \"" + arg +
                                  "\"; try --help");
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    const std::string name = eq == std::string::npos ? body : body.substr(0, eq);
    const Spec* spec = known(name);
    if (spec == nullptr) {
      std::string all;
      for (const auto& [n, s] : specs_) {
        (void)s;
        all += all.empty() ? "--" : ", --";
        all += n;
      }
      throw std::invalid_argument(
          "unknown flag --" + name + " (known flags: " +
          (all.empty() ? "none" : all) + "); try --help");
    }
    if (eq != std::string::npos) {
      flags_[name] = body.substr(eq + 1);
    } else if (spec->takes_value) {
      if (i + 1 >= argc ||
          std::string_view(argv[i + 1]).rfind("--", 0) == 0) {
        throw std::invalid_argument("flag --" + name + " expects a " +
                                    spec->value_name + " value; try --help");
      }
      flags_[name] = argv[++i];  // --name value
    } else {
      flags_[name] = "1";  // bare switch
    }
    check_value(name, *spec, flags_[name]);
  }
  return true;
}

void Cli::check_value(const std::string& name, const Spec& spec,
                      const std::string& value) {
  // Typo'd values fail as loudly as typo'd flags: the whole token must
  // parse ("--n 2048O" is an error, not a silently truncated 2048).
  bool ok = true;
  try {
    std::size_t consumed = 0;
    if (spec.value_name == "<int>") {
      (void)std::stoll(value, &consumed);
      ok = consumed == value.size();
    } else if (spec.value_name == "<float>") {
      (void)std::stod(value, &consumed);
      ok = consumed == value.size();
    } else if (!spec.takes_value) {
      // Switches: only recognized boolean spellings ("--verbose=ture" must
      // not silently mean false).
      ok = value == "1" || value == "0" || value == "true" ||
           value == "false" || value == "yes" || value == "no";
    }
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    throw std::invalid_argument(
        "flag --" + name + ": \"" + value + "\" is not a valid " +
        (spec.takes_value ? spec.value_name : "boolean") + " value");
  }
}

std::string Cli::help_text(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [--flag[=value] ...]\n\n";
  std::size_t width = 4;  // "help"
  for (const auto& [name, spec] : specs_) {
    width = std::max(width, name.size() + 1 + spec.value_name.size());
  }
  for (const auto& [name, spec] : specs_) {
    const std::string head =
        name + (spec.value_name.empty() ? "" : "=" + spec.value_name);
    os << "  --" << head << std::string(width - head.size() + 2, ' ')
       << spec.help;
    if (spec.takes_value) os << " [default: " << spec.default_value << "]";
    os << "\n";
  }
  os << "  --help" << std::string(width - 4 + 2, ' ')
     << "show this message and exit\n";
  return os.str();
}

const Cli::Spec& Cli::spec_or_throw(const std::string& name) const {
  for (const auto& [n, spec] : specs_) {
    if (n == name) return spec;
  }
  throw std::logic_error("Cli: flag --" + name +
                         " was never registered; use the (name, default) "
                         "getter or register it first");
}

const Cli::Spec& Cli::spec_of_type(const std::string& name,
                                   const std::string& value_name) const {
  const Spec& spec = spec_or_throw(name);
  if (spec.value_name != value_name) {
    throw std::logic_error(
        "Cli: flag --" + name + " is registered as " +
        (spec.value_name.empty() ? "a switch" : spec.value_name) +
        "; the " + (value_name.empty() ? "switch" : value_name) +
        " getter does not apply");
  }
  return spec;
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string Cli::get(const std::string& name) const {
  return get(name, spec_or_throw(name).default_value);
}

std::int64_t Cli::get_int(const std::string& name) const {
  return get_int(name, std::stoll(spec_of_type(name, "<int>").default_value));
}

double Cli::get_double(const std::string& name) const {
  return get_double(name, spec_of_type(name, "<float>").double_default);
}

bool Cli::get_bool(const std::string& name) const {
  const Spec& spec = spec_of_type(name, "");
  return get_bool(name, spec.default_value == "1");
}

std::string Cli::get(const std::string& name, const std::string& def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : std::stoll(it->second);
}

double Cli::get_double(const std::string& name, double def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? def : std::stod(it->second);
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return it->second == "1" || it->second == "true" || it->second == "yes";
}

namespace {

/// One loud exit shared by both list parsers.
[[noreturn]] void bad_list_token(const std::string& flag,
                                 const std::string& token,
                                 const std::string& what,
                                 const std::string& example) {
  std::fprintf(stderr, "error: --%s: \"%s\" is not %s (expected e.g. --%s %s)\n",
               flag.c_str(), token.c_str(), what.c_str(), flag.c_str(),
               example.c_str());
  std::exit(2);
}

/// Splits on commas and converts each token with `convert` (which returns
/// false on a malformed or out-of-range token). Empty lists are rejected.
template <typename T, typename Convert>
std::vector<T> parse_list_or_exit(const std::string& flag,
                                  const std::string& csv,
                                  const std::string& what,
                                  const std::string& example,
                                  Convert convert) {
  std::vector<T> out;
  std::string cur;
  for (const char ch : csv + ",") {
    if (ch != ',') {
      cur += ch;
      continue;
    }
    if (cur.empty()) continue;
    T value{};
    if (!convert(cur, value)) bad_list_token(flag, cur, what, example);
    out.push_back(value);
    cur.clear();
  }
  if (out.empty()) bad_list_token(flag, csv, what, example);
  return out;
}

}  // namespace

std::vector<double> parse_double_list_or_exit(const std::string& flag,
                                              const std::string& csv,
                                              double min_value,
                                              const std::string& what,
                                              const std::string& example) {
  return parse_list_or_exit<double>(
      flag, csv, what, example,
      [min_value](const std::string& token, double& value) {
        try {
          std::size_t used = 0;
          value = std::stod(token, &used);
          if (used != token.size()) return false;
        } catch (const std::exception&) {
          return false;
        }
        // NaN compares false against everything, so reject non-finite
        // explicitly rather than letting it slip past the bound check.
        return std::isfinite(value) && value >= min_value;
      });
}

std::vector<long long> parse_int_list_or_exit(const std::string& flag,
                                              const std::string& csv,
                                              long long min_value,
                                              long long max_value,
                                              const std::string& what,
                                              const std::string& example) {
  return parse_list_or_exit<long long>(
      flag, csv, what, example,
      [min_value, max_value](const std::string& token, long long& value) {
        try {
          std::size_t used = 0;
          value = std::stoll(token, &used);
          if (used != token.size()) return false;
        } catch (const std::exception&) {
          return false;
        }
        return value >= min_value && value <= max_value;
      });
}

std::vector<std::string> parse_string_list_or_exit(const std::string& flag,
                                                   const std::string& csv,
                                                   const std::string& what,
                                                   const std::string& example) {
  return parse_list_or_exit<std::string>(
      flag, csv, what, example,
      [](const std::string& token, std::string& value) {
        value = token;
        return true;  // the splitter already skips empty tokens
      });
}

long long int_flag_in_range_or_exit(const Cli& cli, const std::string& flag,
                                    long long min_value, long long max_value) {
  const long long value = cli.get_int(flag);
  if (value < min_value || value > max_value) {
    std::fprintf(stderr,
                 "error: --%s: %lld is out of range (expected %lld..%lld)\n",
                 flag.c_str(), value, min_value, max_value);
    std::exit(2);
  }
  return value;
}

long long positive_int_or_exit(const Cli& cli, const std::string& flag,
                               long long max_value) {
  return int_flag_in_range_or_exit(cli, flag, 1, max_value);
}

}  // namespace bsr
