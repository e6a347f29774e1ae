// Numbers appended to a caller's buffer with std::to_chars: no locale and
// no temporary string. The JSON writer and RunConfig::fingerprint() build
// their text with these.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace bsr {

/// Appends std::to_chars(v, format...) to `out`: an integer's decimal digits
/// (what std::to_string writes) or a double's shortest round-trip form.
/// Appends "0" if it does not fit 40 bytes, which no integer or double needs.
template <typename T, typename... Format>
void append_chars(std::string& out, T v, Format... format) {
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v, format...);
  if (ec != std::errc()) {
    out += '0';
    return;
  }
  out.append(buf, ptr);
}

/// Appends `key` and then `v` in the spelling of a fingerprint field: a bool
/// as 0 or 1, an integer in decimal and a double as printf's "%.17g" writes
/// it (std::to_chars in general format with precision 17 is specified as
/// that conversion, "inf" and "nan" included).
template <typename T>
void append_field(std::string& out, std::string_view key, T v) {
  out += key;
  if constexpr (std::is_same_v<T, bool>) {
    out += v ? '1' : '0';
  } else if constexpr (std::is_floating_point_v<T>) {
    append_chars(out, v, std::chars_format::general, 17);
  } else {
    append_chars(out, v);
  }
}

}  // namespace bsr
