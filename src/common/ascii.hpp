// Locale-independent ASCII case folding, shared by registry key
// normalization and the enum string parsers so they can never drift.
#pragma once

#include <string>

namespace bsr {

inline std::string ascii_lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

}  // namespace bsr
