// The JSON string escaper shared by the hand-rolled emitters of stats,
// results, service replies and request documents.
#pragma once

#include <string>

namespace dscoh {

/// Escapes @p s for embedding in a JSON string literal: quote, backslash,
/// \n and \t get their short forms, other control bytes become \u00XX.
std::string jsonEscape(const std::string& s);

} // namespace dscoh
