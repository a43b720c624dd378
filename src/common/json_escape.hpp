// The one JSON string escaper, shared by the metrics, SLO and profile
// writers.
#pragma once

#include <string>
#include <string_view>

namespace basrpt {

/// `s` escaped for use between the quotes of a JSON string: `"` and `\`
/// are backslash-escaped, newline, tab and carriage return take their
/// short forms, and any other control character becomes `\u00XX`.
/// Everything else, UTF-8 included, passes through unchanged.
std::string json_escape(std::string_view s);

}  // namespace basrpt
