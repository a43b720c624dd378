// The one JSON string escaper and number formatter, shared by the
// metrics, SLO, profile and bench-record writers.
#pragma once

#include <string>
#include <string_view>

namespace basrpt {

/// `s` escaped for use between the quotes of a JSON string: `"` and `\`
/// are backslash-escaped, newline, tab and carriage return take their
/// short forms, and any other control character becomes `\u00XX`.
/// Everything else, UTF-8 included, passes through unchanged.
std::string json_escape(std::string_view s);

/// `v` as a JSON number: integers below 9e15 in magnitude print with no
/// fractional part (`%.0f`), every other finite value with `%.17g` so it
/// round-trips, and a non-finite value as `null`.
std::string json_number(double v);

}  // namespace basrpt
