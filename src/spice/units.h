// SPICE engineering-unit parsing and formatting.
//
// Accepts the classic suffixes (f p n u m k meg g t, case-insensitive,
// trailing unit letters ignored: "10kOhm" == "10k") and renders numbers
// back in engineering notation for reports.
#ifndef ACSTAB_SPICE_UNITS_H
#define ACSTAB_SPICE_UNITS_H

#include <optional>
#include <string>
#include <string_view>

#include "common/types.h"

namespace acstab::spice {

/// Parse a SPICE number such as "2.2u", "10MEG", "1e-9", "4k7" is NOT
/// supported (that is an E-series idiom, not SPICE). Returns nullopt on
/// malformed input. Throws parse_error on a well-formed literal that is
/// not finite ("nan", "inf", or 1e300t overflowing its multiplier): no
/// caller may read it as a number, nor fall back to reading it as a
/// keyword.
[[nodiscard]] std::optional<real> try_parse_spice_number(std::string_view text);

/// Parse or throw acstab::parse_error.
[[nodiscard]] real parse_spice_number(std::string_view text);

/// Format a value in engineering notation, e.g. 3.162e6 -> "3.162M".
/// `digits` controls significant digits.
[[nodiscard]] std::string format_engineering(real value, int digits = 4);

/// Format a frequency with trailing "Hz", e.g. "3.162MHz".
[[nodiscard]] std::string format_frequency(real hertz, int digits = 4);

} // namespace acstab::spice

#endif // ACSTAB_SPICE_UNITS_H
