#include "spice/units.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.h"

namespace acstab::spice {

namespace {

    [[nodiscard]] char lower(char c) noexcept
    {
        return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }

} // namespace

std::optional<real> try_parse_spice_number(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    // std::from_chars, not strtod: strtod honors LC_NUMERIC, so under a
    // comma-decimal locale every "1.5k" in a netlist would silently parse
    // as 1.5 -> 1 * 1000. from_chars is locale-independent by contract.
    std::string_view body = text;
    // from_chars rejects an explicit plus sign; accept it like strtod
    // did, but only in front of an actual number so doubled-sign typos
    // ("+-5") still fail instead of silently parsing as negative.
    if (body.front() == '+' && body.size() > 1
        && (body[1] == '.' || (body[1] >= '0' && body[1] <= '9')))
        body.remove_prefix(1);
    double value = 0.0;
    const std::from_chars_result r
        = std::from_chars(body.data(), body.data() + body.size(), value);
    if (r.ec != std::errc{} || r.ptr == body.data())
        return std::nullopt;

    std::string_view tail = body.substr(static_cast<std::size_t>(r.ptr - body.data()));

    // Multiplier suffix; everything after it must be letters (unit names).
    double scale = 1.0;
    std::size_t consumed = 0;
    const char c0 = tail.empty() ? '\0' : lower(tail[0]);
    if (tail.size() >= 3 && c0 == 'm' && lower(tail[1]) == 'e' && lower(tail[2]) == 'g') {
        scale = 1e6;
        consumed = 3;
    } else {
        consumed = 1;
        switch (c0) {
        case 't': scale = 1e12; break;
        case 'g': scale = 1e9; break;
        case 'k': scale = 1e3; break;
        case 'm': scale = 1e-3; break;
        case 'u': scale = 1e-6; break;
        case 'n': scale = 1e-9; break;
        case 'p': scale = 1e-12; break;
        case 'f': scale = 1e-15; break;
        default:
            consumed = 0;
            break;
        }
    }
    for (std::size_t i = consumed; i < tail.size(); ++i)
        if (!std::isalpha(static_cast<unsigned char>(tail[i])))
            return std::nullopt;
    // Only a whole well-formed token is a number ("inf_gain" stays a
    // name), but from_chars also reads "nan" and "inf", and a suffix can
    // overflow (1e300t): a netlist value must be finite.
    if (!std::isfinite(value * scale))
        throw parse_error("non-finite number '" + std::string(text) + "'");
    return value * scale;
}

real parse_spice_number(std::string_view text)
{
    const auto parsed = try_parse_spice_number(text);
    if (!parsed)
        throw parse_error("bad number '" + std::string(text) + "'");
    return *parsed;
}

std::string format_engineering(real value, int digits)
{
    if (value == 0.0)
        return "0";
    if (!std::isfinite(value))
        return value > 0.0 ? "inf" : (value < 0.0 ? "-inf" : "nan");

    static constexpr struct {
        real scale;
        const char* suffix;
    } bands[] = {
        {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1.0, ""},
        {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
    };

    const real mag = std::fabs(value);
    for (const auto& band : bands) {
        if (mag >= band.scale * 0.9999999 || (&band == &bands[std::size(bands) - 1])) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.*g%s", digits, value / band.scale, band.suffix);
            return buf;
        }
    }
    return std::to_string(value);
}

std::string format_frequency(real hertz, int digits)
{
    return format_engineering(hertz, digits) + "Hz";
}

} // namespace acstab::spice
