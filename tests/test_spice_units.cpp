// SPICE number parsing and engineering formatting.
#include <gtest/gtest.h>

#include <clocale>

#include "common/error.h"
#include "spice/units.h"

namespace {

using namespace acstab;
using namespace acstab::spice;

TEST(units, plain_numbers)
{
    EXPECT_DOUBLE_EQ(parse_spice_number("42"), 42.0);
    EXPECT_DOUBLE_EQ(parse_spice_number("-3.5"), -3.5);
    EXPECT_DOUBLE_EQ(parse_spice_number("1e-9"), 1e-9);
    EXPECT_DOUBLE_EQ(parse_spice_number("2.5E6"), 2.5e6);
}

TEST(units, suffixes)
{
    EXPECT_DOUBLE_EQ(parse_spice_number("1k"), 1e3);
    EXPECT_DOUBLE_EQ(parse_spice_number("2.2u"), 2.2e-6);
    EXPECT_DOUBLE_EQ(parse_spice_number("10MEG"), 10e6);
    EXPECT_DOUBLE_EQ(parse_spice_number("10meg"), 10e6);
    EXPECT_DOUBLE_EQ(parse_spice_number("3m"), 3e-3);
    EXPECT_DOUBLE_EQ(parse_spice_number("5n"), 5e-9);
    EXPECT_DOUBLE_EQ(parse_spice_number("7p"), 7e-12);
    EXPECT_DOUBLE_EQ(parse_spice_number("1f"), 1e-15);
    EXPECT_DOUBLE_EQ(parse_spice_number("4G"), 4e9);
    EXPECT_DOUBLE_EQ(parse_spice_number("1T"), 1e12);
}

TEST(units, trailing_unit_names_ignored)
{
    EXPECT_DOUBLE_EQ(parse_spice_number("10kOhm"), 10e3);
    EXPECT_DOUBLE_EQ(parse_spice_number("5pF"), 5e-12);
    EXPECT_DOUBLE_EQ(parse_spice_number("3V"), 3.0);
    EXPECT_DOUBLE_EQ(parse_spice_number("2.5uA"), 2.5e-6);
}

TEST(units, parsing_is_locale_independent)
{
    // Under a comma-decimal locale, strtod-based parsing stops at the
    // '.' and silently truncates "1.5k" to 1 * 1000; the parser must be
    // immune to whatever LC_NUMERIC the host process runs with.
    const char* comma_locales[] = {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8", "fr_FR",
                                   "nl_NL.UTF-8", "C.UTF-8@comma"};
    const char* active = nullptr;
    for (const char* name : comma_locales) {
        if (std::setlocale(LC_NUMERIC, name) != nullptr
            && std::string(std::localeconv()->decimal_point) == ",") {
            active = name;
            break;
        }
    }
    if (active == nullptr)
        GTEST_SKIP() << "no comma-decimal locale installed";

    EXPECT_DOUBLE_EQ(parse_spice_number("1.5k"), 1500.0);
    EXPECT_DOUBLE_EQ(parse_spice_number("-3.5"), -3.5);
    EXPECT_DOUBLE_EQ(parse_spice_number("2.5E6"), 2.5e6);
    EXPECT_DOUBLE_EQ(parse_spice_number("4.7pF"), 4.7e-12);
    std::setlocale(LC_NUMERIC, "C");
}

TEST(units, explicit_plus_sign)
{
    EXPECT_DOUBLE_EQ(parse_spice_number("+5"), 5.0);
    EXPECT_DOUBLE_EQ(parse_spice_number("+.5"), 0.5);
    EXPECT_DOUBLE_EQ(parse_spice_number("+1.5k"), 1500.0);
    EXPECT_FALSE(try_parse_spice_number("+").has_value());
    // Doubled signs stay parse errors; a '+' only precedes a number.
    EXPECT_FALSE(try_parse_spice_number("+-5").has_value());
    EXPECT_FALSE(try_parse_spice_number("++5").has_value());
    EXPECT_FALSE(try_parse_spice_number("+k").has_value());
}

TEST(units, malformed_rejected)
{
    EXPECT_FALSE(try_parse_spice_number("").has_value());
    EXPECT_FALSE(try_parse_spice_number("abc").has_value());
    EXPECT_FALSE(try_parse_spice_number("1.2.3").has_value());
    EXPECT_FALSE(try_parse_spice_number("3k9").has_value());
    EXPECT_THROW((void)parse_spice_number("oops"), parse_error);
}

TEST(units, non_finite_literals_rejected)
{
    // from_chars reads these; a netlist value must never carry them.
    for (const char* text : {"nan", "NaN", "inf", "-inf", "infinity"})
        EXPECT_THROW((void)try_parse_spice_number(text), parse_error) << text;
    EXPECT_FALSE(try_parse_spice_number("+inf").has_value()); // '+' only before digits
    EXPECT_THROW((void)try_parse_spice_number("1e300t"), parse_error); // overflows
    EXPECT_FALSE(try_parse_spice_number("1e999").has_value());         // out of range
    EXPECT_DOUBLE_EQ(*try_parse_spice_number("1e300"), 1e300);
    // A name that merely begins with a non-finite literal is not a number.
    for (const char* text : {"inf_gain", "inf2", "nan_1"})
        EXPECT_FALSE(try_parse_spice_number(text).has_value()) << text;
}

TEST(units, engineering_format)
{
    EXPECT_EQ(format_engineering(0.0), "0");
    EXPECT_EQ(format_engineering(1e3), "1k");
    EXPECT_EQ(format_engineering(3.162e6), "3.162M");
    EXPECT_EQ(format_engineering(-2.5e-9), "-2.5n");
    EXPECT_EQ(format_engineering(4.7e-12), "4.7p");
    EXPECT_EQ(format_frequency(3.16e6), "3.16MHz");
    EXPECT_EQ(format_frequency(50e6, 3), "50MHz");
}

TEST(units, format_round_trip)
{
    for (const double v : {1.0, 12.5, 999.0, 1.5e3, 2.7e-6, 8.1e9, 3.3e-13}) {
        const std::string s = format_engineering(v, 9);
        EXPECT_NEAR(parse_spice_number(s), v, std::abs(v) * 1e-6) << s;
    }
}

} // namespace
