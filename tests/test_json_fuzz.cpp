// Adversarial / property tests for farm/json.h, the byte-stable JSON
// dialect every farm artifact and serve protocol frame rides on.
//
// The contract under test: for ANY input bytes, parse() either throws
// parse_error or yields a value whose canonical dump is a fixed point —
// dump(parse(dump(parse(x)))) == dump(parse(x)) — and it NEVER crashes,
// overflows the stack, or loops. Inputs include deterministic
// pseudo-random documents, their mutations (truncations, bit flips,
// doubled signs, inserted NULs), deep nesting around the depth limit,
// and the number-grammar edge cases the parser must reject.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "farm/json.h"

namespace {

using namespace acstab;
using farm::json_value;

/// Deterministic 64-bit LCG: the whole suite replays byte-for-byte.
struct lcg {
    std::uint64_t state;
    explicit lcg(std::uint64_t seed) : state(seed) {}
    std::uint64_t next()
    {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 17;
    }
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

[[nodiscard]] double random_double(lcg& r)
{
    switch (r.below(8)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return static_cast<double>(r.next()) / 1e3;
    case 3: return -static_cast<double>(r.below(1000000));
    case 4: return 1e308 * (static_cast<double>(r.below(100)) / 50.0 - 1.0);
    case 5: return 5e-324 * static_cast<double>(r.below(100));
    default: {
        // Raw bit pattern: exercises subnormals, NaN and both infinities
        // (non-finite values dump as the strings "nan"/"inf"/"-inf").
        const std::uint64_t bits = r.next() | (r.next() << 32);
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }
    }
}

[[nodiscard]] std::string random_string(lcg& r)
{
    static const char alphabet[] =
        "abz 019\"\\/\b\f\n\r\t{}[]:,+-.eE\xc3\xa9\xe2\x82\xac";
    std::string s;
    const std::size_t len = r.below(12);
    for (std::size_t i = 0; i < len; ++i) {
        if (r.below(20) == 0)
            s += '\0'; // embedded NUL must round-trip via \u0000
        else
            s += alphabet[r.below(sizeof alphabet - 1)];
    }
    return s;
}

[[nodiscard]] json_value random_value(lcg& r, int depth)
{
    switch (depth <= 0 ? r.below(4) : r.below(6)) {
    case 0: return json_value();
    case 1: return json_value::boolean(r.below(2) == 0);
    case 2: return json_value::number(random_double(r));
    case 3: return json_value::str(random_string(r));
    case 4: {
        json_value arr = json_value::array();
        const std::size_t n = r.below(4);
        for (std::size_t i = 0; i < n; ++i)
            arr.push_back(random_value(r, depth - 1));
        return arr;
    }
    default: {
        json_value obj = json_value::object();
        const std::size_t n = r.below(4);
        for (std::size_t i = 0; i < n; ++i)
            obj.set(random_string(r), random_value(r, depth - 1));
        return obj;
    }
    }
}

/// The property: any bytes either fail to parse (parse_error) or reach a
/// canonical fixed point in one parse+dump. Returns the fixed point for
/// extra checks; nullopt means "rejected", which is always acceptable.
void expect_reject_or_fixed_point(const std::string& bytes)
{
    std::string first;
    try {
        first = json_value::parse(bytes).dump();
    } catch (const parse_error&) {
        return; // rejection is fine; crashing is not
    }
    const std::string second = json_value::parse(first).dump();
    EXPECT_EQ(first, second) << "canonical dump is not a parse fixed point for input: "
                             << bytes.substr(0, 200);
}

// --- generated documents round-trip byte-stably ----------------------------

TEST(json_fuzz, random_documents_round_trip_byte_stably)
{
    lcg r(0x5eedu);
    for (int i = 0; i < 2000; ++i) {
        const json_value v = random_value(r, 3);
        const std::string dumped = v.dump();
        json_value reparsed;
        try {
            reparsed = json_value::parse(dumped);
        } catch (const parse_error& e) {
            FAIL() << "canonical dump failed to parse: " << e.what()
                   << "\ndump: " << dumped.substr(0, 200);
        }
        EXPECT_EQ(reparsed.dump(), dumped);
    }
}

TEST(json_fuzz, mutated_documents_never_crash)
{
    lcg r(0xfacadeu);
    static const char inserts[] = "+-.eE\"\\[]{},:0un\x00\x01\x7f";
    for (int i = 0; i < 500; ++i) {
        std::string bytes = random_value(r, 3).dump();
        for (int m = 0; m < 6; ++m) {
            if (bytes.empty())
                break;
            const std::size_t pos = r.below(bytes.size());
            switch (r.below(5)) {
            case 0: bytes.resize(pos); break;                      // truncate
            case 1: bytes.erase(pos, 1); break;                    // drop byte
            case 2: bytes.insert(pos, 1, bytes[pos]); break;       // double byte
            case 3:                                                // insert token char
                bytes.insert(pos, 1, inserts[r.below(sizeof inserts - 1)]);
                break;
            default:                                               // flip a bit
                bytes[pos] = static_cast<char>(bytes[pos]
                                               ^ (1 << r.below(8)));
                break;
            }
            expect_reject_or_fixed_point(bytes);
        }
    }
}

TEST(json_fuzz, truncated_frames_are_rejected_or_stable_at_every_length)
{
    const std::string doc = "{\"schema\":\"acstab-farm-shard-v1\",\"records\":"
                            "[{\"index\":3,\"f\":[1e4,-2.5e-9],\"s\":\"nan\"}],"
                            "\"n\":-0.125}";
    for (std::size_t len = 0; len <= doc.size(); ++len)
        expect_reject_or_fixed_point(doc.substr(0, len));
}

// --- member scan agrees with the tree ---------------------------------------

/// parse_member() against parse(): the same parse_error text (and so the
/// same offset) on malformed input, otherwise the tree's own member.
void expect_member_scan_matches_tree(const std::string& bytes, const std::string& key)
{
    std::string tree_error;
    std::string tree_member = "<absent>";
    try {
        const json_value tree = json_value::parse(bytes);
        if (const json_value* m = tree.find(key))
            tree_member = m->dump();
    } catch (const parse_error& e) {
        tree_error = e.what();
    }
    std::string scan_error;
    std::string scan_member = "<absent>";
    try {
        if (const std::optional<json_value> m = json_value::parse_member(bytes, key))
            scan_member = m->dump();
    } catch (const parse_error& e) {
        scan_error = e.what();
    }
    EXPECT_EQ(scan_error, tree_error) << "input: " << bytes.substr(0, 200);
    EXPECT_EQ(scan_member, tree_member) << "input: " << bytes.substr(0, 200);
}

TEST(json_fuzz, member_scan_matches_the_tree_on_mutated_records)
{
    lcg r(0x1d3eu);
    static const char inserts[] = "+-.eE\"\\[]{},:0un\x00\x01\x7f";
    for (int i = 0; i < 500; ++i) {
        // A record-like object: its index (plain, escaped or repeated)
        // beside random members, some holding an index of their own.
        json_value rec = json_value::object();
        rec.set("index", json_value::number(static_cast<std::size_t>(r.below(1000))));
        rec.set("a", random_value(r, 3));
        json_value inner = json_value::object();
        inner.set("index", random_value(r, 1));
        rec.set("b", inner);
        std::string bytes = rec.dump();
        if (r.below(4) == 0)
            bytes.insert(bytes.size() - 1, ",\"index\":" + random_value(r, 1).dump());
        if (r.below(4) == 0)
            bytes.replace(2, 1, "\\u0069");
        expect_member_scan_matches_tree(bytes, "index");
        for (int m = 0; m < 6; ++m) {
            if (bytes.empty())
                break;
            const std::size_t pos = r.below(bytes.size());
            switch (r.below(5)) {
            case 0: bytes.resize(pos); break;
            case 1: bytes.erase(pos, 1); break;
            case 2: bytes.insert(pos, 1, bytes[pos]); break;
            case 3: bytes.insert(pos, 1, inserts[r.below(sizeof inserts - 1)]); break;
            default: bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << r.below(8))); break;
            }
            expect_member_scan_matches_tree(bytes, "index");
        }
    }
    // Documents that are no object, or hold the key only deeper down.
    for (const char* doc : {"[1,2]", "7", "\"index\"", "{\"x\":{\"index\":3}}", "{}"})
        expect_member_scan_matches_tree(doc, "index");
}

// --- number grammar edge cases ---------------------------------------------

TEST(json_fuzz, malformed_numbers_are_rejected)
{
    for (const char* bad : {"+5", "+-5", "--5", "-+5", "5..5", "1e", "1e+",
                            "0x10", "1_000", "- 5", "5 5"})
        EXPECT_THROW((void)json_value::parse(bad), parse_error) << bad;
    // The scanner is lenient about a bare leading/trailing dot, but the
    // canonical re-dump must still be a stable fixed point.
    expect_reject_or_fixed_point(".5");
    expect_reject_or_fixed_point("5.");
}

TEST(json_fuzz, doubled_signs_inside_documents_are_rejected)
{
    EXPECT_THROW((void)json_value::parse("{\"x\":--1}"), parse_error);
    EXPECT_THROW((void)json_value::parse("[1,+2]"), parse_error);
    EXPECT_THROW((void)json_value::parse("[1e--5]"), parse_error);
}

TEST(json_fuzz, extreme_but_valid_numbers_round_trip)
{
    for (const char* text : {"-0", "1e308", "5e-324", "0.1", "-2.5e-9",
                             "9007199254740993", "1e-308"})
        expect_reject_or_fixed_point(text);
}

TEST(json_fuzz, non_finite_spellings_round_trip_as_strings)
{
    // Canonical spelling: the strings "nan"/"inf"/"-inf".
    for (const char* text : {"\"nan\"", "\"inf\"", "\"-inf\""}) {
        const json_value v = json_value::parse(text);
        EXPECT_EQ(v.dump(), text);
    }
    EXPECT_TRUE(std::isnan(json_value::parse("\"nan\"").as_number()));
    EXPECT_TRUE(std::isinf(json_value::parse("\"-inf\"").as_number()));
    // Legacy bare tokens (older to_chars dumps) still parse, and their
    // canonical re-dump is the string spelling — stable from then on.
    expect_reject_or_fixed_point("nan");
    expect_reject_or_fixed_point("[inf,-inf]");
    // A number that IS non-finite dumps as the string spelling.
    EXPECT_EQ(json_value::number(std::nan("")).dump(), "\"nan\"");
}

// --- nesting depth ---------------------------------------------------------

TEST(json_fuzz, nesting_up_to_the_limit_parses_and_beyond_is_rejected)
{
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    // 127 containers: within the documented limit of 128.
    const std::string deep_ok = nested(127);
    EXPECT_EQ(json_value::parse(deep_ok).dump(), deep_ok);
    try {
        (void)json_value::parse(nested(200));
        FAIL() << "200-deep nesting must be rejected";
    } catch (const parse_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("deep"), std::string::npos) << what;
        EXPECT_NE(what.find("offset"), std::string::npos) << what;
    }
}

TEST(json_fuzz, pathologically_deep_input_fails_fast_without_stack_overflow)
{
    // 100k opening brackets: the depth guard must trip long before any
    // recursion gets dangerous, for arrays, objects and mixtures.
    EXPECT_THROW((void)json_value::parse(std::string(100000, '[')), parse_error);
    std::string objs;
    for (int i = 0; i < 100000; ++i)
        objs += "{\"k\":";
    EXPECT_THROW((void)json_value::parse(objs), parse_error);
    std::string mixed;
    for (int i = 0; i < 50000; ++i)
        mixed += "[{\"k\":";
    EXPECT_THROW((void)json_value::parse(mixed), parse_error);
}

// --- strings: NULs, escapes, garbage ---------------------------------------

TEST(json_fuzz, embedded_nul_round_trips_through_the_escape)
{
    json_value v = json_value::str(std::string("a\0b", 3));
    const std::string dumped = v.dump();
    const json_value back = json_value::parse(dumped);
    EXPECT_EQ(back.as_string(), v.as_string());
    EXPECT_EQ(back.dump(), dumped);
    // \u0000 in source text produces a real NUL in the value.
    EXPECT_EQ(json_value::parse("\"\\u0000\"").as_string(), std::string(1, '\0'));
}

TEST(json_fuzz, raw_nul_and_control_bytes_inside_input_never_crash)
{
    expect_reject_or_fixed_point(std::string("\"a\0b\"", 5));
    expect_reject_or_fixed_point(std::string("{\"a\0\":1}", 8));
    expect_reject_or_fixed_point(std::string("\0", 1));
    expect_reject_or_fixed_point("\"tab\there\"");
}

TEST(json_fuzz, broken_escapes_and_trailing_garbage_are_rejected)
{
    for (const char* bad :
         {"\"\\", "\"\\q\"", "\"\\u12\"", "\"\\u12G4\"", "\"unterminated",
          "{\"a\":1}x", "[1,2],", "truefalse", "nul", "\"a\" \"b\""})
        EXPECT_THROW((void)json_value::parse(bad), parse_error) << bad;
}

} // namespace
