#include "farm/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>

#include "common/error.h"

namespace acstab::farm {

json_value json_value::boolean(bool b)
{
    json_value v;
    v.kind_ = kind::boolean;
    v.bool_ = b;
    return v;
}

json_value json_value::number(real x)
{
    json_value v;
    v.kind_ = kind::number;
    v.number_ = x;
    return v;
}

json_value json_value::number(std::size_t x)
{
    return number(static_cast<real>(x));
}

json_value json_value::str(std::string s)
{
    json_value v;
    v.kind_ = kind::string;
    v.string_ = std::move(s);
    return v;
}

json_value json_value::array()
{
    json_value v;
    v.kind_ = kind::array;
    return v;
}

json_value json_value::object()
{
    json_value v;
    v.kind_ = kind::object;
    return v;
}

void json_value::push_back(json_value v)
{
    if (kind_ != kind::array)
        throw analysis_error("json: push_back on a non-array");
    items_.push_back(std::move(v));
}

void json_value::set(std::string key, json_value v)
{
    if (kind_ != kind::object)
        throw analysis_error("json: set on a non-object");
    for (auto& [k, existing] : members_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members_.emplace_back(std::move(key), std::move(v));
}

bool json_value::as_bool() const
{
    if (kind_ != kind::boolean)
        throw analysis_error("json: value is not a boolean");
    return bool_;
}

real json_value::as_number() const
{
    // Non-finite numbers are serialized as the strings "nan"/"inf"/"-inf"
    // (valid JSON, unlike bare nan/inf tokens); accept exactly those
    // spellings back so parsed documents keep their string kind — and
    // their bytes — while numeric consumers see the value.
    if (kind_ == kind::string) {
        if (string_ == "nan")
            return std::nan("");
        if (string_ == "inf")
            return std::numeric_limits<real>::infinity();
        if (string_ == "-inf")
            return -std::numeric_limits<real>::infinity();
        throw analysis_error("json: value is not a number");
    }
    if (kind_ != kind::number)
        throw analysis_error("json: value is not a number");
    return number_;
}

std::size_t json_value::as_index() const
{
    const real v = as_number();
    if (!(v >= 0.0) || v != std::floor(v) || v > 9.007199254740992e15)
        throw analysis_error("json: value is not a non-negative integer");
    return static_cast<std::size_t>(v);
}

const std::string& json_value::as_string() const
{
    if (kind_ != kind::string)
        throw analysis_error("json: value is not a string");
    return string_;
}

const std::vector<json_value>& json_value::items() const
{
    if (kind_ != kind::array)
        throw analysis_error("json: value is not an array");
    return items_;
}

const std::vector<std::pair<std::string, json_value>>& json_value::members() const
{
    if (kind_ != kind::object)
        throw analysis_error("json: value is not an object");
    return members_;
}

const json_value* json_value::find(std::string_view key) const
{
    if (kind_ != kind::object)
        return nullptr;
    for (const auto& [k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

const json_value& json_value::at(std::string_view key) const
{
    if (const json_value* v = find(key); v != nullptr)
        return *v;
    throw analysis_error("json: missing member '" + std::string(key) + "'");
}

namespace {

    void dump_string(const std::string& s, std::string& out)
    {
        out.push_back('"');
        for (const char c : s) {
            const auto u = static_cast<unsigned char>(c);
            switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (u < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", u);
                    out += buf;
                } else {
                    out.push_back(c);
                }
            }
        }
        out.push_back('"');
    }

    void dump_number(real v, std::string& out)
    {
        // Non-finite values have no JSON number spelling; bare nan/inf
        // tokens (what to_chars emits) break every standard consumer
        // (jq, Python json, ...). Encode them as the canonical strings
        // instead; as_number() and the parser accept both forms.
        if (!std::isfinite(v)) {
            out += std::isnan(v) ? "\"nan\"" : (v > 0.0 ? "\"inf\"" : "\"-inf\"");
            return;
        }
        // Shortest round-trip form: value -> text -> value is exact, and
        // the same value always produces the same bytes.
        char buf[40];
        const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
        out.append(buf, r.ptr);
    }

} // namespace

void json_value::dump_into(std::string& out) const
{
    switch (kind_) {
    case kind::null:
        out += "null";
        return;
    case kind::boolean:
        out += bool_ ? "true" : "false";
        return;
    case kind::number:
        dump_number(number_, out);
        return;
    case kind::string:
        dump_string(string_, out);
        return;
    case kind::array:
        out.push_back('[');
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i != 0)
                out.push_back(',');
            items_[i].dump_into(out);
        }
        out.push_back(']');
        return;
    case kind::object:
        out.push_back('{');
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i != 0)
                out.push_back(',');
            dump_string(members_[i].first, out);
            out.push_back(':');
            members_[i].second.dump_into(out);
        }
        out.push_back('}');
        return;
    }
}

std::string json_value::dump() const
{
    std::string out;
    dump_into(out);
    return out;
}

namespace {

    /// Recursive-descent parser behind parse() and parse_member(). Its
    /// grammar is instantiated twice: Build = true makes the json_value,
    /// Build = false (parse_member's scan) walks the same functions, so
    /// every error and offset is parse()'s, but keeps nothing except the
    /// one top-level member it was asked for.
    class json_parser {
    public:
        explicit json_parser(std::string_view text) : text_(text) {}

        [[nodiscard]] json_value run()
        {
            json_value v = parse_value<true>();
            finish();
            return v;
        }

        [[nodiscard]] std::optional<json_value> run_member(std::string_view key)
        {
            member_ = key;
            (void)parse_value<false>();
            finish();
            return std::move(found_);
        }

    private:
        /// What a scan returns for a value it does not keep.
        struct skipped {};
        template <bool Build>
        using value_t = std::conditional_t<Build, json_value, skipped>;

        [[noreturn]] void fail(const std::string& what) const
        {
            throw parse_error("json: " + what + " at offset " + std::to_string(pos_));
        }

        void finish()
        {
            skip_ws();
            if (pos_ != text_.size())
                fail("trailing characters after the document");
        }

        void skip_ws()
        {
            while (pos_ < text_.size()) {
                const char c = text_[pos_];
                if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                    break;
                ++pos_;
            }
        }

        [[nodiscard]] char peek()
        {
            if (pos_ >= text_.size())
                fail("unexpected end of input");
            return text_[pos_];
        }

        bool consume_literal(std::string_view lit)
        {
            if (text_.substr(pos_, lit.size()) != lit)
                return false;
            pos_ += lit.size();
            return true;
        }

        /// Containers beyond this nesting depth fail with parse_error
        /// instead of overflowing the stack (farm documents nest ~4 deep;
        /// anything near the limit is corrupt or hostile input).
        static constexpr int max_depth = 128;

        template <bool Build>
        [[nodiscard]] value_t<Build> parse_value()
        {
            skip_ws();
            const char c = peek();
            if (c == '{' || c == '[') {
                if (depth_ >= max_depth)
                    fail("nesting too deep");
                ++depth_;
                value_t<Build> v = c == '{' ? parse_object<Build>() : parse_array<Build>();
                --depth_;
                return v;
            }
            if (c == '"') {
                std::string str = parse_string(Build);
                if constexpr (Build)
                    return json_value::str(std::move(str));
                else
                    return {};
            }
            if (consume_literal("null"))
                return {};
            for (const bool b : {true, false}) {
                if (consume_literal(b ? "true" : "false")) {
                    if constexpr (Build)
                        return json_value::boolean(b);
                    else
                        return {};
                }
            }
            const real v = parse_number();
            if constexpr (Build)
                return json_value::number(v);
            else
                return {};
        }

        template <bool Build>
        [[nodiscard]] value_t<Build> parse_object()
        {
            ++pos_; // '{'
            value_t<Build> obj{};
            if constexpr (Build)
                obj = json_value::object();
            skip_ws();
            if (peek() == '}') {
                ++pos_;
                return obj;
            }
            // A scan reads the top-level object's member names to find
            // the one asked for and builds its value; a later duplicate
            // replaces it, as set() does.
            const bool top_scan = !Build && depth_ == 1;
            while (true) {
                skip_ws();
                if (peek() != '"')
                    fail("expected a member name");
                std::string key = parse_string(Build || top_scan);
                skip_ws();
                if (peek() != ':')
                    fail("expected ':'");
                ++pos_;
                if constexpr (Build)
                    obj.set(std::move(key), parse_value<true>());
                else if (top_scan && key == member_)
                    found_ = parse_value<true>();
                else
                    (void)parse_value<false>();
                skip_ws();
                const char c = peek();
                if (c == ',') {
                    ++pos_;
                    continue;
                }
                if (c == '}') {
                    ++pos_;
                    return obj;
                }
                fail("expected ',' or '}'");
            }
        }

        template <bool Build>
        [[nodiscard]] value_t<Build> parse_array()
        {
            ++pos_; // '['
            value_t<Build> arr{};
            if constexpr (Build)
                arr = json_value::array();
            skip_ws();
            if (peek() == ']') {
                ++pos_;
                return arr;
            }
            while (true) {
                if constexpr (Build)
                    arr.push_back(parse_value<true>());
                else
                    (void)parse_value<false>();
                skip_ws();
                const char c = peek();
                if (c == ',') {
                    ++pos_;
                    continue;
                }
                if (c == ']') {
                    ++pos_;
                    return arr;
                }
                fail("expected ',' or ']'");
            }
        }

        /// The string at pos_, decoded into the result when `keep`
        /// (validated either way).
        [[nodiscard]] std::string parse_string(bool keep)
        {
            ++pos_; // '"'
            std::string out;
            const auto put = [&](char ch) {
                if (keep)
                    out.push_back(ch);
            };
            while (true) {
                if (pos_ >= text_.size())
                    fail("unterminated string");
                const char c = text_[pos_++];
                if (c == '"')
                    return out;
                if (c != '\\') {
                    put(c);
                    continue;
                }
                if (pos_ >= text_.size())
                    fail("unterminated escape");
                const char e = text_[pos_++];
                switch (e) {
                case '"': put('"'); break;
                case '\\': put('\\'); break;
                case '/': put('/'); break;
                case 'b': put('\b'); break;
                case 'f': put('\f'); break;
                case 'n': put('\n'); break;
                case 'r': put('\r'); break;
                case 't': put('\t'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int k = 0; k < 4; ++k) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            fail("bad \\u escape digit");
                    }
                    // Encode as UTF-8 (the serializer only ever emits
                    // \u00xx control escapes, but accept the full BMP).
                    if (code < 0x80) {
                        put(static_cast<char>(code));
                    } else if (code < 0x800) {
                        put(static_cast<char>(0xc0 | (code >> 6)));
                        put(static_cast<char>(0x80 | (code & 0x3f)));
                    } else {
                        put(static_cast<char>(0xe0 | (code >> 12)));
                        put(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
                        put(static_cast<char>(0x80 | (code & 0x3f)));
                    }
                    break;
                }
                default: fail("unknown escape");
                }
            }
        }

        [[nodiscard]] real parse_number()
        {
            // Bare non-finite tokens: not valid JSON, but older acstab
            // builds dumped them via to_chars; keep reading those files.
            // (The serializer now emits the strings "nan"/"inf"/"-inf".)
            if (consume_literal("nan"))
                return std::nan("");
            if (consume_literal("inf"))
                return std::numeric_limits<real>::infinity();
            if (consume_literal("-inf"))
                return -std::numeric_limits<real>::infinity();
            real v = 0.0;
            const char* begin = text_.data() + pos_;
            const char* end = text_.data() + text_.size();
            const std::from_chars_result r = std::from_chars(begin, end, v);
            if (r.ec != std::errc{} || r.ptr == begin)
                fail("malformed number");
            pos_ = static_cast<std::size_t>(r.ptr - text_.data());
            return v;
        }

        std::string_view text_;
        std::size_t pos_ = 0;
        int depth_ = 0;
        std::string_view member_; ///< parse_member: the member sought
        std::optional<json_value> found_;
    };

} // namespace

json_value json_value::parse(std::string_view text)
{
    return json_parser(text).run();
}

std::optional<json_value> json_value::parse_member(std::string_view text, std::string_view key)
{
    return json_parser(text).run_member(key);
}

} // namespace acstab::farm
