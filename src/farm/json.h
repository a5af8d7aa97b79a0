// Minimal JSON document model for the corner-farm subsystem.
//
// The farm's whole contract is byte-stable serialization: a merged
// campaign report must be byte-identical whether its points were
// computed in one process or reassembled from N shard files. That rules
// out printf-rounded doubles (not round-trip exact) and hash-ordered
// objects (iteration order varies). This model therefore:
//   * serializes numbers with std::to_chars shortest round-trip form, so
//     value -> text -> value is exact and text -> text is stable;
//   * keeps object members in insertion order (a vector of pairs, not a
//     map), so the producer controls the byte layout;
//   * dumps compactly with no whitespace, one canonical form per value;
//   * encodes non-finite numbers as the STRINGS "nan"/"inf"/"-inf" (JSON
//     has no number spelling for them, and bare tokens would break jq /
//     Python consumers of farm reports); as_number() accepts exactly
//     those spellings back, so documents round-trip byte-stably.
// Parsing accepts standard JSON plus legacy bare nan/inf number tokens
// (older builds dumped those via to_chars).
#ifndef ACSTAB_FARM_JSON_H
#define ACSTAB_FARM_JSON_H

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"

namespace acstab::farm {

class json_value {
public:
    enum class kind { null, boolean, number, string, array, object };

    json_value() = default;

    [[nodiscard]] static json_value boolean(bool b);
    [[nodiscard]] static json_value number(real v);
    [[nodiscard]] static json_value number(std::size_t v);
    [[nodiscard]] static json_value str(std::string s);
    [[nodiscard]] static json_value array();
    [[nodiscard]] static json_value object();

    [[nodiscard]] kind type() const noexcept { return kind_; }

    /// Append to an array value.
    void push_back(json_value v);
    /// Append a member to an object value (replaces an existing key in
    /// place, keeping its position).
    void set(std::string key, json_value v);

    // Checked accessors; throw analysis_error on a kind mismatch.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] real as_number() const;
    /// as_number() narrowed to a non-negative integer (indices, counts).
    [[nodiscard]] std::size_t as_index() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const std::vector<json_value>& items() const;
    [[nodiscard]] const std::vector<std::pair<std::string, json_value>>& members() const;

    /// Object member lookup; nullptr when absent (or not an object).
    [[nodiscard]] const json_value* find(std::string_view key) const;
    /// Object member lookup; throws analysis_error when absent.
    [[nodiscard]] const json_value& at(std::string_view key) const;

    /// Canonical compact serialization (deterministic byte-for-byte).
    [[nodiscard]] std::string dump() const;

    /// Parse a complete JSON document; throws parse_error on malformed
    /// input or trailing garbage.
    [[nodiscard]] static json_value parse(std::string_view text);

    /// Validate a complete JSON document as parse() does (the same
    /// parse_error text and offset on malformed input) without building
    /// it, and return the member `key` of its top-level object — the
    /// last one, as parse() keeps it — or nullopt when the document is
    /// not an object or has no such member. Only that member's value is
    /// built.
    [[nodiscard]] static std::optional<json_value> parse_member(std::string_view text,
                                                                std::string_view key);

private:
    void dump_into(std::string& out) const;

    kind kind_ = kind::null;
    bool bool_ = false;
    real number_ = 0.0;
    std::string string_;
    std::vector<json_value> items_;
    std::vector<std::pair<std::string, json_value>> members_;
};

} // namespace acstab::farm

#endif // ACSTAB_FARM_JSON_H
