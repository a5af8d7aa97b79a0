// Arithmetic expression evaluator for netlist parameters: the values in
// `.param` cards and `{...}` braces. Supports + - * / ^, parentheses,
// unary minus, SPICE-suffixed numbers, named parameters, and a small
// function library.
#ifndef ACSTAB_SPICE_PARSER_EXPRESSION_H
#define ACSTAB_SPICE_PARSER_EXPRESSION_H

#include <string_view>
#include <unordered_map>

#include "common/types.h"

namespace acstab::spice {

using parameter_table = std::unordered_map<std::string, real>;

/// Evaluate an expression against a parameter table.
/// Throws parse_error on malformed input, unknown identifiers, or nesting
/// deeper than 1000 levels.
[[nodiscard]] real evaluate_expression(std::string_view text, const parameter_table& params);

} // namespace acstab::spice

#endif // ACSTAB_SPICE_PARSER_EXPRESSION_H
