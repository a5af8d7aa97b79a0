// Typed error hierarchy shared by all acstab libraries.
//
// Recoverable failures (bad input, non-convergence, singular systems) are
// reported as exceptions derived from acstab::error so callers can
// distinguish the failing subsystem; internal invariants use assert().
#ifndef ACSTAB_COMMON_ERROR_H
#define ACSTAB_COMMON_ERROR_H

#include <stdexcept>
#include <string>

namespace acstab {

/// Base class of every exception thrown by acstab.
class error : public std::runtime_error {
public:
    explicit error(const std::string& what) : std::runtime_error(what) {}
};

/// Numerical kernel failure (singular matrix, eigeniteration stall, ...).
class numeric_error : public error {
public:
    explicit numeric_error(const std::string& what) : error("numeric: " + what) {}
};

/// Iterative analysis failed to converge (DC Newton, transient step, ...).
class convergence_error : public error {
public:
    explicit convergence_error(const std::string& what) : error("convergence: " + what) {}
};

/// Ill-formed circuit (unknown node, dangling device, duplicate name, ...).
class circuit_error : public error {
public:
    explicit circuit_error(const std::string& what) : error("circuit: " + what) {}
};

/// Netlist text could not be parsed; carries a line number when known.
class parse_error : public error {
public:
    explicit parse_error(const std::string& what) : error("parse: " + what), detail_(what) {}
    parse_error(const std::string& what, int line)
        : error("parse: line " + std::to_string(line) + ": " + what), detail_(what),
          line_(line) {}

    /// 1-based netlist line, or -1 when unknown.
    [[nodiscard]] int line() const noexcept { return line_; }

    /// The message without its "parse: line N: " prefix, so a caller that
    /// knows the line can rethrow a line-less error located.
    [[nodiscard]] const std::string& detail() const noexcept { return detail_; }

private:
    std::string detail_;
    int line_ = -1;
};

/// High-level analysis misuse (empty sweep, unknown probe node, ...).
class analysis_error : public error {
public:
    explicit analysis_error(const std::string& what) : error("analysis: " + what) {}
};

} // namespace acstab

#endif // ACSTAB_COMMON_ERROR_H
