#include "spice/parser/expression.h"

#include <cctype>
#include <cmath>
#include <string>

#include "common/error.h"
#include <vector>

#include "spice/units.h"

namespace acstab::spice {

namespace {

    /// Recursive-descent grammar:
    ///   expr   := term (('+'|'-') term)*
    ///   term   := factor (('*'|'/') factor)*
    ///   factor := ('+'|'-')* power
    ///   power  := primary ('^' factor)?         (right associative)
    ///   primary:= number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'
    class evaluator {
    public:
        evaluator(std::string_view text, const parameter_table& params)
            : text_(text), params_(params)
        {
        }

        [[nodiscard]] real run()
        {
            const real v = expr();
            skip_ws();
            if (pos_ != text_.size())
                fail("unexpected trailing characters");
            return v;
        }

    private:
        [[noreturn]] void fail(const std::string& what) const
        {
            // Quote at most a line's worth of a runaway expression.
            constexpr std::size_t shown = 60;
            const std::string quoted = text_.size() <= shown
                ? std::string(text_)
                : std::string(text_.substr(0, shown)) + "...";
            throw parse_error("expression '" + quoted + "': " + what);
        }

        void skip_ws()
        {
            while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }

        [[nodiscard]] bool eat(char c)
        {
            skip_ws();
            if (pos_ < text_.size() && text_[pos_] == c) {
                ++pos_;
                return true;
            }
            return false;
        }

        [[nodiscard]] char peek()
        {
            skip_ws();
            return pos_ < text_.size() ? text_[pos_] : '\0';
        }

        real expr()
        {
            real v = term();
            while (true) {
                if (eat('+'))
                    v += term();
                else if (eat('-'))
                    v -= term();
                else
                    return v;
            }
        }

        real term()
        {
            real v = factor();
            while (true) {
                if (eat('*'))
                    v *= factor();
                else if (eat('/')) {
                    const real d = factor();
                    if (d == 0.0)
                        fail("division by zero");
                    v /= d;
                } else
                    return v;
            }
        }

        real factor()
        {
            // Every nesting path (parentheses, signs, exponents, calls)
            // recurses through here, so this one count bounds the stack.
            if (depth_ == max_depth)
                fail("nested deeper than " + std::to_string(max_depth) + " levels");
            ++depth_;
            const real v = signed_power();
            --depth_;
            return v;
        }

        real signed_power()
        {
            // Unary minus binds looser than '^' (so -2^2 = -4), while the
            // exponent itself may carry a sign (2^-3).
            if (eat('-'))
                return -factor();
            if (eat('+'))
                return factor();
            return power();
        }

        real power()
        {
            const real base = primary();
            if (eat('^'))
                return std::pow(base, factor());
            return base;
        }

        real primary()
        {
            skip_ws();
            if (pos_ >= text_.size())
                fail("unexpected end of expression");
            const char c = text_[pos_];
            if (c == '(') {
                ++pos_;
                const real v = expr();
                if (!eat(')'))
                    fail("missing ')'");
                return v;
            }
            if (std::isdigit(static_cast<unsigned char>(c)) || c == '.')
                return number();
            if (std::isalpha(static_cast<unsigned char>(c)) || c == '_')
                return identifier();
            fail(std::string("unexpected character '") + c + "'");
        }

        real number()
        {
            const std::size_t start = pos_;
            // Consume a numeric literal possibly with exponent and suffix.
            while (pos_ < text_.size()) {
                const char c = text_[pos_];
                if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
                    ++pos_;
                } else if ((c == 'e' || c == 'E') && pos_ + 1 < text_.size()
                           && (std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))
                               || text_[pos_ + 1] == '+' || text_[pos_ + 1] == '-')) {
                    pos_ += 2;
                } else if (std::isalpha(static_cast<unsigned char>(c))) {
                    ++pos_; // unit suffix letters
                } else {
                    break;
                }
            }
            const auto parsed = try_parse_spice_number(text_.substr(start, pos_ - start));
            if (!parsed)
                fail("bad number '" + std::string(text_.substr(start, pos_ - start)) + "'");
            return *parsed;
        }

        real identifier()
        {
            const std::size_t start = pos_;
            while (pos_ < text_.size()
                   && (std::isalnum(static_cast<unsigned char>(text_[pos_]))
                       || text_[pos_] == '_'))
                ++pos_;
            std::string name(text_.substr(start, pos_ - start));
            for (char& ch : name)
                ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));

            if (peek() == '(')
                return function_call(name);

            if (name == "pi")
                return pi;
            const auto it = params_.find(name);
            if (it == params_.end())
                fail("unknown parameter '" + name + "'");
            return it->second;
        }

        real function_call(const std::string& name)
        {
            if (!eat('('))
                fail("expected '('");
            std::vector<real> args;
            if (peek() != ')') {
                args.push_back(expr());
                while (eat(','))
                    args.push_back(expr());
            }
            if (!eat(')'))
                fail("missing ')' in call to " + name);

            const auto need = [&](std::size_t n) {
                if (args.size() != n)
                    fail(name + " expects " + std::to_string(n) + " argument(s)");
            };
            if (name == "sqrt") {
                need(1);
                return std::sqrt(args[0]);
            }
            if (name == "exp") {
                need(1);
                return std::exp(args[0]);
            }
            if (name == "ln" || name == "log") {
                need(1);
                return std::log(args[0]);
            }
            if (name == "log10") {
                need(1);
                return std::log10(args[0]);
            }
            if (name == "abs") {
                need(1);
                return std::fabs(args[0]);
            }
            if (name == "sin") {
                need(1);
                return std::sin(args[0]);
            }
            if (name == "cos") {
                need(1);
                return std::cos(args[0]);
            }
            if (name == "tan") {
                need(1);
                return std::tan(args[0]);
            }
            if (name == "atan") {
                need(1);
                return std::atan(args[0]);
            }
            if (name == "pow") {
                need(2);
                return std::pow(args[0], args[1]);
            }
            if (name == "min") {
                need(2);
                return std::min(args[0], args[1]);
            }
            if (name == "max") {
                need(2);
                return std::max(args[0], args[1]);
            }
            fail("unknown function '" + name + "'");
        }

        /// Deepest nesting accepted: far beyond any real netlist, far
        /// below what overflows a worker thread's stack.
        static constexpr int max_depth = 1000;

        std::string_view text_;
        const parameter_table& params_;
        std::size_t pos_ = 0;
        int depth_ = 0;
    };

} // namespace

real evaluate_expression(std::string_view text, const parameter_table& params)
{
    return evaluator(text, params).run();
}

} // namespace acstab::spice
