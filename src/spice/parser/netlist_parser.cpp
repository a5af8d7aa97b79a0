#include "spice/parser/netlist_parser.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"
#include "spice/devices/bjt.h"
#include "spice/devices/controlled.h"
#include "spice/devices/diode.h"
#include "spice/devices/mosfet.h"
#include "spice/devices/passive.h"
#include "spice/devices/sources.h"
#include "spice/units.h"

namespace acstab::spice {

namespace {

    [[nodiscard]] std::string lower(std::string s)
    {
        for (char& c : s)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        return s;
    }

    struct logical_line {
        int number = 0;
        std::vector<std::string> tokens;
    };

    /// Strip comments, join continuations, normalize separators, tokenize.
    [[nodiscard]] std::vector<logical_line> tokenize(std::string_view text, std::string& title)
    {
        std::vector<std::pair<int, std::string>> raw;
        {
            std::istringstream in{std::string(text)};
            std::string line;
            int number = 0;
            while (std::getline(in, line)) {
                ++number;
                // Trailing comments.
                for (const char* marker : {";", "$ ", "//"}) {
                    const std::size_t pos = line.find(marker);
                    if (pos != std::string::npos)
                        line.erase(pos);
                }
                raw.emplace_back(number, line);
            }
        }

        // SPICE convention: the first line is always the title, never a
        // device or card.
        std::size_t start = 0;
        if (!raw.empty()) {
            const std::string& first = raw[0].second;
            const std::size_t i = first.find_first_not_of(" \t\r");
            if (i != std::string::npos)
                title = first.substr(i);
            start = 1;
        }

        std::vector<logical_line> lines;
        for (std::size_t k = start; k < raw.size(); ++k) {
            std::string line = raw[k].second;
            const std::size_t first = line.find_first_not_of(" \t\r");
            if (first == std::string::npos)
                continue;
            if (line[first] == '*')
                continue;
            if (line[first] == '+') {
                if (lines.empty())
                    throw parse_error("continuation with no previous line", raw[k].first);
                line = line.substr(first + 1);
            } else {
                line = line.substr(first);
            }

            // Normalize separators so PULSE(1 2) and key=val split cleanly.
            std::string spaced;
            spaced.reserve(line.size() + 8);
            for (const char c : line) {
                if (c == '(' || c == ')' || c == '=' || c == ',') {
                    spaced.push_back(' ');
                    spaced.push_back(c);
                    spaced.push_back(' ');
                } else {
                    spaced.push_back(c);
                }
            }

            std::istringstream ts(spaced);
            std::vector<std::string> tokens;
            std::string tok;
            bool in_brace = false;
            std::string brace;
            while (ts >> tok) {
                // Re-join {...} expressions split by the normalizer.
                if (!in_brace && tok.front() == '{' && tok.back() != '}') {
                    in_brace = true;
                    brace = tok;
                    continue;
                }
                if (in_brace) {
                    brace += tok;
                    if (tok.back() == '}') {
                        tokens.push_back(brace);
                        in_brace = false;
                    }
                    continue;
                }
                tokens.push_back(tok);
            }
            if (in_brace)
                throw parse_error("unterminated '{' expression", raw[k].first);
            if (tokens.empty())
                continue;

            const bool continuation = raw[k].second.find_first_not_of(" \t\r")
                    != std::string::npos
                && raw[k].second[raw[k].second.find_first_not_of(" \t\r")] == '+';
            if (continuation && !lines.empty()) {
                lines.back().tokens.insert(lines.back().tokens.end(), tokens.begin(),
                                           tokens.end());
            } else {
                lines.push_back({raw[k].first, std::move(tokens)});
            }
        }
        return lines;
    }

    struct model_def {
        std::string type; // d, npn, pnp, nmos, pmos
        std::unordered_map<std::string, real> params;
        int line = 0;
    };

    struct subckt_def {
        std::vector<std::string> ports;
        std::vector<logical_line> body;
    };

    class netlist_builder {
    public:
        netlist_builder(parsed_netlist& out, const parse_options& opt) : out_(out), opt_(opt)
        {
            // Overrides are seeded before any card is read, so `.param`
            // expressions that reference an overridden name resolve to the
            // override value.
            for (const auto& [name, v] : opt_.param_overrides) {
                const std::string key = lower(name);
                out_.parameters[key] = v;
                overridden_.insert(key);
            }
        }

        void run(const std::vector<logical_line>& lines)
        {
            collect_definitions(lines);
            for (const logical_line& line : main_body_)
                dispatch(line, /*prefix=*/"", nullptr, 0);
        }

    private:
        [[noreturn]] void fail(const logical_line& line, const std::string& what) const
        {
            throw parse_error(what, line.number);
        }

        /// Run one card's handler; a parse_error raised without a line
        /// (an expression, a number literal) is rethrown with this card's.
        template <class F>
        void located(const logical_line& line, F&& handle)
        {
            try {
                handle();
            } catch (const parse_error& e) {
                if (e.line() >= 0)
                    throw;
                fail(line, e.detail());
            }
        }

        [[nodiscard]] real value(const logical_line& line, const std::string& token) const
        {
            if (token.size() >= 2 && token.front() == '{' && token.back() == '}')
                return evaluate_expression(token.substr(1, token.size() - 2), out_.parameters);
            const auto parsed = try_parse_spice_number(token);
            if (!parsed)
                fail(line, "bad value '" + token + "'");
            return *parsed;
        }

        void collect_definitions(const std::vector<logical_line>& lines)
        {
            const subckt_def* open = nullptr;
            std::string open_name;
            subckt_def pending;
            for (const logical_line& line : lines) {
                const std::string head = lower(line.tokens[0]);
                if (head == ".subckt") {
                    if (open != nullptr)
                        fail(line, "nested .subckt is not supported");
                    if (line.tokens.size() < 3)
                        fail(line, ".subckt needs a name and at least one port");
                    open_name = lower(line.tokens[1]);
                    pending = subckt_def{};
                    for (std::size_t i = 2; i < line.tokens.size(); ++i)
                        pending.ports.push_back(lower(line.tokens[i]));
                    open = &pending;
                    continue;
                }
                if (head == ".ends") {
                    if (open == nullptr)
                        fail(line, ".ends without .subckt");
                    subckts_[open_name] = std::move(pending);
                    open = nullptr;
                    continue;
                }
                if (open != nullptr) {
                    pending.body.push_back(line);
                    continue;
                }
                if (head == ".param") {
                    located(line, [&] { parse_param(line); });
                    continue;
                }
                if (head == ".model") {
                    located(line, [&] { parse_model(line); });
                    continue;
                }
                if (head == ".end")
                    continue;
                main_body_.push_back(line);
            }
            if (open != nullptr)
                throw parse_error(".subckt '" + open_name + "' never closed");
        }

        void parse_param(const logical_line& line)
        {
            // .param a = 1k b = {a*2}
            std::size_t i = 1;
            while (i < line.tokens.size()) {
                if (i + 2 >= line.tokens.size() || line.tokens[i + 1] != "=")
                    fail(line, ".param expects name = value pairs");
                const std::string name = lower(line.tokens[i]);
                const std::string& tok = line.tokens[i + 2];
                real v = 0.0;
                if (tok.size() >= 2 && tok.front() == '{' && tok.back() == '}')
                    v = evaluate_expression(tok.substr(1, tok.size() - 2), out_.parameters);
                else if (const auto parsed = try_parse_spice_number(tok); parsed)
                    v = *parsed;
                else
                    v = evaluate_expression(tok, out_.parameters);
                // An externally overridden parameter keeps its override;
                // the card still parses (and its expression still
                // evaluates) so errors surface identically either way.
                if (overridden_.find(name) == overridden_.end())
                    out_.parameters[name] = v;
                i += 3;
            }
        }

        void parse_model(const logical_line& line)
        {
            if (line.tokens.size() < 3)
                fail(line, ".model needs a name and a type");
            model_def def;
            def.type = lower(line.tokens[2]);
            def.line = line.number;
            std::size_t i = 3;
            while (i < line.tokens.size()) {
                const std::string& tok = line.tokens[i];
                if (tok == "(" || tok == ")") {
                    ++i;
                    continue;
                }
                if (i + 2 < line.tokens.size() && line.tokens[i + 1] == "=") {
                    def.params[lower(tok)] = value(line, line.tokens[i + 2]);
                    i += 3;
                } else {
                    fail(line, "bad .model parameter syntax near '" + tok + "'");
                }
            }
            models_[lower(line.tokens[1])] = std::move(def);
        }

        [[nodiscard]] const model_def& model(const logical_line& line,
                                             const std::string& name) const
        {
            const auto it = models_.find(lower(name));
            if (it == models_.end())
                fail(line, "unknown model '" + name + "'");
            return it->second;
        }

        [[nodiscard]] node_id map_node(const std::string& token, const std::string& prefix,
                                       const std::unordered_map<std::string, std::string>* ports)
        {
            const std::string name = lower(token);
            if (name == "0" || name == "gnd")
                return out_.ckt.node("0");
            if (ports != nullptr) {
                if (const auto it = ports->find(name); it != ports->end())
                    return out_.ckt.node(it->second);
            }
            return out_.ckt.node(prefix + name);
        }

        void dispatch(const logical_line& line, const std::string& prefix,
                      const std::unordered_map<std::string, std::string>* ports, int depth)
        {
            located(line, [&] { dispatch_card(line, prefix, ports, depth); });
        }

        void dispatch_card(const logical_line& line, const std::string& prefix,
                           const std::unordered_map<std::string, std::string>* ports, int depth)
        {
            const std::string& head = line.tokens[0];
            const char kind = static_cast<char>(std::tolower(static_cast<unsigned char>(head[0])));
            const std::string name = prefix + lower(head);
            const auto node_at = [&](std::size_t i) -> node_id {
                if (i >= line.tokens.size())
                    fail(line, "missing node");
                return map_node(line.tokens[i], prefix, ports);
            };

            if (head[0] == '.') {
                parse_analysis(line);
                return;
            }

            switch (kind) {
            case 'r':
                require(line, 4);
                out_.ckt.add<resistor>(name, node_at(1), node_at(2), value(line, line.tokens[3]));
                return;
            case 'c':
                require(line, 4);
                out_.ckt.add<capacitor>(name, node_at(1), node_at(2),
                                        value(line, line.tokens[3]));
                return;
            case 'l':
                require(line, 4);
                out_.ckt.add<inductor>(name, node_at(1), node_at(2), value(line, line.tokens[3]));
                return;
            case 'v':
                out_.ckt.add<vsource>(name, node_at(1), node_at(2), parse_source(line));
                return;
            case 'i':
                out_.ckt.add<isource>(name, node_at(1), node_at(2), parse_source(line));
                return;
            case 'e':
                require(line, 6);
                out_.ckt.add<vcvs>(name, node_at(1), node_at(2), node_at(3), node_at(4),
                                   value(line, line.tokens[5]));
                return;
            case 'g':
                require(line, 6);
                out_.ckt.add<vccs>(name, node_at(1), node_at(2), node_at(3), node_at(4),
                                   value(line, line.tokens[5]));
                return;
            case 'f':
                require(line, 5);
                out_.ckt.add<cccs>(name, node_at(1), node_at(2), prefix + lower(line.tokens[3]),
                                   value(line, line.tokens[4]));
                return;
            case 'h':
                require(line, 5);
                out_.ckt.add<ccvs>(name, node_at(1), node_at(2), prefix + lower(line.tokens[3]),
                                   value(line, line.tokens[4]));
                return;
            case 'd':
                require(line, 4);
                out_.ckt.add<diode>(name, node_at(1), node_at(2),
                                    diode_from(model(line, line.tokens[3]), line));
                return;
            case 'q':
                require(line, 5);
                out_.ckt.add<bjt>(name, node_at(1), node_at(2), node_at(3),
                                  bjt_from(model(line, line.tokens[4]), line));
                return;
            case 'm':
                parse_mosfet(line, name, prefix, ports);
                return;
            case 'x':
                expand_subckt(line, prefix, ports, depth);
                return;
            default:
                fail(line, std::string("unknown device type '") + head[0] + "'");
            }
        }

        void require(const logical_line& line, std::size_t tokens) const
        {
            if (line.tokens.size() < tokens)
                fail(line, "too few fields for device '" + line.tokens[0] + "'");
        }

        [[nodiscard]] waveform_spec parse_source(const logical_line& line)
        {
            waveform_spec spec;
            std::size_t i = 3;
            // Optional leading plain DC value.
            if (i < line.tokens.size()) {
                if (const auto v = try_parse_spice_number(line.tokens[i]); v) {
                    spec.dc = *v;
                    ++i;
                }
            }
            while (i < line.tokens.size()) {
                const std::string key = lower(line.tokens[i]);
                if (key == "dc") {
                    if (i + 1 >= line.tokens.size())
                        fail(line, "DC needs a value");
                    spec.dc = value(line, line.tokens[i + 1]);
                    i += 2;
                } else if (key == "ac") {
                    if (i + 1 >= line.tokens.size())
                        fail(line, "AC needs a magnitude");
                    spec.ac_mag = value(line, line.tokens[i + 1]);
                    i += 2;
                    if (i < line.tokens.size()) {
                        if (const auto ph = try_parse_spice_number(line.tokens[i]); ph) {
                            spec.ac_phase_deg = *ph;
                            ++i;
                        }
                    }
                } else if (key == "pulse" || key == "sin" || key == "pwl" || key == "step"
                           || key == "exp") {
                    const std::vector<real> args = paren_args(line, i);
                    apply_shape(line, spec, key, args);
                } else {
                    fail(line, "unknown source keyword '" + key + "'");
                }
            }
            return spec;
        }

        /// Consume "name ( a b c )" starting at i (i points at name).
        [[nodiscard]] std::vector<real> paren_args(const logical_line& line, std::size_t& i)
        {
            ++i;
            if (i >= line.tokens.size() || line.tokens[i] != "(")
                fail(line, "expected '(' after source shape");
            ++i;
            std::vector<real> args;
            while (i < line.tokens.size() && line.tokens[i] != ")")
                args.push_back(value(line, line.tokens[i++]));
            if (i >= line.tokens.size())
                fail(line, "missing ')' in source shape");
            ++i;
            return args;
        }

        void apply_shape(const logical_line& line, waveform_spec& spec, const std::string& key,
                         const std::vector<real>& a)
        {
            const real dc = spec.dc;
            const real ac = spec.ac_mag;
            const real ph = spec.ac_phase_deg;
            if (key == "pulse") {
                if (a.size() < 7)
                    fail(line, "PULSE needs 7 arguments");
                spec = waveform_spec::make_pulse(a[0], a[1], a[2], a[3], a[4], a[5], a[6]);
            } else if (key == "step") {
                if (a.size() < 4)
                    fail(line, "STEP needs v1 v2 delay rise");
                spec = waveform_spec::make_step(a[0], a[1], a[2], a[3]);
            } else if (key == "sin") {
                if (a.size() < 3)
                    fail(line, "SIN needs at least vo va freq");
                spec = waveform_spec::make_sine(a[0], a[1], a[2], a.size() > 3 ? a[3] : 0.0,
                                                a.size() > 4 ? a[4] : 0.0);
            } else if (key == "pwl") {
                if (a.size() < 4 || a.size() % 2 != 0)
                    fail(line, "PWL needs an even number (>= 4) of arguments");
                std::vector<real> t;
                std::vector<real> v;
                for (std::size_t k = 0; k < a.size(); k += 2) {
                    t.push_back(a[k]);
                    v.push_back(a[k + 1]);
                }
                spec = waveform_spec::make_pwl(std::move(t), std::move(v));
            } else if (key == "exp") {
                if (a.size() < 6)
                    fail(line, "EXP needs 6 arguments");
                spec.kind = waveform_kind::exponential;
                spec.v1 = a[0];
                spec.v2 = a[1];
                spec.delay = a[2];
                spec.tau1 = a[3];
                spec.delay2 = a[4];
                spec.tau2 = a[5];
                spec.dc = a[0];
            }
            // Shapes define their own operating-point value; restore the
            // AC stimulus parsed before the shape keyword.
            (void)dc;
            spec.ac_mag = ac;
            spec.ac_phase_deg = ph;
        }

        [[nodiscard]] static real get(const model_def& m, const char* key, real fallback)
        {
            const auto it = m.params.find(key);
            return it == m.params.end() ? fallback : it->second;
        }

        /// Device temperature: a model-local `temp=` wins, then the parse
        /// option's campaign override, then the device default.
        [[nodiscard]] real device_temp(const model_def& m, real model_default) const
        {
            return get(m, "temp", opt_.temp_celsius.value_or(model_default));
        }

        [[nodiscard]] diode_model diode_from(const model_def& m, const logical_line& line) const
        {
            if (m.type != "d")
                fail(line, "model is not a diode");
            diode_model d;
            d.temp = device_temp(m, d.temp);
            d.is = get(m, "is", d.is);
            d.n = get(m, "n", d.n);
            d.cj0 = get(m, "cjo", get(m, "cj0", d.cj0));
            d.vj = get(m, "vj", d.vj);
            d.m = get(m, "m", d.m);
            d.fc = get(m, "fc", d.fc);
            d.tt = get(m, "tt", d.tt);
            return d;
        }

        [[nodiscard]] bjt_model bjt_from(const model_def& m, const logical_line& line) const
        {
            if (m.type != "npn" && m.type != "pnp")
                fail(line, "model is not a BJT");
            bjt_model q;
            q.polarity = m.type == "npn" ? bjt_polarity::npn : bjt_polarity::pnp;
            q.temp = device_temp(m, q.temp);
            q.is = get(m, "is", q.is);
            q.bf = get(m, "bf", q.bf);
            q.br = get(m, "br", q.br);
            q.nf = get(m, "nf", q.nf);
            q.nr = get(m, "nr", q.nr);
            q.vaf = get(m, "vaf", q.vaf);
            q.cje = get(m, "cje", q.cje);
            q.vje = get(m, "vje", q.vje);
            q.mje = get(m, "mje", q.mje);
            q.cjc = get(m, "cjc", q.cjc);
            q.vjc = get(m, "vjc", q.vjc);
            q.mjc = get(m, "mjc", q.mjc);
            q.fc = get(m, "fc", q.fc);
            q.tf = get(m, "tf", q.tf);
            q.tr = get(m, "tr", q.tr);
            return q;
        }

        void parse_mosfet(const logical_line& line, const std::string& name,
                          const std::string& prefix,
                          const std::unordered_map<std::string, std::string>* ports)
        {
            require(line, 6);
            const model_def& m = model(line, line.tokens[5]);
            if (m.type != "nmos" && m.type != "pmos")
                fail(line, "model is not a MOSFET");
            mosfet_model mm;
            mm.polarity = m.type == "nmos" ? mos_polarity::nmos : mos_polarity::pmos;
            mm.vto = get(m, "vto", mm.vto);
            mm.kp = get(m, "kp", mm.kp);
            mm.lambda = get(m, "lambda", mm.lambda);
            mm.gamma = get(m, "gamma", mm.gamma);
            mm.phi = get(m, "phi", mm.phi);
            mm.cox = get(m, "cox", mm.cox);
            mm.cgso = get(m, "cgso", mm.cgso);
            mm.cgdo = get(m, "cgdo", mm.cgdo);
            mm.cbd = get(m, "cbd", mm.cbd);
            mm.cbs = get(m, "cbs", mm.cbs);

            real w = 10e-6;
            real l = 1e-6;
            std::size_t i = 6;
            while (i < line.tokens.size()) {
                if (i + 2 >= line.tokens.size() || line.tokens[i + 1] != "=")
                    fail(line, "MOSFET geometry must be W=val L=val");
                const std::string key = lower(line.tokens[i]);
                const real v = value(line, line.tokens[i + 2]);
                if (key == "w")
                    w = v;
                else if (key == "l")
                    l = v;
                else
                    fail(line, "unknown MOSFET parameter '" + key + "'");
                i += 3;
            }
            const auto node_at = [&](std::size_t k) {
                return map_node(line.tokens[k], prefix, ports);
            };
            out_.ckt.add<mosfet>(name, node_at(1), node_at(2), node_at(3), node_at(4), mm, w, l);
        }

        void expand_subckt(const logical_line& line, const std::string& prefix,
                           const std::unordered_map<std::string, std::string>* outer_ports,
                           int depth)
        {
            if (depth > 16)
                fail(line, "subcircuit nesting too deep (cycle?)");
            if (line.tokens.size() < 3)
                fail(line, "X line needs nodes and a subcircuit name");
            const std::string sub_name = lower(line.tokens.back());
            const auto it = subckts_.find(sub_name);
            if (it == subckts_.end())
                fail(line, "unknown subcircuit '" + sub_name + "'");
            const subckt_def& def = it->second;
            const std::size_t node_count = line.tokens.size() - 2;
            if (node_count != def.ports.size())
                fail(line, "subcircuit '" + sub_name + "' expects "
                               + std::to_string(def.ports.size()) + " nodes, got "
                               + std::to_string(node_count));

            // Map formal ports to the caller's (already-mapped) node names.
            std::unordered_map<std::string, std::string> port_map;
            for (std::size_t k = 0; k < def.ports.size(); ++k) {
                const node_id outer = map_node(line.tokens[k + 1], prefix, outer_ports);
                port_map[def.ports[k]] = out_.ckt.node_name(outer);
            }
            const std::string inner_prefix = prefix + lower(line.tokens[0]) + ".";
            for (const logical_line& body : def.body)
                dispatch(body, inner_prefix, &port_map, depth + 1);
        }

        void parse_analysis(const logical_line& line)
        {
            const std::string head = lower(line.tokens[0]);
            analysis_card card;
            if (head == ".op") {
                card.kind = analysis_kind::op;
            } else if (head == ".ac") {
                // .ac dec ppd fstart fstop
                if (line.tokens.size() < 5 || lower(line.tokens[1]) != "dec")
                    fail(line, ".ac expects: .ac dec ppd fstart fstop");
                card.kind = analysis_kind::ac;
                card.points_per_decade
                    = static_cast<std::size_t>(value(line, line.tokens[2]));
                card.fstart = value(line, line.tokens[3]);
                card.fstop = value(line, line.tokens[4]);
            } else if (head == ".tran") {
                if (line.tokens.size() < 3)
                    fail(line, ".tran expects: .tran dt tstop");
                card.kind = analysis_kind::tran;
                card.dt = value(line, line.tokens[1]);
                card.tstop = value(line, line.tokens[2]);
            } else if (head == ".temp") {
                // Campaign card: the TEMP axis of a corner farm grid.
                if (line.tokens.size() < 2)
                    fail(line, ".temp expects at least one temperature");
                for (std::size_t i = 1; i < line.tokens.size(); ++i)
                    out_.temp_values.push_back(value(line, line.tokens[i]));
                return;
            } else if (head == ".corner") {
                // Campaign card: .corner name [param = value ...]
                if (line.tokens.size() < 2)
                    fail(line, ".corner expects a name");
                corner_card corner;
                corner.name = lower(line.tokens[1]);
                std::size_t i = 2;
                while (i < line.tokens.size()) {
                    if (i + 2 >= line.tokens.size() || line.tokens[i + 1] != "=")
                        fail(line, ".corner expects param = value pairs");
                    corner.overrides[lower(line.tokens[i])] = value(line, line.tokens[i + 2]);
                    i += 3;
                }
                out_.corners.push_back(std::move(corner));
                return;
            } else if (head == ".stability") {
                card.kind = analysis_kind::stability_all;
                std::size_t i = 1;
                if (i < line.tokens.size() && lower(line.tokens[i]) != "all"
                    && !try_parse_spice_number(line.tokens[i]).has_value()) {
                    card.kind = analysis_kind::stability_node;
                    card.node = lower(line.tokens[i]);
                    ++i;
                } else if (i < line.tokens.size() && lower(line.tokens[i]) == "all") {
                    ++i;
                }
                if (i < line.tokens.size())
                    card.fstart = value(line, line.tokens[i++]);
                if (i < line.tokens.size())
                    card.fstop = value(line, line.tokens[i++]);
                if (i < line.tokens.size())
                    card.points_per_decade
                        = static_cast<std::size_t>(value(line, line.tokens[i++]));
            } else {
                fail(line, "unknown card '" + head + "'");
            }
            out_.analyses.push_back(card);
        }

        parsed_netlist& out_;
        const parse_options& opt_;
        std::unordered_set<std::string> overridden_;
        std::vector<logical_line> main_body_;
        std::unordered_map<std::string, model_def> models_;
        std::unordered_map<std::string, subckt_def> subckts_;
    };

} // namespace

parsed_netlist parse_netlist(std::string_view text, const parse_options& opt)
{
    parsed_netlist out;
    std::vector<logical_line> lines = tokenize(text, out.title);
    netlist_builder builder(out, opt);
    builder.run(lines);
    out.ckt.finalize();
    return out;
}

parsed_netlist parse_netlist_file(const std::string& path, const parse_options& opt)
{
    std::ifstream in(path);
    if (!in)
        throw parse_error("cannot open netlist file '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_netlist(buffer.str(), opt);
}

} // namespace acstab::spice
