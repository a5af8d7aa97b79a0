// GCC 12 false positive (GCC bug 105651): -Wrestrict on libstdc++'s
// inlined std::string concatenation. Off for this file, before its includes.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include "gen/netlist_gen.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/error.h"

namespace acstab::gen {

namespace {

    void append_value(std::string& out, real v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", v);
        out += buf;
    }

    void append_stability_card(std::string& out, const std::string& probe,
                               const gen_options& opt)
    {
        out += ".stability " + probe + " ";
        append_value(out, opt.fstart);
        out += " ";
        append_value(out, opt.fstop);
        out += " " + std::to_string(opt.points_per_decade) + "\n.end\n";
    }

    /// Hard ceiling on generated node counts. Far above anything the
    /// bench sweeps (the largest CI size is 8k; manual runs go to a few
    /// hundred thousand) but low enough that every index/size product
    /// below stays comfortably inside std::size_t on 32- and 64-bit.
    constexpr std::size_t max_gen_nodes = std::size_t{1} << 26; // ~67M

    void check(const gen_options& opt)
    {
        if (opt.size == 0)
            throw analysis_error("gen: size must be at least 1");
        if (opt.size > max_gen_nodes)
            throw analysis_error("gen: size " + std::to_string(opt.size)
                                 + " exceeds the generator ceiling of "
                                 + std::to_string(max_gen_nodes) + " nodes");
        if (!(opt.r > 0.0) || !(opt.c > 0.0))
            throw analysis_error("gen: r and c must be positive");
        if (!(opt.fstart > 0.0) || !(opt.fstop > opt.fstart))
            throw analysis_error("gen: need 0 < fstart < fstop");
    }

    /// Rounded integer square root: exact integer arithmetic, no
    /// double round-trip (lround(sqrt(double)) silently loses precision
    /// past 2^53 and its long return truncates on LLP64), no overflow:
    /// the Newton iterate stays within ~2*sqrt(n) for n <= max_gen_nodes.
    [[nodiscard]] std::size_t isqrt_round(std::size_t n)
    {
        if (n == 0)
            return 0;
        std::size_t x = n;
        std::size_t y = (x + 1) / 2;
        while (y < x) {
            x = y;
            y = (x + n / x) / 2;
        }
        // x = floor(sqrt(n)); round to nearest by comparing remainders.
        // n - x^2 > (x+1)^2 - n  <=>  n > x^2 + x (all well in range).
        return n - x * x > x ? x + 1 : x;
    }

    /// reserve() with saturating size arithmetic: the estimate is only a
    /// growth hint, so on (32-bit) overflow we clamp instead of wrapping
    /// to a tiny — or absurd — request.
    void reserve_estimate(std::string& out, std::size_t count, std::size_t bytes_per,
                          std::size_t slack)
    {
        constexpr std::size_t cap = std::numeric_limits<std::size_t>::max() / 2;
        const std::size_t est = count > cap / bytes_per ? cap : count * bytes_per;
        out.reserve(est > cap - slack ? cap : est + slack);
    }

} // namespace

std::string ladder_netlist(const gen_options& opt)
{
    check(opt);
    const std::size_t n = opt.size;
    std::string out;
    reserve_estimate(out, n, 64, 256);
    out += "* generated RC ladder, " + std::to_string(n) + " sections (acstab gen ladder)\n";
    out += "vin in 0 1 ac 1\n";
    for (std::size_t k = 1; k <= n; ++k) {
        const std::string prev = k == 1 ? std::string("in") : "n" + std::to_string(k - 1);
        const std::string node = "n" + std::to_string(k);
        out += "r" + std::to_string(k) + " " + prev + " " + node + " ";
        append_value(out, opt.r);
        out += "\nc" + std::to_string(k) + " " + node + " 0 ";
        append_value(out, opt.c);
        out += "\n";
    }
    append_stability_card(out, "n" + std::to_string((n + 1) / 2), opt);
    return out;
}

namespace {

    [[nodiscard]] std::string mesh_node(std::size_t i, std::size_t j)
    {
        return "n" + std::to_string(i) + "_" + std::to_string(j);
    }

    /// The driven k x k RC grid shared by rcmesh and loopmesh.
    void append_mesh(std::string& out, std::size_t k, const gen_options& opt)
    {
        out += "vin src 0 1 ac 1\n";
        out += "rdrv src " + mesh_node(0, 0) + " ";
        append_value(out, opt.r);
        out += "\n";
        std::size_t re = 0;
        std::size_t ce = 0;
        for (std::size_t i = 0; i < k; ++i) {
            for (std::size_t j = 0; j < k; ++j) {
                if (j + 1 < k) {
                    out += "rh" + std::to_string(re++) + " " + mesh_node(i, j) + " "
                        + mesh_node(i, j + 1) + " ";
                    append_value(out, opt.r);
                    out += "\n";
                }
                if (i + 1 < k) {
                    out += "rv" + std::to_string(re++) + " " + mesh_node(i, j) + " "
                        + mesh_node(i + 1, j) + " ";
                    append_value(out, opt.r);
                    out += "\n";
                }
                out += "c" + std::to_string(ce++) + " " + mesh_node(i, j) + " 0 ";
                append_value(out, opt.c);
                out += "\n";
            }
        }
    }

    /// One loop cell as a .subckt with port `tap`, coupled through
    /// 100 kOhm so the loop keeps its own poles: a parallel RLC tank or a
    /// two-pole gm loop. `scale` multiplies the cell's capacitors, moving
    /// its poles off every other cell's.
    void append_cell(std::string& out, const std::string& name, bool tank, real scale)
    {
        const auto cap = [scale](real c) {
            std::string v;
            append_value(v, c * scale);
            return v;
        };
        out += ".subckt " + name + " tap\n";
        if (tank) {
            // rlc_tank.sp: fn = 1 MHz, zeta = 0.2.
            out += "r1 tank 0 397.887\nl1 tank 0 25.3303u\nc1 tank 0 " + cap(1e-9)
                + "\nrc tank tap 100k\n";
        } else {
            // two_pole_loop.sp: closed-loop pair near 3.2 MHz, zeta ~0.16.
            out += "vin in 0 0\ng1 0 s1 in fb 0.01\nr1 s1 0 10k\nc1 s1 0 " + cap(15.9155e-9)
                + "\ng2 0 out s1 0 0.01\nr2 out 0 10k\nc2 out 0 " + cap(15.9155e-12)
                + "\nvprobe out fb 0\nrbleed fb 0 1e12\nrc out tap 100k\n";
        }
        out += ".ends\n";
    }

} // namespace

std::string rcmesh_netlist(const gen_options& opt)
{
    check(opt);
    const std::size_t k = std::max<std::size_t>(2, isqrt_round(opt.size));
    std::string out;
    reserve_estimate(out, k * k, 96, 256);
    out += "* generated " + std::to_string(k) + "x" + std::to_string(k)
        + " RC mesh (acstab gen rcmesh)\n";
    append_mesh(out, k, opt);
    append_stability_card(out, mesh_node(k / 2, k / 2), opt);
    return out;
}

std::string loopmesh_netlist(const gen_options& opt)
{
    check(opt);
    constexpr std::size_t cells = 4;
    const std::size_t k = std::max<std::size_t>(4, isqrt_round(opt.size));
    const std::size_t interior = (k - 2) * (k - 2);
    std::string out;
    reserve_estimate(out, k * k, 96, 512 * cells);
    out += "* generated " + std::to_string(k) + "x" + std::to_string(k)
        + " RC mesh with loop cells (acstab gen loopmesh)\n";
    std::string instances;
    std::string probe;
    for (std::size_t t = 0; t < cells; ++t) {
        const std::string id = std::to_string(t);
        const std::string name = "cell" + id;
        append_cell(out, name, t % 2 == 0, 1.0 + 0.13 * static_cast<real>(t));
        // Sites spread evenly over the interior nodes.
        const std::size_t at = (2 * t + 1) * interior / (2 * cells);
        const std::string site = mesh_node(1 + at / (k - 2), 1 + at % (k - 2));
        instances += "x" + id + " " + site + " " + name + "\n";
        if (t == 0)
            probe = site;
    }
    append_mesh(out, k, opt);
    out += instances;
    append_stability_card(out, probe, opt);
    return out;
}

std::string generate_netlist(const std::string& kind, const gen_options& opt)
{
    if (kind == "ladder")
        return ladder_netlist(opt);
    if (kind == "rcmesh")
        return rcmesh_netlist(opt);
    if (kind == "loopmesh")
        return loopmesh_netlist(opt);
    throw analysis_error("gen: unknown netlist kind '" + kind
                         + "' (ladder | rcmesh | loopmesh)");
}

} // namespace acstab::gen
