// A6 — the sparse shift-invert pole search against the dense pencil
// eigen-solve (analysis/pole_zero.h) on generated loop meshes
// (`acstab gen loopmesh`, each with three_pole_loop.sp added as an
// unstable fifth cell).
// Per size it times both paths in the same run (best of a few
// repetitions), checks that the sparse path finds every dense pole of the
// default band with zeta <= 0.5 and every right-half-plane pole, that the
// two stability verdicts agree and that the sparse search reports no gaps.
//
// Prints a table and one machine-readable ACSTAB_BENCH_JSON line; CI's
// scaling-smoke job asserts the ~700-unknown row's speed ratio and every
// row's agreement. --quick runs only the ~700-unknown mesh (the 2k dense
// solve alone takes most of a minute). Registers no google-benchmark
// cases.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "analysis/pole_zero.h"
#include "gen/netlist_gen.h"
#include "spice/dc_analysis.h"
#include "spice/parser/netlist_parser.h"

namespace {

using namespace acstab;

double best_ms(int reps, const std::function<void()>& fn)
{
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < reps; ++i) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const auto stop = std::chrono::steady_clock::now();
        best = std::min(best, std::chrono::duration<double, std::milli>(stop - start).count());
    }
    return best;
}

struct row {
    std::size_t unknowns = 0;
    double dense_ms = 0.0;
    double sparse_ms = 0.0;
    std::size_t dense_poles = 0;
    std::size_t sparse_poles = 0;
    std::size_t targets = 0;
    double max_rel_err = 0.0; ///< worst target pole, nearest sparse pole
    bool verdicts_agree = false;
    bool complete = false; ///< the sparse search reported no gaps
};

row measure(std::size_t size)
{
    gen::gen_options g;
    g.size = size;
    std::string text = gen::loopmesh_netlist(g);
    text.insert(text.find(".stability"),
                ".subckt cellu tap\nvin in 0 0\ng1 0 s1 in fb 0.01\nr1 s1 0 10k\n"
                "c1 s1 0 15.9155n\ng2 0 s2 s1 0 1m\nr2 s2 0 10k\nc2 s2 0 1.59155n\n"
                "g3 0 out s2 0 1m\nr3 out 0 10k\nc3 out 0 159.155p\nvprobe out fb 0\n"
                "rbleed fb 0 1e12\nrc out tap 100k\n.ends\nxu n5_5 cellu\n");
    spice::parsed_netlist net = spice::parse_netlist(text);
    const std::vector<real> op = spice::dc_operating_point(net.ckt).solution;
    const analysis::pole_zero_options opt;

    row r;
    r.unknowns = net.ckt.unknown_count();
    std::vector<analysis::pole> dense;
    analysis::pole_search_result found;
    r.dense_ms = best_ms(size > 1000 ? 1 : 2, [&] {
        dense = analysis::dense_circuit_poles(net.ckt, op, opt);
    });
    r.sparse_ms = best_ms(5, [&] {
        found = analysis::sparse_circuit_poles(net.ckt, op, opt);
    });
    const std::vector<analysis::pole>& sparse = found.poles;
    r.complete = found.complete();
    r.dense_poles = dense.size();
    r.sparse_poles = sparse.size();
    for (const analysis::pole& d : dense) {
        if (d.freq_hz < opt.fmin_hz || d.freq_hz > opt.fmax_hz
            || !(d.zeta <= 0.5 || analysis::is_right_half_plane(d)))
            continue;
        ++r.targets;
        double best = std::numeric_limits<double>::infinity();
        for (const analysis::pole& p : sparse)
            best = std::min(best, std::abs(p.s - d.s) / std::abs(d.s));
        r.max_rel_err = std::max(r.max_rel_err, best);
    }
    const auto stable = [](const std::vector<analysis::pole>& poles) {
        return std::none_of(poles.begin(), poles.end(), analysis::is_right_half_plane);
    };
    r.verdicts_agree = stable(dense) == stable(sparse);
    return r;
}

} // namespace

int main(int argc, char** argv)
{
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    std::vector<std::size_t> sizes{700};
    if (!quick)
        sizes.push_back(2000);

    std::puts("A6 — sparse shift-invert pole search vs dense eigen-solve (loop meshes)");
    std::puts(" unknowns   dense ms  sparse ms   ratio  poles d/s  targets  max_rel_err  verdicts"
              "  gaps");
    std::vector<row> rows;
    for (const std::size_t size : sizes) {
        const row r = measure(size);
        std::printf("%9zu %10.1f %10.2f %7.1fx %5zu/%-4zu %8zu %12.2e  %-8s  %s\n", r.unknowns,
                    r.dense_ms, r.sparse_ms, r.dense_ms / r.sparse_ms, r.dense_poles,
                    r.sparse_poles, r.targets, r.max_rel_err,
                    r.verdicts_agree ? "agree" : "DIFFER", r.complete ? "none" : "REPORTED");
        rows.push_back(r);
    }
    std::fputs("ACSTAB_BENCH_JSON [", stdout);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const row& r = rows[i];
        std::printf("%s{\"bench\":\"pole_search\",\"kind\":\"loopmesh\",\"unknowns\":%zu,"
                    "\"dense_ms\":%.3f,\"sparse_ms\":%.3f,\"dense_poles\":%zu,"
                    "\"sparse_poles\":%zu,\"targets\":%zu,\"max_rel_err\":%.3g,"
                    "\"verdicts_agree\":%s,\"complete\":%s}",
                    i == 0 ? "" : ",", r.unknowns, r.dense_ms, r.sparse_ms, r.dense_poles,
                    r.sparse_poles, r.targets, r.max_rel_err,
                    r.verdicts_agree ? "true" : "false", r.complete ? "true" : "false");
    }
    std::puts("]");
    return 0;
}
