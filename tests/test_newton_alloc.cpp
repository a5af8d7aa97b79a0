// Allocation audit of the Newton loop: once the first solve has recorded
// the stamp pattern and built the symbolic analysis, a DC Newton
// iteration allocates nothing, and a transient run's allocations do not
// grow with its step count. Every global operator new in the process is
// counted; the assertions read the count across the window under test
// only.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "numeric/sparse_factor.h"
#include "spice/devices/sources.h"
#include "spice/newton_solver.h"
#include "spice/parser/netlist_parser.h"
#include "spice/tran_analysis.h"
#include "spice/waveform_spec.h"

#ifndef ACSTAB_NETLIST_DIR
#define ACSTAB_NETLIST_DIR "netlists"
#endif

namespace {

std::atomic<std::size_t> g_allocations{0};

[[nodiscard]] void* counted_malloc(std::size_t size) noexcept
{
    ++g_allocations;
    return std::malloc(size != 0 ? size : 1);
}

[[nodiscard]] void* counted_aligned(std::size_t size, std::align_val_t align) noexcept
{
    ++g_allocations;
    void* p = nullptr;
    // posix_memalign, not std::aligned_alloc: operator new sizes need not
    // be multiples of the alignment.
    const std::size_t a = std::max(static_cast<std::size_t>(align), sizeof(void*));
    return posix_memalign(&p, a, size != 0 ? size : 1) == 0 ? p : nullptr;
}

} // namespace

// Every replaceable allocation function is replaced, so each block the
// process frees comes from this file's malloc (a library's nothrow or
// aligned operator new paired with this file's delete would mismatch
// under a sanitizer runtime).
void* operator new(std::size_t size)
{
    if (void* p = counted_malloc(size))
        return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size)
{
    return operator new(size);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return counted_malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return counted_malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align)
{
    if (void* p = counted_aligned(size, align))
        return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept
{
    return counted_aligned(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept
{
    return counted_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace acstab;
using namespace acstab::spice;

[[nodiscard]] parsed_netlist load(const std::string& name)
{
    return parse_netlist_file(std::string(ACSTAB_NETLIST_DIR) + "/" + name);
}

/// The plain DC rung dc_operating_point runs first (default options, no
/// gshunt) on a fresh shared solver, from every unknown at `start` with
/// node updates limited to `max_step`. Each stamp pass notes the
/// allocation count and the symbolic builds so far, so the window
/// between two passes is one iteration: its solve, its update and the
/// next pass.
struct dc_rung_trace {
    std::vector<std::size_t> allocations;
    std::vector<std::size_t> symbolic_builds;
    newton_outcome outcome;
    std::size_t supernodes = 0;
};

[[nodiscard]] dc_rung_trace trace_dc_rung(const std::string& netlist, real start,
                                          real max_step)
{
    parsed_netlist net = load(netlist);
    circuit& c = net.ckt;
    c.finalize();
    const dc_options opt;
    stamp_params params;
    params.gmin = opt.gmin;
    newton_rules rules;
    rules.max_iterations = opt.max_iterations;
    rules.max_step = max_step;
    const std::size_t nodes = c.node_count();

    dc_rung_trace trace;
    {
        // The symbolic analysis of the rung's first stamp.
        system_builder<real> b(c.unknown_count());
        const std::vector<real> zero(c.unknown_count(), 0.0);
        for (const auto& dev : c.devices())
            dev->stamp_dc(zero, params, b);
        const numeric::symbolic_lu<real> sym{numeric::csc_matrix<real>(b.matrix())};
        trace.supernodes = sym.supernodes().count();
    }

    newton_solver solver(c.unknown_count());
    trace.allocations.reserve(static_cast<std::size_t>(rules.max_iterations));
    trace.symbolic_builds.reserve(static_cast<std::size_t>(rules.max_iterations));
    const auto stamp = [&](const std::vector<real>& x, system_builder<real>& b) {
        trace.allocations.push_back(g_allocations.load());
        trace.symbolic_builds.push_back(solver.stats().symbolic_builds);
        for (const auto& dev : c.devices())
            dev->stamp_dc(x, params, b);
        stamp_gshunt(nodes, opt.gshunt, b);
    };
    for (const auto& dev : c.devices())
        dev->dc_begin();
    std::vector<real> x(c.unknown_count(), start);
    trace.outcome = newton_iterate(x, nodes, rules, stamp, &solver, solver_kind::sparse);
    return trace;
}

/// Every iteration after the first solve that keeps the recorded stamp
/// pattern allocates nothing. (An iteration whose stamp sequence changed
/// rebuilds the pattern and its symbolic analysis, which allocates; the
/// follower's zero start drops exact-zero junction stamps, so its first
/// iterations do.)
void expect_dc_iterations_allocation_free(const std::string& netlist, std::size_t supernodes,
                                          real start, real max_step)
{
    const dc_rung_trace trace = trace_dc_rung(netlist, start, max_step);
    ASSERT_EQ(trace.supernodes, supernodes) << netlist;
    ASSERT_TRUE(trace.outcome.converged) << netlist;
    std::size_t steady = 0;
    for (std::size_t it = 1; it + 1 < trace.allocations.size(); ++it) {
        if (trace.symbolic_builds[it + 1] != trace.symbolic_builds[it])
            continue;
        ++steady;
        EXPECT_EQ(trace.allocations[it + 1] - trace.allocations[it], 0u)
            << netlist << ": Newton iteration " << it + 1;
    }
    EXPECT_GE(steady, 10u) << netlist;
    EXPECT_GE(steady + 4, trace.allocations.size() - 1) << netlist;
}

/// Allocations of a transient run of `steps` nominal steps on the
/// netlist with `source` switched to a step at 5 ns.
[[nodiscard]] std::size_t tran_allocations(const std::string& netlist, const std::string& source,
                                           int steps, std::size_t& solves)
{
    parsed_netlist net = load(netlist);
    auto* vs = dynamic_cast<vsource*>(net.ckt.find_device(source));
    EXPECT_NE(vs, nullptr) << netlist;
    if (vs == nullptr)
        return 0;
    const real dc = vs->spec().dc;
    vs->set_spec(waveform_spec::make_step(dc, dc + 0.01, 5e-9, 1e-9));
    tran_options opt;
    opt.dt = 1e-9;
    opt.tstop = steps * opt.dt;
    const std::size_t before = g_allocations.load();
    const tran_result res = transient(net.ckt, opt);
    const std::size_t allocations = g_allocations.load() - before;
    EXPECT_EQ(res.step_count(), static_cast<std::size_t>(steps) + 1) << netlist;
    EXPECT_EQ(res.solver.pattern_rebuilds, 0u) << netlist;
    EXPECT_EQ(res.solver.symbolic_builds, 1u) << netlist;
    solves = res.solver.solves;
    return allocations;
}

/// Four times the steps, next to no more allocations: the DC operating
/// point and the pattern are set up once, the step loop reuses its
/// vectors, and the two waveform buffers (times, states) double as they
/// grow, so between 101 and 401 stored steps each reallocates at most
/// three times. One allocation per step would add 300.
void expect_tran_steps_allocation_free(const std::string& netlist, const std::string& source)
{
    std::size_t solves_short = 0;
    std::size_t solves_long = 0;
    const std::size_t short_run = tran_allocations(netlist, source, 100, solves_short);
    const std::size_t long_run = tran_allocations(netlist, source, 400, solves_long);
    EXPECT_GE(solves_long, solves_short + 300) << netlist;
    EXPECT_GE(long_run, short_run) << netlist;
    EXPECT_LE(long_run - short_run, 6u) << netlist << ": " << solves_long - solves_short
                                        << " more Newton solves";
}

TEST(newton_alloc, one_supernode_dc_iterations_allocate_nothing)
{
    // 81 iterations from the zero start (`acstab op`).
    expect_dc_iterations_allocation_free("follower.sp", 1, 0.0, dc_options{}.max_step);
}

TEST(newton_alloc, two_supernode_dc_iterations_allocate_nothing)
{
    // The loop's operating point is all zeros; from 1 V with 50 mV steps
    // Newton walks there in 20 limited iterations.
    expect_dc_iterations_allocation_free("three_pole_loop.sp", 2, 1.0, 0.05);
}

TEST(newton_alloc, one_supernode_transient_steps_allocate_nothing)
{
    expect_tran_steps_allocation_free("follower.sp", "vbias");
}

TEST(newton_alloc, two_supernode_transient_steps_allocate_nothing)
{
    expect_tran_steps_allocation_free("three_pole_loop.sp", "vin");
}

} // namespace
