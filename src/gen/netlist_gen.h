// Parameterized stress-netlist generators (`acstab gen`).
//
// Nothing shipped in netlists/ is larger than a few dozen unknowns, so
// the solver's large-circuit behavior (fill-in under different column
// orderings, SIMD batch kernels, supernodal refactorization) had no
// in-tree workload to measure against. These emitters produce valid,
// deterministic netlist text from tens to tens of thousands of nodes —
// in the spirit of the FPGA SPICE testbench generators ROADMAP cites —
// for the size-scaling bench ablation, the CI smoke job and manual
// experiments:
//
//   ladder  a driven uniform RC ladder: tridiagonal MNA pattern, the
//           best case for any ordering (near-zero fill), so it isolates
//           kernel effects from fill effects;
//   rcmesh  a k x k 2-D RC grid (k = round(sqrt(size))): the classic
//           fill stress. The natural order fills like n * k here;
//           minimum degree stays near n * log n.
//   loopmesh the rcmesh grid carrying closed-loop cells (tanks and
//           two-pole loops): a large circuit with near-axis poles for
//           pole analysis and the impedance criterion.
//
// Each netlist carries a .stability card probing a representative node,
// so generated files work directly with `acstab run`, `acstab farm plan`
// and every single-analysis command.
#ifndef ACSTAB_GEN_NETLIST_GEN_H
#define ACSTAB_GEN_NETLIST_GEN_H

#include <cstddef>
#include <string>

#include "common/types.h"

namespace acstab::gen {

struct gen_options {
    /// Target circuit node count (the realized count may differ by a few
    /// nodes: the ladder adds its drive node, the mesh rounds to k^2).
    std::size_t size = 100;
    /// Per-section resistance [ohm] and capacitance [F].
    real r = 1e3;
    real c = 1e-9;
    /// Band of the emitted .stability card.
    real fstart = 1e3;
    real fstop = 1e9;
    std::size_t points_per_decade = 20;
};

/// Driven uniform RC ladder with `size` ladder nodes.
[[nodiscard]] std::string ladder_netlist(const gen_options& opt = {});

/// Driven k x k RC mesh, k = round(sqrt(size)) (at least 2).
[[nodiscard]] std::string rcmesh_netlist(const gen_options& opt = {});

/// The rcmesh grid (k at least 4) with four loop cells at interior
/// nodes, each a .subckt instance coupled through 100 kOhm: parallel RLC
/// tanks (rlc_tank.sp) alternating with two-pole gm loops
/// (two_pole_loop.sp), the first a tank, cell t's capacitors scaled by
/// 1 + 0.13 t so no two cells share a pole. The .stability card probes
/// the first tank's mesh node, which is also a valid impedance port (tank
/// and node capacitor against the driven mesh).
[[nodiscard]] std::string loopmesh_netlist(const gen_options& opt = {});

/// Dispatch by kind ("ladder" | "rcmesh" | "loopmesh"); throws
/// analysis_error on an unknown kind.
[[nodiscard]] std::string generate_netlist(const std::string& kind,
                                           const gen_options& opt = {});

} // namespace acstab::gen

#endif // ACSTAB_GEN_NETLIST_GEN_H
