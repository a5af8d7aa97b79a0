"""Seeded input generator for the acstab end-to-end benchmark.

Every function here is a pure function of its arguments: the same seed
gives byte-identical text, different seeds give different element values
on the same topology (so run-to-run cost stays comparable).

The loop cells are modelled on the shipped fixtures in netlists/: the
BJT emitter follower (follower.sp), the two-pole gm loop
(two_pole_loop.sp) and the parallel RLC tank (rlc_tank.sp). Each cell
instance gets its own .subckt definition because `X` lines cannot pass
parameters, and hangs off the mesh through a weak coupling (100 kOhm, or
1 pF for the follower) so the loop keeps its own natural frequency and
phase margin.
"""

import math
import random

# The node inside each cell kind whose stability plot shows the loop.
CELL_WATCH = {"follower": "f_out", "twopole": "out", "tank": "tank"}

FOLLOWER_MODEL = (
    ".model fnpn npn is=1e-16 bf=150 br=2 vaf=80 cje=0.25p vje=0.75 mje=0.33\n"
    "+ cjc=0.15p vjc=0.6 mjc=0.4 tf=0.5n tr=10n\n"
)


def fmt(value):
    """Netlist number text: 6 significant digits, locale-free."""
    return "%.6g" % value


def _jitter(rng, spread):
    return 1.0 + rng.uniform(-spread, spread)


def _cell_subckt(name, kind, rng):
    """One loop cell as a .subckt with port `tap` (the mesh attachment)."""
    j1 = _jitter(rng, 0.1)
    j2 = _jitter(rng, 0.1)
    lines = [".subckt %s tap" % name]
    if kind == "follower":
        # Only the load capacitance is jittered and the mesh couples in
        # through a capacitor: the loop moves with the seed but the DC
        # solution does not, so its Newton iteration count (100+, each a
        # full factorization of the circuit) is the same for every seed.
        lines += [
            "vdd vdd 0 5",
            "vbias f_src 0 2.5",
            "rsource f_src f_in 10k",
            "qf vdd f_in f_out fnpn",
            "iload f_out 0 1m",
            "cload f_out 0 " + fmt(50e-12 * j2),
            "cc f_out tap 1p",
        ]
    elif kind == "twopole":
        lines += [
            "vin in 0 0",
            "g1 0 s1 in fb 0.01",
            "r1 s1 0 10k",
            "c1 s1 0 " + fmt(15.9155e-9 * j1),
            "g2 0 out s1 0 0.01",
            "r2 out 0 10k",
            "c2 out 0 " + fmt(15.9155e-12 * j2),
            "vprobe out fb 0",
            "rbleed fb 0 1e12",
            "rc out tap 100k",
        ]
    elif kind == "tank":
        lines += [
            "r1 tank 0 " + fmt(397.887 * j1),
            "l1 tank 0 25.3303u",
            "c1 tank 0 " + fmt(1e-9 * j2),
            "rc tank tap 100k",
        ]
    else:
        raise ValueError("unknown cell kind %r" % kind)
    lines.append(".ends")
    return "\n".join(lines) + "\n"


def mesh_side(unknowns):
    """Side k of the k x k mesh closest to `unknowns` mesh nodes."""
    return max(3, int(round(math.sqrt(unknowns))))


def loopmesh(seed, unknowns, cells, followers=0, centre_tank=False):
    """A jittered k x k RC mesh driven from one corner, carrying `cells`
    loop cells at interior nodes: `followers` emitter followers, the rest
    alternating two-pole loops and tanks.

    Followers are counted separately because each one costs the DC
    operating point ~100+ Newton iterations from its zero start, every
    one a full sparse factorization of the whole mesh; see README.md.

    Returns (netlist_text, info). info["cells"] lists each cell's
    instance, kind and watched node (instance-qualified); info["centre"]
    is the mesh's centre node. With centre_tank, a tank sits directly on
    the centre node (no coupling resistor), so the centre node itself
    rings: the single-node workload watches it.
    """
    if not 0 <= followers <= cells:
        raise ValueError("followers must be within [0, cells]")
    rng = random.Random("loopmesh:%d:%d:%d:%d:%d"
                        % (seed, unknowns, cells, followers, centre_tank))
    k = mesh_side(unknowns)

    def node(i, j):
        return "n%d_%d" % (i, j)

    centre = node(k // 2, k // 2)
    out = ["* acstab perfbench loopmesh: %dx%d RC mesh, %d loop cells, seed %d"
           % (k, k, cells, seed)]
    out.append(FOLLOWER_MODEL.rstrip("\n"))

    # The topology (cell sites and kinds) depends on the size only, not
    # on the seed: where the follower sits in the unknown order changes
    # its DC Newton iteration count by +-20 %, which would read as noise.
    # The seed jitters every element value.
    topo = random.Random("loopmesh-topology:%d:%d:%d" % (unknowns, cells, followers))
    interior = [(i, j) for i in range(1, k - 1) for j in range(1, k - 1)
                if node(i, j) != centre]
    sites = topo.sample(interior, cells)
    kinds = ["follower"] * followers + [("twopole", "tank")[n % 2]
                                        for n in range(cells - followers)]
    topo.shuffle(kinds)

    info = {"k": k, "centre": centre, "cells": []}
    for n, (kind, (i, j)) in enumerate(zip(kinds, sites)):
        name = "cell%d" % n
        out.append(_cell_subckt(name, kind, rng).rstrip("\n"))
        inst = "x%d" % n
        info["cells"].append({"inst": inst, "kind": kind, "site": node(i, j),
                              "watch": "%s.%s" % (inst, CELL_WATCH[kind])})

    out.append("vin src 0 1 ac 1")
    out.append("rdrv src %s 1k" % node(0, 0))
    r = 0
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                out.append("rh%d %s %s %s" % (r, node(i, j), node(i, j + 1),
                                              fmt(1e3 * _jitter(rng, 0.2))))
                r += 1
            if i + 1 < k:
                out.append("rv%d %s %s %s" % (r, node(i, j), node(i + 1, j),
                                              fmt(1e3 * _jitter(rng, 0.2))))
                r += 1
            out.append("c%d_%d %s 0 %s" % (i, j, node(i, j), fmt(1e-9 * _jitter(rng, 0.2))))
    for n, cell in enumerate(info["cells"]):
        out.append("%s %s cell%d" % (cell["inst"], cell["site"], n))
    if centre_tank:
        out.append("lc %s 0 %s" % (centre, fmt(25.3303e-6 * _jitter(rng, 0.1))))
        out.append("cc %s 0 %s" % (centre, fmt(1e-9 * _jitter(rng, 0.1))))
    out.append(".end")
    return "\n".join(out) + "\n", info


def campaign_cell(seed):
    """The small parameterized loop cell the farm/serve campaigns sweep:
    the emitter follower with its source resistance and load capacitance
    as .param knobs (a TEMP axis reaches the BJT's kT/q)."""
    rng = random.Random("campaign_cell:%d" % seed)
    rs = 10e3 * _jitter(rng, 0.1)
    cl = 50e-12 * _jitter(rng, 0.1)
    return (
        "* acstab perfbench campaign cell (emitter follower), seed %d\n" % seed
        + FOLLOWER_MODEL
        + ".param rs=%s cl=%s\n" % (fmt(rs), fmt(cl))
        + "vdd vdd 0 5\n"
        "vbias f_src 0 2.5 ac 1\n"
        "rsource f_src f_in {rs}\n"
        "qf vdd f_in f_out fnpn\n"
        "iload f_out 0 1m\n"
        "cload f_out 0 {cl}\n"
        ".end\n"
    )


def campaign_plan_args(seed, kind, temps, params):
    """`acstab farm plan` arguments for one of the two campaign kinds:
    `temps` TEMP values x `params` values of the load capacitance.

    The grid values are seeded; the point count is fixed, so every seed
    costs the same number of points.
    """
    rng = random.Random("campaign_plan:%d:%s" % (seed, kind))
    t0 = rng.uniform(-45.0, -35.0)
    tvals = [t0 + n * 170.0 / max(1, temps - 1) for n in range(temps)]
    c0 = 40e-12 * _jitter(rng, 0.05)
    cvals = [c0 * (1.0 + 0.5 * n / max(1, params - 1)) for n in range(params)]
    args = ["--node", "f_out",
            "--temps", ",".join(fmt(t) for t in tvals),
            "--param", "cl=" + ",".join(fmt(c) for c in cvals)]
    if kind == "stability":
        args += ["--fstart", "1e6", "--fstop", "1e9", "--ppd", "20"]
    elif kind == "transient":
        args += ["--analysis", "transient", "--source", "vbias",
                 "--tstop", "400n", "--dt", "1n", "--step", "0.01"]
    else:
        raise ValueError("unknown campaign kind %r" % kind)
    return args
