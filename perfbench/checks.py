"""Output checks for the benchmark's workloads.

Each check compares one operation's output with a reference computed
during set-up by an independent path and returns a list of problems
(empty when the output is correct). The tolerances are the README's
adaptive accuracy contract: natural frequency within 1 %, phase margin
within 0.5 degrees.
"""

import re

FN_REL_TOL = 0.01
PM_ABS_TOL_DEG = 0.5
ZETA_REL_TOL = 0.005
ZKK_REL_TOL = 1e-9

_PREFIX = {"T": 1e12, "G": 1e9, "M": 1e6, "k": 1e3, "": 1.0,
           "m": 1e-3, "u": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15}


def parse_frequency(text):
    """Inverse of spice::format_frequency ("657kHz", "1.012MHz")."""
    m = re.fullmatch(r"\s*([-+0-9.eE]+)([TGMkmunpf]?)Hz\s*", text)
    if not m:
        raise ValueError("not a frequency: %r" % text)
    return float(m.group(1)) * _PREFIX[m.group(2)]


def parse_stability_csv(text):
    """Rows of `stability --all --csv`: node -> dict, or None for a node
    without a complex-pole signature."""
    rows = {}
    header_seen = False
    for line in text.splitlines():
        if line.startswith("node,peak,"):
            header_seen = True
            continue
        if not header_seen or not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            continue
        node, peak, fn, zeta, pm, _, flag = parts
        rows[node] = None if flag == "none" else {
            "peak": float(peak), "fn_hz": float(fn), "zeta": float(zeta),
            "pm_deg": float(pm), "flag": flag}
    return rows


def _compare(where, got, ref):
    problems = []
    if abs(got["fn_hz"] - ref["fn_hz"]) > FN_REL_TOL * ref["fn_hz"]:
        problems.append("%s: fn %.6g Hz, reference %.6g Hz" % (where, got["fn_hz"], ref["fn_hz"]))
    if abs(got["pm_deg"] - ref["pm_deg"]) > PM_ABS_TOL_DEG:
        problems.append("%s: PM %.4g deg, reference %.4g deg"
                        % (where, got["pm_deg"], ref["pm_deg"]))
    return problems


def check_allnodes(text, ref):
    """Every seeded cell's loop is found at its watched node with fn and
    PM within tolerance, and the set-up |Z_kk| sample check passed."""
    problems = []
    rows = parse_stability_csv(text)
    for node, r in ref["nodes"].items():
        got = rows.get(node)
        if got is None:
            problems.append("%s: no loop found" % node)
            continue
        problems += _compare(node, got, r)
    if not ref.get("zkk_max_rel_err", 1.0) <= ZKK_REL_TOL:
        problems.append("|Z_kk| samples deviate from one-shot sparse_lu by %r"
                        % ref.get("zkk_max_rel_err"))
    return problems


def parse_node_summary(text):
    """Fields of core::format_node_summary ("Node X:" block)."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if not sep:
            continue
        key = key.strip()
        value = value.strip()
        if key == "natural frequency":
            fields["fn_hz"] = parse_frequency(value)
        elif key == "damping ratio":
            fields["zeta"] = float(value)
        elif key == "est. phase margin":
            fields["pm_deg"] = float(value.split()[0])
    return fields if len(fields) == 3 else None


def check_node(text, ref, node):
    """fn, zeta and PM of the single-node summary match the reference."""
    got = parse_node_summary(text)
    r = ref["nodes"][node]
    if got is None:
        return ["%s: no complex-pole summary in output" % node]
    problems = _compare(node, got, r)
    if abs(got["zeta"] - r["zeta"]) > ZETA_REL_TOL * r["zeta"]:
        problems.append("%s: zeta %.6g, reference %.6g" % (node, got["zeta"], r["zeta"]))
    return problems


def check_impedance(text, ref):
    """Encirclements and verdict match the fixed-grid reference, and the
    pencil-pole cross-check agrees."""
    problems = []
    m = re.search(r"encirclements of -1 : (-?\d+)", text)
    if not m:
        return ["no encirclement count in output"]
    if int(m.group(1)) != int(ref["encirclements"]):
        problems.append("encirclements %s, reference %d" % (m.group(1), ref["encirclements"]))
    want = "STABLE (no" if ref["stable"] else "UNSTABLE"
    if ("verdict             : " + want) not in text:
        problems.append("verdict differs from reference (%s)" % want)
    if not re.search(r"^Cross-check: .* AGREES\.$", text, re.M):
        problems.append("cross-check line does not say AGREES")
    return problems


def report_of_frame(line):
    """Raw bytes of the "report" member of a serve report frame (the
    server splices the orchestrator's canonical report verbatim, last)."""
    key = b',"report":'
    at = line.find(key)
    if at < 0 or not line.rstrip(b"\n").endswith(b"}"):
        raise ValueError("not a report frame")
    return line[at + len(key):].rstrip(b"\n")[:-1]


def check_report(frame_line, reference):
    """The served report is byte-identical to the single-process run."""
    try:
        got = report_of_frame(frame_line)
    except ValueError as e:
        return [str(e)]
    if got != reference.rstrip(b"\n"):
        return ["report bytes differ from the single-process farm run"]
    return []
