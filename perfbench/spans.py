"""Self times and per-layer metrics from the traced replay's spans.

A span is a dict with name ("<layer>.<what>"), start_ns, end_ns, parent
(index into the span list, -1 for a root) and request. A span's self
time is its duration minus the part of it that its children cover; the
replay is single-threaded, so children never overlap and the covered
part is the sum of their durations (clipped to the parent's interval).
"""

import statistics
from collections import defaultdict

LAYERS = ("spice", "engine", "numeric", "core", "analysis", "farm")

# Roots that replay one operation of a workload; trace.root_s and the
# coverage check are taken over these.
OPERATION_ROOTS = ("acstab.stability_all", "acstab.stability_node", "acstab.impedance",
                   "farm.request")
# Side measurements: recorded for their own numbers, never part of an
# operation or of a layer's self time.
SIDE_ROOTS = ("numeric.split", "farm.merge_replay")


def duration_s(span):
    return (span["end_ns"] - span["start_ns"]) * 1e-9


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Self time in seconds of every span, by index."""
    covered = [0] * len(spans)
    for s in spans:
        p = s["parent"]
        if p >= 0:
            parent = spans[p]
            lo = max(s["start_ns"], parent["start_ns"])
            hi = min(s["end_ns"], parent["end_ns"])
            covered[p] += max(0, hi - lo)
    return [(s["end_ns"] - s["start_ns"] - c) * 1e-9 for s, c in zip(spans, covered)]


def subtrees(spans):
    """Root index -> indices of every span under it (itself included)."""
    root_of = []
    for i, s in enumerate(spans):
        root_of.append(i if s["parent"] < 0 else root_of[s["parent"]])
    out = defaultdict(list)
    for i, r in enumerate(root_of):
        out[r].append(i)
    return out


def request_breakdown(spans):
    """One dict per request id: the summed duration of its operation
    roots and their own (unattributed) self time, each layer's self time
    over every non-side root of the request, and the summed duration of
    each span name under those roots."""
    selfs = self_times(spans)
    rows = {}
    for root, members in sorted(subtrees(spans).items()):
        root_name = spans[root]["name"]
        if root_name in SIDE_ROOTS:
            continue
        row = rows.setdefault(spans[root]["request"], {
            "root_s": 0.0, "root_self_s": 0.0,
            "layer_self_s": {layer: 0.0 for layer in LAYERS}, "by_name": defaultdict(float)})
        for i in members:
            name = spans[i]["name"]
            if i == root and root_name in OPERATION_ROOTS:
                row["root_s"] += duration_s(spans[i])
                row["root_self_s"] += selfs[i]
                continue
            if layer_of(name) in row["layer_self_s"]:
                row["layer_self_s"][layer_of(name)] += selfs[i]
            if i != root:
                row["by_name"][name] += duration_s(spans[i])
    return [dict(rows[r], request=r, by_name=dict(rows[r]["by_name"])) for r in sorted(rows)]


def named_roots(spans, name):
    """Per root called `name`: total duration of each span name under it."""
    out = []
    for root, members in sorted(subtrees(spans).items()):
        if spans[root]["name"] != name:
            continue
        by_name = defaultdict(float)
        for i in members:
            by_name[spans[i]["name"]] += duration_s(spans[i])
        out.append(dict(by_name))
    return out


def durations(spans, name):
    return [duration_s(s) for s in spans if s["name"] == name]


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    """Linear-interpolated quantile q in [0, 1] of a non-empty list."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)
