"""Self-time computation over recorded spans, and the output checks."""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import checks  # noqa: E402
import spans  # noqa: E402


def span(name, start, end, parent=-1, request=0):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "request": request}


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        ms = 1_000_000
        self.spans = [
            span("acstab.stability_node", 0, 100 * ms),          # 0
            span("spice.parse", 1 * ms, 11 * ms, 0),              # 1
            span("spice.dc", 11 * ms, 31 * ms, 0),                # 2
            span("engine.sweep", 31 * ms, 91 * ms, 0),            # 3
            span("numeric.refactor", 40 * ms, 70 * ms, 3),        # 4
            span("core.report", 91 * ms, 99 * ms, 0),             # 5
            span("numeric.split", 100 * ms, 150 * ms),            # 6: side root
            span("numeric.refactor", 110 * ms, 120 * ms, 6),      # 7
            span("acstab.stability_node", 200 * ms, 280 * ms, request=1),
            span("spice.parse", 200 * ms, 280 * ms, 8),
        ]

    def test_self_times(self):
        s = spans.self_times(self.spans)
        self.assertAlmostEqual(s[0], 0.002)   # 100 - (10 + 20 + 60 + 8) ms
        self.assertAlmostEqual(s[3], 0.030)   # sweep minus its refactor
        self.assertAlmostEqual(s[4], 0.030)
        self.assertAlmostEqual(s[6], 0.040)

    def test_children_plus_root_self_sum_to_root(self):
        rows = spans.request_breakdown(self.spans)
        self.assertEqual(len(rows), 2)  # the side root is not an operation
        for row in rows:
            total = row["root_self_s"] + sum(row["layer_self_s"].values())
            self.assertAlmostEqual(total, row["root_s"])
        first = rows[0]
        self.assertAlmostEqual(first["layer_self_s"]["spice"], 0.030)
        self.assertAlmostEqual(first["layer_self_s"]["engine"], 0.030)
        self.assertAlmostEqual(first["layer_self_s"]["numeric"], 0.030)
        self.assertAlmostEqual(first["by_name"]["engine.sweep"], 0.060)
        self.assertEqual(rows[1]["request"], 1)

    def test_point_roots_join_their_request(self):
        """Non-operation roots (the farm point replay) add layer time to
        their request but not to its root."""
        extra = self.spans + [span("farm.points", 300, 400, request=1),
                              span("spice.tran", 300, 390, 10)]
        rows = spans.request_breakdown(extra)
        self.assertAlmostEqual(rows[1]["root_s"], 0.080)
        self.assertAlmostEqual(rows[1]["layer_self_s"]["farm"], 10e-9)
        self.assertAlmostEqual(rows[1]["by_name"]["spice.tran"], 90e-9)

    def test_child_outside_parent_is_clipped(self):
        s = spans.self_times([span("farm.request", 0, 10), span("farm.exec", 5, 20, 0)])
        self.assertEqual(s[0], 5e-9)

    def test_named_roots_and_quantile(self):
        (split,) = spans.named_roots(self.spans, "numeric.split")
        self.assertAlmostEqual(split["numeric.split"], 0.05)
        self.assertAlmostEqual(split["numeric.refactor"], 0.01)
        self.assertEqual(spans.quantile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(spans.quantile([], 0.9), 0.0)
        for got, want in zip(spans.durations(self.spans, "numeric.refactor"), [0.03, 0.01]):
            self.assertAlmostEqual(got, want)


class ChecksTest(unittest.TestCase):
    REF = {"nodes": {"x0.tank": {"fn_hz": 1.0e6, "pm_deg": 30.0, "zeta": 0.3}},
           "zkk_max_rel_err": 1e-15}

    def test_frequency_parse(self):
        self.assertEqual(checks.parse_frequency("657kHz"), 657e3)
        self.assertEqual(checks.parse_frequency("1.012MHz"), 1.012e6)
        self.assertEqual(checks.parse_frequency("12Hz"), 12.0)

    def test_allnodes(self):
        csv = ("netlist: *\nnode,peak,natural_frequency_hz,zeta,phase_margin_deg,"
               "overshoot_pct,flag\nx0.tank,-9,1.005e+06,0.302,30.2,40,normal\nn1_1,,,,,,none\n")
        self.assertEqual(checks.check_allnodes(csv, self.REF), [])
        bad = csv.replace("1.005e+06", "1.02e+06")
        self.assertEqual(len(checks.check_allnodes(bad, self.REF)), 1)
        self.assertEqual(len(checks.check_allnodes(csv.replace("x0.tank,-9", "x9.tank,-9"),
                                                   self.REF)), 1)
        worse = dict(self.REF, zkk_max_rel_err=1e-6)
        self.assertEqual(len(checks.check_allnodes(csv, worse)), 1)

    def test_node_summary(self):
        text = ("Node x0.tank:\n  performance index : -9\n  natural frequency : 1.003MHz\n"
                "  damping ratio     : 0.3001\n  est. phase margin : 30.01 deg\n")
        self.assertEqual(checks.check_node(text, self.REF, "x0.tank"), [])
        self.assertEqual(len(checks.check_node(text.replace("30.01", "31"), self.REF,
                                               "x0.tank")), 1)
        self.assertEqual(len(checks.check_node("Node x0.tank:\n  no complex-pole",
                                               self.REF, "x0.tank")), 1)

    def test_impedance(self):
        text = ("  encirclements of -1 : 0\n  verdict             : STABLE (no encirclements)\n"
                "Cross-check: pencil pole analysis says STABLE; impedance criterion AGREES.\n")
        ref = {"encirclements": 0, "stable": True}
        self.assertEqual(checks.check_impedance(text, ref), [])
        self.assertEqual(len(checks.check_impedance(text.replace("AGREES", "DISAGREES"), ref)), 1)
        self.assertEqual(len(checks.check_impedance(text, {"encirclements": 2,
                                                           "stable": False})), 2)

    def test_report_frame(self):
        frame = b'{"frame":"report","id":"r1","completed":2,"quarantined":0,"report":{"a":[1]}}\n'
        self.assertEqual(checks.report_of_frame(frame), b'{"a":[1]}')
        self.assertEqual(checks.check_report(frame, b'{"a":[1]}\n'), [])
        self.assertEqual(len(checks.check_report(frame, b'{"a":[2]}\n')), 1)
        self.assertEqual(len(checks.check_report(b'{"frame":"error"}\n', b"")), 1)


if __name__ == "__main__":
    unittest.main()
