"""Seeded input generator: byte-deterministic per seed, distinct across
seeds, same size and structure for every seed.

    python3 -m unittest discover -s perfbench/tests
"""

import hashlib
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import gen  # noqa: E402


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class LoopMeshTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        a, ia = gen.loopmesh(7, 400, 5, followers=1)
        b, ib = gen.loopmesh(7, 400, 5, followers=1)
        self.assertEqual(digest(a), digest(b))
        self.assertEqual(ia, ib)

    def test_different_seeds_differ(self):
        texts = {digest(gen.loopmesh(seed, 400, 5, followers=1)[0]) for seed in range(1, 11)}
        self.assertEqual(len(texts), 10)

    def test_structure_is_seed_independent(self):
        """Every seed yields the same element counts: costs stay comparable."""
        def shape(text):
            return sorted((line.split()[0][0], line.split()[0] == ".subckt")
                          for line in text.splitlines()
                          if line and not line.startswith(("*", "+", ".model", ".end")))
        shapes = {tuple(shape(gen.loopmesh(seed, 400, 5, followers=1)[0]))
                  for seed in (1, 2, 3)}
        self.assertEqual(len(shapes), 1)

    def test_cells_and_watch_nodes(self):
        text, info = gen.loopmesh(3, 900, 9, followers=2)
        self.assertEqual(info["k"], 30)
        kinds = [c["kind"] for c in info["cells"]]
        self.assertEqual(kinds.count("follower"), 2)
        self.assertEqual(len(kinds), 9)
        self.assertEqual(len({c["site"] for c in info["cells"]}), 9)
        for n, cell in enumerate(info["cells"]):
            self.assertIn(".subckt cell%d tap" % n, text)
            self.assertIn("\n%s %s cell%d\n" % (cell["inst"], cell["site"], n), text)
            self.assertTrue(cell["watch"].startswith(cell["inst"] + "."))
        self.assertNotIn(info["centre"], {c["site"] for c in info["cells"]})

    def test_centre_tank(self):
        text, info = gen.loopmesh(1, 100, 2, centre_tank=True)
        self.assertIn("\nlc %s 0 " % info["centre"], text)
        self.assertIn("\ncc %s 0 " % info["centre"], text)
        self.assertNotIn("\nlc ", gen.loopmesh(1, 100, 2)[0])

    def test_values_are_plain_numbers(self):
        text, _ = gen.loopmesh(5, 200, 3, followers=1)
        for line in text.splitlines():
            if re.match(r"^(rh|rv|c\d)", line):
                float(line.split()[-1])

    def test_rejects_bad_follower_count(self):
        with self.assertRaises(ValueError):
            gen.loopmesh(1, 100, 2, followers=3)


class CampaignTest(unittest.TestCase):
    def test_cell_deterministic_and_seeded(self):
        self.assertEqual(gen.campaign_cell(4), gen.campaign_cell(4))
        self.assertNotEqual(gen.campaign_cell(4), gen.campaign_cell(5))
        self.assertIn(".param rs=", gen.campaign_cell(4))

    def test_plan_args(self):
        for kind in ("stability", "transient"):
            a = gen.campaign_plan_args(2, kind, 12, 25)
            self.assertEqual(a, gen.campaign_plan_args(2, kind, 12, 25))
            self.assertNotEqual(a, gen.campaign_plan_args(3, kind, 12, 25))
            temps = a[a.index("--temps") + 1].split(",")
            cls = a[a.index("--param") + 1].split("=", 1)[1].split(",")
            self.assertEqual((len(temps), len(cls)), (12, 25))
        self.assertIn("transient", gen.campaign_plan_args(2, "transient", 3, 3))
        with self.assertRaises(ValueError):
            gen.campaign_plan_args(1, "impedance", 2, 2)


if __name__ == "__main__":
    unittest.main()
