"""Tests for the benchmark's independent checker.

Run from the repository root:

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checker import (  # noqa: E402
    A007769,
    canonical,
    classes,
    flip,
    flip_sites,
    graph_edges,
    ham_cycles,
    is_isomorphic,
    rosenstiehl,
)
from inputs import prism_edges, renumber  # noqa: E402


class TestChecker(unittest.TestCase):
    def test_paper_fixture_verdicts(self):
        self.assertFalse(rosenstiehl("AEBACBDCED"))
        self.assertTrue(rosenstiehl("ADBECADBEC"))
        self.assertTrue(rosenstiehl("ACDECABDEB"))

    def test_class_counts_match_a007769_up_to_six_chords(self):
        found = [classes(n) for n in range(1, 7)]
        self.assertEqual(tuple(len(c) for c in found), A007769[:6])
        realizable = [sum(map(rosenstiehl, c)) for c in found]
        self.assertEqual(realizable, [1, 1, 3, 5, 15, 43])

    def test_one_flip_links_the_two_realizable_fixtures(self):
        pentagram, mixed = "ADBECADBEC", "ACDECABDEB"
        reached = {canonical(flip(pentagram, s)) for s in flip_sites(pentagram)}
        self.assertIn(canonical(mixed), reached)
        back = {canonical(flip(mixed, s)) for s in flip_sites(mixed)}
        self.assertIn(canonical(pentagram), back)

    def test_prism_and_moebius_ladder_are_not_isomorphic(self):
        self.assertFalse(is_isomorphic(prism_edges(6), graph_edges("mobius:6")))
        copy = graph_edges(renumber(random.Random(0), prism_edges(6)))
        self.assertTrue(is_isomorphic(prism_edges(6), copy))

    def test_moebius_ladder_m5_has_eight_hamiltonian_cycles(self):
        self.assertEqual(len(ham_cycles(graph_edges("mobius:5"))), 8)


if __name__ == "__main__":
    unittest.main()
