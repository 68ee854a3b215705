"""Acceptance suite: the package's headline claims, one test per claim.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL
line per claim.  Everything here is desk scale; the heaviest test is the
six-chord sweep and it finishes in seconds.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from gaussflip.cubic import (
    are_isomorphic,
    diagram_from_cycle,
    graph_from_diagram,
    ham_census,
    moebius_ladder,
)
from gaussflip.diagrams import (
    canonical_form,
    canonical_words,
    parse_word,
    parity_check,
)
from gaussflip.flips import apply_flip, flip_sites, verify_flip_theorem
from gaussflip.realize import (
    curve_code,
    gadget_planarity,
    is_realizable,
    realize_all,
    trace_faces,
    transverse_rotation_systems,
)

# the three ten-slot fixtures: one unrealizable, two realizable
UNREALIZABLE = "AEBACBDCED"
PENTAGRAM = "ADBECADBEC"
MIXED = "ACDECABDEB"

# diagram classes per chord count, confirmed by the exhaustive pairing
# brute force in test_diagrams (equivalence = rotation plus reflection)
CLASS_COUNTS = (1, 2, 5, 17, 79, 554)


@contextmanager
def criterion(text: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nFAIL  {text}")
        raise
    print(f"\nPASS  {text}  [{time.perf_counter() - started:.2f}s]")


def test_01_fixture_realizability_verdicts():
    with criterion(
        "fixtures: one ten-slot word is unrealizable, the other two realizable"
    ):
        for word, expected in (
            (UNREALIZABLE, False),
            (PENTAGRAM, True),
            (MIXED, True),
        ):
            d = parse_word(word)
            assert is_realizable(d) is expected, word
            assert gadget_planarity(d) is expected, word


def test_02_one_graph_two_fates():
    with criterion(
        "all three fixtures share the 5-rung ladder graph,"
        " whose cycle census holds both verdicts"
    ):
        ladder = moebius_ladder(5)
        for word in (UNREALIZABLE, PENTAGRAM, MIXED):
            g, _ = graph_from_diagram(parse_word(word))
            assert are_isomorphic(g, ladder)[0], word
        verdicts = {e.realizable for e in ham_census(ladder).entries}
        assert verdicts == {True, False}


def test_03_single_flip_links_the_two_realizable_fixtures():
    with criterion("a single flip carries one realizable fixture to the other"):
        d = parse_word(PENTAGRAM)
        target = canonical_form(parse_word(MIXED)).text
        hits = [
            s
            for s in flip_sites(d)
            if canonical_form(apply_flip(d, s)).text == target
        ]
        assert hits


def test_04_the_two_realizable_fixtures_are_different_curves():
    with criterion(
        "the two realizable fixtures give disjoint curve codes;"
        " pentagram faces are {2,2,2,2,2,5,5}"
    ):
        reports_p = realize_all(parse_word(PENTAGRAM))
        reports_m = realize_all(parse_word(MIXED))
        codes_p = {curve_code(r).text for r in reports_p}
        codes_m = {curve_code(r).text for r in reports_m}
        assert codes_p and codes_m
        assert not codes_p & codes_m
        faces_p = {r.face_degrees() for r in reports_p}
        faces_m = {r.face_degrees() for r in reports_m}
        assert faces_p == {(2, 2, 2, 2, 2, 5, 5)}
        assert not faces_p & faces_m


def test_05_flip_theorem_sweep_six_chords():
    with criterion(
        "no flip changes realizability over every diagram class up to 6 chords"
    ):
        for n, expected in enumerate(CLASS_COUNTS, start=1):
            assert len(canonical_words(n)) == expected, n
        report = verify_flip_theorem(6)
        assert report.diagrams_checked == sum(CLASS_COUNTS)
        assert report.counterexamples == ()


def test_06_oracles_agree_up_to_six_chords():
    with criterion(
        "face tracing and gadget planarity agree on every class up to 6 chords"
    ):
        for n in range(1, 7):
            for word in canonical_words(n):
                d = parse_word(word)
                assert is_realizable(d) == gadget_planarity(d), word


def test_07_parity_necessary_not_sufficient():
    with criterion(
        "realizable implies parity up to 6 chords,"
        " yet one parity-passing fixture is unrealizable"
    ):
        for n in range(1, 7):
            for word in canonical_words(n):
                d = parse_word(word)
                if is_realizable(d):
                    assert parity_check(d), word
        d = parse_word(UNREALIZABLE)
        assert parity_check(d)
        assert not is_realizable(d)


def test_08_structural_laws():
    with criterion(
        "round trips, flip involution, graph class under flips, Euler relation"
    ):
        # diagram -> (graph, cycle) -> diagram is the identity on classes
        for n in range(1, 7):
            for word in canonical_words(n):
                d = parse_word(word)
                g, cycle = graph_from_diagram(d)
                back = diagram_from_cycle(g, cycle)
                assert canonical_form(back).text == word
        # flips are involutions and never change the underlying graph
        for n in range(2, 6):
            for word in canonical_words(n):
                d = parse_word(word)
                g, _ = graph_from_diagram(d)
                for site in flip_sites(d):
                    flipped = apply_flip(d, site)
                    assert apply_flip(flipped, site) == d, (word, site)
                    h, _ = graph_from_diagram(flipped)
                    assert are_isomorphic(g, h)[0], (word, site)
        # every traced embedding satisfies V - E + F = 2 - 2g with V = n,
        # E = 2n; realize_all keeps only genus 0, so trace every system
        for n in range(1, 7):
            for word in canonical_words(n):
                d = parse_word(word)
                for system in transverse_rotation_systems(d):
                    report = trace_faces(d, system)
                    assert (
                        n - 2 * n + report.face_count == 2 - 2 * report.genus
                    ), (word, system)
