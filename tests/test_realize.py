"""Tests for embeddings: rotation systems, face tracing, both oracles."""

from __future__ import annotations

import random
import sys
from collections.abc import Iterable

import pytest
from test_cli import symmetric_sum
from test_criterion import rosette
from test_diagrams import brute_pairings

from gaussflip.diagrams import GaussDiagram, canonical_words, parity_check, parse_word
from gaussflip.realize import (
    NotAPlaneCurveError,
    RealizeError,
    _gauss_parity,
    _plane_key,
    _plane_keys,
    _rotation_successors,
    curve_code,
    gadget_planarity,
    is_realizable,
    min_genus,
    realizable_class,
    realize_all,
    trace_faces,
    transverse_rotation_systems,
)

SPAN3 = parse_word("AEBACBDCED")
DIAMETERS = parse_word("ADBECADBEC")
MIXED = parse_word("ACDECABDEB")


def reference_curve_code(report) -> str:
    """Reference code: number every dart, then emit; invert by hand; full minimum."""
    succ = _rotation_successors(report.diagram, report.rotation)
    nd = len(succ)
    inv = [0] * nd
    for a, b in enumerate(succ):
        inv[b] = a

    def encode(root, sigma):
        ids = [-1] * nd
        order = [root]
        ids[root] = 0
        i = 0
        while i < len(order):
            dart = order[i]
            i += 1
            for nxt in (sigma[dart], dart ^ 1):
                if ids[nxt] < 0:
                    ids[nxt] = len(order)
                    order.append(nxt)
        code = []
        for dart in order:
            code.append(ids[sigma[dart]])
            code.append(ids[dart ^ 1])
        return tuple(code)

    best = min(encode(root, sigma) for sigma in (succ, inv) for root in range(nd))
    return "-".join(f"{best[i]}.{best[i + 1]}" for i in range(0, len(best), 2))


def assert_codes_match_reference(reports) -> int:
    """``curve_code`` against ``reference_curve_code``; returns how many were compared.

    CI runs it on every plane embedding up to 7 chords.
    """
    compared = 0
    for report in reports:
        assert curve_code(report) == reference_curve_code(report), (
            report.diagram.word(),
            report.rotation,
        )
        compared += 1
    return compared


# classes found realizable among the 1, 2, 5, 17, 79, 554, 5283 for n = 1..7
REALIZABLE_COUNTS = (1, 1, 3, 5, 15, 43, 172)


def assert_gadget_matches_decision(cases: Iterable[GaussDiagram]) -> int:
    """``gadget_planarity`` against ``is_realizable``; returns how many were compared.

    ``verify`` enumerates only the classes that pass slot parity, so the
    gadget sees no failing class there; CI runs this on every class up to
    8 chords, where the test suite stops at 7.
    """
    checked = 0
    for d in cases:
        assert gadget_planarity(d) == is_realizable(d), d.word()
        checked += 1
    return checked


def assert_parity_count_matches(cases: Iterable[GaussDiagram]) -> int:
    """``_gauss_parity`` against ``parity_check``; returns how many were compared.

    CI runs it on every class up to 8 chords.
    """
    checked = 0
    for d in cases:
        assert _gauss_parity(d) == parity_check(d), d.pairing
        checked += 1
    return checked


def reference_min_genus(d: GaussDiagram) -> int:
    """The least genus by tracing keys 0, 1, 2, ... in ascending order."""
    best = d.n
    for key in range(1 << d.n):
        best = min(best, trace_faces(d, key).genus)
        if best == 0:
            break
    return best


def assert_min_genus_matches_reference(cases: Iterable[GaussDiagram]) -> int:
    """``min_genus``'s Gray-code walk against the ascending one; returns the count.

    CI runs it on every class up to 7 chords; the test suite compares
    ``min_genus`` with tracing every key up to 6.
    """
    checked = 0
    for d in cases:
        assert min_genus(d) == reference_min_genus(d), d.word()
        checked += 1
    return checked


def classes_up_to(max_n: int):
    return (parse_word(w) for n in range(1, max_n + 1) for w in canonical_words(n))


class TestRotationSystems:
    def test_complement_key_is_the_inverse(self):
        # flipping every crossing's bit reverses each cyclic order
        for n in range(1, 6):
            full = (1 << n) - 1
            for word in canonical_words(n):
                d = parse_word(word)
                for key in transverse_rotation_systems(d):
                    succ = _rotation_successors(d, key)
                    mirror = _rotation_successors(d, key ^ full)
                    assert [mirror[b] for b in succ] == list(range(4 * n)), word

    def test_count_and_order(self):
        # keys ascend over every choice; bit i is chord i's transverse choice
        systems = list(transverse_rotation_systems(parse_word("ABCABC")))
        assert systems == list(range(8))

    def test_bits_validated(self):
        # a negative key names no choice of bits
        with pytest.raises(RealizeError):
            trace_faces(parse_word("ABAB"), -1)

    def test_bit_count_must_match(self):
        # 2^n needs n + 1 bits
        with pytest.raises(RealizeError):
            trace_faces(parse_word("ABAB"), 4)
        assert trace_faces(parse_word("ABAB"), 3).rotation == 3


class TestFaceTracing:
    def test_single_chord_first_system(self):
        report = trace_faces(parse_word("AA"), 0)
        assert len(report.faces) == 3
        assert report.genus == 0
        assert report.face_degrees() == (1, 1, 2)
        assert report.named_faces() == (
            ("A@0+",),
            ("A@1-", "A@1+"),
            ("A@0-",),
        )

    def test_single_chord_both_systems_planar(self):
        reports = realize_all(parse_word("AA"))
        assert len(reports) == 2
        assert curve_code(reports[0]) == curve_code(reports[1])

    def test_two_interlaced_chords_all_torus(self):
        d = parse_word("ABAB")
        genera = [trace_faces(d, rs).genus for rs in transverse_rotation_systems(d)]
        assert genera == [1, 1, 1, 1]
        assert not is_realizable(d)
        assert min_genus(d) == 1

    def test_euler_relation_everywhere_small(self):
        for n in range(1, 5):
            for word in canonical_words(n):
                d = parse_word(word)
                for rs in transverse_rotation_systems(d):
                    report = trace_faces(d, rs)
                    assert sum(len(f) for f in report.faces) == 4 * n
                    v, e, f = n, 2 * n, len(report.faces)
                    assert v - e + f == 2 - 2 * report.genus
                    assert report.genus >= 0

    def test_realize_all_and_min_genus_match_tracing_every_system(self):
        # reference: trace all 2^n systems, keep genus zero, take the least genus
        for n in range(1, 7):
            for word in canonical_words(n):
                d = parse_word(word)
                traced = [trace_faces(d, rs) for rs in transverse_rotation_systems(d)]
                want = [(r.rotation, r.faces) for r in traced if r.genus == 0]
                got = [(r.rotation, r.faces) for r in realize_all(d)]
                assert got == want, word
                assert min_genus(d) == min(r.genus for r in traced), word

    def test_min_genus_of_abacbc_with_ten_isolated_chords(self):
        # 13 chords, genus 1: all 8,192 keys are walked, none exits early
        d = parse_word("ABACBC" + "".join(c * 2 for c in "DEFGHIJKLM"))
        assert assert_min_genus_matches_reference([d]) == 1
        assert min_genus(d) == 1

    def test_plane_keys_check_every_key(self):
        # one bit off the plane key of one component: no longer planar, and
        # the check raises, not asserts, so it holds under python -O too
        key, components = _plane_key(DIAMETERS)
        assert _plane_keys(DIAMETERS, (key, components)) == sorted([key, key ^ 31])
        with pytest.raises(AssertionError, match="has genus 1"):
            _plane_keys(DIAMETERS, (key ^ 1, components))

    def test_faces_partition_darts(self):
        d = DIAMETERS
        for rs in transverse_rotation_systems(d):
            report = trace_faces(d, rs)
            darts = [x for face in report.faces for x in face]
            assert sorted(darts) == list(range(4 * d.n))


class TestVerdicts:
    def test_fixture_verdicts(self):
        assert not is_realizable(SPAN3)
        assert is_realizable(DIAMETERS)
        assert is_realizable(MIXED)
        assert min_genus(SPAN3) == 1

    def test_simple_verdicts(self):
        assert is_realizable(parse_word("AA"))
        assert is_realizable(parse_word("AABB"))
        assert not is_realizable(parse_word("ABAB"))

    def test_realizable_class_cached_wrapper(self):
        assert realizable_class("ABAB") is False
        assert realizable_class("AABB") is True
        assert realizable_class("ABAB") == is_realizable(parse_word("ABAB"))

    def test_realizable_counts_small(self):
        got = tuple(
            sum(realizable_class(w) for w in canonical_words(n))
            for n in range(1, 8)
        )
        assert got == REALIZABLE_COUNTS

    def test_three_derivations_agree_up_to_six(self):
        # the forest decision, exhaustive face tracing and the gadget's planarity
        for n in range(1, 7):
            for word in canonical_words(n):
                d = parse_word(word)
                assert is_realizable(d) == (min_genus(d) == 0) == gadget_planarity(d), word


class TestGadgetOracle:
    def test_fixture_verdicts(self):
        assert not gadget_planarity(SPAN3)
        assert gadget_planarity(DIAMETERS)
        assert gadget_planarity(MIXED)
        assert gadget_planarity(parse_word("AA"))
        assert gadget_planarity(parse_word("AABB"))
        assert not gadget_planarity(parse_word("ABAB"))

    def test_matches_criterion_up_to_seven(self):
        assert assert_gadget_matches_decision(classes_up_to(7)) == 5941

    @pytest.mark.parametrize("star", [51, 50])
    def test_large_gadget_under_default_recursion_limit(self, star):
        # 600 kinks around a star of 51 (realizable) or 50 (unrealizable)
        # chords: 2,600 gadget vertices, deeper than a recursive search can go
        kinks = [f"K{i}" for i in range(600) for _ in range(2)]
        stars = [f"S{i}" for i in range(star)] * 2
        d = GaussDiagram.from_tokens(kinks[:600] + stars + kinks[600:])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # CPython's default
        try:
            assert gadget_planarity(d) == is_realizable(d) == (star % 2 == 1)
        finally:
            sys.setrecursionlimit(limit)


class TestGaussParity:
    def test_fixture_counts(self):
        # ABAB: each chord has one slot inside it, its partner outside
        assert not _gauss_parity(parse_word("ABAB"))
        assert _gauss_parity(parse_word("AABB"))
        assert _gauss_parity(DIAMETERS) and _gauss_parity(MIXED)
        # SPAN3 passes the count and is still unrealizable: the gadget decides
        assert _gauss_parity(SPAN3) and not gadget_planarity(SPAN3)

    def test_matches_parity_check_on_every_pairing_up_to_six(self):
        every = (GaussDiagram(p) for n in range(1, 7) for p in brute_pairings(2 * n))
        assert assert_parity_count_matches(every) == 11464

    def test_matches_parity_check_on_every_class_up_to_seven(self):
        assert assert_parity_count_matches(classes_up_to(7)) == 5941


class TestCurveCodes:
    def test_rejects_positive_genus(self):
        d = parse_word("ABAB")
        report = trace_faces(d, 0)
        assert report.genus == 1
        with pytest.raises(NotAPlaneCurveError):
            curve_code(report)

    def test_diameters_pentagram_faces(self):
        reports = realize_all(DIAMETERS)
        assert len(reports) == 2
        assert {r.face_degrees() for r in reports} == {(2, 2, 2, 2, 2, 5, 5)}
        codes = {curve_code(r) for r in reports}
        assert len(codes) == 1

    def test_mixed_faces_differ(self):
        reports = realize_all(MIXED)
        assert len(reports) == 2
        assert {r.face_degrees() for r in reports} == {(2, 2, 2, 3, 3, 4, 4)}

    def test_codes_of_fixtures_disjoint(self):
        codes_d = {curve_code(r) for r in realize_all(DIAMETERS)}
        codes_m = {curve_code(r) for r in realize_all(MIXED)}
        assert codes_d and codes_m
        assert not (codes_d & codes_m)

    def test_code_invariant_under_symmetry(self):
        for n in range(1, 5):
            for word in canonical_words(n):
                codes = {curve_code(r) for r in realize_all(parse_word(word))}
                if not codes:
                    continue
                m = len(word)
                rotations = [word[k % m :] + word[: k % m] for k in (1, 3)]
                for variant in rotations + [word[::-1]]:
                    got = {curve_code(r) for r in realize_all(parse_word(variant))}
                    assert got == codes, word

    def test_matches_reference_up_to_six(self):
        embeddings = 0
        for n in range(1, 7):
            for word in canonical_words(n):
                reports = {r.rotation: r for r in realize_all(parse_word(word))}
                for key, report in reports.items():
                    embeddings += 1
                    code = curve_code(report)
                    assert code == reference_curve_code(report), word
                    # every crossing flipped: the mirror curve, which analyze skips
                    mirror = reports[key ^ ((1 << n) - 1)]
                    assert code == curve_code(mirror), word
                    assert report.face_degrees() == mirror.face_degrees(), word
        assert embeddings == 2 + 4 + 18 + 54 + 244 + 1082  # per chord count

    @pytest.mark.parametrize(
        "word, pairs",
        [
            ("AABBCCDDEEFFGGHH", 128),  # eight isolated chords
            ("ABCDEABCDEFFGGHHII", 16),  # star(5) joined to four isolated chords
            ("ABCABCDEFDEFGHIGHI", 4),  # three star(3) joined in a row
        ],
    )
    def test_matches_reference_on_sums(self, word, pairs):
        # many roots tie with the least code far into it; one code per mirror pair
        reports = [r for r in realize_all(parse_word(word)) if not r.rotation & 1]
        assert assert_codes_match_reference(reports) == pairs

    def test_matches_reference_on_symmetric_input(self):
        # R_k for odd k has one interlacement component: two plane embeddings
        rosettes = (r for k in range(3, 32, 2) for r in realize_all(rosette(k)))
        assert assert_codes_match_reference(rosettes) == 30
        rng = random.Random(20261019)
        sums = [parse_word(symmetric_sum(rng)) for _ in range(60)]
        reports = (r for d in sums for r in realize_all(d)[:8])
        assert assert_codes_match_reference(reports) == 400

    def test_code_text_is_single_token(self):
        report = realize_all(parse_word("AA"))[0]
        text = curve_code(report)
        assert isinstance(text, str)
        assert " " not in text
        assert text.count("-") == len(text.split("-")) - 1
