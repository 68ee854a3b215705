"""Tests for embeddings: rotation systems, face tracing, both oracles."""

from __future__ import annotations

import pytest

from gaussflip.diagrams import canonical_words, parse_word
from gaussflip.realize import (
    NotAPlaneCurveError,
    RealizeError,
    RotationSystem,
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

# classes found realizable among the 1, 2, 5, 17, 79, 554 for n = 1..6;
# the sweep below pins the same numbers through the gadget oracle too
REALIZABLE_COUNTS = (1, 1, 3, 5, 15, 43)


class TestRotationSystems:
    def test_count_and_order(self):
        d = parse_word("ABCABC")
        systems = list(transverse_rotation_systems(d))
        assert len(systems) == 8
        assert systems[0].bits == (0, 0, 0)
        assert systems[1].bits == (1, 0, 0)
        assert systems[-1].bits == (1, 1, 1)
        as_ints = [sum(b << i for i, b in enumerate(rs.bits)) for rs in systems]
        assert as_ints == list(range(8))

    def test_bits_validated(self):
        with pytest.raises(RealizeError):
            RotationSystem((0, 2))

    def test_bit_count_must_match(self):
        with pytest.raises(RealizeError):
            trace_faces(parse_word("ABAB"), RotationSystem((0,)))


class TestFaceTracing:
    def test_single_chord_first_system(self):
        report = trace_faces(parse_word("AA"), RotationSystem((0,)))
        assert report.face_count == 3
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
                    v, e, f = n, 2 * n, report.face_count
                    assert v - e + f == 2 - 2 * report.genus
                    assert report.genus >= 0

    def test_realize_all_and_min_genus_match_tracing_every_system(self):
        # reference: trace all 2^n systems, keep genus zero, take the least genus
        for n in range(1, 6):
            for word in canonical_words(n):
                d = parse_word(word)
                traced = [trace_faces(d, rs) for rs in transverse_rotation_systems(d)]
                want = [(r.rotation.bits, r.faces) for r in traced if r.genus == 0]
                got = [(r.rotation.bits, r.faces) for r in realize_all(d)]
                assert got == want, word
                assert min_genus(d) == min(r.genus for r in traced), word

    def test_faces_partition_darts(self):
        d = DIAMETERS
        for rs in transverse_rotation_systems(d):
            report = trace_faces(d, rs)
            darts = [x for face in report.faces for x in face]
            assert sorted(darts) == list(range(4 * d.n))

    def test_json_dict_shape(self):
        report = trace_faces(parse_word("AA"), RotationSystem((0,)))
        data = report.to_json_dict()
        assert data["rotation"] == [0]
        assert data["face_count"] == 3
        assert data["genus"] == 0
        assert data["faces"][0] == ["A@0+"]


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
            for n in range(1, 7)
        )
        assert got == REALIZABLE_COUNTS


class TestGadgetOracle:
    def test_fixture_verdicts(self):
        assert not gadget_planarity(SPAN3)
        assert gadget_planarity(DIAMETERS)
        assert gadget_planarity(MIXED)
        assert gadget_planarity(parse_word("AA"))
        assert gadget_planarity(parse_word("AABB"))
        assert not gadget_planarity(parse_word("ABAB"))

    def test_agrees_with_face_tracing_up_to_five(self):
        for n in range(1, 6):
            for word in canonical_words(n):
                d = parse_word(word)
                assert gadget_planarity(d) == is_realizable(d), word


class TestCurveCodes:
    def test_rejects_positive_genus(self):
        d = parse_word("ABAB")
        report = trace_faces(d, RotationSystem((0, 0)))
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
        codes_d = {curve_code(r).text for r in realize_all(DIAMETERS)}
        codes_m = {curve_code(r).text for r in realize_all(MIXED)}
        assert codes_d and codes_m
        assert not (codes_d & codes_m)

    def test_code_invariant_under_symmetry(self):
        for n in range(1, 5):
            for word in canonical_words(n):
                d = parse_word(word)
                codes = {curve_code(r).text for r in realize_all(d)}
                if not codes:
                    continue
                for variant in (d.rotated(1), d.rotated(3), d.reflected()):
                    got = {curve_code(r).text for r in realize_all(variant)}
                    assert got == codes, word

    def test_code_text_is_single_token(self):
        report = realize_all(parse_word("AA"))[0]
        text = curve_code(report).text
        assert " " not in text
        assert text.count("-") == len(text.split("-")) - 1
