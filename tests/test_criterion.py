"""Rosenstiehl's three-condition criterion as the oracle of the forest decision.

The package decides realizability by colouring one spanning forest of the
interlacement graph and tracing the key it gives once
(``realize._plane_key``).  Here the criterion (C. R. Acad. Sci. Paris
283, 1976) tests every condition on every pair, independently of any face
trace, and must give the same verdict, the same plane key and components,
and the same ``realize_all`` keys.  CI runs ``assert_classes_agree(8)``.
"""

from __future__ import annotations

import pytest

from gaussflip.diagrams import GaussDiagram, enumerate_diagrams, parse_word
from gaussflip.realize import (
    _plane_key,
    gadget_planarity,
    is_realizable,
    realize_all,
    trace_faces,
)


def cut_colouring(d: GaussDiagram) -> tuple[int, list[int]] | None:
    """Rosenstiehl's criterion: ``None``, or a cut colouring and the components.

    1. every chord interlaces an even number of chords;
    2. every two chords that do not interlace share an even number of
       interlacing neighbours;
    3. the chords take colours 0 and 1 so that interlaced chords u and v
       differ exactly when they share an even number of neighbours.

    The colouring is a bitmask (bit i is chord i's colour, 0 on the least
    chord of each component); each component is a bitmask of its chords.
    """
    masks = d.interlacement_masks
    n = d.n
    if any(mask.bit_count() & 1 for mask in masks):
        return None
    for u in range(n):
        for v in range(u + 1, n):
            if not masks[u] >> v & 1 and (masks[u] & masks[v]).bit_count() & 1:
                return None
    colour = seen = 0
    components: list[int] = []
    for root in range(n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        component = 0
        stack = [root]
        while stack:
            u = stack.pop()
            component |= 1 << u
            for v in range(n):
                if not masks[u] >> v & 1:
                    continue
                want = (colour >> u ^ 1 ^ (masks[u] & masks[v]).bit_count()) & 1
                if seen >> v & 1:
                    if colour >> v & 1 != want:
                        return None
                else:
                    seen |= 1 << v
                    colour |= want << v
                    stack.append(v)
        components.append(component)
    return colour, components


def colour_key(d: GaussDiagram, colour: int) -> int:
    """The rotation key of a colouring: c_i XOR the parity of chord i's first slot."""
    return colour ^ sum((u & 1) << i for i, (u, _) in enumerate(d.chord_slots))


def criterion_key(d: GaussDiagram) -> tuple[int, list[int]] | None:
    """The criterion in the decision's form: ``None``, or a key and the components."""
    solved = cut_colouring(d)
    if solved is None:
        return None
    colour, components = solved
    return colour_key(d, colour), components


def criterion_keys(d: GaussDiagram) -> list[int]:
    """The plane keys of the cut colourings: one per set of whole components."""
    solved = criterion_key(d)
    if solved is None:
        return []
    key, components = solved
    keys = [key]
    for component in components:
        keys += [k ^ component for k in keys]
    return sorted(keys)


def assert_forest_matches_criterion(d: GaussDiagram) -> None:
    want = criterion_key(d)
    assert _plane_key(d) == want, d.word()
    assert is_realizable(d) == (want is not None), d.word()
    if want is not None:
        assert trace_faces(d, want[0]).genus == 0, d.word()
    assert [r.rotation for r in realize_all(d)] == criterion_keys(d), d.word()


def assert_classes_agree(max_chords: int) -> int:
    """Every class up to ``max_chords``; returns how many were compared."""
    compared = 0
    for n in range(1, max_chords + 1):
        for d in enumerate_diagrams(n):
            assert_forest_matches_criterion(d)
            compared += 1
    return compared


def rosette(k: int) -> GaussDiagram:
    """R_k = 1 2 ... k 1 2 ... k: every chord interlaces every other."""
    return GaussDiagram(tuple((s + k) % (2 * k) for s in range(2 * k)))


def forest_verdict(d: GaussDiagram, edge_bit) -> bool:
    """Test-side copy of the forest decision, with the tree-edge rule passed in.

    ``edge_bit(common)`` is what c_v adds to c_u on a tree edge u -> v,
    given the parity of their common neighbours; the package adds
    1 XOR common.
    """
    masks = d.interlacement_masks
    if any(mask.bit_count() & 1 for mask in masks):
        return False
    colour = seen = 0
    for root in range(d.n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        stack = [root]
        while stack:
            u = stack.pop()
            for v in range(d.n):
                if masks[u] >> v & 1 and not seen >> v & 1:
                    seen |= 1 << v
                    common = (masks[u] & masks[v]).bit_count() & 1
                    colour |= (colour >> u & 1 ^ edge_bit(common)) << v
                    stack.append(v)
    return trace_faces(d, colour_key(d, colour)).genus == 0


MUTANTS = {
    "no 1 XOR": lambda common: common,
    "no common-neighbour parity": lambda common: 1,
}


def test_classes_up_to_seven_chords():
    assert assert_classes_agree(7) == 5941


def test_fixture_colourings():
    # ABCABC: each pair shares one neighbour, so all three take colour 0;
    # B alone starts at an odd slot, so the key has bit 1 only
    assert _plane_key(parse_word("ABCABC")) == (0b010, [0b111])
    assert _plane_key(parse_word("AABB")) == (0b00, [0b01, 0b10])
    assert _plane_key(parse_word("ABAB")) is None  # odd degrees
    # five chords: every degree even, yet not a plane curve
    assert _plane_key(parse_word("AEBACBDCED")) is None
    assert cut_colouring(parse_word("AEBACBDCED")) is None


def test_parity_rejects_before_the_rows_are_built():
    d = parse_word("ABAB")
    assert not is_realizable(d)
    assert "interlacement_masks" not in d.__dict__


@pytest.mark.parametrize("k", [2000, 2001])
def test_rosettes(k):
    # k odd: every chord interlaces k - 1 others, an even number
    d = rosette(k)
    assert_forest_matches_criterion(d)
    assert is_realizable(d) == (k % 2 == 1)
    if k % 2:
        assert gadget_planarity(d)
        assert len(realize_all(d)) == 2


def test_large_rosette():
    # about 0.3 s on a 2-core host; the criterion would take about ten minutes
    assert is_realizable(rosette(16001))
    assert not is_realizable(rosette(16000))


def test_test_side_copy_matches_the_package():
    for n in range(1, 7):
        for d in enumerate_diagrams(n):
            assert forest_verdict(d, lambda common: 1 ^ common) == is_realizable(d)


@pytest.mark.parametrize("name", MUTANTS)
def test_mutated_rule_disagrees_first_on_abcabc(name):
    # ABCABC is the first class in sweep order with a tree edge that
    # passes parity, so each mutation shows there first
    first = next(
        d.word()
        for n in range(1, 7)
        for d in enumerate_diagrams(n)
        if forest_verdict(d, MUTANTS[name]) != (cut_colouring(d) is not None)
    )
    assert first == "ABCABC"
