"""Randomized checks of the realizability decision beyond the exhaustive frontier.

The exhaustive tests stop at 6 or 7 chords.  Here Hypothesis draws random
words of up to 12 chords, where the decision must agree with face tracing
over all 2^n rotation systems, and realizable words of up to 14 chords
built as connected sums, where the number of plane embeddings is known.
The gadget's planarity must give the same verdict on both.

The forest decision is also held to Rosenstiehl's criterion
(``test_criterion``) on random words of up to 30 chords, on the connected
sums, and on sums of up to 30 chords whose pieces all pass parity: random
words that large almost never do, so those sums reach the trace.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from test_criterion import assert_forest_matches_criterion

from gaussflip.diagrams import (
    GaussDiagram,
    enumerate_diagrams,
    interlacement_graph,
    parity_check,
)
from gaussflip.flips import apply_flip, flip_sites
from gaussflip.realize import gadget_planarity, is_realizable, min_genus, realize_all

# fixed examples keep the suite's run time and verdicts reproducible
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def components(d: GaussDiagram) -> int:
    inter = interlacement_graph(d)
    graph = nx.Graph(inter.edges)
    graph.add_nodes_from(inter.vertices)
    return nx.number_connected_components(graph)


# every connected class of up to 6 chords that passes parity, realizable or
# not: a sum of at most 8 of them has at most 2^8 plane embeddings
EVEN_PIECES = [
    d.word()
    for n in range(1, 7)
    for d in enumerate_diagrams(n)
    if parity_check(d) and components(d) == 1
]


@st.composite
def random_words(draw, max_n: int = 12) -> GaussDiagram:
    n = draw(st.integers(1, max_n))
    return GaussDiagram.from_tokens(draw(st.permutations([str(c) for c in range(n)] * 2)))


@st.composite
def connected_sums(draw) -> GaussDiagram:
    """Odd stars and isolated chords, each spliced into a gap of the word so far.

    A star on k chords (k odd) reads 1..k twice; k = 1 is an isolated
    chord.  Splicing a word into a gap of another keeps their chords from
    interlacing, so the result is a connected sum of plane curves.
    """
    sizes = st.lists(st.sampled_from((1, 3, 5)), min_size=1, max_size=4)
    tokens: list[str] = []
    for piece, k in enumerate(draw(sizes.filter(lambda ks: sum(ks) <= 14))):
        gap = draw(st.integers(0, len(tokens)))
        tokens[gap:gap] = [f"{piece}.{c}" for c in range(k)] * 2
    return GaussDiagram.from_tokens(tokens)


@st.composite
def even_sums(draw) -> GaussDiagram:
    """Rotated classes that pass parity, each spliced into a gap: up to 30 chords.

    Chords of different pieces do not interlace, so the sum passes parity,
    and it is realizable exactly when every piece is.
    """
    tokens: list[str] = []
    for piece in range(draw(st.integers(1, 8))):
        word = draw(st.sampled_from(EVEN_PIECES))
        if len(tokens) + len(word) > 60:
            break
        k = draw(st.integers(0, len(word) - 1))
        gap = draw(st.integers(0, len(tokens)))
        tokens[gap:gap] = [f"{piece}.{c}" for c in word[k:] + word[:k]]
    return GaussDiagram.from_tokens(tokens)


@FUZZ
@given(random_words())
def test_criterion_matches_face_tracing(d):
    verdict = is_realizable(d)
    assert verdict == (min_genus(d) == 0), d.word()
    assert gadget_planarity(d) == verdict, d.word()


@FUZZ
@given(connected_sums(), st.data())
def test_connected_sums_and_their_flips(d, data):
    sites = flip_sites(d)
    variants = [d]
    if sites:
        variants.append(apply_flip(d, data.draw(st.sampled_from(sites))))
    for v in variants:
        assert is_realizable(v), v.word()
        assert gadget_planarity(v), v.word()
        assert len(realize_all(v)) == 2 ** components(v), v.word()


@FUZZ
@given(st.one_of(random_words(30), connected_sums(), even_sums()))
def test_forest_matches_criterion(d):
    assert_forest_matches_criterion(d)
