"""Tests for cubic graphs, Hamiltonian cycles, and the diagram bridge."""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import permutations
from pathlib import Path

import networkx as nx
import pytest

from gaussflip import cubic, realize
from gaussflip.cubic import (
    CubicGraph,
    CycleMismatchError,
    GraphError,
    HamCycle,
    NotCubicError,
    UnsupportedOrderError,
    are_isomorphic,
    diagram_from_cycle,
    graph_from_diagram,
    ham_census,
    hamiltonian_cycles,
    moebius_ladder,
    parse_edge_list,
)
from gaussflip.diagrams import (
    GaussDiagram,
    canonical_form,
    canonical_words,
    from_chord_pairs,
    parse_word,
)

GOLDEN = Path(__file__).parent / "golden"

K4 = CubicGraph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
K33 = CubicGraph([(a, b) for a in range(3) for b in range(3, 6)])
PETERSEN = CubicGraph(
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    + [(5, 7), (7, 9), (6, 9), (6, 8), (5, 8)]
    + [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
)


def prism(k: int) -> CubicGraph:
    """Two k-cycles joined by k rungs."""
    return CubicGraph(
        [(i, (i + 1) % k) for i in range(k)]
        + [(k + i, k + (i + 1) % k) for i in range(k)]
        + [(i, i + k) for i in range(k)]
    )


PRISM5 = prism(5)
TRIPLE_EDGE = CubicGraph(((0, 1), (0, 1), (0, 1)))


def renumbered(g: CubicGraph, perm: list[int]) -> CubicGraph:
    return CubicGraph([(perm[u], perm[v]) for u, v in g.edges])


def relabelled(rng: random.Random, g: CubicGraph) -> CubicGraph:
    perm = list(range(g.m))
    rng.shuffle(perm)
    return renumbered(g, perm)


def carries_edges(g: CubicGraph, h: CubicGraph, witness: dict[int, int]) -> bool:
    remapped = sorted(tuple(sorted((witness[u], witness[v]))) for u, v in g.edges)
    return remapped == list(h.edges)


def oracle_cycles(g: CubicGraph) -> int:
    """Count Hamiltonian cycles by filtering raw permutations."""
    nbrs = g.neighbor_sets
    count = 0
    for perm in permutations(range(1, g.m)):
        seq = (0,) + perm
        if seq[1] > seq[-1]:
            continue
        if all(seq[(i + 1) % g.m] in nbrs[seq[i]] for i in range(g.m)):
            count += 1
    return count


def reference_hamiltonian_cycles(g: CubicGraph) -> list[HamCycle]:
    """The unpruned search: extend every simple path from vertex 0."""
    if g.m == 2:
        return [HamCycle((0, 1))] if g.multiplicity(0, 1) >= 2 else []
    nbrs = g.neighbor_sets
    out: list[HamCycle] = []
    path = [0]
    used = [False] * g.m
    used[0] = True

    def extend(v: int) -> None:
        if len(path) == g.m:
            if 0 in nbrs[v] and path[1] < path[-1]:
                out.append(HamCycle(tuple(path)))
            return
        for w in nbrs[v]:
            if not used[w]:
                used[w] = True
                path.append(w)
                extend(w)
                path.pop()
                used[w] = False

    extend(0)
    out.sort(key=lambda h: h.vertices)
    return out


def assert_cycles_match_reference(words) -> int:
    """``hamiltonian_cycles`` against the unpruned search on each word's graph.

    Each graph is checked as built and relabelled.  Returns the number of
    graphs checked.  CI runs it on every class of 7 chords.
    """
    rng = random.Random(11)
    count = 0
    for word in words:
        g = graph_from_diagram(parse_word(word))[0]
        for h in (g, relabelled(rng, g)):
            assert hamiltonian_cycles(h) == reference_hamiltonian_cycles(h), word
            count += 1
    return count


def reference_are_isomorphic(
    g1: CubicGraph, g2: CubicGraph
) -> tuple[bool, dict[int, int] | None]:
    """The unrefined search: ``are_isomorphic`` with no invariant to skip by."""
    m = g1.m
    if m != g2.m:
        return False, None
    order = cubic._bfs_order(g1)[0]
    image = [-1] * m
    used = [False] * m
    arounds: list[list[int]] = [[]] * m
    pools = [iter(range(m))] * m
    depth = 0
    while depth >= 0:
        v = order[depth]
        if image[v] >= 0:
            used[image[v]] = False
        around = arounds[depth]
        for w in pools[depth]:
            if not used[w] and around == [x for x in g2._adjacency[w] if used[x]]:
                break
        else:
            image[v] = -1
            depth -= 1
            continue
        image[v] = w
        used[w] = True
        depth += 1
        if depth == m:
            return True, dict(enumerate(image))
        v = order[depth]
        arounds[depth] = around = sorted(
            image[u] for u in g1._adjacency[v] if image[u] >= 0
        )
        pools[depth] = iter(g2.neighbor_sets[around[0]] if around else range(m))
    return False, None


def matching_cycles(g: CubicGraph) -> set[HamCycle]:
    """Hamiltonian cycles as perfect matchings whose complement is one cycle.

    Edges are handled by index, so each copy of a parallel edge is its own
    choice; two matchings that differ only in the copy give the same cycle.
    """
    incident: list[list[int]] = [[] for _ in range(g.m)]
    for i, (u, v) in enumerate(g.edges):
        incident[u].append(i)
        incident[v].append(i)
    found: set[HamCycle] = set()
    matched = [False] * g.m
    matching: set[int] = set()

    def trace() -> None:
        seq, v, came = [0], 0, None
        while True:
            i = next(e for e in incident[v] if e not in matching and e != came)
            u, w = g.edges[i]
            v, came = (w if v == u else u), i
            if v == 0:
                break
            seq.append(v)
        if len(seq) == g.m:
            found.add(HamCycle(seq))

    def extend() -> None:
        if all(matched):
            trace()
            return
        u = matched.index(False)
        for i in incident[u]:
            w = sum(g.edges[i]) - u
            if not matched[w]:
                matched[u] = matched[w] = True
                matching.add(i)
                extend()
                matching.discard(i)
                matched[u] = matched[w] = False

    extend()
    return found


def reference_diagram_from_cycle(g: CubicGraph, cycle: HamCycle) -> GaussDiagram:
    """The edge-multiset derivation: every edge less one copy per cycle step."""
    vs = cycle.vertices
    remaining = Counter(g.edges)
    remaining.subtract(tuple(sorted((vs[i - 1], vs[i]))) for i in range(len(vs)))
    if sorted(vs) != list(range(g.m)) or min(remaining.values()) < 0:
        raise CycleMismatchError(f"cycle {cycle} is not a Hamiltonian cycle")
    matching = [e for e, c in remaining.items() for _ in range(c)]
    covered = sorted(v for e in matching for v in e)
    assert covered == list(range(g.m)), "leftover edges must form a perfect matching"
    pos = {v: i for i, v in enumerate(vs)}
    return from_chord_pairs([(pos[u], pos[v]) for u, v in matching])


def random_diagram_graph(rng: random.Random, n: int) -> CubicGraph:
    labels = [chr(ord("A") + i) for i in range(n)] * 2
    rng.shuffle(labels)
    return graph_from_diagram(parse_word("".join(labels)))[0]


def oracle_bipartite(g: CubicGraph) -> bool:
    color = [-1] * g.m
    for root in range(g.m):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.neighbor_sets[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    # parallel edges never join a vertex to itself, so colors settle it
    return True


class TestConstruction:
    def test_not_cubic_diagnostic(self):
        with pytest.raises(NotCubicError, match="vertex 3 has degree 4"):
            CubicGraph(
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 5)]
            )

    def test_huge_vertex_number_rejected_without_allocating(self):
        # degrees come from the edges, and only three faults are named
        with pytest.raises(
            NotCubicError,
            match=r"vertex 1 has degree 2; vertex 2 has degree 0; "
            r"vertex 3 has degree 0; 999999999996 more not of degree 3$",
        ):
            CubicGraph([(0, 1), (0, 1), (0, 10**12 - 1)])

    def test_direct_construction_normalizes_edges(self):
        g = CubicGraph(((3, 2), (1, 0), (2, 0), (3, 1), (1, 2), (0, 3)))
        assert g == K4
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert g.neighbor_sets[0] == (1, 2, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(NotCubicError, match="self-loop"):
            CubicGraph([(0, 0), (0, 1), (1, 1), (0, 1)])

    def test_rejects_odd_order(self):
        with pytest.raises(NotCubicError, match="3 vertices"):
            CubicGraph([(0, 1), (1, 2), (0, 2)])

    def test_rejects_no_edges(self):
        with pytest.raises(NotCubicError, match="0 vertices"):
            CubicGraph(())
        with pytest.raises(GraphError, match="no edges"):
            parse_edge_list("# nothing\n")

    def test_rejects_negative_vertex(self):
        shifted = [(u - 1, v - 1) for u, v in K4.edges]
        with pytest.raises(GraphError, match=r"edge \(-1, 0\) has a negative vertex"):
            CubicGraph(shifted)
        with pytest.raises(GraphError, match="negative"):
            parse_edge_list("0 -2\n0 1\n0 1\n1 -2\n")

    def test_order_is_largest_vertex_plus_one(self):
        assert K4.m == 4 and PETERSEN.m == 10 and TRIPLE_EDGE.m == 2
        # every vertex below the largest must have degree 3
        with pytest.raises(NotCubicError, match="vertex 0 has degree 0"):
            CubicGraph([(u + 2, v + 2) for u, v in K4.edges])
        gap = K4.edges + tuple((u + 6, v + 6) for u, v in K4.edges)
        with pytest.raises(NotCubicError, match="vertex 4 has degree 0"):
            CubicGraph(gap)

    def test_parse_edge_list(self):
        g = parse_edge_list("# a comment\n0 1\n0 1\n\n0 1\n")
        assert g == TRIPLE_EDGE
        with pytest.raises(GraphError, match="line 1"):
            parse_edge_list("0 1 2\n")
        with pytest.raises(GraphError, match="non-integer"):
            parse_edge_list("0 x\n")
        with pytest.raises(NotCubicError):
            parse_edge_list("0 1\n1 2\n2 0\n")

    def test_edge_list_roundtrip(self):
        g = moebius_ladder(4)
        assert parse_edge_list(g.to_edge_list()) == g

    def test_dot_output(self):
        dot = TRIPLE_EDGE.to_dot()
        assert dot.count("0 -- 1;") == 3

    def test_moebius_ladder_shape(self):
        g = moebius_ladder(5)
        assert g.m == 10
        assert len(g.edges) == 15
        assert g.multiplicity(0, 5) == 1
        assert g.multiplicity(0, 1) == 1
        assert g.multiplicity(0, 2) == 0
        with pytest.raises(UnsupportedOrderError):
            moebius_ladder(2)

    def test_adjacency_ascends_as_appended(self):
        # the sorted edges give each vertex its lower neighbours, then its
        # higher ones, each ascending; are_isomorphic relies on that order
        graphs = [
            graph_from_diagram(parse_word(w))[0]
            for n in range(1, 7)
            for w in canonical_words(n)
        ]
        graphs += [make(k) for k in range(3, 41) for make in (moebius_ladder, prism)]
        graphs.append(TRIPLE_EDGE)
        for g in graphs:
            around: list[list[int]] = [[] for _ in range(g.m)]
            for u, v in g.edges:
                around[u].append(v)
                around[v].append(u)
            assert g._adjacency == tuple(tuple(sorted(a)) for a in around), g.edges
        assert len(graphs) == 735

    def test_moebius_5_bipartite(self):
        assert oracle_bipartite(moebius_ladder(5))
        assert not oracle_bipartite(PRISM5)


class TestHamCycle:
    def test_canonical_storage(self):
        h = HamCycle((3, 2, 1, 0))
        assert h.vertices == (0, 3, 2, 1) or h.vertices == (0, 1, 2, 3)
        # direction rule: second entry below last
        assert h.vertices[1] < h.vertices[-1]

    def test_rotation_and_direction_collapse(self):
        forms = {
            HamCycle(seq)
            for seq in [(0, 1, 2, 3), (1, 2, 3, 0), (3, 2, 1, 0), (2, 1, 0, 3)]
        }
        assert len(forms) == 1

    def test_every_rotation_and_reversal_normalizes(self):
        for g in (moebius_ladder(5), TRIPLE_EDGE):
            for h in hamiltonian_cycles(g):
                vs = h.vertices
                want = diagram_from_cycle(g, h)
                for seq in (vs, vs[::-1]):
                    for k in range(len(vs)):
                        c = HamCycle(seq[k:] + seq[:k])
                        assert c == h and c.vertices == vs, seq
                        d = diagram_from_cycle(g, c)
                        assert d == want and d.word() == want.word(), seq

    def test_stores_a_tuple(self):
        assert HamCycle([2, 0, 1]).vertices == (0, 1, 2)

    def test_rejects_repeated_vertices(self):
        for vs in [(0, 1, 1, 2), (1, 0, 1), (2, 2), (0,), ()]:
            with pytest.raises(CycleMismatchError):
                HamCycle(vs)


class TestHamiltonianCycles:
    def test_k4_has_three(self):
        cycles = hamiltonian_cycles(K4)
        assert len(cycles) == 3
        assert len(cycles) == oracle_cycles(K4)
        assert all(h.vertices[0] == 0 for h in cycles)
        assert len(set(cycles)) == 3

    def test_k33_count_matches_oracle(self):
        assert len(hamiltonian_cycles(K33)) == oracle_cycles(K33)

    def test_moebius_5_count_matches_oracle(self):
        cycles = hamiltonian_cycles(moebius_ladder(5))
        assert len(cycles) == 8
        assert len(cycles) == oracle_cycles(moebius_ladder(5))
        assert HamCycle(tuple(range(10))) in cycles

    def test_petersen_has_none(self):
        assert hamiltonian_cycles(PETERSEN) == []

    def test_triple_edge(self):
        # the one graph the passes over 0's neighbours do not handle
        assert hamiltonian_cycles(TRIPLE_EDGE) == [HamCycle((0, 1))]
        assert reference_hamiltonian_cycles(TRIPLE_EDGE) == [HamCycle((0, 1))]

    def test_closed_form_counts_on_ladders_and_prisms(self):
        # Moebius ladders: k + 3 cycles for odd k, k + 1 for even k;
        # prisms: k for odd k, k + 2 for even k
        for k in range(3, 41):
            ladder, pr = moebius_ladder(k), prism(k)
            assert len(hamiltonian_cycles(ladder)) == k + (3 if k % 2 else 1), k
            assert len(hamiltonian_cycles(pr)) == k + (0 if k % 2 else 2), k

    def test_deterministic_and_sorted(self):
        cycles = hamiltonian_cycles(moebius_ladder(6))
        assert cycles == sorted(cycles, key=lambda h: h.vertices)
        assert cycles == hamiltonian_cycles(moebius_ladder(6))


class TestHamiltonianOracles:
    """The pruned search against the unpruned one and against matchings."""

    def test_reference_search_up_to_six_chords(self):
        words = (w for n in range(1, 7) for w in canonical_words(n))
        assert assert_cycles_match_reference(words) == 1316

    def test_vertex_zero_on_a_double_edge(self):
        # AABCBC: 0 is joined to 1 twice and to 5 once, so it has two
        # distinct neighbours and one pass; number the double one either
        # side of the single one
        g = graph_from_diagram(parse_word("AABCBC"))[0]
        assert g.neighbor_sets[0] == (1, 5) and g.multiplicity(0, 1) == 2
        swapped = renumbered(g, [0, 5, 2, 3, 4, 1])
        assert swapped.neighbor_sets[0] == (1, 5) and swapped.multiplicity(0, 5) == 2
        for h in (g, swapped):
            cycles = hamiltonian_cycles(h)
            assert cycles == reference_hamiltonian_cycles(h)
            assert set(cycles) == matching_cycles(h) and len(cycles) == 2

    @pytest.mark.parametrize("order", list(permutations(range(3))))
    def test_neighbours_of_zero_in_every_order(self, order):
        # 0's three neighbours take the three lowest other numbers in each
        # order, so each edge at 0 is in turn the one the passes leave out
        # of the closing test; both graphs have cycles through every pair
        # of 0's edges
        for g in (moebius_ladder(5), random_diagram_graph(random.Random(3), 8)):
            firsts = g.neighbor_sets[0]
            rest = [v for v in range(1, g.m) if v not in firsts]
            perm = [0] * g.m
            for v, new in zip((*firsts, *rest), (*(1 + i for i in order), *range(4, g.m))):
                perm[v] = new
            h = renumbered(g, perm)
            cycles = hamiltonian_cycles(h)
            assert cycles == reference_hamiltonian_cycles(h)
            assert {frozenset((c.vertices[1], c.vertices[-1])) for c in cycles} == {
                frozenset(p) for p in ((1, 2), (1, 3), (2, 3))
            }
            assert len(cycles) == len(hamiltonian_cycles(g))

    def test_matching_oracle_on_random_diagram_graphs(self):
        rng = random.Random(5)
        for n in range(12, 19):
            g = relabelled(rng, random_diagram_graph(rng, n))
            cycles = hamiltonian_cycles(g)
            assert cycles == sorted(set(cycles), key=lambda h: h.vertices)
            assert set(cycles) == matching_cycles(g), g.to_edge_list()

    def test_matching_oracle_on_small_graphs(self):
        for g in (K4, K33, PETERSEN, PRISM5, moebius_ladder(5), TRIPLE_EDGE):
            assert set(hamiltonian_cycles(g)) == matching_cycles(g)


class TestLargeGraphs:
    """Searches deeper than Python's recursion limit still give verdicts."""

    def test_isolated_chords_have_one_cycle(self):
        d = from_chord_pairs([(2 * i, 2 * i + 1) for i in range(500)])
        g, rim = graph_from_diagram(d)
        assert g.m == 1000
        assert hamiltonian_cycles(g) == [rim]

    def test_moebius_600_is_isomorphic_to_itself(self):
        g = moebius_ladder(600)
        ok, witness = are_isomorphic(g, g)
        assert ok
        assert witness is not None and carries_edges(g, g, witness)


class TestDiagramBridge:
    def test_rim_gives_diameters(self):
        m5 = moebius_ladder(5)
        d = diagram_from_cycle(m5, HamCycle(tuple(range(10))))
        assert canonical_form(d) == "ABCDEABCDE"

    def test_zigzag_gives_span3_class(self):
        m5 = moebius_ladder(5)
        h = HamCycle((0, 1, 6, 7, 2, 3, 8, 9, 4, 5))
        d = diagram_from_cycle(m5, h)
        assert canonical_form(d) == canonical_form(parse_word("AEBACBDCED"))

    def test_ladder_path_gives_mixed_class(self):
        m5 = moebius_ladder(5)
        h = HamCycle((0, 1, 2, 3, 4, 9, 8, 7, 6, 5))
        d = diagram_from_cycle(m5, h)
        assert canonical_form(d) == canonical_form(parse_word("ACDECABDEB"))

    def test_cycle_mismatch(self):
        with pytest.raises(CycleMismatchError):
            diagram_from_cycle(moebius_ladder(5), HamCycle(tuple(range(8))))

    def test_cycle_not_in_graph(self):
        g = moebius_ladder(3)
        with pytest.raises(CycleMismatchError):
            diagram_from_cycle(g, HamCycle((0, 2, 4, 1, 3, 5)))  # 0-2 not an edge

    def test_triple_edge_roundtrip(self):
        d = diagram_from_cycle(TRIPLE_EDGE, HamCycle((0, 1)))
        assert d == parse_word("AA")
        g, h = graph_from_diagram(parse_word("AA"))
        assert g == TRIPLE_EDGE
        assert h == HamCycle((0, 1))

    def test_graph_from_diagram_parallel_edges(self):
        g, h = graph_from_diagram(parse_word("AABB"))
        assert g.multiplicity(0, 1) == 2
        assert g.multiplicity(2, 3) == 2
        assert h == HamCycle((0, 1, 2, 3))

    def test_matches_edge_multiset_reference_up_to_six_chords(self):
        rng = random.Random(13)
        for n in range(1, 7):
            for word in canonical_words(n):
                g = graph_from_diagram(parse_word(word))[0]
                for h in (g, relabelled(rng, g)):
                    for cycle in hamiltonian_cycles(h):
                        got = diagram_from_cycle(h, cycle)
                        want = reference_diagram_from_cycle(h, cycle)
                        assert got == want, (word, cycle)
                        assert got.word() == want.word(), (word, cycle)

    @pytest.mark.parametrize(
        "vertices",
        [
            (0, 2, 4, 1, 3, 5),  # the step 0-2 is not an edge
            (0, 1, 2, 3, 4, 6),  # vertex 6 is not in the graph, 5 is missed
            (0, 1, 2, 3),  # vertices 4 and 5 are missed
        ],
    )
    def test_mismatch_like_reference(self, vertices):
        g, cycle = moebius_ladder(3), HamCycle(vertices)
        with pytest.raises(CycleMismatchError):
            reference_diagram_from_cycle(g, cycle)
        with pytest.raises(CycleMismatchError):
            diagram_from_cycle(g, cycle)

    def test_roundtrip_canonical_all_small(self):
        for n in range(1, 5):
            for word in canonical_words(n):
                d = parse_word(word)
                g, h = graph_from_diagram(d)
                back = diagram_from_cycle(g, h)
                assert canonical_form(back) == word


class TestIsomorphism:
    def test_m3_is_k33(self):
        ok, witness = are_isomorphic(moebius_ladder(3), K33)
        assert ok
        assert witness is not None
        assert carries_edges(moebius_ladder(3), K33, witness)

    def test_m5_not_petersen(self):
        ok, witness = are_isomorphic(moebius_ladder(5), PETERSEN)
        assert not ok and witness is None

    def test_m5_not_prism(self):
        ok, _ = are_isomorphic(moebius_ladder(5), PRISM5)
        assert not ok

    def test_multiplicity_profile_distinguishes(self):
        g_aabb, _ = graph_from_diagram(parse_word("AABB"))
        g_abab, _ = graph_from_diagram(parse_word("ABAB"))
        assert not are_isomorphic(g_aabb, g_abab)[0]

    def test_triple_edge_self(self):
        ok, witness = are_isomorphic(TRIPLE_EDGE, TRIPLE_EDGE)
        assert ok and witness in ({0: 0, 1: 1}, {0: 1, 1: 0})

    def test_random_relabelings(self):
        rng = random.Random(7)
        pool = [moebius_ladder(5), PETERSEN, PRISM5, K4]
        for n in (3, 4, 5, 6):
            words = canonical_words(n)
            pool.append(graph_from_diagram(parse_word(rng.choice(words)))[0])
        # an 8-chord word drawn directly: listing the 65,346 classes is slow
        pool.append(random_diagram_graph(rng, 8))
        for g in pool:
            h = relabelled(rng, g)
            ok, witness = are_isomorphic(g, h)
            assert ok
            assert witness is not None
            assert carries_edges(g, h, witness)

    def test_different_sizes(self):
        assert are_isomorphic(K4, moebius_ladder(3)) == (False, None)


class TestIsomorphismOracle:
    """Verdicts against networkx: VF2 on multigraphs, or a known verdict.

    Relabellings are isomorphic by construction and ladder-prism pairs
    differ in bipartiteness, so there the witness or networkx's bipartite
    test is the check; VF2 on them would cost several seconds.
    """

    @staticmethod
    def agrees(g: CubicGraph, h: CubicGraph) -> bool:
        ok, witness = are_isomorphic(g, h)
        want = nx.is_isomorphic(nx.MultiGraph(g.edges), nx.MultiGraph(h.edges))
        if not ok:
            return witness is None and not want
        return want and carries_edges(g, h, witness)

    def test_same_size_pairs_up_to_four_chords(self):
        for n in range(1, 5):
            graphs = [
                graph_from_diagram(parse_word(w))[0] for w in canonical_words(n)
            ]
            for g in graphs:
                for h in graphs:
                    assert self.agrees(g, h)

    def test_relabellings_up_to_six_chords(self):
        rng = random.Random(3)
        pairs = []
        for n in range(1, 7):
            for word in canonical_words(n):
                g = graph_from_diagram(parse_word(word))[0]
                pairs.append((g, relabelled(rng, g)))
        # AABB's graph, the double-edged square, in all 24 numberings: on a
        # closed cycle of doubled edges the simple graph leaves two choices
        # of doubling, so a search blind to parallel edges still says
        # "isomorphic" and only the witness shows the wrong choice
        square = graph_from_diagram(parse_word("AABB"))[0]
        assert square.edges == ((0, 1), (0, 1), (0, 3), (1, 2), (2, 3), (2, 3))
        for perm in permutations(range(4)):
            edges = [(perm[u], perm[v]) for u, v in square.edges]
            pairs.append((square, CubicGraph(edges)))
        for g, h in pairs:
            ok, witness = are_isomorphic(g, h)
            assert ok and carries_edges(g, h, witness), h.edges

    def test_ladder_against_prism(self):
        for k in range(3, 25):
            g, h = moebius_ladder(k), prism(k)
            assert nx.is_bipartite(nx.MultiGraph(g.edges)) != nx.is_bipartite(
                nx.MultiGraph(h.edges)
            )
            assert are_isomorphic(g, h) == (False, None), k

    def test_disconnected(self):
        two_k4 = CubicGraph(
            K4.edges + tuple((u + 4, v + 4) for u, v in K4.edges)
        )
        assert self.agrees(two_k4, relabelled(random.Random(1), two_k4))
        assert self.agrees(two_k4, moebius_ladder(4))


class TestIsomorphismWitness:
    """Verdicts and witnesses against the unrefined search, dict for dict."""

    @staticmethod
    def same(g: CubicGraph, h: CubicGraph) -> bool:
        return are_isomorphic(g, h) == reference_are_isomorphic(g, h)

    def test_relabellings_up_to_six_chords(self):
        rng = random.Random(3)
        for n in range(1, 7):
            for word in canonical_words(n):
                g = graph_from_diagram(parse_word(word))[0]
                assert self.same(g, relabelled(rng, g)), word

    def test_same_size_pairs_up_to_four_chords(self):
        for n in range(1, 5):
            graphs = [
                graph_from_diagram(parse_word(w))[0] for w in canonical_words(n)
            ]
            for g in graphs:
                for h in graphs:
                    assert self.same(g, h)

    def test_ladder_against_prism(self):
        for k in range(3, 25):
            assert self.same(moebius_ladder(k), prism(k)), k

    def test_random_pairs(self):
        rng = random.Random(17)
        for n in range(8, 15):
            for _ in range(4):
                g, h = random_diagram_graph(rng, n), random_diagram_graph(rng, n)
                assert self.same(g, h), (g.edges, h.edges)
                assert self.same(g, relabelled(rng, g)), g.edges

    def test_pair_the_invariant_cannot_tell_apart(self):
        # equal invariant lists and bipartiteness: the search itself rejects
        g = graph_from_diagram(parse_word("ABCABDECDE"))[0]
        h = graph_from_diagram(parse_word("ABCADCEDBE"))[0]
        assert sorted(cubic._ball_invariants(g)) == sorted(cubic._ball_invariants(h))
        assert cubic._bfs_order(g)[1] == cubic._bfs_order(h)[1]
        assert not nx.is_isomorphic(nx.MultiGraph(g.edges), nx.MultiGraph(h.edges))
        assert are_isomorphic(g, h) == (False, None) == reference_are_isomorphic(g, h)

    def test_refines_only_once_the_root_moves(self, monkeypatch):
        calls = []
        real = cubic._ball_invariants

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(cubic, "_ball_invariants", counted)
        g = moebius_ladder(50)
        assert are_isomorphic(g, g)[0] and calls == []
        assert are_isomorphic(g, prism(50)) == (False, None)
        assert calls == [g, prism(50)]

    def test_witness_checked_against_g2_edges(self):
        # the search reads g2 only through its cached adjacency: give the
        # ladder the prism's, and the search maps the prism onto it
        tampered = moebius_ladder(5)
        for name in ("_adjacency", "neighbor_sets"):
            tampered.__dict__[name] = getattr(PRISM5, name)
        with pytest.raises(AssertionError, match="carry edges to edges"):
            are_isomorphic(PRISM5, tampered)

    def test_witness_check_builds_no_graph(self, monkeypatch):
        g, h = moebius_ladder(30), moebius_ladder(30)
        built = []
        real = CubicGraph.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(CubicGraph, "__post_init__", counted)
        assert are_isomorphic(g, h)[0]
        assert built == []

    def test_bipartite_against_oracle(self):
        for g in (K4, K33, PETERSEN, PRISM5, moebius_ladder(5), moebius_ladder(6)):
            assert cubic._bfs_order(g)[1] == oracle_bipartite(g)
        two = CubicGraph(K33.edges + tuple((u + 6, v + 6) for u, v in K4.edges))
        assert not cubic._bfs_order(two)[1] and not oracle_bipartite(two)


class TestCensus:
    def test_m5_against_golden(self):
        got = ham_census(moebius_ladder(5)).to_json_dict()
        want = json.loads((GOLDEN / "m5_census.json").read_text())
        assert got == want

    def test_m5_contains_both_verdicts(self):
        report = ham_census(moebius_ladder(5))
        assert {e.realizable for e in report.entries} == {True, False}
        assert report.total_cycles == 8

    def test_fixture_classes_present(self):
        report = ham_census(moebius_ladder(5))
        words = {e.word for e in report.entries}
        for fixture in ("AEBACBDCED", "ADBECADBEC", "ACDECABDEB"):
            assert canonical_form(parse_word(fixture)) in words

    def test_each_class_decided_once(self, monkeypatch):
        # on a diagram read off one of its cycles, not through the
        # word-keyed cache
        realize.realizable_class.cache_clear()
        decided = []

        def counted(d):
            decided.append(canonical_form(d))
            return realize.is_realizable(d)

        monkeypatch.setattr(cubic, "is_realizable", counted)
        report = ham_census(moebius_ladder(5))
        assert sorted(decided) == [e.word for e in report.entries]
        assert len(decided) == 3
        assert realize.realizable_class.cache_info().currsize == 0

    def test_petersen_census_empty(self):
        report = ham_census(PETERSEN)
        assert report.total_cycles == 0
        assert report.entries == ()

    def test_k4_census(self):
        report = ham_census(K4)
        assert report.total_cycles == 3
        assert [e.word for e in report.entries] == ["ABAB"]
        assert report.entries[0].realizable is False
