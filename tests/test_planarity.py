"""The left-right planarity test against networkx's ``check_planarity``."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from gaussflip.planarity import is_planar


def adjacency(g: nx.Graph, rng: random.Random) -> list[list[int]]:
    """Adjacency lists of a graph on 0..n-1, each in shuffled order."""
    lists = [list(g[v]) for v in range(g.number_of_nodes())]
    for nbrs in lists:
        rng.shuffle(nbrs)
    return lists


def agrees(g: nx.Graph, rng: random.Random) -> bool:
    return is_planar(adjacency(g, rng)) == nx.check_planarity(g)[0]


def subdivided(g: nx.Graph, times: int) -> nx.Graph:
    """Each edge replaced by a path through ``times`` new vertices."""
    h = nx.Graph()
    h.add_nodes_from(g)
    fresh = g.number_of_nodes()
    for u, v in g.edges:
        path = [u, *range(fresh, fresh + times), v]
        fresh += times
        nx.add_path(h, path)
    return h


K5 = nx.complete_graph(5)
K33 = nx.complete_bipartite_graph(3, 3)
PETERSEN = nx.petersen_graph()


@pytest.mark.parametrize("p", [0.1, 0.25, 0.4, 0.6, 0.9])
def test_random_graphs(p):
    rng = random.Random(int(p * 100))
    planar = 0
    for _ in range(300):
        g = nx.gnp_random_graph(rng.randint(0, 14), p, seed=rng.randrange(1 << 30))
        assert agrees(g, rng), sorted(g.edges)
        planar += nx.check_planarity(g)[0]
    if 0.25 <= p <= 0.4:
        assert 0 < planar < 300  # both verdicts occur


def test_trees_with_extra_edges():
    """Sparse graphs near the planar boundary, up to 40 vertices."""
    rng = random.Random(7)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(5, 40)
        g = nx.random_labeled_tree(n, seed=rng.randrange(1 << 30))
        for _ in range(rng.randint(0, 2 * n)):
            g.add_edge(*rng.sample(range(n), 2))
        assert agrees(g, rng), sorted(g.edges)
        verdicts.add(nx.check_planarity(g)[0])
    assert verdicts == {False, True}


def test_random_cubic_graphs():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(120):
        n = rng.randrange(4, 81, 2)
        g = nx.random_regular_graph(3, n, seed=rng.randrange(1 << 30))
        assert agrees(g, rng), sorted(g.edges)
        verdicts.add(nx.check_planarity(g)[0])
    assert verdicts == {False, True}


@pytest.mark.parametrize(
    "g, planar",
    [
        (K5, False),
        (K33, False),
        (PETERSEN, False),
        (subdivided(K5, 1), False),
        (subdivided(K33, 2), False),
        (subdivided(PETERSEN, 3), False),
        (nx.complete_graph(4), True),
        (nx.Graph(list(K5.edges)[1:]), True),
        (nx.Graph(list(K33.edges)[1:]), True),
        (nx.convert_node_labels_to_integers(nx.grid_2d_graph(6, 7)), True),
    ],
    ids=[
        "K5", "K33", "petersen", "K5-subdivided", "K33-subdivided",
        "petersen-subdivided", "K4", "K5-minus-edge", "K33-minus-edge", "grid",
    ],
)
def test_known_graphs(g, planar):
    rng = random.Random(5)
    for _ in range(10):
        assert is_planar(adjacency(g, rng)) is planar


def test_disconnected_and_isolated():
    rng = random.Random(13)
    assert is_planar([])
    assert is_planar([[]])
    assert is_planar([[], [], []])
    grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(4, 4))
    with_isolated = nx.disjoint_union_all([nx.empty_graph(3), grid, nx.empty_graph(2)])
    assert agrees(with_isolated, rng)
    assert is_planar(adjacency(with_isolated, rng))
    for bad in (K5, K33, subdivided(PETERSEN, 1)):
        # one non-planar component, before or after planar ones
        for parts in ([bad, grid], [grid, nx.empty_graph(1), bad]):
            union = nx.disjoint_union_all(parts)
            assert not is_planar(adjacency(union, rng))
            assert agrees(union, rng)
    for _ in range(100):
        parts = [
            nx.gnp_random_graph(rng.randint(0, 8), rng.random(), seed=rng.randrange(1 << 30))
            for _ in range(rng.randint(2, 4))
        ]
        assert agrees(nx.disjoint_union_all(parts), rng)
