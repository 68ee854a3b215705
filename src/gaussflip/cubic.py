"""Cubic multigraphs and their Hamiltonian cycles.

A Gauss diagram is the same data as a cubic multigraph together with a
marked Hamiltonian cycle: the cycle supplies the circle, the remaining
perfect matching supplies the chords.  This module holds the graph side of
that correspondence: building graphs, enumerating Hamiltonian cycles,
converting to and from diagrams, isomorphism testing, and a per-graph
census of the diagram classes its cycles produce.

Vertices are 0..m-1.  Parallel edges are allowed (a 3-regular graph on two
vertices is a triple edge); self-loops are not.  A graph keeps its edge
multiset sorted, and one adjacency (each vertex's three neighbours,
parallel edges repeated) that multiplicities, distinct neighbours,
isomorphism checks and chord ends are all read from.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

from .diagrams import GaussDiagram, canonical_form
from .realize import is_realizable


class GraphError(ValueError):
    """Base class for malformed graph input."""


class NotCubicError(GraphError):
    """Raised when some vertex degree differs from 3 (or a loop appears)."""


class UnsupportedOrderError(GraphError):
    """Raised for ladder orders below 3."""


class CycleMismatchError(GraphError):
    """Raised when a claimed Hamiltonian cycle does not fit the graph."""


@dataclass(frozen=True)
class CubicGraph:
    """3-regular multigraph: edge multiset as (u, v) pairs, u < v, sorted.

    The edges may come in any order and orientation; they are stored
    sorted.  The order ``m`` is the largest vertex plus one, so every
    vertex below it must have degree 3.
    """

    edges: tuple[tuple[int, int], ...]
    m: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        edges = sorted((u, v) if u < v else (v, u) for u, v in self.edges)
        object.__setattr__(self, "edges", tuple(edges))
        if edges and edges[0][0] < 0:
            raise GraphError(f"edge {edges[0]} has a negative vertex")
        object.__setattr__(self, "m", max((v for _, v in edges), default=-1) + 1)
        if self.m < 2 or self.m % 2:
            raise NotCubicError(f"{self.m} vertices cannot all have degree 3")
        degrees: Counter[int] = Counter()
        for u, v in edges:
            if u == v:
                raise NotCubicError(f"vertex {u} has a self-loop")
            degrees[u] += 1
            degrees[v] += 1
        # a vertex absent from ``degrees`` has degree 0, so the first three
        # faults lie among the first len(degrees) + 3 vertices, whatever m is
        faults = self.m - sum(d == 3 for d in degrees.values())
        if faults:
            bad = islice((v for v in range(self.m) if degrees[v] != 3), 3)
            detail = "; ".join(f"vertex {v} has degree {degrees[v]}" for v in bad)
            if faults > 3:
                detail += f"; {faults - 3} more not of degree 3"
            raise NotCubicError(f"graph is not cubic: {detail}")

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's three neighbours, ascending, parallel edges repeated.

        No sort is needed: the edges are sorted with u < v, so a vertex
        meets its lower neighbours first, ascending, then its higher ones.
        ``are_isomorphic``'s candidate test relies on that order.
        """
        adjacent: list[list[int]] = [[] for _ in range(self.m)]
        for u, v in self.edges:
            adjacent[u].append(v)
            adjacent[v].append(u)
        return tuple(map(tuple, adjacent))

    @cached_property
    def neighbor_sets(self) -> tuple[tuple[int, ...], ...]:
        """Distinct neighbors of each vertex, ascending."""
        return tuple(tuple(dict.fromkeys(a)) for a in self._adjacency)

    def multiplicity(self, u: int, v: int) -> int:
        return self._adjacency[u].count(v)

    def to_edge_list(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges)

    def to_dot(self) -> str:
        lines = ["graph cubic {"]
        for u, v in self.edges:
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> CubicGraph:
    """Read one edge per line, two whitespace-separated vertex numbers."""
    edges: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected two vertices, got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer vertex in {line!r}") from exc
    if not edges:
        raise GraphError("no edges found")
    return CubicGraph(tuple(edges))


def moebius_ladder(k: int) -> CubicGraph:
    """2k-cycle plus the k antipodal rungs; k = 3 gives K_{3,3}."""
    if k < 3:
        raise UnsupportedOrderError(f"ladder order must be at least 3, got {k}")
    m = 2 * k
    edges = [(i, (i + 1) % m) for i in range(m)] + [(i, i + k) for i in range(k)]
    return CubicGraph(tuple(edges))


@dataclass(frozen=True)
class HamCycle:
    """Hamiltonian cycle stored in canonical traversal order.

    The vertices may be given from any start, in either direction.  They
    are stored rotated to the least vertex and turned toward its smaller
    neighbor, so each geometric cycle has exactly one stored form; a
    2-cycle (the triple edge) has no direction to fix.
    """

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        vs = tuple(self.vertices)
        if len(vs) < 2 or len(set(vs)) != len(vs):
            raise CycleMismatchError("cycle must visit distinct vertices")
        k = vs.index(min(vs))
        vs = vs[k:] + vs[:k]
        if vs[1] > vs[-1]:
            vs = vs[:1] + vs[:0:-1]
        object.__setattr__(self, "vertices", vs)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.vertices)


def hamiltonian_cycles(g: CubicGraph) -> list[HamCycle]:
    """All Hamiltonian cycles, each once, sorted by vertex sequence.

    A depth-first search grows a path from vertex 0 and keeps its state
    on an explicit stack, so the depth is not bounded by Python recursion.
    A path vertex other than its two ends (0 and the tail) is *inside*:
    both of its cycle edges are fixed.  Every vertex still off the path
    needs two cycle edges to distinct neighbors, and neither can be inside,
    so it needs two distinct neighbors that are not inside; vertex 0 still
    needs one for the closing edge.  ``free[x]`` counts x's distinct
    neighbors that are not inside.  Any step on from the tail w puts w
    inside and lowers ``free`` of w's neighbors only, so only they can
    newly break the rule.  A step from w to x is dropped when ``free[0]``
    falls below 1, or an off-path vertex other than x falls below 2, or
    ``free[x]`` falls below 1 (x goes on with w inside, so it needs one
    more edge).  So when one off-path neighbor of w is below 2, it is the
    only step left, and when two are, none is.  A cycle through a dropped
    step would need an edge to an inside vertex, so no cycle is lost.

    Only the stored form is searched: ``path[1]`` is a distinct neighbor
    ``a`` of 0 below the closing vertex.  One pass runs per ``a`` but the
    largest, ascending, on the graph less the edges from 0 to its neighbors
    below ``a``: a cycle stored with ``path[1] = a`` leaves 0 along a and
    closes from above a, so it uses none of them, and every off-path rule
    above holds in that graph too.  There the closing test is adjacency to
    0.  Each pass tries neighbors in ascending order, so it meets whole
    paths in lexicographic order: the list comes out sorted with no sort.
    A cubic graph on two vertices is the triple edge, since loops are
    refused.
    """
    if g.m == 2:
        return [HamCycle((0, 1))]
    out: list[HamCycle] = []
    firsts = g.neighbor_sets[0]
    for k in range(len(firsts) - 1):
        nbrs = list(g.neighbor_sets)
        nbrs[0] = firsts[k:]
        for b in firsts[:k]:  # b loses its edges to 0
            nbrs[b] = tuple(x for x in nbrs[b] if x)
        _cycles_from(nbrs, firsts[k], out)
    return out


def _cycles_from(nbrs: list[tuple[int, ...]], a: int, out: list[HamCycle]) -> None:
    """One pass of ``hamiltonian_cycles``: append the cycles 0, a, ..., 0."""
    m = len(nbrs)
    free = [len(s) for s in nbrs]
    on_path = [False] * m
    on_path[0] = True
    path = [0]
    stack = [iter((a,))]  # the steps left to try from each path vertex
    while stack:
        for w in stack[-1]:
            break
        else:  # no step left: the tail leaves the path
            stack.pop()
            v = path.pop()
            on_path[v] = False
            if stack:
                for x in nbrs[v]:
                    free[x] += 1
            continue
        if len(path) == m - 1:
            if 0 in nbrs[w]:
                out.append(HamCycle((*path, w)))
            continue
        path.append(w)
        on_path[w] = True
        steps = []
        low = None  # the one off-path neighbor that must come next
        dead = False
        for x in nbrs[w]:  # every step on from w puts w inside
            free[x] -= 1
            if not on_path[x]:
                steps.append(x)
                if free[x] < 2:
                    dead = dead or low is not None or free[x] < 1
                    low = x
        if dead or free[0] < 1:
            steps = []
        elif low is not None:
            steps = [low]
        stack.append(iter(steps))


def diagram_from_cycle(g: CubicGraph, cycle: HamCycle) -> GaussDiagram:
    """Read the Gauss diagram of (g, cycle): non-cycle edges become chords.

    The cycle lays the vertices out on a circle.  Removing a vertex's two
    cycle neighbours from its three leaves its chord end; an edge of
    multiplicity k traversed c times leaves k - c ends at both its
    vertices, so the ends pair up into chords between cycle positions,
    and each position's partner is already the diagram's pairing.
    """
    vs = cycle.vertices
    if sorted(vs) != list(range(g.m)):
        raise CycleMismatchError(f"cycle {cycle} does not visit every vertex once")
    pos = {v: i for i, v in enumerate(vs)}
    partner = []
    for i, v in enumerate(vs):
        ends = list(g._adjacency[v])
        for w in (vs[i - 1], vs[(i + 1) % g.m]):
            if w not in ends:
                raise CycleMismatchError(
                    f"cycle {cycle} steps from {v} to {w} along no edge left"
                )
            ends.remove(w)
        partner.append(pos[ends[0]])
    return GaussDiagram(tuple(partner))


def graph_from_diagram(d: GaussDiagram) -> tuple[CubicGraph, HamCycle]:
    """The cubic graph on the slots: circle arcs plus one edge per chord."""
    m = 2 * d.n
    edges = [(s, (s + 1) % m) for s in range(m)] + list(d.chord_slots)
    return CubicGraph(tuple(edges)), HamCycle(tuple(range(m)))


def _bfs_order(g: CubicGraph) -> tuple[list[int], bool]:
    """Breadth-first from vertex 0, roots and neighbors in ascending order,
    and whether the graph is bipartite: each vertex takes the side opposite
    the one it was found from, and no edge may join two vertices of a side."""
    order: list[int] = []
    side = [-1] * g.m
    bipartite = True
    for root in range(g.m):
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in g.neighbor_sets[v]:
                if side[w] < 0:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    bipartite = False
    return order, bipartite


def _ball_invariants(g: CubicGraph) -> list[tuple[int, int, int, int]]:
    """Per vertex: the vertices at distance 1, 2 and 3, and the edges
    (parallel ones repeated) joining two vertices at one distance up to 3."""
    out = []
    for v in range(g.m):
        dist = {v: 0}
        layer = [v]
        sizes = []
        for d in (1, 2, 3):
            ahead = []
            for u in layer:
                for x in g.neighbor_sets[u]:
                    if x not in dist:
                        dist[x] = d
                        ahead.append(x)
            sizes.append(len(ahead))
            layer = ahead
        level = sum(dist.get(x) == d for u, d in dist.items() for x in g._adjacency[u])
        out.append((*sizes, level // 2))
    return out


def are_isomorphic(
    g1: CubicGraph, g2: CubicGraph
) -> tuple[bool, dict[int, int] | None]:
    """Decide isomorphism; on success return a verified vertex mapping.

    One backtracking search places g1's vertices in breadth-first order.
    A vertex with a placed neighbor u may map only to an unused neighbor of
    u's image; a component root may map to any unused vertex.  Candidates
    are tried in ascending order, and one is kept when the used neighbors
    of its image, parallel edges repeated, are the sorted images of its
    placed neighbors.  The witness is the least isomorphism in that order.
    Each depth keeps its placed neighbors' images and the candidates it
    has left on an explicit stack, so the depth is not bounded by Python
    recursion.

    Once the root's first image has failed, the search refines, once: each
    vertex gets its ``_ball_invariants`` entry and each graph its
    bipartiteness, g1's from the walk that ordered it and g2's from a walk
    of its own.  An isomorphism keeps all of them, so graphs whose sorted
    lists differ are not isomorphic, and a candidate whose entry differs
    from its vertex's leads to no isomorphism.  Skipping such candidates
    drops only branches holding no complete mapping, so the witness is
    still the least isomorphism.  A search that never moves the root, as
    on a graph against itself, computes none of this.

    The witness is checked before it is returned: the images of g1's
    edges, each written low end first and sorted, must equal ``g2.edges``
    edge for edge, or ``AssertionError`` is raised.
    """
    m = g1.m
    if m != g2.m:  # cubic, so the edge counts then agree too
        return False, None
    order, bipartite = _bfs_order(g1)
    image = [-1] * m  # g1 vertex -> g2 vertex, -1 while unplaced
    used = [False] * m
    # by depth: sorted images of the placed neighbors, candidates left;
    # entries are replaced on the way down, never mutated
    arounds: list[list[int]] = [[]] * m
    pools: list[Iterator[int]] = [iter(range(m))] * m
    # invariant class of each vertex: one shared list until refined
    kind1 = kind2 = [0] * m
    adjacency2 = g2._adjacency
    depth = 0
    while depth >= 0:
        v = order[depth]
        if image[v] >= 0:  # undo the candidate tried last
            used[image[v]] = False
            if depth == 0 and kind1 is kind2:  # the root moves: refine
                inv1, inv2 = _ball_invariants(g1), _ball_invariants(g2)
                if (bipartite, sorted(inv1)) != (_bfs_order(g2)[1], sorted(inv2)):
                    return False, None
                kinds = {t: i for i, t in enumerate(set(inv1))}
                kind1 = [kinds[t] for t in inv1]
                kind2 = [kinds[t] for t in inv2]
        around = arounds[depth]
        kind = kind1[v]
        for w in pools[depth]:
            if (
                not used[w]
                and kind2[w] == kind
                and around == [x for x in adjacency2[w] if used[x]]
            ):
                break
        else:
            image[v] = -1
            depth -= 1
            continue
        image[v] = w
        used[w] = True
        depth += 1
        if depth == m:
            break
        v = order[depth]
        arounds[depth] = around = sorted(
            image[u] for u in g1._adjacency[v] if image[u] >= 0
        )
        pools[depth] = iter(g2.neighbor_sets[around[0]] if around else range(m))
    else:
        return False, None
    mapped = ((image[u], image[v]) for u, v in g1.edges)
    if tuple(sorted((a, b) if a < b else (b, a) for a, b in mapped)) != g2.edges:
        raise AssertionError("witness must carry edges to edges")
    return True, dict(enumerate(image))


@dataclass(frozen=True)
class CensusEntry:
    """One diagram class reachable from a graph's Hamiltonian cycles."""

    word: str
    cycles: int
    realizable: bool


@dataclass(frozen=True)
class CensusReport:
    """Diagram classes of every Hamiltonian cycle of one graph."""

    entries: tuple[CensusEntry, ...]

    @property
    def total_cycles(self) -> int:
        return sum(e.cycles for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "classes": [
                {"word": e.word, "cycles": e.cycles, "realizable": e.realizable}
                for e in self.entries
            ],
        }


def ham_census(g: CubicGraph) -> CensusReport:
    """Group the graph's Hamiltonian cycles by diagram class.

    Every cycle contributes one diagram; entries collect them per canonical
    word with cycle counts and the first one's verdict, sorted by word.
    """
    found: dict[str, list] = {}  # canonical word -> [cycles, first diagram]
    for h in hamiltonian_cycles(g):
        d = diagram_from_cycle(g, h)
        found.setdefault(canonical_form(d), [0, d])[0] += 1
    entries = tuple(
        CensusEntry(word, count, is_realizable(d))
        for word, (count, d) in sorted(found.items())
    )
    return CensusReport(entries)
