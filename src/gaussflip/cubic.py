"""Cubic multigraphs and their Hamiltonian cycles.

A Gauss diagram is the same data as a cubic multigraph together with a
marked Hamiltonian cycle: the cycle supplies the circle, the remaining
perfect matching supplies the chords.  This module holds the graph side of
that correspondence: building graphs, enumerating Hamiltonian cycles,
converting to and from diagrams, isomorphism testing, and a per-graph
census of the diagram classes its cycles produce.

Vertices are 0..m-1.  Parallel edges are allowed (a 3-regular graph on two
vertices is a triple edge); self-loops are not.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .diagrams import GaussDiagram, canonical_form, from_chord_pairs
from .realize import realizable_class


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
    """3-regular multigraph: edge multiset as sorted (u, v) pairs, u < v."""

    m: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.m < 2 or self.m % 2:
            raise NotCubicError(f"{self.m} vertices cannot all have degree 3")
        degrees = [0] * self.m
        for u, v in self.edges:
            if not (0 <= u < self.m and 0 <= v < self.m):
                raise GraphError(f"edge ({u}, {v}) outside 0..{self.m - 1}")
            if u == v:
                raise NotCubicError(f"vertex {u} has a self-loop")
            if u > v:
                raise GraphError(f"edge ({u}, {v}) not normalized; use from_edges")
            degrees[u] += 1
            degrees[v] += 1
        if tuple(sorted(self.edges)) != self.edges:
            raise GraphError("edge list not sorted; use from_edges")
        bad = [(v, d) for v, d in enumerate(degrees) if d != 3]
        if bad:
            detail = "; ".join(f"vertex {v} has degree {d}" for v, d in bad)
            raise NotCubicError(f"graph is not cubic: {detail}")

    @classmethod
    def from_edges(
        cls, edges: Iterable[Sequence[int]], m: int | None = None
    ) -> CubicGraph:
        norm = sorted(tuple(sorted((int(u), int(v)))) for u, v in edges)
        if m is None:
            if not norm:
                raise GraphError("no edges given")
            m = max(v for e in norm for v in e) + 1
        return cls(m, tuple(norm))

    @cached_property
    def _multiplicity(self) -> Counter[tuple[int, int]]:
        return Counter(self.edges)

    @cached_property
    def neighbor_sets(self) -> tuple[tuple[int, ...], ...]:
        """Distinct neighbors of each vertex, ascending."""
        nbrs: list[set[int]] = [set() for _ in range(self.m)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(tuple(sorted(s)) for s in nbrs)

    def multiplicity(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self._multiplicity[(u, v)]

    def to_edge_list(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges)

    def to_dot(self, name: str = "cubic") -> str:
        lines = [f"graph {name} {{"]
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
    return CubicGraph.from_edges(edges)


def moebius_ladder(k: int) -> CubicGraph:
    """2k-cycle plus the k antipodal rungs; k = 3 gives K_{3,3}."""
    if k < 3:
        raise UnsupportedOrderError(f"ladder order must be at least 3, got {k}")
    m = 2 * k
    edges = [(i, (i + 1) % m) for i in range(m)] + [(i, i + k) for i in range(k)]
    return CubicGraph.from_edges(edges, m)


@dataclass(frozen=True)
class HamCycle:
    """Hamiltonian cycle stored in canonical traversal order.

    The least vertex comes first and, for length 3 or more, its smaller
    neighbor second, so each geometric cycle has exactly one stored form.
    """

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        vs = self.vertices
        if len(vs) < 2 or len(set(vs)) != len(vs):
            raise CycleMismatchError("cycle must visit distinct vertices")
        if vs[0] != min(vs):
            raise CycleMismatchError("cycle not in canonical rotation")
        if len(vs) > 2 and vs[1] > vs[-1]:
            raise CycleMismatchError("cycle not in canonical direction")

    @classmethod
    def from_sequence(cls, seq: Sequence[int]) -> HamCycle:
        vs = [int(v) for v in seq]
        if len(vs) < 2 or len(set(vs)) != len(vs):
            raise CycleMismatchError("cycle must visit distinct vertices")
        k = vs.index(min(vs))
        vs = vs[k:] + vs[:k]
        if len(vs) > 2 and vs[1] > vs[-1]:
            vs = [vs[0]] + vs[1:][::-1]
        return cls(tuple(vs))

    def edge_steps(self) -> list[tuple[int, int]]:
        """Consecutive vertex pairs, unordered, one per traversal step."""
        vs = self.vertices
        return [
            tuple(sorted((vs[i], vs[(i + 1) % len(vs)])))
            for i in range(len(vs))
        ]

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.vertices)


def hamiltonian_cycles(g: CubicGraph) -> list[HamCycle]:
    """All Hamiltonian cycles, each once, sorted by vertex sequence."""
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


def _cycle_fits(g: CubicGraph, cycle: HamCycle) -> bool:
    if sorted(cycle.vertices) != list(range(g.m)):
        return False
    need = Counter(cycle.edge_steps())
    return all(g.multiplicity(u, v) >= c for (u, v), c in need.items())


def diagram_from_cycle(g: CubicGraph, cycle: HamCycle) -> GaussDiagram:
    """Read the Gauss diagram of (g, cycle): non-cycle edges become chords.

    The cycle lays the vertices out on a circle; removing one copy of each
    traversed edge leaves a perfect matching on the vertices (each vertex
    keeps exactly one of its three edge ends), and each matching edge turns
    into the chord joining the positions of its endpoints.
    """
    if not _cycle_fits(g, cycle):
        raise CycleMismatchError(
            f"cycle {cycle} is not a Hamiltonian cycle of this graph"
        )
    remaining = Counter(g.edges)
    remaining.subtract(Counter(cycle.edge_steps()))
    matching = [e for e, c in remaining.items() for _ in range(c)]
    covered = sorted(v for e in matching for v in e)
    assert covered == list(range(g.m)), "leftover edges must form a perfect matching"
    pos = {v: i for i, v in enumerate(cycle.vertices)}
    return from_chord_pairs([(pos[u], pos[v]) for u, v in matching])


def graph_from_diagram(d: GaussDiagram) -> tuple[CubicGraph, HamCycle]:
    """The cubic graph on the slots: circle arcs plus one edge per chord."""
    m = 2 * d.n
    edges = [(s, (s + 1) % m) for s in range(m)] + list(d.chord_slots)
    return CubicGraph.from_edges(edges, m), HamCycle(tuple(range(m)))


def _bfs_order(g: CubicGraph, start_rank: Sequence[int]) -> list[int]:
    """Visit vertices so each (component root aside) follows a mapped one."""
    order: list[int] = []
    seen = [False] * g.m
    for root in sorted(range(g.m), key=lambda v: (start_rank[v], v)):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in g.neighbor_sets[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order


def _refined_colors(g: CubicGraph) -> tuple[int, ...]:
    """Iterated neighborhood refinement; stable partition of the vertices."""
    sigs0 = [
        tuple(sorted(g.multiplicity(v, w) for w in g.neighbor_sets[v]))
        for v in range(g.m)
    ]
    # canonical small ints keep colors comparable across graphs
    colors = _canon_ints(sigs0)
    while True:
        sigs = []
        for v in range(g.m):
            around = sorted(
                (g.multiplicity(v, w), colors[w]) for w in g.neighbor_sets[v]
            )
            sigs.append((colors[v], tuple(around)))
        new = _canon_ints(sigs)
        if len(set(new)) == len(set(colors)):
            return tuple(new)
        colors = new


def _canon_ints(values: Sequence) -> list[int]:
    ranks = {v: i for i, v in enumerate(sorted(set(values)))}
    return [ranks[v] for v in values]


def are_isomorphic(
    g1: CubicGraph, g2: CubicGraph
) -> tuple[bool, dict[int, int] | None]:
    """Decide isomorphism; on success return a verified vertex mapping."""
    if g1.m != g2.m or len(g1.edges) != len(g2.edges):
        return False, None
    c1 = _refined_colors(g1)
    c2 = _refined_colors(g2)
    if sorted(Counter(c1).items()) != sorted(Counter(c2).items()):
        return False, None
    class_size = Counter(c1)
    order = _bfs_order(g1, [(class_size[c1[v]], c1[v]) for v in range(g1.m)])
    mapping: dict[int, int] = {}
    used = [False] * g2.m

    def backtrack(idx: int) -> bool:
        if idx == g1.m:
            return True
        v = order[idx]
        for w in range(g2.m):
            if used[w] or c2[w] != c1[v]:
                continue
            if any(
                g1.multiplicity(v, u) != g2.multiplicity(w, x)
                for u, x in mapping.items()
            ):
                continue
            mapping[v] = w
            used[w] = True
            if backtrack(idx + 1):
                return True
            del mapping[v]
            used[w] = False
        return False

    if not backtrack(0):
        return False, None
    remapped = sorted(
        tuple(sorted((mapping[u], mapping[v]))) for u, v in g1.edges
    )
    assert remapped == list(g2.edges), "witness must carry edges to edges"
    return True, dict(sorted(mapping.items()))


@dataclass(frozen=True)
class CensusEntry:
    """One diagram class reachable from a graph's Hamiltonian cycles."""

    word: str
    cycles: int
    realizable: bool


@dataclass(frozen=True)
class CensusReport:
    """Diagram classes of every Hamiltonian cycle of one graph."""

    total_cycles: int
    entries: tuple[CensusEntry, ...]

    def __post_init__(self) -> None:
        assert self.total_cycles == sum(e.cycles for e in self.entries)

    def words(self) -> tuple[str, ...]:
        return tuple(e.word for e in self.entries)

    def realizable_words(self) -> tuple[str, ...]:
        return tuple(e.word for e in self.entries if e.realizable)

    def unrealizable_words(self) -> tuple[str, ...]:
        return tuple(e.word for e in self.entries if not e.realizable)

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
    word with cycle counts and a realizability verdict, sorted by word.
    """
    cycles = hamiltonian_cycles(g)
    per_word: Counter[str] = Counter()
    for h in cycles:
        per_word[canonical_form(diagram_from_cycle(g, h)).text] += 1
    entries = tuple(
        CensusEntry(word, count, realizable_class(word))
        for word, count in sorted(per_word.items())
    )
    return CensusReport(len(cycles), entries)
