"""Realizability of Gauss diagrams as closed curves in the plane.

A diagram is realizable when some closed curve on the sphere crosses
itself exactly as the diagram prescribes.  The decision procedure is
exhaustive over local pictures: at each crossing the two strands can meet
transversally in exactly two ways, so a diagram with n chords has 2^n
candidate embeddings.  Each candidate is a combinatorial map whose faces
can be traced; the candidate lies on the sphere exactly when Euler's
relation gives genus zero, i.e. when tracing yields n + 2 faces.

Dart bookkeeping.  The curve visits slots 0..2n-1 in order, so there are
2n arcs (arc a runs slot a -> slot a+1) and 4n darts: dart 2a is arc a
traversed forward, dart 2a+1 is the same arc backward; ``dart ^ 1``
reverses.  Each crossing carries four arc ends.  Writing in(s)/out(s) for
the arriving/leaving end at slot s, the two transverse cyclic orders at a
crossing visited at slots u and v are

    bit 0:  in(u), in(v), out(u), out(v)
    bit 1:  in(u), out(v), out(u), in(v)

(the second is the mirror of the first).  Faces are traced with the
next-face-dart rule: after arriving on dart d, leave on the rotation
successor of the reversed dart.

A second, independent route to the same verdict replaces every crossing
by a small square gadget whose corner order forces transversality; the
diagram is realizable exactly when the resulting ordinary graph is planar.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import networkx as nx

from .diagrams import GaussDiagram, parse_word


class RealizeError(ValueError):
    """Base class for embedding-related misuse."""


class NotAPlaneCurveError(RealizeError):
    """Raised when a sphere-only operation meets a positive-genus embedding."""


@dataclass(frozen=True)
class RotationSystem:
    """One transverse choice per chord, in chord-id order."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.bits):
            raise RealizeError("rotation bits must be 0 or 1")


def transverse_rotation_systems(d: GaussDiagram) -> Iterator[RotationSystem]:
    """All 2^n transverse rotation systems, ascending as bit-vectors."""
    for k in range(1 << d.n):
        yield RotationSystem(tuple((k >> i) & 1 for i in range(d.n)))


def _rotation_successors(d: GaussDiagram, bits: tuple[int, ...]) -> list[int]:
    """Permutation of darts: successor in the cyclic order at each crossing.

    Ends are identified with the dart that departs through them: the out
    end of slot s with dart 2s, the in end of slot s with dart
    2*((s-1) mod 2n) + 1.
    """
    m = 2 * d.n
    succ = [0] * (2 * m)
    for cid, (u, v) in enumerate(d.chord_slots):
        in_u = 2 * ((u - 1) % m) + 1
        in_v = 2 * ((v - 1) % m) + 1
        out_u = 2 * u
        out_v = 2 * v
        if bits[cid] == 0:
            order = (in_u, in_v, out_u, out_v)
        else:
            order = (in_u, out_v, out_u, in_v)
        for a, b in zip(order, order[1:] + order[:1]):
            succ[a] = b
    return succ


def _face_count(succ: list[int]) -> int:
    nd = len(succ)
    seen = bytearray(nd)
    faces = 0
    for start in range(nd):
        if not seen[start]:
            faces += 1
            dart = start
            while not seen[dart]:
                seen[dart] = 1
                dart = succ[dart ^ 1]
    return faces


@dataclass(frozen=True)
class EmbeddingReport:
    """A traced embedding: faces as dart cycles, plus count and genus."""

    diagram: GaussDiagram
    rotation: RotationSystem
    faces: tuple[tuple[int, ...], ...]
    face_count: int
    genus: int

    def face_degrees(self) -> tuple[int, ...]:
        """Multiset of face lengths, ascending."""
        return tuple(sorted(len(f) for f in self.faces))

    def dart_name(self, dart: int) -> str:
        """Human form of a dart: chord label @ departure slot, +/- direction."""
        m = 2 * self.diagram.n
        arc, backward = divmod(dart, 2)
        slot = (arc + 1) % m if backward else arc
        label = self.diagram.labels[self.diagram.chord_of[slot]]
        return f"{label}@{slot}{'-' if backward else '+'}"

    def named_faces(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(self.dart_name(x) for x in face) for face in self.faces)

    def to_json_dict(self) -> dict:
        return {
            "rotation": list(self.rotation.bits),
            "face_count": self.face_count,
            "genus": self.genus,
            "faces": [list(f) for f in self.named_faces()],
        }


def trace_faces(d: GaussDiagram, rs: RotationSystem) -> EmbeddingReport:
    """Trace every face orbit of the map (d, rs).

    Faces are listed by their least dart, each rotated to start at it; the
    report's genus comes from Euler's relation n - 2n + F = 2 - 2g.
    """
    if len(rs.bits) != d.n:
        raise RealizeError(f"{len(rs.bits)} bits for {d.n} chords")
    succ = _rotation_successors(d, rs.bits)
    nd = len(succ)
    seen = bytearray(nd)
    faces: list[tuple[int, ...]] = []
    for start in range(nd):
        if seen[start]:
            continue
        orbit: list[int] = []
        dart = start
        while not seen[dart]:
            seen[dart] = 1
            orbit.append(dart)
            dart = succ[dart ^ 1]
        faces.append(tuple(orbit))  # starts at its least dart by scan order
    f = len(faces)
    euler_defect = 2 + d.n - f
    assert euler_defect % 2 == 0 and euler_defect >= 0, "impossible face count"
    return EmbeddingReport(d, rs, tuple(faces), f, euler_defect // 2)


def _genera(d: GaussDiagram) -> Iterator[tuple[RotationSystem, int]]:
    """Each transverse rotation system with the genus of its embedding."""
    for rs in transverse_rotation_systems(d):
        yield rs, (2 + d.n - _face_count(_rotation_successors(d, rs.bits))) // 2


def realize_all(d: GaussDiagram) -> list[EmbeddingReport]:
    """Every genus-zero embedding, in rotation-system order."""
    return [trace_faces(d, rs) for rs, genus in _genera(d) if genus == 0]


def min_genus(d: GaussDiagram) -> int:
    """Least genus over all 2^n transverse embeddings (0 iff realizable)."""
    best = d.n  # no genus exceeds n: one face already gives (n + 1) / 2
    for _, genus in _genera(d):
        if genus < best:
            best = genus
            if best == 0:
                break
    return best


def is_realizable(d: GaussDiagram) -> bool:
    """True when some transverse rotation system has n + 2 faces."""
    return min_genus(d) == 0


@lru_cache(maxsize=None)
def realizable_class(word: str) -> bool:
    """Cached realizability by word; use for sweeps over canonical words."""
    return is_realizable(parse_word(word))


def gadget_planarity(d: GaussDiagram) -> bool:
    """Independent realizability check via a crossing-gadget graph.

    Each crossing becomes a square on its four arc-end corners, wired in
    transverse order (both transverse orders give the same square, so no
    choice is made); consecutive slots are joined corner to corner.  The
    diagram is realizable exactly when this ordinary graph is planar.
    """
    m = 2 * d.n
    corner_in = [2 * s for s in range(m)]
    corner_out = [2 * s + 1 for s in range(m)]
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        edges.add((a, b) if a < b else (b, a))

    for u, v in d.chord_slots:
        square = (corner_in[u], corner_in[v], corner_out[u], corner_out[v])
        for a, b in zip(square, square[1:] + square[:1]):
            add(a, b)
    for s in range(m):
        add(corner_out[s], corner_in[(s + 1) % m])
    graph = nx.Graph()
    graph.add_nodes_from(range(2 * m))
    graph.add_edges_from(edges)
    return bool(nx.check_planarity(graph)[0])


@dataclass(frozen=True, order=True)
class CurveCode:
    """Canonical name of a plane curve; equal codes mean same curve."""

    text: str


def _encode_map(root: int, succ: list[int]) -> tuple[int, ...]:
    """Breadth-first relabeling of darts from one root; map invariant."""
    nd = len(succ)
    ids = [-1] * nd
    order = [root]
    ids[root] = 0
    i = 0
    while i < len(order):
        dart = order[i]
        i += 1
        for nxt in (succ[dart], dart ^ 1):
            if ids[nxt] < 0:
                ids[nxt] = len(order)
                order.append(nxt)
    code: list[int] = []
    for dart in order:
        code.append(ids[succ[dart]])
        code.append(ids[dart ^ 1])
    return tuple(code)


def curve_code(report: EmbeddingReport) -> CurveCode:
    """Canonical code of the plane curve a genus-zero embedding draws.

    Minimizes the breadth-first map encoding over every root dart and both
    chiralities (the rotation and its inverse), so the code forgets the
    curve's basepoint, direction, and any reflection of the sphere: two
    embeddings get equal codes exactly when some sphere homeomorphism,
    orientation-reversing allowed, carries one drawn curve to the other.
    """
    if report.genus != 0:
        raise NotAPlaneCurveError(
            f"embedding has genus {report.genus}, not a plane curve"
        )
    succ = _rotation_successors(report.diagram, report.rotation.bits)
    nd = len(succ)
    inv = [0] * nd
    for a, b in enumerate(succ):
        inv[b] = a
    best = min(
        _encode_map(root, sigma)
        for sigma in (succ, inv)
        for root in range(nd)
    )
    text = "-".join(
        f"{best[i]}.{best[i + 1]}" for i in range(0, len(best), 2)
    )
    return CurveCode(text)
