"""Realizability of Gauss diagrams as closed curves in the plane.

A diagram is realizable when some closed curve on the sphere crosses
itself exactly as the diagram prescribes.

Rosenstiehl's criterion (C. R. Acad. Sci. Paris 283, 1976; de Fraysseix
and Ossona de Mendez, Discrete Comput. Geom. 22, 1999) reads the verdict
off the interlacement graph.  A diagram is realizable exactly when

1. every chord interlaces an even number of chords;
2. every two chords that do not interlace share an even number of
   interlacing neighbours;
3. the interlaced pairs sharing an even number of neighbours form a cut:
   the chords take colours 0 and 1 so that interlaced chords u and v
   differ exactly when they share an even number of neighbours.

Colourings are embeddings.  At each crossing the two strands can meet
transversally in two ways (bit 0 or 1 below), so a diagram with n chords
has 2^n candidate embeddings.  The planar ones are exactly the cut
colourings c of condition 3, read as bit i = c[i] XOR (parity of chord
i's first slot).  Swapping both colours on one connected component of the
interlacement graph keeps a cut colouring a cut colouring, so a
realizable diagram with k components has 2^k plane embeddings, and
``realize_all`` traces only those.  The tests check this identity against
exhaustive tracing on every class up to 6 chords.

Decision procedure (``_plane_key``).  Reject on condition 1, read as
slot parity: ``parity_check`` asks that every chord join an even slot to
an odd one, which its docstring shows is the same condition.  Colour
each component of the interlacement graph along a spanning forest, its
least chord 0, by condition 3's rule on the tree edges only; read the
key as above and trace its faces once.  The diagram is realizable
exactly when the trace gives n + 2 faces, genus 0 by Euler's relation,
and the decision then returns that key: it is the verdict's certificate,
a plane embedding that ``trace_faces`` can check.  Proof: a genus-0 key
is a plane embedding.  Conversely, the criterion gives a realizable
diagram a cut colouring c*.  Tree edges join interlaced pairs, so c*
obeys every tree rule, and on each component the forest colouring is c*
or its complement, again a cut colouring, whose key is planar.  This
costs O(n^2 / w) operations on w-bit words of the bitmask rows, plus one
trace of 4n darts.  The criterion, condition by condition, is the test
oracle; so is the walk over all 2^n keys that ``min_genus`` keeps for
the least genus of an unrealizable diagram.

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

Curve codes.  ``curve_code`` names the plane curve an embedding draws,
up to homeomorphisms of the sphere.  The diagram's symmetries and the
mirror act on keys without changing the curve, so ``_one_per_curve``
picks the least key of each orbit and ``analyze`` traces and codes only
those; ``_plane_keys`` has already counted every plane key's faces.
Keys act as slot strings: a key's 2n-bit string holds each chord's bit
at its first slot and the complement at its second, and a symmetry acts
on it by one turn of the string (reflections reverse it first), so the
orbit of a key costs O(n / w) word operations per symmetry.  On every
realizable class up to 8 chords the orbits number exactly the distinct
codes, so each curve is coded once.

A third, independent route to the verdict replaces every crossing by a
small square gadget whose corner order forces transversality; the
diagram is realizable exactly when the resulting ordinary graph is planar.
Its planarity is decided by the left-right test of ``planarity``, which
stays independent of the forest decision: it sees only an ordinary
graph, never chords or interlacement, shares no code with
``_plane_key``, and is itself checked against networkx in the tests.
It is an oracle only: ``verify`` streams the realizable classes with
their plane keys (``diagrams.enumerate_diagrams``) and traces each key,
and the tests and CI hold the gadget to the decision on every class up
to 8 chords.  ``_gauss_parity`` counts Gauss's parity condition on the
raw pairing: a diagram that fails the count is unrealizable by a
Jordan-curve argument.  It is the same condition as slot parity, so the
classes that slot parity drops from ``verify``'s stream are
unrealizable by this count too.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

from .diagrams import GaussDiagram, _symmetries, parity_check, parse_word
from .planarity import is_planar


class RealizeError(ValueError):
    """Base class for embedding-related misuse."""


class NotAPlaneCurveError(RealizeError):
    """Raised when a sphere-only operation meets a positive-genus embedding."""


# the decision's answer: None, or a plane key and the interlacement components
_Decision = tuple[int, list[int]] | None


def transverse_rotation_systems(d: GaussDiagram) -> Iterator[int]:
    """All 2^n transverse rotation systems as keys 0 .. 2^n - 1, ascending.

    Bit i of a key is chord i's transverse choice.
    """
    yield from range(1 << d.n)


def _rotation_successors(
    chord_slots: Sequence[tuple[int, int]], key: int
) -> list[int]:
    """Permutation of darts: successor in the cyclic order at each crossing.

    ``chord_slots`` lists each chord's two slots, as ``d.chord_slots``
    does, and bit i of ``key`` is chord i's transverse choice.  Ends are
    identified with the dart that departs through them: the out end of
    slot s with dart 2s, the in end of slot s with dart 2*((s-1) mod 2n) + 1.
    """
    m = 2 * len(chord_slots)
    succ = [0] * (2 * m)
    for cid, (u, v) in enumerate(chord_slots):
        in_u = 2 * ((u - 1) % m) + 1
        in_v = 2 * ((v - 1) % m) + 1
        out_u = 2 * u
        out_v = 2 * v
        if key >> cid & 1:  # the cycle in(u), out(v), out(u), in(v)
            succ[in_u], succ[out_v], succ[out_u], succ[in_v] = out_v, out_u, in_v, in_u
        else:  # the cycle in(u), in(v), out(u), out(v)
            succ[in_u], succ[in_v], succ[out_u], succ[out_v] = in_v, out_u, out_v, in_u
    return succ


def _face_count(succ: list[int]) -> int:
    # trace_faces' walk, counting without listing: with the two merged into
    # one, min_genus took 9.5-10.8 ms on a 10-chord unrealizable word,
    # against 8.8-9.7 ms apart (3 alternating runs each, 2-core host)
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
    """A traced embedding: faces as dart cycles, plus genus."""

    diagram: GaussDiagram
    rotation: int  # the rotation system's key
    faces: tuple[tuple[int, ...], ...]
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


def trace_faces(d: GaussDiagram, key: int) -> EmbeddingReport:
    """Trace every face orbit of the map of rotation system ``key`` on d.

    Faces are listed by their least dart, each rotated to start at it; the
    report's genus comes from Euler's relation n - 2n + F = 2 - 2g.
    """
    if not 0 <= key < 1 << d.n:
        raise RealizeError(f"rotation key {key} outside 0..{(1 << d.n) - 1}")
    succ = _rotation_successors(d.chord_slots, key)
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
    return EmbeddingReport(d, key, tuple(faces), euler_defect // 2)


def _plane_key(d: GaussDiagram) -> _Decision:
    """The decision: ``None``, or the forest's plane key and the components.

    The forest colours each component from its least chord, colour 0; the
    key is that colouring read as rotation bits, bit i = c_i XOR the parity
    of chord i's first slot, and it has traced to n + 2 faces.  Each
    component is a bitmask of its chords.  Parity rejects first, so a
    diagram that fails it never builds its interlacement rows.
    """
    if not parity_check(d):
        return None
    masks = d.interlacement_masks
    colour = seen = 0
    components: list[int] = []
    for root in range(d.n):
        if seen >> root & 1:
            continue
        before = seen
        seen |= 1 << root
        stack = [root]
        while stack:
            u = stack.pop()
            fresh = masks[u] & ~seen
            seen |= fresh
            while fresh:
                v = (fresh & -fresh).bit_length() - 1
                fresh ^= 1 << v
                # u and v differ exactly when they share evenly many neighbours
                bit = colour >> u ^ 1 ^ (masks[u] & masks[v]).bit_count()
                colour |= (bit & 1) << v
                stack.append(v)
        components.append(seen ^ before)
    key = colour ^ sum((u & 1) << i for i, (u, _) in enumerate(d.chord_slots))
    if not _traces_plane(d, key):
        return None
    return key, components


def _traces_plane(d: GaussDiagram, key: int) -> bool:
    """True when rotation system ``key`` traces to n + 2 faces: genus 0."""
    return _slots_trace_plane(d.chord_slots, key)


def _slots_trace_plane(chord_slots: Sequence[tuple[int, int]], key: int) -> bool:
    """``_traces_plane`` on a diagram given by its chord slots alone."""
    return _face_count(_rotation_successors(chord_slots, key)) == len(chord_slots) + 2


def realize_all(d: GaussDiagram) -> list[EmbeddingReport]:
    """Every genus-zero embedding, in rotation-system order.

    Traces only the decision's plane key XOR each set of whole
    components: 2^k keys for k interlacement components, each of genus 0.
    A key and its mirror (every bit flipped) are both traced, not one
    derived from the other: the caller gets every plane embedding with its
    own faces (the README shows rotations [10, 21]).
    """
    return [trace_faces(d, key) for key in _plane_keys(d, _plane_key(d))]


def _plane_keys(d: GaussDiagram, solved: _Decision) -> list[int]:
    """The plane keys of a decision already made, ``_plane_key(d)``, ascending.

    Each is checked to count n + 2 faces, genus 0, and an ``AssertionError``
    is raised, not asserted, so the check holds under ``python -O`` too.
    """
    if solved is None:
        return []
    key, components = solved
    keys = [key]
    for component in components:
        keys += [k ^ component for k in keys]
    keys.sort()
    for key in keys:
        faces = _face_count(_rotation_successors(d.chord_slots, key))
        if faces != d.n + 2:
            raise AssertionError(
                f"rotation {key} from the forest colouring of {d.word()}"
                f" has genus {(d.n + 2 - faces) // 2}"
            )
    return keys


def min_genus(d: GaussDiagram) -> int:
    """Least genus over all 2^n transverse embeddings (0 iff realizable).

    The walk visits the keys in Gray-code order: step s reaches key
    s XOR (s >> 1), which differs from the key before it in the lowest set
    bit of s alone.  The two cyclic orders at a crossing are each other's
    inverse, so flipping one chord's bit reverses its 4-cycle of
    successors: each step rewrites four entries in place instead of
    rebuilding all 4n.  The walk visits every key once, as the ascending
    walk does, so the least genus is the same; it stops at n + 2 faces.
    """
    best = d.n  # no genus exceeds n: one face already gives (n + 1) / 2
    succ = _rotation_successors(d.chord_slots, 0)
    outs = [2 * u for u, _ in d.chord_slots]  # a dart of each crossing
    for step in transverse_rotation_systems(d):
        if step:
            a = outs[(step & -step).bit_length() - 1]
            b = succ[a]
            c = succ[b]
            e = succ[c]
            succ[a], succ[b], succ[c], succ[e] = e, a, b, c
        faces = _face_count(succ)
        if faces == d.n + 2:
            return 0
        best = min(best, (2 + d.n - faces) // 2)
    return best


def is_realizable(d: GaussDiagram) -> bool:
    """True when the forest colouring's key traces to genus 0."""
    return _plane_key(d) is not None


@lru_cache(maxsize=None)
def realizable_class(word: str) -> bool:
    """Cached realizability by word; no library path calls it.

    The benchmark reads its ``cache_info()``; the benchmark re-contract in
    ROADMAP.md deletes it.
    """
    return is_realizable(parse_word(word))


def gadget_planarity(d: GaussDiagram) -> bool:
    """Independent realizability check via a crossing-gadget graph.

    Each crossing becomes a square on its four arc-end corners, wired in
    transverse order (both transverse orders give the same square, so no
    choice is made); consecutive slots are joined corner to corner.  The
    diagram is realizable exactly when this ordinary graph is planar.

    Soundness.  Argue on the multigraph with every joining edge drawn;
    merging the parallel edges of a chord at adjacent slots does not
    change planarity.  Write Q_c for the square of chord c at slots u < v.

    Realizable gives planar: blow each crossing of a plane curve up into
    a small square whose corners are its four arc ends.  They meet the
    square in the crossing's cyclic order, which is transverse, so its
    sides are the gadget's four edges, and the arcs between crossings
    are the joining edges: a plane drawing of the gadget graph.

    Planar gives realizable: fix a plane embedding.  In and out of a slot
    are opposite corners of its square, joined through it, so removing
    Q_c leaves at most two connected pieces, the slots strictly between
    u and v and those strictly between v and u.  They attach to Q_c at
    the adjacent corners {in(v), out(u)} and {out(v), in(u)}.

    - If c interlaces some chord, that chord's square joins the pieces,
      so the rest of the graph lies on one side of the cycle Q_c and the
      other side is a face.  The four joining edges then leave Q_c in
      the cyclic order of its corners, and collapsing the square to a
      point gives the transverse order in(u), in(v), out(u), out(v) or
      its mirror.
    - If c interlaces nothing and the pieces lie on opposite sides of
      Q_c, one of them meets the rest only at its two adjacent corners.
      Flip it across that 2-separation into the face beyond their side
      of the square.  No other square changes which side holds what, and
      now the case above applies.

    Collapsing every square turns the joining edges into a plane curve
    that crosses itself transversally, in the diagram's order.

    The graph, with in(s) = 2s and out(s) = 2s + 1, goes to the
    left-right test ``planarity.is_planar``.  That test sees only an
    ordinary graph, shares no code with ``_plane_key``, and is
    checked against networkx's ``check_planarity`` in the tests, so this
    verdict stays independent of the forest decision.
    """
    m = 2 * d.n
    edges = [(2 * s + 1, 2 * ((s + 1) % m)) for s in range(m)]
    for u, v in d.chord_slots:
        square = (2 * u, 2 * v, 2 * u + 1, 2 * v + 1)
        edges += zip(square, square[1:] + square[:1])
    adjacency: list[list[int]] = [[] for _ in range(2 * m)]
    for a, b in edges:
        if b not in adjacency[a]:  # parallel edges merge into one
            adjacency[a].append(b)
            adjacency[b].append(a)
    return is_planar(adjacency)


def _gauss_parity(d: GaussDiagram) -> bool:
    """Gauss's parity condition, counted on the raw pairing.

    For each chord at slots u < v, count the slots strictly between u and
    v whose partner lies outside that stretch; a realizable diagram has
    every count even.  The count reads ``d.pairing`` alone and shares no
    code with ``parity_check`` or ``interlacement_masks``, so it is a
    second derivation of the verdict on the classes that fail slot
    parity, which ``verify`` counts in closed form and never enumerates.

    Necessity.  Take a plane curve drawing d and split it at the crossing
    x of chord (u, v) into two closed loops: A runs along the slots from u
    to v, B along those from v back to u.  The crossing is transverse, so
    its ends go round x as in(u), in(v), out(u), out(v); A's ends out(u)
    and in(v) are neighbours, so A and B only touch at x, and pushing A
    off x separates them there.  Every other point where A meets B is a
    crossing with one visit inside the stretch and one outside: exactly
    the slots counted.  The winding number of B around a moving point
    changes by plus or minus one each time the point crosses B, and is
    back at its first value once the point has run round A, so A crosses
    B an even number of times.
    """
    p = d.pairing
    return all(
        sum(not u < p[s] < v for s in range(u + 1, v)) % 2 == 0
        for u, v in enumerate(p)
        if u < v
    )


def _encode_below(
    root: int, succ: list[int], best: list[int] | None
) -> list[int] | None:
    """Breadth-first code of the map from one root; ``None`` unless below ``best``.

    Each dart is numbered when first reached and its pair (successor,
    reverse) emitted when it is dequeued, by which time both are numbered.
    While the code ties with ``best``, each entry is compared as it is
    emitted: the root is dropped at the first entry above ``best``, and
    after the first entry below it the rest is emitted without comparing.
    """
    ids = [-1] * len(succ)
    ids[root] = 0
    order = [root]
    code: list[int] = []
    tied = best is not None
    for dart in order:
        for nxt in (succ[dart], dart ^ 1):
            v = ids[nxt]
            if v < 0:
                v = ids[nxt] = len(order)
                order.append(nxt)
            if tied:
                least = best[len(code)]
                if v > least:
                    return None
                tied = v == least
            code.append(v)
    return None if tied else code


def curve_code(report: EmbeddingReport) -> str:
    """Canonical code of the plane curve a genus-zero embedding draws.

    Minimizes the breadth-first map encoding over every root dart and both
    chiralities (the rotation and its inverse), so the code forgets the
    curve's basepoint, direction, and any reflection of the sphere: two
    embeddings get equal codes exactly when some sphere homeomorphism,
    orientation-reversing allowed, carries one drawn curve to the other.

    Early exit.  Roots are encoded in turn against the least code so far,
    and a root is dropped at the first entry where its code reads above
    it.  Every code has the same length, 8n entries for 4n darts, so that
    entry already decides the order: a dropped root could not have given
    the minimum, which is still taken over every root.
    """
    if report.genus != 0:
        raise NotAPlaneCurveError(
            f"embedding has genus {report.genus}, not a plane curve"
        )
    d, key = report.diagram, report.rotation
    mirror = key ^ ((1 << d.n) - 1)  # every crossing mirrored: the inverse
    best: list[int] | None = None
    for sigma in (_rotation_successors(d.chord_slots, k) for k in (key, mirror)):
        for root in range(4 * d.n):
            code = _encode_below(root, sigma, best)
            if code is not None:
                best = code
    assert best is not None
    return "-".join(f"{best[i]}.{best[i + 1]}" for i in range(0, len(best), 2))


def _one_per_curve(d: GaussDiagram, keys: list[int]) -> Iterator[int]:
    """One plane key per orbit of d's symmetries and the mirror, least first.

    ``keys`` come in ascending order, as ``_plane_keys`` gives them.
    A key not yet seen is yielded, and then its whole orbit
    is marked seen: for every symmetry g of d (``_symmetries``), the image
    key g.k and its complement.  Every key of an orbit has the same
    ``curve_code``, so the least key of each orbit stands for all of them.

    Keys act as slot strings.  The slot string t(k) of key k has 2n bits:
    for chord i at slots u < v, bit u is bit i of k and bit v its
    complement.  Read from either end x of a chord, with y the other end,
    bit x says which cyclic order the crossing has: in(x), in(y), out(x),
    out(y) when it is 0, in(x), out(y), out(x), in(y) when it is 1.  That
    description does not depend on which end is read first.

    Proof.  g relabels the darts, and the relabelling commutes with
    ``dart ^ 1``.  A rotation g(s) = s + r sends arc a to arc a + r, same
    direction: dart x goes to x + 2r (mod 4n).  A reflection g(s) = r - s
    sends arc a, from slot a to a + 1, to the arc from r - a to r - a - 1,
    which is arc r - a - 1 traversed backward: dart 2a goes to
    2(r - a - 1) + 1 and dart 2a + 1 to 2(r - a - 1).  Either way the two
    darts of an arc go to the two darts of one arc.  The relabelling sends
    the ends at slot s to the ends at slot g(s): a rotation keeps in and
    out, a reflection swaps them, and swapping gives the same cyclic
    pattern (out(x), out(y), in(x), in(y) is the cycle in(x), in(y),
    out(x), out(y)).  So the order that bit x of t(k) names at slot x is
    the order that bit g(x) names at slot g(x): the image key's string is
    t read through g^-1, which is t turned left by r for the rotation, and
    t bit-reversed and then turned left by r + 1 for the reflection.  The
    relabelling therefore carries the rotation successors of k to those of
    g.k, and the face walk ``succ[dart ^ 1]`` with them: the two maps are
    isomorphic.  The complement of a key reverses every cyclic order, the
    inverse rotation, and its string is the complement string.
    ``curve_code`` minimises over every root and both chiralities, so it
    gives isomorphic maps, and mirrored ones, one code.
    """
    m = 2 * d.n
    full = (1 << m) - 1
    seconds = sum(1 << v for _, v in d.chord_slots)
    group = _symmetries(d)
    seen: set[int] = set()
    for key in keys:
        t = seconds
        for i, (u, v) in enumerate(d.chord_slots):
            if key >> i & 1:
                t ^= 1 << u | 1 << v
        if t in seen:
            continue
        yield key
        back = int(f"{t:0{m}b}"[::-1], 2)
        for start, step in group:
            turn, r = (start, t) if step == 1 else (start + 1, back)
            image = (r << turn | r >> (m - turn)) & full
            seen.add(image)
            seen.add(image ^ full)
