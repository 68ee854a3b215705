"""Gauss diagrams as cyclic double occurrence words.

A closed curve that crosses itself n times visits every crossing exactly
twice, so reading the crossing names along the curve gives a cyclic word of
length 2n in which each name appears twice: a double occurrence word.  This
module stores such words combinatorially, as 2n slots on a circle plus a
fixed-point-free involution pairing the two slots of each chord.

Conventions used throughout the package:

* Slots are numbered 0..2n-1 around the circle; slot arithmetic is mod 2n.
* Chord ids are assigned by first occurrence along the circle, so chord 0
  owns slot 0.  Display labels (parsed tokens, or generated letters) ride
  along for rendering but never affect equality or hashing.
* Two diagrams are in the same class when they differ by a rotation or a
  reflection of the circle; ``canonical_form`` picks the representative.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property


class DiagramError(ValueError):
    """Base class for malformed diagram input."""


class EmptyDiagramError(DiagramError):
    """Raised when a word or pair list contains no chords at all."""


class MalformedWordError(DiagramError):
    """Raised when some token does not appear exactly twice."""


class SlotPartitionError(DiagramError):
    """Raised when chord endpoints do not partition the slots 0..2n-1."""


def _chord_names(n: int) -> tuple[str, ...]:
    """Default display labels: A..Z up to 26 chords, else A0..Z0, A1, B1, ..."""
    letters = string.ascii_uppercase
    if n <= 26:
        return tuple(letters[:n])
    return tuple(letters[i % 26] + str(i // 26) for i in range(n))


def _join_tokens(tokens: Sequence[str]) -> str:
    """Single-character tokens concatenate; longer ones join with spaces.

    Either way the result parses back to the same tokens.
    """
    return ("" if all(len(t) == 1 for t in tokens) else " ").join(tokens)


@dataclass(frozen=True)
class GaussDiagram:
    """An n-chord diagram: involution ``pairing`` on slots 0..2n-1.

    ``pairing[s]`` is the slot sharing a chord with slot ``s``; the chord
    count ``n`` is read from its length.  ``labels`` maps chord id
    (first-occurrence order) to a display name, generated letters when
    omitted.  A given label must be non-empty and free of whitespace, so
    that ``word()`` parses back; both fields are stored as tuples.
    Equality and hashing rest on the pairing alone, so diagrams compare
    by shape, not by how they were spelt.  An odd number of slots has no
    fixed-point-free involution, so the slot checks reject it.
    """

    pairing: tuple[int, ...]
    labels: tuple[str, ...] = field(default=(), compare=False)
    n: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairing", tuple(self.pairing))
        m = len(self.pairing)
        object.__setattr__(self, "n", m // 2)
        if self.n < 1:
            raise EmptyDiagramError("a diagram needs at least one chord")
        for s, t in enumerate(self.pairing):
            if not 0 <= t < m:
                raise DiagramError(f"slot {s} pairs with out-of-range {t}")
            if t == s:
                raise DiagramError(f"slot {s} pairs with itself")
            if self.pairing[t] != s:
                raise DiagramError(f"pairing is not an involution at slot {s}")
        if not self.labels:
            object.__setattr__(self, "labels", _chord_names(self.n))
        elif " ".join(self.labels).split() != list(self.labels):
            raise DiagramError("chord labels must be non-empty, without whitespace")
        else:
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != self.n:
            raise DiagramError(
                f"{len(self.labels)} labels for {self.n} chords"
            )
        if len(set(self.labels)) != self.n:
            raise DiagramError("chord labels must be distinct")

    @cached_property
    def chord_of(self) -> tuple[int, ...]:
        """Chord id occupying each slot: its index in ``chord_slots``."""
        ids = [0] * (2 * self.n)
        for cid, (u, v) in enumerate(self.chord_slots):
            ids[u] = ids[v] = cid
        return tuple(ids)

    @cached_property
    def chord_slots(self) -> tuple[tuple[int, int], ...]:
        """Per chord id, its two slots in increasing order.

        Chords are listed by first end, so ids follow first occurrence.
        """
        return tuple((s, t) for s, t in enumerate(self.pairing) if s < t)

    @cached_property
    def interlacement_masks(self) -> tuple[int, ...]:
        """Per chord id, a bitmask of the chords it interlaces.

        Bit j of entry i is set when chord j has exactly one endpoint
        strictly inside chord i's arc (u, v).  ``inside`` XORs one bit per
        slot read so far, so a chord with both ends inside cancels out.
        Row i takes ``inside`` at u and again at v: their XOR is the slots
        u..v-1, and the row's own starting bit cancels chord i at slot u.
        """
        rows = [1 << i for i in range(self.n)]
        inside = 0
        for cid in self.chord_of:
            rows[cid] ^= inside
            inside ^= 1 << cid
        return tuple(rows)

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> GaussDiagram:
        """The diagram with one token per slot; equal tokens mark a chord.

        Every token must appear exactly twice.  Labels are the tokens in
        first-occurrence order.
        """
        for tok, c in Counter(tokens).items():
            if c != 2:
                raise MalformedWordError(
                    f"token {tok!r} appears {c} time(s), expected exactly 2"
                )
        first: dict[str, int] = {}
        pairing = [-1] * len(tokens)
        for s, tok in enumerate(tokens):
            if tok in first:
                f = first[tok]
                pairing[f], pairing[s] = s, f
            else:
                first[tok] = s
        return cls(tuple(pairing), tuple(first))

    def word(self) -> str:
        """Render the diagram as a word, one label per slot."""
        return _join_tokens([self.labels[cid] for cid in self.chord_of])

    def __str__(self) -> str:
        return self.word()


def parse_word(text: str) -> GaussDiagram:
    """Parse a double occurrence word such as ``"ABAB"`` or ``"X1 Y X1 Y"``.

    Tokens are single characters, or whitespace-separated if the text
    contains whitespace.  Every token must appear exactly twice.
    """
    tokens = text.split() if any(c.isspace() for c in text) else list(text)
    if not tokens:
        raise EmptyDiagramError("empty word")
    return GaussDiagram.from_tokens(tokens)


def from_chord_pairs(pairs: Iterable[Sequence[int]]) -> GaussDiagram:
    """Build a diagram from chord endpoint pairs like ``[(0, 5), (1, 6)]``.

    The endpoints must partition 0..2n-1.  Labels are generated letters in
    first-occurrence order.
    """
    plist = [tuple(p) for p in pairs]
    if not plist:
        raise EmptyDiagramError("no chords given")
    m = 2 * len(plist)
    pairing = [-1] * m
    for p in plist:
        if len(p) != 2:
            raise SlotPartitionError(f"chord {p!r} does not have 2 endpoints")
        a, b = p
        if a == b:
            raise SlotPartitionError(f"chord endpoints coincide at slot {a}")
        for s in (a, b):
            if not isinstance(s, int) or not 0 <= s < m:
                raise SlotPartitionError(
                    f"slot {s!r} outside 0..{m - 1} for {len(plist)} chords"
                )
            if pairing[s] != -1:
                raise SlotPartitionError(f"slot {s} used by two chords")
        pairing[a], pairing[b] = b, a
    # n pairs of distinct, unused slots in 0..2n-1 cover every slot
    return GaussDiagram(tuple(pairing))


def parse_chord_pairs(text: str) -> GaussDiagram:
    """Parse the compact pair syntax ``"0-5,1-6,2-7,3-8,4-9"``."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise EmptyDiagramError("no chords given")
    pairs: list[tuple[int, int]] = []
    for item in items:
        bits = item.split("-")
        if len(bits) != 2:
            raise SlotPartitionError(f"cannot read chord {item!r}")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError as exc:
            raise SlotPartitionError(f"cannot read chord {item!r}") from exc
    return from_chord_pairs(pairs)


def parse_diagram_input(text: str) -> GaussDiagram:
    """Accept either a word or the pair syntax; ``-`` marks the latter."""
    text = text.strip()
    if "-" in text:
        return parse_chord_pairs(text)
    return parse_word(text)


def _difference(
    seq: Sequence[int],
    partner: Sequence[int],
    start: int,
    step: int,
    lo: int,
    hi: int,
) -> int:
    """Sign of the first difference between a symmetric read and ``seq``.

    The read visits slot ``(start + step * i) % m`` at index ``i``; its
    entry there is the index ``j < i`` at which it read the slot's
    partner, or ``m`` when the slot opens a chord.  ``seq`` holds the
    entries of another read, and the two are compared over ``lo..hi-1``,
    given that they tie before ``lo``.  A ``partner`` of -1 (other end not
    placed yet) stands for slot 2n - 1, which is placed last, so that slot
    reads as an opening.  Returns -1, 0 or 1: the read is smaller, tied
    over the range, or larger.

    Entries order reads as their first-occurrence words do.  Reads that
    tie so far open chords at the same indices, so they spell the same
    labels; a label grows with the index that opens it, and an opening
    reads above every repeat.
    """
    m = len(partner)
    for i in range(lo, hi):
        j = (partner[(start + step * i) % m] - start) * step % m
        v = j if j < i else m
        if v != seq[i]:
            return -1 if v < seq[i] else 1
    return 0


def _symmetries(d: GaussDiagram) -> list[tuple[int, int]]:
    """The reads ``(start, step)`` whose circle map keeps ``d``'s pairing.

    The read's map is g(i) = (start + step * i) % 2n, a rotation or
    reflection of the circle; it is a symmetry when it maps chords onto
    chords, p[g(i)] == g(p[i]) for every slot i.  The identity read (0, 1)
    is always among them.

    Read it off the gap sequence gap[s] = (p[s] - s) % 2n, all mod 2n.
    For the rotation g(i) = r + i the condition is p[r + i] = r + p[i],
    that is p[r + i] - (r + i) = p[i] - i: gap[r + i] = gap[i], so the
    gaps turned by r equal the gaps.  For the reflection g(i) = r - i it
    is p[r - i] = r - p[i], that is p[r - i] - (r - i) = -(p[i] - i):
    gap[r - i] = -gap[i].  Put i = -k: gap[r + k] = -gap[-k], so the gaps
    turned by r equal the gaps read backwards from slot 0 and negated.
    """
    p = d.pairing
    m = len(p)
    gaps = [(t - s) % m for s, t in enumerate(p)]
    back = [-gaps[-k] % m for k in range(m)]
    return [
        (start, step)
        for start in range(m)
        for step, want in ((1, gaps), (-1, back))
        if gaps[start] == want[0] and gaps[start:] + gaps[:start] == want
    ]


def canonical_form(d: GaussDiagram) -> str:
    """The lexicographically least word over all 4n symmetries of ``d``.

    Reading the circle from every start slot, in both directions, and
    labelling chords by first occurrence gives 4n candidate words; the
    smallest is a class invariant: two diagrams get the same word exactly
    when one is a rotation and/or reflection of the other.

    Reads are kept and compared as entries, by ``_difference``, straight
    from ``d.pairing``: where each slot's partner was read, or 2n for an
    opening.  Ascending entries are ascending words, so the least entry
    list spells the canonical word.  It is spelt once, at the end: an
    opening takes the next label, and a repeat the label at index j.

    A read that ties with the least so far is compared to its end, so a
    symmetric or near-symmetric word, whose reads share long prefixes,
    costs O(n^2) steps.  Ordering the gap sequences by a least-rotation
    method instead would pick a different representative, so the canonical
    words would change.
    """
    p = d.pairing
    m = len(p)
    best: list[int] = []
    for start in range(m):
        for step in (1, -1):
            if best and _difference(best, p, start, step, 0, m) >= 0:
                continue
            best = []
            for i in range(m):
                j = (p[(start + step * i) % m] - start) * step % m
                best.append(j if j < i else m)
    names = iter(_chord_names(d.n))
    word: list[str] = []
    for e in best:
        word.append(next(names) if e == m else word[e])
    return _join_tokens(word)


@dataclass(frozen=True)
class InterlacementGraph:
    """Chords as vertices; edges join chords whose endpoints alternate.

    Each edge is listed once, as (earlier chord, later chord); ``degrees``
    follows vertex (= first occurrence) order.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    degrees: tuple[int, ...]

    def to_dot(self) -> str:
        """The graph in DOT, each label a quoted ID with ``"`` escaped.

        ``\\"`` is the only escape in a quoted ID, so a label that ends in a
        backslash would escape its own closing quote; it is refused.
        """
        ids = {}
        for v in self.vertices:
            if v.endswith("\\"):
                raise DiagramError(f"DOT cannot quote label {v}: it ends in a backslash")
            ids[v] = '"' + v.replace('"', '\\"') + '"'
        lines = ["graph interlacement {"]
        lines.extend(f"  {ids[v]};" for v in self.vertices)
        lines.extend(f"  {ids[a]} -- {ids[b]};" for a, b in self.edges)
        lines.append("}")
        return "\n".join(lines) + "\n"


def interlacement_graph(d: GaussDiagram) -> InterlacementGraph:
    """Edges join chords with exactly one endpoint inside the other's arc."""
    masks = d.interlacement_masks
    edges: list[tuple[str, str]] = []
    for i, mask in enumerate(masks):
        for j in range(i + 1, d.n):
            if mask >> j & 1:
                edges.append((d.labels[i], d.labels[j]))
    degrees = tuple(mask.bit_count() for mask in masks)
    return InterlacementGraph(d.labels, tuple(edges), degrees)


def parity_check(d: GaussDiagram) -> bool:
    """True when every chord joins an even slot to an odd slot.

    Equivalently, every vertex of the interlacement graph has even degree:
    chord (u, v) has v - u - 1 slots strictly inside it, holding two ends
    of each chord that lies wholly inside and one end of each chord it
    interlaces.  So it interlaces an even number of chords exactly when
    v - u - 1 is even, that is when u + v is odd.  The chord-and-cycle
    graph built from the diagram is then bipartite too.  This is
    condition 1 of Rosenstiehl's criterion and the first step of the
    realizability decision.  Realizable diagrams always pass; the converse
    fails (the smallest failures have five chords).
    """
    return all((u + v) % 2 == 1 for u, v in d.chord_slots)


def enumerate_diagrams(
    n: int, *, parity_only: bool = False, realizable_only: bool = False
) -> Iterator[GaussDiagram] | Iterator[tuple[GaussDiagram, int]]:
    """Yield one representative per diagram class, ascending canonical word.

    With ``parity_only`` the stream keeps just the classes that pass
    ``parity_check``, in the same order: a chord is never closed at a slot
    of the same parity as its first end.  Slot parity is a class property
    (a rotation by r adds 2r to u + v, a reflection sends it to
    2r - (u + v)), so a passing class has a passing canonical word, and
    every prefix of that word closes only passing chords: the pruned tree
    keeps the path to it.

    With ``realizable_only`` the stream keeps just the realizable classes,
    in the same order, each as a pair ``(d, key)`` whose ``key`` is a plane
    rotation system of d: the certificate of its verdict.  Slot parity is
    condition 1 of Rosenstiehl's criterion (``realize``), and conditions 2
    and 3 become a closing rule.  A chord is keyed by its first slot, bit s
    for the chord opened at slot s, and ``pre[t]`` is the XOR of the keys
    of slots 0 .. t - 1.  The rule keeps a colouring of the closed chords
    in parts, each part a bitmask of chords whose colours its constraints
    tie.

    * A closed chord's row is final.  When chord a, opened at slot x, closes
      at slot t, the slots x + 1 .. t - 1 are placed, and
      ``pre[t] ^ pre[x + 1]`` XORs their keys: a chord with both ends among
      them cancels, so this is the set of chords with exactly one end inside
      a's arc, a's interlacement row, and no later slot lands inside that arc.
    * Conditions 2 and 3 on closed chords are necessary.  Two closed chords
      have their final rows, so condition 2 on a and each closed chord it
      does not interlace, and condition 3's rule on a and each closed chord
      it does interlace, are conditions on every completion.  The rule
      checks the first, gives a colour 0 and merges the parts the second
      ties to a, turning over each part whose colours ask a for colour 1;
      a part that asks a for both colours closes an odd cycle of the rule,
      which no colouring obeys, and the prefix is dropped.  A realizable class
      passes all three conditions, so every prefix of its canonical word
      survives, and the tree keeps the path to it.
    * The leaf colouring is a cut colouring whose key traces plane.  At a
      leaf every pair of chords was checked when the later one closed, so
      the word passes conditions 1 and 2 and the colouring c obeys
      condition 3's rule on every interlaced pair.  The key with bit i =
      c_i XOR the parity of chord i's first slot is then planar, as
      ``realize`` shows for every cut colouring: it traces to n + 2 faces.

    The parts and the colouring ride in ``extend``'s argument ``cut``, so a
    merge made for one child is undone on backtrack, before its sibling is
    tried; ``pre`` and ``rows`` are written as each slot is placed and read
    only along the path.  The full stream pays one branch per child for the
    rule.

    Orderly generation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998): words are grown slot by slot as entries (see
    ``_difference``), in ascending order, which is ascending word order:
    each child is the first end of an open chord it closes, ascending,
    then 2n to open a chord.  Each of the 4n - 1 other symmetric reads of
    the word is compared with it by ``_difference`` as far as the placed
    slots allow.  A read that reads smaller inside the prefix does so
    whatever fills the remaining slots, so every word below that prefix
    has a strictly smaller image and the prefix is dropped.  A read that
    reads larger is closed: its first difference is already placed, so it
    reads larger whatever follows, and it needs no check at the leaf.  Only
    the reads still tied stay open, and a complete word is yielded when
    none of them, finished at the leaf, reads smaller; so each yielded
    diagram satisfies ``d.word() == canonical_form(d)``.

    * Rotations: ``live`` holds the starts still tied with the prefix.
      Each new slot advances every one of them by one index, and the
      rotation starting at the new slot joins, tied at its index 0.
    * Reflections: the one starting at the new slot reads back to slot 0,
      so it is read whole, inside the prefix, when that slot is placed.
      Those that tie wait in ``mirrors`` for the slots past the prefix;
      the reflection from slot 0 is among them from the start.
    * Opening: t placed slots hold 2 closed + open ends, so a chord may
      open while t + open < 2n: fewer than n chords are used, and the
      slots left can close the open ones and the new one.
    """
    if n < 1:
        raise DiagramError("chord count must be at least 1")
    m = 2 * n
    parity = parity_only or realizable_only
    seq = [m]  # slot 0 always opens a chord
    partner = [-1] * m  # the other end of a slot, once both ends are placed
    pre = [0, 1] + [0] * (m - 1)  # slot 0 holds the key of the chord it opens
    rows = [0] * m  # each closed chord's interlacement row, by first slot

    def close(t: int, x: int, cut: tuple) -> tuple | None:
        """``cut`` once slot t takes entry x, or None when the rule drops it."""
        if x == m:
            pre[t + 1] = pre[t] ^ 1 << t
            return cut
        pre[t + 1] = pre[t] ^ 1 << x
        row = pre[t] ^ pre[x + 1]
        closed, colour, parts = cut
        ones = 0  # the interlaced closed chords that ask for colour 1
        for s in closed:
            shared = (row & rows[s]).bit_count()
            if row >> s & 1:
                # interlaced chords differ exactly when they share evenly many
                ones |= ((colour >> s ^ shared ^ 1) & 1) << s
            elif shared & 1:
                return None  # condition 2
        joined, kept = 1 << x, []  # the new chord takes colour 0
        for part in parts:
            linked = part & row
            if not linked:
                kept.append(part)
                continue
            asks = linked & ones
            if asks:
                if asks != linked:
                    return None  # condition 3: an odd cycle
                colour ^= part
            joined |= part
        rows[x] = row
        kept.append(joined)
        return (*closed, x), colour, tuple(kept)

    def extend(
        live: list[int],
        mirrors: tuple[int, ...],
        opens: tuple[int, ...],
        cut: tuple | None,
    ) -> Iterator:
        t = len(seq)
        if t == m:
            if all(
                _difference(seq, partner, s, 1, m - s, m) >= 0 for s in live
            ) and all(
                _difference(seq, partner, r, -1, r + 1, m) >= 0 for r in mirrors
            ):
                d = GaussDiagram(tuple(partner))
                if cut is None:
                    yield d
                else:
                    firsts = [s for s in range(m) if seq[s] == m]
                    colour = cut[1]
                    yield d, sum(
                        ((colour >> s ^ s) & 1) << i for i, s in enumerate(firsts)
                    )
            return
        closable = opens
        if parity:
            closable = tuple(u for u in opens if (t + u) % 2)
        grown = cut  # each child's cut; None all through the full stream
        for x in closable + ((m,) if t + len(opens) < m else ()):
            if cut is not None and (grown := close(t, x, cut)) is None:
                continue
            seq.append(x)
            if x == m:
                rest = opens + (t,)
            else:
                partner[t], partner[x] = x, t
                rest = tuple(u for u in opens if u != x)
            tied = []
            for s in live:
                sign = _difference(seq, partner, s, 1, t - s, t - s + 1)
                if sign < 0:
                    break
                if sign == 0:
                    tied.append(s)
            else:
                sign = _difference(seq, partner, t, -1, 0, t + 1)
                if sign >= 0:
                    tied.append(t)
                    yield from extend(
                        tied, mirrors + (t,) if sign == 0 else mirrors, rest, grown
                    )
            seq.pop()
            if x < m:
                partner[t] = partner[x] = -1

    yield from extend([], (0,), (0,), ((), 0, ()) if realizable_only else None)


def _orbit_pairings(c: int, length: int) -> int:
    """Ways to pair c orbits of one length so that the circle map commutes.

    A pairing fixed by a circle map g sends each orbit of g onto an orbit
    of the same length L: onto itself by the shift by L/2 (L even), or
    onto another orbit in L ways, so f(c) = [L even] f(c - 1) +
    (c - 1) L f(c - 2).  Fixed points (L = 1) pair among themselves.
    """
    prev, cur = 0, 1  # f(-1), f(0)
    for k in range(1, c + 1):
        prev, cur = cur, (length % 2 == 0) * cur + (k - 1) * length * prev
    return cur


def _circle_maps(n: int) -> Iterator[tuple[int, bool, list[int], list[int]]]:
    """(weight, is a rotation, slot map, orbit length per slot): the 4n maps, grouped.

    The pairings a rotation by r fixes are those its subgroup fixes, and
    that subgroup is generated by the rotation by gcd(r, 2n); so one
    rotation stands for every r of the same gcd, weighted by their number
    (the gcd 2n is the identity).  A reflection s -> r - s is conjugate to
    the one with r + 2 by the turn by one slot, so the one with r = 0 and
    the one with r = 1 stand for n reflections each.
    """
    m = 2 * n
    for d, weight in Counter(math.gcd(r, m) for r in range(m)).items():
        yield weight, True, [(s + d) % m for s in range(m)], [m // d] * m
    for r in (0, 1):
        sizes = [1 if (2 * s - r) % m == 0 else 2 for s in range(m)]
        yield n, False, [(r - s) % m for s in range(m)], sizes


def _fixed_pairings(
    g: Sequence[int],
    size: Sequence[int],
    slots: Counter[int],
    forced: Iterable[tuple[int, int]] = (),
) -> int:
    """How many pairings the slot map ``g`` fixes that pair each forced (a, b).

    ``size`` gives the length of each slot's orbit under g, and ``slots``
    how many slots lie on orbits of each length.  Pairing a with b in a
    fixed pairing pairs g(a) with g(b), and so on round both orbits; a
    slot that would take two partners, or itself, leaves no such pairing.
    The orbits left untouched are then paired freely, one length at a
    time.  Nothing is listed: the forced slots' partners sit in a dict,
    and the rest is a product of counts.
    """
    partner: dict[int, int] = {}
    for a0, b0 in forced:
        a, b = a0, b0
        while True:
            if a == b or partner.setdefault(a, b) != b or partner.setdefault(b, a) != a:
                return 0
            a, b = g[a], g[b]
            if (a, b) == (a0, b0):
                break
    taken = Counter(size[s] for s in partner)
    count = 1
    for length, total in slots.items():
        count *= _orbit_pairings((total - taken[length]) // length, length)
    return count


def class_count(n: int) -> int:
    """Diagram classes with n chords, by Burnside's lemma.

    The classes are the orbits of the 4n rotations and reflections on the
    (2n - 1)!! pairings, so their number is the average count of pairings
    a circle map fixes (Cori and Marcus, Theor. Comput. Sci. 204, 1998).
    """
    if n < 1:
        raise DiagramError("chord count must be at least 1")
    total = sum(
        w * _fixed_pairings(g, size, Counter(size)) for w, _, g, size in _circle_maps(n)
    )
    return total // (4 * n)


def flip_site_count(n: int) -> int:
    """Flip sites summed over one representative of each n-chord class.

    A flip site is a slot i whose chord (i, j) has the next slot's chord at
    (i + 1, j + 1), a different chord.  Rotations and reflections carry
    sites to sites, so the count is a class function, and the weighted
    form of Burnside's lemma sums it: (1/4n) sum over maps g of the sites
    of the pairings g fixes.  Those are counted site by site, forcing the
    two chords of each site: f(i, j) pairings fixed by g hold the site
    (i, j).  For the identity the total is 2n (2n - 3) (2n - 5)!!.

    Half the sites are counted.  The sites (i, j) and (j, i) force the same
    two chords, (i, j) and (i + 1, j + 1), so f(i, j) = f(j, i), and a
    reflection's total is twice the sum over i < j.  No site has
    j = i + 1, where P and Q would share a slot, so the sum skips
    (i, i + 1) and (0, 2n - 1), the other order of (2n - 1, 0).  A rotation
    commutes with the turn by one slot, which carries the pairings it
    fixes to pairings it fixes, so each slot carries as many sites as slot
    0; and turning the site (j, 0) by -j gives (0, 2n - j), so
    f(0, j) = f(j, 0) = f(0, 2n - j).  A rotation's total is therefore 2n
    times f(0, n) plus twice the sum of f(0, j) over 2 <= j < n.
    """
    if n < 1:
        raise DiagramError("chord count must be at least 1")
    m = 2 * n
    total = 0
    for w, rotation, g, size in _circle_maps(n):
        slots = Counter(size)

        def fixed(i: int, j: int) -> int:
            forced = ((i, j), ((i + 1) % m, (j + 1) % m))
            return _fixed_pairings(g, size, slots, forced)

        if rotation:
            sites = m * sum(fixed(0, j) * (1 if j == n else 2) for j in range(2, n + 1))
        else:
            sites = 2 * sum(
                fixed(i, j) for i in range(m) for j in range(i + 2, m - (i == 0))
            )
        total += w * sites
    return total // (4 * n)


def canonical_words(n: int) -> tuple[str, ...]:
    """Canonical words with n chords, ascending."""
    return tuple(d.word() for d in enumerate_diagrams(n))
