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

import string
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache


class DiagramError(ValueError):
    """Base class for malformed diagram input."""


class EmptyDiagramError(DiagramError):
    """Raised when a word or pair list contains no chords at all."""


class MalformedWordError(DiagramError):
    """Raised when some token does not appear exactly twice."""


class SlotPartitionError(DiagramError):
    """Raised when chord endpoints do not partition the slots 0..2n-1."""


def _chord_names(n: int) -> tuple[str, ...]:
    """Default display labels: A..Z, then A1, B1, ... for larger diagrams."""
    letters = string.ascii_uppercase
    if n <= 26:
        return tuple(letters[:n])
    return tuple(letters[i % 26] + str(i // 26) for i in range(n))


@dataclass(frozen=True)
class GaussDiagram:
    """An n-chord diagram: involution ``pairing`` on slots 0..2n-1.

    ``pairing[s]`` is the slot sharing a chord with slot ``s``.  ``labels``
    maps chord id (first-occurrence order) to a display name; it is excluded
    from equality so diagrams compare by shape, not by how they were spelt.
    """

    n: int
    pairing: tuple[int, ...]
    labels: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        m = 2 * self.n
        if self.n < 1:
            raise EmptyDiagramError("a diagram needs at least one chord")
        if len(self.pairing) != m:
            raise DiagramError(
                f"pairing has {len(self.pairing)} entries, expected {m}"
            )
        for s, t in enumerate(self.pairing):
            if not 0 <= t < m:
                raise DiagramError(f"slot {s} pairs with out-of-range {t}")
            if t == s:
                raise DiagramError(f"slot {s} pairs with itself")
            if self.pairing[t] != s:
                raise DiagramError(f"pairing is not an involution at slot {s}")
        if not self.labels:
            object.__setattr__(self, "labels", _chord_names(self.n))
        if len(self.labels) != self.n:
            raise DiagramError(
                f"{len(self.labels)} labels for {self.n} chords"
            )
        if len(set(self.labels)) != self.n:
            raise DiagramError("chord labels must be distinct")

    @cached_property
    def chord_of(self) -> tuple[int, ...]:
        """Chord id occupying each slot, ids assigned by first occurrence."""
        ids = [-1] * (2 * self.n)
        nxt = 0
        for s in range(2 * self.n):
            if ids[s] < 0:
                ids[s] = ids[self.pairing[s]] = nxt
                nxt += 1
        return tuple(ids)

    @cached_property
    def chord_slots(self) -> tuple[tuple[int, int], ...]:
        """Per chord id, its two slots in increasing order."""
        first: dict[int, int] = {}
        out: list[tuple[int, int]] = [(-1, -1)] * self.n
        for s, cid in enumerate(self.chord_of):
            if cid in first:
                out[cid] = (first[cid], s)
            else:
                first[cid] = s
        return tuple(out)

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
        return cls(len(tokens) // 2, tuple(pairing), tuple(first))

    def word(self) -> str:
        """Render the diagram as a word, one token per slot.

        Single-character labels concatenate; anything longer joins with
        spaces so the result still parses back.
        """
        toks = [self.labels[cid] for cid in self.chord_of]
        sep = "" if all(len(t) == 1 for t in toks) else " "
        return sep.join(toks)

    def rotated(self, k: int) -> GaussDiagram:
        """The diagram read starting from slot ``k``; labels carried over."""
        m = 2 * self.n
        names = [self.labels[self.chord_of[(s + k) % m]] for s in range(m)]
        return GaussDiagram.from_tokens(names)

    def reflected(self) -> GaussDiagram:
        """The mirror image: slot s becomes slot 2n-1-s."""
        m = 2 * self.n
        names = [self.labels[self.chord_of[m - 1 - s]] for s in range(m)]
        return GaussDiagram.from_tokens(names)

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
    # every slot covered follows from the counts, but check for clarity
    missing = [s for s, t in enumerate(pairing) if t == -1]
    if missing:
        raise SlotPartitionError(f"slot {missing[0]} is not on any chord")
    return GaussDiagram(len(plist), tuple(pairing))


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


@dataclass(frozen=True, order=True)
class CanonicalWord:
    """Class representative word; compares lexicographically."""

    text: str


def _canonical_tuple(chord_of: Sequence[int]) -> tuple[int, ...]:
    """Lex-least first-occurrence relabeling over all rotations/reflections."""
    m = len(chord_of)
    best: tuple[int, ...] | None = None
    for start in range(m):
        for step in (1, -1):
            relabel: dict[int, int] = {}
            seq: list[int] = []
            verdict = 0  # against current best: -1 smaller, 0 tied, 1 larger
            for t in range(m):
                x = chord_of[(start + step * t) % m]
                v = relabel.setdefault(x, len(relabel))
                if best is not None and verdict == 0:
                    if v > best[t]:
                        verdict = 1
                        break
                    if v < best[t]:
                        verdict = -1
                seq.append(v)
            if best is None or verdict == -1:
                best = tuple(seq)
    assert best is not None
    return best


def _is_canonical_sequence(seq: Sequence[int]) -> bool:
    """True when no rotation/reflection relabels strictly below ``seq``."""
    m = len(seq)
    for start in range(m):
        for step in (1, -1):
            if start == 0 and step == 1:
                continue
            relabel: dict[int, int] = {}
            for t in range(m):
                v = relabel.setdefault(seq[(start + step * t) % m], len(relabel))
                if v > seq[t]:
                    break
                if v < seq[t]:
                    return False
    return True


def _render_sequence(seq: Sequence[int]) -> str:
    names = _chord_names(max(seq) + 1)
    toks = [names[x] for x in seq]
    sep = "" if all(len(t) == 1 for t in toks) else " "
    return sep.join(toks)


def canonical_form(d: GaussDiagram) -> CanonicalWord:
    """The lexicographically least word over all 4n symmetries of ``d``.

    Reading the circle from every start slot, in both directions, and
    relabeling by first occurrence gives 4n candidate words; the smallest
    is a class invariant: two diagrams get the same ``CanonicalWord``
    exactly when one is a rotation and/or reflection of the other.
    """
    return CanonicalWord(_render_sequence(_canonical_tuple(d.chord_of)))


@dataclass(frozen=True)
class InterlacementGraph:
    """Chords as vertices; edges join chords whose endpoints alternate."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @cached_property
    def _adjacency(self) -> dict[str, frozenset[str]]:
        nbrs: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adjacency[a]

    def neighbors(self, v: str) -> tuple[str, ...]:
        order = {u: i for i, u in enumerate(self.vertices)}
        return tuple(sorted(self._adjacency[v], key=order.__getitem__))

    def degree(self, v: str) -> int:
        return len(self._adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        """Degree of each chord, in vertex (= first occurrence) order."""
        return tuple(len(self._adjacency[v]) for v in self.vertices)

    def to_dot(self, name: str = "interlacement") -> str:
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for a, b in self.edges:
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def interlacement_graph(d: GaussDiagram) -> InterlacementGraph:
    """Edges join chords with exactly one endpoint inside the other's arc."""
    edges: list[tuple[str, str]] = []
    for i in range(d.n):
        u, v = d.chord_slots[i]
        for j in range(i + 1, d.n):
            a, b = d.chord_slots[j]
            if (u < a < v) != (u < b < v):
                edges.append((d.labels[i], d.labels[j]))
    return InterlacementGraph(tuple(d.labels), tuple(edges))


def parity_check(d: GaussDiagram) -> bool:
    """True when every chord joins an even slot to an odd slot.

    Equivalent formulations: every vertex of the interlacement graph has
    even degree, and the chord-and-cycle graph built from the diagram is
    bipartite.  Realizable diagrams always pass; the converse fails (the
    smallest failures have five chords).
    """
    return all((u + v) % 2 == 1 for u, v in d.chord_slots)


def _double_occurrence_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """All first-occurrence-labeled words with n chords, lex ascending."""
    m = 2 * n
    seq: list[int] = []

    def rec(opened: int, open_ids: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        t = len(seq)
        if t == m:
            yield tuple(seq)
            return
        remaining = m - t
        for cid in open_ids:  # ascending ids keep the stream lexicographic
            seq.append(cid)
            yield from rec(opened, tuple(x for x in open_ids if x != cid))
            seq.pop()
        if opened < n and remaining >= len(open_ids) + 2:
            seq.append(opened)
            yield from rec(opened + 1, open_ids + (opened,))
            seq.pop()

    return rec(0, ())


def enumerate_diagrams(n: int) -> Iterator[GaussDiagram]:
    """Yield one representative per diagram class, ascending canonical word.

    Practical up to n = 8 or so; the stream filters the (2n-1)!! pairings
    down to canonical representatives, so each yielded diagram satisfies
    ``d.word() == canonical_form(d).text``.
    """
    if n < 1:
        raise DiagramError("chord count must be at least 1")
    names = _chord_names(n)
    for seq in _double_occurrence_sequences(n):
        if _is_canonical_sequence(seq):
            yield GaussDiagram.from_tokens([names[x] for x in seq])


@lru_cache(maxsize=None)
def _canonical_words_cached(n: int) -> tuple[str, ...]:
    return tuple(d.word() for d in enumerate_diagrams(n))


def canonical_words(n: int) -> tuple[str, ...]:
    """Canonical words with n chords, ascending; cached for small n."""
    if n <= 6:
        return _canonical_words_cached(n)
    return tuple(d.word() for d in enumerate_diagrams(n))
