"""The flip move on Gauss diagrams.

A flip acts where two chords P and Q sit doubly adjacent: P occupies slots
i and j while Q occupies i+1 and j+1 (indices mod 2n).  Such a pair cuts
the circle into the two short arcs inside the pattern and two in-between
arcs; the flip reverses the in-between arc running from slot i+2 to slot
j-1, carrying its chord endpoints along.  Choosing the site (j, i) instead
reverses the other in-between arc, so both choices appear in the site
list.  A flip is an involution, keeps the underlying cubic graph, and --
the theorem this package exists to check -- preserves realizability.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .diagrams import GaussDiagram, canonical_form, canonical_words, parse_word
from .realize import gadget_planarity, realizable_class


class FlipError(ValueError):
    """Base class for flip misuse."""


class StaleSiteError(FlipError):
    """Raised when a site does not describe the given diagram."""


@dataclass(frozen=True)
class FlipSite:
    """A doubly adjacent chord pair: P at slots (i, j), Q at (i+1, j+1)."""

    i: int
    j: int
    chord_p: str
    chord_q: str

    def positions(self, n: int) -> tuple[int, int, int, int]:
        """The four pattern slots (i, i+1, j, j+1) for an n-chord diagram."""
        m = 2 * n
        return (self.i, (self.i + 1) % m, self.j, (self.j + 1) % m)

    def flipped_arc(self, n: int) -> tuple[int, ...]:
        """Slots of the reversed arc, i+2 .. j-1 in circular order."""
        m = 2 * n
        length = (self.j - self.i - 2) % m
        return tuple((self.i + 2 + t) % m for t in range(length))


def flip_sites(d: GaussDiagram) -> list[FlipSite]:
    """All flip sites of ``d``, ordered by (i, j).

    Each doubly adjacent pair appears twice, once per in-between arc:
    as (i, j) and as (j, i).  Diagrams with fewer than two chords have no
    sites.
    """
    m = 2 * d.n
    chord = d.chord_of
    sites: list[FlipSite] = []
    for i in range(m):
        j = d.pairing[i]
        if d.pairing[(i + 1) % m] == (j + 1) % m and chord[i] != chord[(i + 1) % m]:
            sites.append(
                FlipSite(i, j, d.labels[chord[i]], d.labels[chord[(i + 1) % m]])
            )
    return sites


def apply_flip(d: GaussDiagram, site: FlipSite) -> GaussDiagram:
    """Reverse the site's in-between arc; an involution on diagrams.

    The four pattern slots stay put, every chord endpoint on the reversed
    arc moves to the mirrored slot, and labels ride along with their
    chords.
    """
    if (site.i, site.j) not in [(s.i, s.j) for s in flip_sites(d)]:
        raise StaleSiteError(
            f"site (i={site.i}, j={site.j}) does not describe this diagram"
        )
    names = [d.labels[cid] for cid in d.chord_of]
    arc = site.flipped_arc(d.n)
    for s, t in zip(arc, reversed(arc)):
        names[s] = d.labels[d.chord_of[t]]
    return GaussDiagram.from_tokens(names)


@dataclass(frozen=True)
class FlipOrbit:
    """Everything reachable from one diagram class by repeated flips."""

    members: tuple[tuple[str, bool], ...]
    edges: tuple[tuple[str, tuple[int, int], str], ...]

    def words(self) -> tuple[str, ...]:
        return tuple(w for w, _ in self.members)

    def verdicts(self) -> dict[str, bool]:
        return dict(self.members)

    def homogeneous(self) -> bool:
        """True when every member shares one realizability verdict."""
        return len({r for _, r in self.members}) <= 1

    def to_json_dict(self) -> dict:
        return {
            "members": [
                {"word": w, "realizable": r} for w, r in self.members
            ],
            "edges": [
                {"from": a, "site": [i, j], "to": b}
                for a, (i, j), b in self.edges
            ],
        }


def flip_orbit(d: GaussDiagram) -> FlipOrbit:
    """Breadth-first closure of the flip move over canonical classes.

    Members carry realizability verdicts; edges record which site of which
    member produced which class (on canonical representatives).
    """
    start = canonical_form(d).text
    queue = deque([start])
    found = {start}
    edges: list[tuple[str, tuple[int, int], str]] = []
    while queue:
        word = queue.popleft()
        rep = parse_word(word)
        for site in flip_sites(rep):
            target = canonical_form(apply_flip(rep, site)).text
            edges.append((word, (site.i, site.j), target))
            if target not in found:
                found.add(target)
                queue.append(target)
    members = tuple((w, realizable_class(w)) for w in sorted(found))
    return FlipOrbit(members, tuple(sorted(edges)))


@dataclass(frozen=True)
class FlipCounterexample:
    """A flip that changed realizability (none are expected to exist)."""

    word: str
    i: int
    j: int
    before: bool
    after: bool


@dataclass(frozen=True)
class FlipTheoremReport:
    """Outcome of one sweep over every class up to max_n: flips and oracles."""

    max_n: int
    diagrams_checked: int
    sites_checked: int
    counterexamples: tuple[FlipCounterexample, ...]
    oracle_mismatches: tuple[str, ...] = ()  # classes where gadget != tracing

    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        verdict = (
            "no counterexamples"
            if self.ok()
            else f"{len(self.counterexamples)} COUNTEREXAMPLES"
        )
        return (
            f"flip theorem up to {self.max_n} chords: "
            f"{self.diagrams_checked} diagram classes, "
            f"{self.sites_checked} flips checked, {verdict}"
        )

    def to_json_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "diagrams_checked": self.diagrams_checked,
            "sites_checked": self.sites_checked,
            "counterexamples": [
                {
                    "word": c.word,
                    "site": [c.i, c.j],
                    "before": c.before,
                    "after": c.after,
                }
                for c in self.counterexamples
            ],
        }


def check_word_flips(word: str) -> tuple[int, tuple[FlipCounterexample, ...], bool]:
    """Sites checked, realizability-changing flips, and whether the oracles agree."""
    d = parse_word(word)
    before = realizable_class(word)
    bad: list[FlipCounterexample] = []
    sites = flip_sites(d)
    for site in sites:
        after = realizable_class(canonical_form(apply_flip(d, site)).text)
        if after != before:
            bad.append(FlipCounterexample(word, site.i, site.j, before, after))
    return len(sites), tuple(bad), gadget_planarity(d) == before


def verify_flip_theorem(max_n: int, workers: int = 1) -> FlipTheoremReport:
    """Check flips and oracle agreement over all classes n <= max_n in one pass."""
    if max_n < 2:
        raise FlipError(f"max chord count must be at least 2, got {max_n}")
    words = [w for n in range(1, max_n + 1) for w in canonical_words(n)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(check_word_flips, words, chunksize=16))
    else:
        results = [check_word_flips(w) for w in words]
    sites = sum(s for s, _, _ in results)
    bad = tuple(c for _, cs, _ in results for c in cs)
    mismatches = tuple(w for w, (_, _, agrees) in zip(words, results) if not agrees)
    return FlipTheoremReport(max_n, len(words), sites, bad, mismatches)
