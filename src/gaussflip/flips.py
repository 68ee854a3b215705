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

import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice

from .diagrams import (
    GaussDiagram,
    _symmetries,
    canonical_form,
    class_count,
    enumerate_diagrams,
    flip_site_count,
    parse_word,
)
from .realize import (
    _plane_key,
    _slots_trace_plane,
    _traces_plane,
    gadget_planarity,
    is_realizable,
)

# `flips --orbit` on a connected sum of k pentagrams (5k chords) applies
# 500 * 5^(k-4) flips: 500 at 20 chords take 0.07-0.14 s, 2,500 at 25
# 0.42-0.45 s and 12,500 at 30 2.8 s, in process on a 2-core host.  Every
# class up to 8 chords needs at most 24 flips, the benchmark's analyze words
# at most 20, and R_201 2.  Reaching 1,000 flips takes 0.16-0.35 s at 30
# chords, 0.22-0.44 s at 40 and 0.30-0.62 s at 60; reaching 2,500 took
# 0.59-0.93 s at 40 and 0.74-1.14 s at 60, too slow for a refusal.
ORBIT_MAX_FLIPS = 1_000
BATCH = 128  # items per pool task; ``_pooled`` maps a single batch itself


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

    On the cubic graph a flip is the paper's 2-switch of the Hamiltonian
    cycle.  Drop cycle edges (a, a+1) and (b, b+1); they share no end, as a
    vertex has one chord edge.  Each freed end takes its chord edge, so the
    chords at a, a+1, b, b+1 pair those four slots.  Pairing a with a+1
    only re-lays the dropped edges, and a with b+1 closes a+1 .. b on
    itself, so only P = (a, b), Q = (a+1, b+1) gives a new cycle: the
    site (a, b).  It reads one in-between arc backwards: the flip.
    """
    return [_site(d, i) for i, _ in _site_pairs(d.pairing)]


def _site_pairs(p: tuple[int, ...]) -> list[tuple[int, int]]:
    """The sites of pairing ``p`` as (i, j) pairs, ascending; no ``FlipSite``.

    Q must sit one slot on from P at both ends and be another chord; it
    is P itself only for the single chord at adjacent slots, j = i + 1.
    """
    m = len(p)
    return [
        (i, j)
        for i, j in enumerate(p)
        if p[(i + 1) % m] == (j + 1) % m and j != (i + 1) % m
    ]


def _site(d: GaussDiagram, i: int) -> FlipSite:
    """The ``FlipSite`` with P at slots (i, pairing[i]), given that it is one."""
    q = d.chord_of[(i + 1) % (2 * d.n)]
    return FlipSite(i, d.pairing[i], d.labels[d.chord_of[i]], d.labels[q])


def apply_flip(d: GaussDiagram, site: FlipSite) -> GaussDiagram:
    """Reverse the site's in-between arc; an involution on diagrams.

    The four pattern slots stay put, every chord endpoint on the reversed
    arc moves to the mirrored slot, and labels ride along with their
    chords.  ``move[s]`` is the mirror of slot s across the arc, or s off
    it, so the new pairing is ``move[pairing[move[s]]]`` and new slot s
    holds the chord that sat at ``move[s]``.  A site is stale unless its
    (i, j) is one of ``_site_pairs``; labels come from ``d``.
    """
    if (site.i, site.j) not in _site_pairs(d.pairing):
        raise StaleSiteError(
            f"site (i={site.i}, j={site.j}) does not describe this diagram"
        )
    move = list(range(2 * d.n))
    arc = site.flipped_arc(d.n)
    for s, t in zip(arc, reversed(arc)):
        move[s] = t
    pairing = tuple(move[d.pairing[t]] for t in move)
    chords = dict.fromkeys(d.chord_of[t] for t in move)
    return GaussDiagram(pairing, tuple(d.labels[c] for c in chords))


@dataclass(frozen=True)
class FlipOrbit:
    """Everything reachable from one diagram class by repeated flips."""

    members: tuple[tuple[str, bool], ...]
    edges: tuple[tuple[str, tuple[int, int], str], ...]

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

    Members carry realizability verdicts, decided on the diagram parsed for
    their flips; edges record which site of which member reached which class.
    An orbit that takes more than ``ORBIT_MAX_FLIPS`` flips raises ``FlipError``.
    """
    start = canonical_form(d)
    queue, found = [start], {start}
    members, edges = [], []
    flips = 0
    for word in queue:  # breadth first: each class found joins the end
        e = parse_word(word)
        members.append((word, is_realizable(e)))
        targets, applied = _flip_targets(e, canonical_form)
        flips += applied
        if flips > ORBIT_MAX_FLIPS:
            raise FlipError(
                f"flip orbit: {flips} flips over {len(members)} classes exceed"
                f" the limit of {ORBIT_MAX_FLIPS}"
            )
        for site, target in targets:
            edges.append((word, site, target))
            if target not in found:
                found.add(target)
                queue.append(target)
    return FlipOrbit(tuple(sorted(members)), tuple(sorted(edges)))


def _flip_targets(d: GaussDiagram, read: Callable) -> tuple[list[tuple], int]:
    """Each site (i, j) of ``d`` with ``read`` of its flip, and the flips applied.

    Sites come in ``flip_sites`` order.  ``read`` is a class property, such
    as ``canonical_form`` or ``is_realizable``: the first site of each orbit
    (``_site_orbits``) is flipped and read, and every other site of that
    orbit reaches the same class.
    """
    target_of: dict[tuple[int, int], object] = {}
    targets = []
    for site, first in _site_orbits(d):
        if first not in target_of:
            target_of[first] = read(apply_flip(d, _site(d, first[0])))
        targets.append((site, target_of[first]))
    return targets, len(target_of)


def _site_orbits(d: GaussDiagram) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Each site (i, j) of ``d``, in ``flip_sites`` order, with its orbit's first site.

    Sites are read as (i, j) pairs off the pairing; no ``FlipSite`` is
    built.  The orbits are those of the group generated by the symmetries
    of d (``_symmetries``) acting on sites, and the swap (i, j) <-> (j, i),
    and every site of an orbit reaches one class.  No symmetry but the
    identity and at most one reflection fixes a site, so an orbit holds at
    least half as many sites as d has symmetries, and marking every orbit
    costs O(sites).  Sites come in swapped pairs, so a diagram with at most
    two sites has at most one orbit, and its symmetries are not read.

    Proof.  Write the diagram from slot i as P Q alpha P Q beta, with P at
    slots i and j, Q at i + 1 and j + 1, alpha the arc i + 2 .. j - 1 and
    beta the arc j + 2 .. i - 1.  Read from slot i, site (i, j) gives
    P Q alpha^r P Q beta and site (j, i) gives P Q alpha P Q beta^r.  The
    first, read backwards from its second Q, is Q P alpha Q P beta^r: the
    second with P and Q trading names.  A class forgets names and
    direction, so the swap keeps the class.
    A symmetry g of d, a rotation or reflection of the circle with
    g(d) = d, commutes with the flip: g(flip_s d) = flip_{g(s)} d, where
    g(s) is the site whose reversed arc is the image of s's reversed arc.
    Then flip_{g(s)} d is a rotation or reflection of flip_s d, so it has
    the same class.  A rotation s |-> s + r sends the pattern slots
    i, i + 1, j, j + 1 to i + r, i + 1 + r, j + r, j + 1 + r, so g(i, j) =
    (i + r, j + r).  A reflection s |-> r - s sends them to r - i,
    r - i - 1, r - j, r - j - 1: Q now sits one slot before P, so the
    image pair is the site at (r - i - 1, r - j - 1), and the image of
    alpha, slots r - j + 1 .. r - i - 2, is the arc that site
    (r - j - 1, r - i - 1) reverses; up to the swap, which keeps the class,
    that is the site (r - i - 1, r - j - 1).  So the whole orbit of a site
    under rotations, reflections and the swap reaches one class.
    """
    m = 2 * d.n
    sites = _site_pairs(d.pairing)
    group = _symmetries(d) if len(sites) > 2 else [(0, 1)]
    first_of: dict[tuple[int, int], tuple[int, int]] = {}
    for i, j in sites:
        if (i, j) not in first_of:
            for r, step in group:
                a, b = ((i + r) % m, (j + r) % m) if step == 1 else (
                    (r - i - 1) % m, (r - j - 1) % m
                )
                first_of[a, b] = first_of[b, a] = (i, j)
    return [(site, first_of[site]) for site in sites]


def _flip_key(
    d: GaussDiagram, key: int, i: int, j: int
) -> tuple[list[tuple[int, int]], int]:
    """The flip of ``d`` at site (i, j), as chord slots, and ``key`` carried to it.

    The flipped pairing is built as ``apply_flip`` builds it, from
    ``d.pairing`` alone: ``move`` mirrors the slots of alpha =
    i + 2 .. j - 1 and fixes the rest.  The key is carried by one rule.
    Write c for the colouring of ``key``, c_k = bit k XOR the parity of
    chord k's first slot.  Complement c on every chord other than P and Q
    with both ends in alpha or both in beta = j + 2 .. i - 1; keep it on P,
    Q and every chord with one end in each.  The carried key reads c off
    the flipped slots, bit k = c_k XOR the parity of flipped chord k's
    first slot.

    Proof that a plane key of a diagram that passes slot parity carries to
    a plane key of its flip.  Draw the curve on the sphere by the key, and
    call e1 and e2 its arcs i and j, both from P to Q.  At a transverse
    crossing opposite ends are the in and out of one slot, so at P the
    ends out(i), out(j) are neighbours, and so are in(i+1), in(j+1) at Q.
    No crossing lies inside e1 or e2, so e1 and e2 close into a Jordan
    curve, and alpha and beta meet it only at P and Q, from the side that
    holds in(i), in(j) at P and out(i+1), out(j+1) at Q.  The other side is
    a face, a bigon.  Take a thin disc B around it.  The rest of the curve
    is a 2-tangle in the disc D beyond B, with ends on the boundary in the
    cyclic order in(j), out(j+1), out(i+1), in(i): alpha's ends, in(j) and
    out(i+1), are opposite, and so are beta's.  Reflect D in the axis
    through beta's ends.  The reflection swaps alpha's ends, so glued back
    to B the curve runs P Q alpha^r P Q beta: the flip, drawn on the sphere.
    P and Q stay in B, unchanged.  Every other crossing lies in D and is
    mirrored, which reverses its cyclic order: its slot bit, the bit of the
    slot string that ``realize._one_per_curve`` reads, turns.  Where the
    curve now runs alpha backwards, in and out trade places at each slot;
    a trade at one end of a crossing turns its slot bit, and trades at both
    ends keep it.  So the slot bit ends turned exactly on the chords with
    both ends in alpha or both in beta.  Slot parity holds, so i + j is odd,
    ``move`` keeps the parity of every slot, and c_k, read at either end
    of chord k, is the slot bit XOR the slot's parity.  The drawing's key
    is therefore the carried key, and it is plane.

    Any key this returns is checked by tracing it, so no verdict rests on
    this proof; it explains why ``_check_class`` never falls back.
    """
    m = 2 * d.n
    arc = (j - i - 2) % m  # the slots of alpha
    move = list(range(m))
    for t in range(arc):
        move[(i + 2 + t) % m] = (j - 1 - t) % m
    pattern = {i, (i + 1) % m, j, (j + 1) % m}
    colour = [0] * m  # each flipped slot's chord colour
    for k, (u, v) in enumerate(d.chord_slots):
        c = (key >> k ^ u) & 1
        if u not in pattern and ((u - i - 2) % m < arc) == ((v - i - 2) % m < arc):
            c ^= 1  # both ends in alpha, or both in beta
        colour[move[u]] = colour[move[v]] = c
    flipped = [0] * m
    for s, t in enumerate(d.pairing):
        flipped[move[s]] = move[t]
    slots = [(s, t) for s, t in enumerate(flipped) if s < t]
    return slots, sum(((colour[s] ^ s) & 1) << k for k, (s, _) in enumerate(slots))


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
    oracle_mismatches: tuple[str, ...] = ()  # classes where oracle != decision

    def ok(self) -> bool:
        """True when no flip changed realizability and the oracles agreed."""
        return not (self.counterexamples or self.oracle_mismatches)

    def summary(self) -> str:
        verdict = (
            f"{len(self.counterexamples)} COUNTEREXAMPLES"
            if self.counterexamples
            else "no counterexamples"
        )
        return (
            f"flip theorem up to {self.max_n} chords: "
            f"{self.diagrams_checked} diagram classes, "
            f"{self.sites_checked} flips checked, {verdict}"
        )

    def to_json_dict(self) -> dict:
        return {
            "flip_theorem": {
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
            },
            "oracle_agreement": {
                "max_n": self.max_n,
                "diagrams_checked": self.diagrams_checked,
                "mismatches": list(self.oracle_mismatches),
            },
        }


def check_word_flips(word: str) -> tuple[int, tuple[FlipCounterexample, ...], bool]:
    """Sites counted, realizability-changing flips, and whether the oracles agree.

    The class is decided, and a realizable one is checked as ``_check_class``
    checks a class of the sweep, from the decision's plane key: each flip is
    realizable by the trace of the key carried to it, and decided only if
    that trace fails.  An unrealizable class returns no counterexamples of
    its own.  The oracle is the gadget: a second derivation of the class's
    verdict, whether or not the class passes slot parity.  A realizable
    class's key, and every key carried from it, must also trace plane.
    """
    d = parse_word(word)
    solved = _plane_key(d)
    bad, wrong = _check_class((d, solved[0])) if solved else ([], [])
    agrees = not wrong and (solved is not None) == gadget_planarity(d)
    return len(flip_sites(d)), tuple(bad), agrees


def _check_class(
    item: tuple[GaussDiagram, int],
) -> tuple[list[FlipCounterexample], list[str]]:
    """One realizable class of the sweep: its counterexamples and oracle mismatch.

    ``item`` is a class and its plane key, as ``enumerate_diagrams`` yields
    them with ``realizable_only``.  The class is not decided again: its key
    is traced once, and one that does not trace to n + 2 faces contradicts
    the stream's proof, an oracle mismatch.  Its flips are checked either
    way, as those of a realizable class.
    A flip is an involution on classes, so one that changes realizability
    has a realizable end, and the realizable classes' flips are all the
    sweep needs.  Realizability is a class property and every site of an
    orbit reaches one class (``_site_orbits``), so one verdict per orbit
    gives every site its verdict.  That verdict is a trace, not a decision:
    ``_flip_key`` builds the flip of the orbit's first site straight from
    the pairing and carries the key to it, and a carried key that traces to
    n + 2 faces is a plane embedding of the flipped class, checked.  On
    this passing path no diagram, site or decision is made.
    A carried key that fails to trace falls back to the decision of the
    flipped diagram.  Realizable, it is a gap in ``_flip_key``'s proof, an
    oracle mismatch; unrealizable, the flip is a counterexample, and the
    class it reaches joins the queue once, however many sites reach it.
    Its sites are then decided too, under its own canonical word, spelt
    only then.  A mismatch names the streamed class whose key, or a key
    carried from it, failed.
    """
    d, key = item
    wrong = not _traces_plane(d, key)
    bad: list[FlipCounterexample] = []
    after: dict[tuple[int, int], bool] = {}  # by the first site of each orbit
    reached: list[str] = []  # canonical words of the unrealizable classes reached
    for (i, j), first in _site_orbits(d):
        if first not in after:
            plane = _slots_trace_plane(*_flip_key(d, key, *first))
            if not plane:
                e = apply_flip(d, _site(d, first[0]))
                plane = is_realizable(e)
                wrong |= plane
                if not plane and (word := canonical_form(e)) not in reached:
                    reached.append(word)
            after[first] = plane
        if not after[first]:
            bad.append(FlipCounterexample(d.word(), i, j, True, False))
    for word in reached:
        for (i, j), back in _flip_targets(parse_word(word), is_realizable)[0]:
            if back:
                bad.append(FlipCounterexample(word, i, j, False, True))
    return bad, [d.word()] if wrong else []


def _pooled(check: Callable, items: Iterable, workers: int) -> Iterator:
    """``map(check, items)`` on a pool that checks while items still arrive.

    The pool sends items in batches of ``BATCH`` and yields results in order.
    Its task thread blocks while the pipe to the workers is full, so the
    caller's memory stays flat however many items ``items`` yields.
    Rule: the pool starts only when ``items`` holds more than one batch and
    ``workers``, capped at one per CPU since the pool starts all of its
    workers at once, is at least 2.  One batch would go whole to one
    worker, and the pool would add only its start-up; so this process maps
    such a stream itself.
    """
    items = iter(items)
    head = list(islice(items, BATCH + 1))
    workers = min(workers, os.cpu_count() or 1)
    if len(head) <= BATCH or workers < 2:
        yield from map(check, chain(head, items))
        return
    # imported here, so that no other command loads multiprocessing
    from multiprocessing import Pool

    with Pool(workers) as pool:
        yield from pool.imap(check, chain(head, items), chunksize=BATCH)


def verify_flip_theorem(max_n: int, workers: int = 1) -> FlipTheoremReport:
    """Check flips and oracle agreement over all classes n <= max_n in one pass.

    Only the realizable classes are enumerated and flipped:
    ``enumerate_diagrams`` with ``realizable_only`` yields each with a plane
    key, and ``_check_class`` traces the key and checks the class's flips.
    The class and site totals come from the closed-form counts
    ``class_count`` and ``flip_site_count``.  That covers every class:

    * Pruning loses no realizable class, and every class it drops is
      unrealizable.  The stream's closing rule checks Rosenstiehl's three
      conditions on the closed chords, which are necessary, and at a leaf
      it has checked them on every pair (``enumerate_diagrams``' proof).
    * No flip of a dropped class needs a look.  By the involution argument
      of ``_check_class``, a flip that changes realizability has a
      realizable end, a streamed class, whose every site the sweep reads.
    * A streamed class's flip is realizable by a checked certificate: the
      class's key, carried to one site of each orbit by ``_flip_key``,
      traces to n + 2 faces.  The rule's proof only says why it always
      does; a key that does not sends that flip to the decision.

    Oracle agreement means that every streamed class's key traces to
    n + 2 faces, confirming the verdict the closing rule gave it, and that
    no flip whose carried key failed to trace is realizable after all: a
    mismatch otherwise.  A dropped class is unrealizable by the pruning
    proof alone.  The gadget, the independent oracle, is not part of the
    sweep: it meets the decision on every class up to 8 chords in CI, and
    ``check_word_flips`` shows it any class.

    Classes stream one at a time as ``enumerate_diagrams`` built them,
    so the serial sweep builds no class twice and a pool worker unpickles
    them without validating them again.  When ``_pooled`` starts a pool,
    it checks classes while the pool's task thread is still enumerating
    them.  Only the classes to report are kept.
    Counterexamples come back in sweep order, ascending (length,
    canonical word), then by site, and the report is the same for any
    worker count.
    """
    if max_n < 2:
        raise FlipError(f"max chord count must be at least 2, got {max_n}")
    sizes = range(1, max_n + 1)
    classes = (c for n in sizes for c in enumerate_diagrams(n, realizable_only=True))
    results = _pooled(_check_class, classes, workers)
    bad: set[FlipCounterexample] = set()  # a class re-checked twice reports once
    mismatches: list[str] = []
    for found, wrong in results:
        bad.update(found)
        mismatches += wrong
    order = sorted(bad, key=lambda c: (len(c.word), c.word, c.i))
    total = sum(class_count(n) for n in sizes)
    sites = sum(flip_site_count(n) for n in sizes)
    return FlipTheoremReport(max_n, total, sites, tuple(order), tuple(mismatches))
