"""Tests for the flip move: sites, application, orbits, theorem sweep."""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import random
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from io import StringIO
from pathlib import Path
from unittest.mock import patch

import pytest
from test_criterion import rosette

from gaussflip import cli, flips
from gaussflip.cubic import (
    are_isomorphic,
    diagram_from_cycle,
    graph_from_diagram,
    hamiltonian_cycles,
)
from gaussflip.diagrams import (
    GaussDiagram,
    canonical_form,
    canonical_words,
    enumerate_diagrams,
    parity_check,
    parse_word,
)
from gaussflip.flips import (
    FlipCounterexample,
    FlipError,
    FlipSite,
    FlipTheoremReport,
    StaleSiteError,
    apply_flip,
    check_word_flips,
    flip_orbit,
    flip_sites,
    verify_flip_theorem,
)
from gaussflip.realize import _gauss_parity, _plane_key, is_realizable, realizable_class

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPAN3 = parse_word("AEBACBDCED")
DIAMETERS = parse_word("ADBECADBEC")
MIXED = parse_word("ACDECABDEB")


def slot_permutation_flip(d, site):
    """Reference flip: move every slot of the reversed arc to its mirror slot."""
    m = 2 * d.n
    arc = site.flipped_arc(d.n)
    perm = list(range(m))
    for t, s in enumerate(arc):
        perm[s] = arc[len(arc) - 1 - t]
    pairing = [0] * m
    for s in range(m):
        pairing[perm[s]] = perm[d.pairing[s]]
    names = [""] * m
    for s in range(m):
        names[perm[s]] = d.labels[d.chord_of[s]]
    labels: list[str] = []
    seen: set[str] = set()
    for name in names:
        if name not in seen:
            seen.add(name)
            labels.append(name)
    return tuple(pairing), tuple(labels)


def token_route_flip(d, site):
    """Reference flip: respell the word with the arc's labels reversed, reparse."""
    names = [d.labels[cid] for cid in d.chord_of]
    arc = site.flipped_arc(d.n)
    for s, t in zip(arc, reversed(arc)):
        names[s] = d.labels[d.chord_of[t]]
    return GaussDiagram.from_tokens(names)


def all_sites_sweep(max_n):
    """Reference sweep: every class applies and decides every flip, and each
    realizable class's decided key is traced.

    It reads the decision and the trace through ``flips`` at call time, so
    a test's patch there reaches it.  Returns the counterexamples and the
    oracle mismatches, in sweep order.
    """
    bad, mismatches = [], []
    for n in range(1, max_n + 1):
        for word in canonical_words(n):
            d = parse_word(word)
            before = flips.is_realizable(d)
            for site in flip_sites(d):
                after = flips.is_realizable(apply_flip(d, site))
                if after != before:
                    bad.append(FlipCounterexample(word, site.i, site.j, before, after))
            solved = _plane_key(d)
            if solved and not flips._traces_plane(d, solved[0]):
                mismatches.append(word)
    return tuple(bad), tuple(mismatches)


# realizable ABCDEABCDE (class 25 of the realizable sweep up to 7 chords)
# and AABCCBDEFGGDEF (class 139, another batch) have flips to other
# classes and none to their own.  Turned, they fail the leaf trace and
# read unrealizable where a flip reaches them, so flips change
# realizability in both directions: into them from their neighbours, and
# out of them once they are queued as reached classes.  The sweep never
# decides a streamed class, so it sees a turned verdict only in those two
# places, and a class with a flip to its own class would show a
# counterexample that a sweep deciding every class does not.
TURNED = ("ABCDEABCDE", "AABCCBDEFGGDEF")


def turned(real):
    """``real`` with the verdicts of the ``TURNED`` classes turned."""
    return lambda d: real(d) != (canonical_form(d) in TURNED)


def turned_faults():
    """Patches for ``flips``: its decision and its trace turned on ``TURNED``."""
    trace = flips._traces_plane
    return {
        "is_realizable": turned(flips.is_realizable),
        "_traces_plane": lambda d, key: trace(d, key) != (d.word() in TURNED),
    }


def assert_turned_sweeps_match(max_n) -> int:
    """The sweep's report with the ``TURNED`` verdicts, against ``all_sites_sweep``.

    With 1 and 2 workers, the sweep lists the reference's counterexamples
    and mismatches.  Returns the number of counterexamples.  Pool workers are forked, so
    they inherit the patch.  CI runs it at 8 chords.
    """
    with patch.multiple(flips, **turned_faults()):
        bad, mismatches = all_sites_sweep(max_n)
        for workers in (1, 2):
            report = verify_flip_theorem(max_n, workers=workers)
            assert report.counterexamples == bad, workers
            assert report.oracle_mismatches == mismatches == TURNED, workers
    return len(bad)


def _word_and_check(word):
    """A class's word and its ``check_word_flips`` result: one pool task."""
    return word, check_word_flips(word)


def all_class_sweep(max_n, workers=1):
    """Reference sweep: every class streamed, spelt and checked, sites counted.

    The streamed sweep as it was before only the parity-passing classes
    were enumerated: every class goes through ``check_word_flips``, one
    word per call through the same ``_pooled`` as the sweep, and the class
    and site totals are sums over the classes met.
    """
    words = (d.word() for n in range(1, max_n + 1) for d in enumerate_diagrams(n))
    results = flips._pooled(_word_and_check, words, workers)
    classes = sites = 0
    bad: set[FlipCounterexample] = set()
    mismatches: list[str] = []
    for word, (count, found, agrees) in results:
        classes += 1
        sites += count
        bad.update(found)
        if not agrees:
            mismatches.append(word)
    order = sorted(bad, key=lambda c: (len(c.word), c.word, c.i))
    return FlipTheoremReport(max_n, classes, sites, tuple(order), tuple(mismatches))


def verify_output(sweep, *argv):
    """``gaussflip verify`` stdout and exit code, with ``sweep`` behind it."""
    out = StringIO()
    with patch.object(cli, "verify_flip_theorem", sweep), redirect_stdout(out):
        code = cli.main(["verify", *argv])
    return out.getvalue(), code


def assert_sweeps_match(max_n, workers):
    """``verify``, text and JSON, equals the all-class sweep's for 2..max_n chords.

    Returns the number of outputs compared.  CI runs it up to 8 chords.
    """
    compared = 0
    for n in range(2, max_n + 1):
        for form in ((), ("--json",)):
            argv = ("--max-chords", str(n), "--threads", str(workers), *form)
            want = verify_output(all_class_sweep, *argv)
            assert verify_output(verify_flip_theorem, *argv) == want, argv
            compared += 1
    return compared


def reference_flip_targets(d, read):
    """Every site of d with ``read`` of its flip, each site flipped and read."""
    return [((s.i, s.j), read(apply_flip(d, s))) for s in flip_sites(d)]


def assert_flip_targets_match_reference(diagrams) -> int:
    """``_flip_targets`` equals flipping every site; returns the count.

    Both reads are checked: canonicalising every flip, and deciding every
    flip's realizability.  The flips it reports applying are at least one
    per reached class, and at most one per site.
    """
    count = 0
    for d in diagrams:
        for read in (canonical_form, is_realizable):
            targets, applied = flips._flip_targets(d, read)
            assert targets == reference_flip_targets(d, read), (d.word(), read)
            assert len({t for _, t in targets}) <= applied <= len(targets), d.word()
        count += 1
    return count


def symmetric_rosette_sums():
    """Connected sums of rosettes and isolated chords, repeated 2 or 3 times."""
    for k in (3, 5):
        for isolated in (1, 2):
            for times in (2, 3):
                tokens: list[str] = []
                for _ in range(times):
                    used = len(tokens) // 2
                    tokens += [f"X{used + c}" for c in (*range(k), *range(k))]
                    used += k
                    tokens += [f"X{used + c}" for c in range(isolated) for _ in "ab"]
                yield GaussDiagram.from_tokens(tokens)


def count_flips(monkeypatch) -> list[int]:
    """Patch ``apply_flip`` in ``flips`` to count its calls in a one-item list."""
    calls = [0]
    real = flips.apply_flip

    def counted(d, site):
        calls[0] += 1
        return real(d, site)

    monkeypatch.setattr(flips, "apply_flip", counted)
    return calls


def random_words(seed, count, max_n):
    """Seeded random words of 2..max_n chords with multi-character labels."""
    rng = random.Random(seed)
    for _ in range(count):
        tokens = [f"c{k}" for k in range(rng.randint(2, max_n))] * 2
        rng.shuffle(tokens)
        yield GaussDiagram.from_tokens(tokens)


class TestSites:
    def test_two_interlaced_chords(self):
        sites = flip_sites(parse_word("ABAB"))
        pairs = [(s.i, s.j) for s in sites]
        assert pairs == [(0, 2), (1, 3), (2, 0), (3, 1)]
        # the two pattern placements starting the scan, with their slots
        assert sites[0].positions(2) == (0, 1, 2, 3)
        assert sites[2].positions(2) == (2, 3, 0, 1)
        assert all(s.flipped_arc(2) == () for s in sites)

    def test_no_sites_without_double_adjacency(self):
        assert flip_sites(parse_word("AABB")) == []
        assert flip_sites(parse_word("AA")) == []

    def test_diameters_sites(self):
        sites = flip_sites(DIAMETERS)
        assert len(sites) == 10
        assert [(s.i, s.j) for s in sites] == sorted((s.i, s.j) for s in sites)
        first = sites[0]
        assert (first.i, first.j, first.chord_p, first.chord_q) == (0, 5, "A", "D")
        assert first.positions(5) == (0, 1, 5, 6)
        assert first.flipped_arc(5) == (2, 3, 4)
        other_arc = [s for s in sites if (s.i, s.j) == (5, 0)][0]
        assert other_arc.flipped_arc(5) == (7, 8, 9)


class TestApply:
    def test_flip_links_the_two_realizable_fixtures(self):
        site = flip_sites(DIAMETERS)[0]
        flipped = apply_flip(DIAMETERS, site)
        assert flipped.word() == "ADCEBADBEC"
        assert canonical_form(flipped) == canonical_form(MIXED)

    def test_empty_arc_flip_is_identity(self):
        d = parse_word("ABAB")
        for site in flip_sites(d):
            assert apply_flip(d, site) == d

    def test_involution_small(self):
        for n in range(2, 6):
            for word in canonical_words(n):
                d = parse_word(word)
                for site in flip_sites(d):
                    again = apply_flip(apply_flip(d, site), site)
                    assert again == d, (word, site)

    def test_matches_slot_permutation_reference(self):
        classes = [parse_word(w) for n in range(2, 8) for w in canonical_words(n)]
        for d in classes + list(random_words(7, 300, 30)):
            for site in flip_sites(d):
                got = apply_flip(d, site)
                want = slot_permutation_flip(d, site)
                assert (got.pairing, got.labels) == want, (d.word(), site)
                tokens = token_route_flip(d, site)
                assert (got.pairing, got.labels) == (tokens.pairing, tokens.labels)

    def test_labels_ride_with_chords(self):
        site = flip_sites(DIAMETERS)[0]
        flipped = apply_flip(DIAMETERS, site)
        # the flipped arc reverses the middle visits: B, E, C become C, E, B
        assert flipped.labels == ("A", "D", "C", "E", "B")

    def test_graph_class_survives(self):
        for n in range(2, 5):
            for word in canonical_words(n):
                d = parse_word(word)
                g, _ = graph_from_diagram(d)
                for site in flip_sites(d):
                    h, _ = graph_from_diagram(apply_flip(d, site))
                    assert are_isomorphic(g, h)[0], (word, site)

    def test_stale_site(self):
        with pytest.raises(StaleSiteError):
            apply_flip(parse_word("AABB"), FlipSite(0, 2, "A", "B"))
        site = flip_sites(DIAMETERS)[0]
        with pytest.raises(StaleSiteError):
            apply_flip(MIXED, site)
        with pytest.raises(StaleSiteError):
            apply_flip(DIAMETERS, FlipSite(0, 12, "A", "D"))

    def test_site_of_an_equal_diagram_is_not_stale(self):
        # XYXY == ABAB, as equality rests on the pairing alone: a site is
        # stale only if its slots are, and the labels come from the diagram
        d = parse_word("XYXY")
        for site, own in zip(flip_sites(parse_word("ABAB")), flip_sites(d)):
            flipped, want = apply_flip(d, site), apply_flip(d, own)
            assert (flipped, flipped.labels) == (want, want.labels)

    def test_every_unlisted_site_is_stale(self):
        for word in ("AABB", "ABAB", "ADBECADBEC"):
            d = parse_word(word)
            m = 2 * d.n
            listed = {(s.i, s.j) for s in flip_sites(d)}
            for i in range(m):
                for j in range(m):
                    if (i, j) not in listed:
                        with pytest.raises(StaleSiteError):
                            apply_flip(d, FlipSite(i, j, "A", "B"))
            # a listed site one full turn off: slot -1 must not read as 2n-1
            for site in flip_sites(d):
                for shift in (-m, m):
                    with pytest.raises(StaleSiteError):
                        apply_flip(d, replace(site, i=site.i + shift))


class TestOrbits:
    def test_diameters_orbit(self):
        orbit = flip_orbit(DIAMETERS)
        assert orbit.members == (
            ("ABCADEBCED", True),
            ("ABCDEABCDE", True),
        )
        assert orbit.homogeneous()
        words = {w for w, _ in orbit.members}
        for src, _, dst in orbit.edges:
            assert src in words and dst in words
        assert orbit.edges  # the two classes are actually linked

    def test_span3_orbit_stays_unrealizable(self):
        orbit = flip_orbit(SPAN3)
        assert orbit.members == (("ABCADCEDBE", False),)
        assert orbit.homogeneous()

    def test_singleton_orbit(self):
        orbit = flip_orbit(parse_word("AABB"))
        assert orbit.members == (("AABB", True),)
        assert orbit.edges == ()

    def test_orbits_homogeneous_small(self):
        for n in range(2, 5):
            for word in canonical_words(n):
                assert flip_orbit(parse_word(word)).homogeneous(), word

    def test_each_member_decided_once(self, monkeypatch):
        # on the diagram parsed for its flips, not through the word-keyed cache
        realizable_class.cache_clear()
        decided = []

        def counted(d):
            decided.append(d.word())
            return is_realizable(d)

        monkeypatch.setattr(flips, "is_realizable", counted)
        orbit = flip_orbit(DIAMETERS)
        assert decided == ["ABCDEABCDE", "ABCADEBCED"]  # breadth first
        assert sorted(decided) == [w for w, _ in orbit.members]
        assert realizable_class.cache_info().currsize == 0

    def test_flip_limit(self, monkeypatch):
        # a connected sum of 4 pentagrams takes 500 flips over 90 classes;
        # the limit is inclusive, and passing it raises after the member
        # whose flips passed it
        tokens = [f"P{p}c{c}" for p in range(4) for _ in "ab" for c in range(5)]
        d = parse_word(" ".join(tokens))
        calls = count_flips(monkeypatch)
        monkeypatch.setattr(flips, "ORBIT_MAX_FLIPS", 500)
        assert len(flip_orbit(d).members) == 90
        assert calls == [500]
        monkeypatch.setattr(flips, "ORBIT_MAX_FLIPS", 499)
        with pytest.raises(FlipError, match="exceed the limit of 499$"):
            flip_orbit(d)

    def test_json_dict(self):
        data = flip_orbit(DIAMETERS).to_json_dict()
        assert {m["word"] for m in data["members"]} == {
            "ABCADEBCED",
            "ABCDEABCDE",
        }
        assert all(set(e) == {"from", "site", "to"} for e in data["edges"])


class TestFlipTargets:
    """``_flip_targets`` flips one site per orbit and gives every site its class."""

    def test_every_class_up_to_seven_chords(self):
        # CI runs the same check up to 8 chords
        classes = (d for n in range(1, 8) for d in enumerate_diagrams(n))
        assert assert_flip_targets_match_reference(classes) == 5941

    def test_rosettes(self):
        # R_k for odd k: 2k sites, all in one orbit of the 4k symmetries
        rosettes = [rosette(k) for k in range(3, 32, 2)]
        assert assert_flip_targets_match_reference(rosettes) == 15

    def test_sums_of_rosettes_and_isolated_chords(self):
        sums = list(symmetric_rosette_sums())
        assert all(flip_sites(d) for d in sums)
        assert assert_flip_targets_match_reference(sums) == 8

    def test_sums_of_isolated_chords(self):
        # no two chords are doubly adjacent, so there is nothing to flip
        for n in range(1, 9):
            d = parse_word("".join(chr(65 + c) * 2 for c in range(n)))
            want = (reference_flip_targets(d, canonical_form), 0)
            assert flips._flip_targets(d, canonical_form) == want == ([], 0)

    def test_one_flip_per_member_of_a_large_rosette(self, monkeypatch):
        calls = count_flips(monkeypatch)
        orbit = flip_orbit(rosette(201))
        assert calls == [2]
        assert len(orbit.members) == 2 and len(orbit.edges) == 404

    def test_flips_over_the_benchmark_words(self, monkeypatch):
        # the analyze workload's 48 words of seed 1: 896 sites in 284 orbits
        monkeypatch.syspath_prepend(str(BENCH))
        from inputs import analyze_words

        calls = count_flips(monkeypatch)
        for word in analyze_words(1):
            flip_orbit(parse_word(word))
        assert calls == [284]


class TestTwoSwitches:
    def test_two_switches_are_flips_up_to_six_chords(self):
        # the flip_sites argument read on the graph: two Hamiltonian cycles
        # of one graph that share all but two edges give classes one flip
        # apart, with one verdict
        pairs = 0
        for n in range(2, 7):
            for word in canonical_words(n):
                g, _ = graph_from_diagram(parse_word(word))
                cycles = []
                for h in hamiltonian_cycles(g):  # each with its multiset of steps
                    vs = h.vertices
                    steps = Counter(frozenset(e) for e in zip(vs, vs[1:] + vs[:1]))
                    cycles.append((h, steps))
                for (h, steps_h), (k, steps_k) in itertools.combinations(cycles, 2):
                    if sum((steps_h - steps_k).values()) != 2:
                        continue
                    pairs += 1
                    d, e = diagram_from_cycle(g, h), diagram_from_cycle(g, k)
                    flipped = {canonical_form(apply_flip(d, s)) for s in flip_sites(d)}
                    assert canonical_form(e) in flipped, (word, h, k)
                    assert is_realizable(d) == is_realizable(e), (word, h, k)
        assert pairs == 1065  # 3, 10, 22, 120 and 910 for n = 2..6


class TestTheoremSweep:
    def test_rejects_tiny_bound(self):
        with pytest.raises(FlipError):
            verify_flip_theorem(1)

    def test_two_chords(self):
        report = verify_flip_theorem(2)
        assert report.max_n == 2
        assert report.diagrams_checked == 3  # AA, AABB, ABAB
        assert report.sites_checked == 4  # the four empty-arc sites of ABAB
        assert report.counterexamples == ()
        assert report.ok()
        assert "no counterexamples" in report.summary()
        assert report.to_json_dict() == {
            "flip_theorem": {
                "max_n": 2,
                "diagrams_checked": 3,
                "sites_checked": 4,
                "counterexamples": [],
            },
            "oracle_agreement": {
                "max_n": 2,
                "diagrams_checked": 3,
                "mismatches": [],
            },
        }

    def test_oracle_mismatch_is_not_ok(self, monkeypatch):
        # a leaf trace that finds AABB's streamed key non-planar contradicts
        # the stream; ABAB fails slot parity, so the sweep never enumerates it
        real = flips._traces_plane
        monkeypatch.setattr(
            flips, "_traces_plane", lambda d, key: d.word() != "AABB" and real(d, key)
        )
        report = verify_flip_theorem(3)
        assert report.oracle_mismatches == ("AABB",)
        assert report.counterexamples == ()
        assert not report.ok()
        assert report.summary().endswith("no counterexamples")

    def test_five_chords(self):
        report = verify_flip_theorem(5)
        assert report.diagrams_checked == 104
        assert report.sites_checked == 144
        assert report.ok()

    def test_workers_match_serial(self):
        # 340 of the 5,941 classes pass slot parity and go to the pool in 3
        # batches of up to 128, which imap must put back in order
        serial = verify_flip_theorem(7)
        parallel = verify_flip_theorem(7, workers=2)
        assert serial.diagrams_checked == 5941
        assert serial == parallel

    def test_workers_keep_sweep_order(self, monkeypatch):
        # one realizable class in each of the 39 batches of 128 fails the
        # leaf trace; fork workers inherit the patch, and without it the
        # list is empty.  The batches pickle to 398 KB in all, more than the
        # pipe to the workers holds, so results come back while batches are
        # still being sent, and imap must keep them in order
        # (imap_unordered failed here in 5 of 5 runs; up to 8 chords, 8
        # batches, it failed in none of 5)
        words = [
            d.word()
            for n in range(1, 10)
            for d, _ in enumerate_diagrams(n, realizable_only=True)
        ]
        assert len(words) == 4881
        chosen = tuple(words[1::128])
        real = flips._traces_plane
        monkeypatch.setattr(
            flips,
            "_traces_plane",
            lambda d, key: real(d, key) != (d.word() in chosen),
        )
        for workers in (1, 2):
            assert verify_flip_theorem(9, workers=workers).oracle_mismatches == chosen

    def test_gadget_and_flips_only_where_needed(self, monkeypatch):
        # up to 6 chords: the 68 realizable classes of the 658 are streamed,
        # each key traced once, and they hold 100 of the 820 sites in 28 site
        # orbits, one flip each; each diagram is built once, as the
        # enumeration yields it or a flip makes it.  The gadget and the
        # decision of a streamed class have left the sweep: only the 28
        # flips are decided
        calls = Counter()

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("gadget_planarity", "is_realizable", "_traces_plane", "apply_flip"):
            counting(flips, name)
        counting(GaussDiagram, "__post_init__")
        report = verify_flip_theorem(6)
        assert report.sites_checked == 820
        assert calls == {
            "_traces_plane": 68,
            "is_realizable": 28,
            "apply_flip": 28,
            "__post_init__": 96,
        }

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counterexamples_match_all_sites_sweep(self, monkeypatch, workers):
        faults = turned_faults()
        real = faults.pop("is_realizable")
        decided = []

        def counted(d):
            decided.append(d)
            return real(d)

        monkeypatch.setattr(flips, "is_realizable", counted)
        monkeypatch.setattr(flips, "_traces_plane", faults["_traces_plane"])
        bad, mismatches = all_sites_sweep(7)
        decided.clear()
        report = verify_flip_theorem(7, workers=workers)
        if workers == 1:  # pool workers decide in their own processes
            # no streamed class is decided: one flip per site orbit of the
            # 240 realizable classes (144 for their 420 sites), and one per
            # site orbit of the TURNED classes as those flips reach them
            # (1 for ABCDEABCDE, reached from one class, and 2 for
            # AABCCBDEFGGDEF, reached from two): each reached class takes
            # its flip's verdict and is not decided again
            assert len(decided) == 144 + 1 + 2 * 2
        assert report.counterexamples == bad
        assert report.oracle_mismatches == mismatches == TURNED
        # the unrealizable ends come only from re-checking reached classes
        assert {c.before for c in bad} == {True, False}
        assert len({c.word for c in bad}) == 5
        assert not report.ok()

    def test_reached_class_queued_once(self, monkeypatch):
        # with the TURNED verdicts up to 7 chords, the realizable classes'
        # flips reach the 2 TURNED classes from 6 sites of 3 classes; a
        # reached class joins its reaching class's queue once, so
        # _flip_targets walks each streamed class once, and each TURNED
        # class once more per class that reaches it
        for name, fault in turned_faults().items():
            monkeypatch.setattr(flips, name, fault)
        walked = Counter()
        real = flips._flip_targets

        def logged(d, read):
            walked[canonical_form(d)] += 1
            return real(d, read)

        monkeypatch.setattr(flips, "_flip_targets", logged)
        report = verify_flip_theorem(7)
        streamed = Counter(
            d.word()
            for n in range(1, 8)
            for d, _ in enumerate_diagrams(n, realizable_only=True)
        )
        assert walked - streamed == Counter({"ABCDEABCDE": 1, "AABCCBDEFGGDEF": 2})
        assert set(streamed) == set(walked)
        reaching = {c.word for c in report.counterexamples if c.before}
        assert reaching == {"ABCADEBCED", "AABCCBDEFDGGEF", "AABCCBDEFFGDEG"}
        assert {c.word for c in report.counterexamples if not c.before} == set(TURNED)

    def test_counterexample_output_matches_all_sites_sweep(self, monkeypatch):
        # `verify` with the TURNED verdicts: exit 3, the summary counts the
        # counterexamples, one line each follows in sweep order, and the
        # JSON lists the same ones
        for name, fault in turned_faults().items():
            monkeypatch.setattr(flips, name, fault)
        bad, mismatches = all_sites_sweep(7)
        sites = sum(
            len(flip_sites(parse_word(w))) for n in range(1, 8) for w in canonical_words(n)
        )
        out, code = verify_output(verify_flip_theorem, "--max-chords", "7")
        assert code == 3
        assert out.splitlines() == [
            f"flip theorem up to 7 chords: 5941 diagram classes, {sites} flips"
            f" checked, {len(bad)} COUNTEREXAMPLES",
            *(
                f"  counterexample {c.word} site ({c.i}, {c.j}): {c.before} -> {c.after}"
                for c in bad
            ),
            "oracle agreement up to 7 chords: 2 DISAGREEMENTS",
            *(f"  oracle mismatch on {w}" for w in mismatches),
        ]
        out, code = verify_output(verify_flip_theorem, "--max-chords", "7", "--json")
        assert code == 3
        data = json.loads(out)
        assert data["flip_theorem"]["sites_checked"] == sites
        assert data["flip_theorem"]["counterexamples"] == [
            {"word": c.word, "site": [c.i, c.j], "before": c.before, "after": c.after}
            for c in bad
        ]
        assert data["oracle_agreement"]["mismatches"] == list(mismatches)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pruned_sweep_matches_all_class_sweep(self, workers):
        # byte for byte through the command; CI goes to 8 chords
        assert assert_sweeps_match(6, workers) == 10

    def test_failing_classes_rejected_by_both_derivations(self):
        # the sweep counts them without a look: both the decision and the
        # parity count must reject every class that fails slot parity
        failing = 0
        for n in range(1, 8):
            for d in enumerate_diagrams(n):
                if not parity_check(d):
                    failing += 1
                    assert not is_realizable(d), d.word()
                    assert not _gauss_parity(d), d.word()
        assert failing == 5941 - 340

    @pytest.fixture
    def pools(self, monkeypatch):
        """Worker counts of the pools started; a recorder stands in for each.

        The pool starts every worker up front, so it is not started here;
        ``_pooled`` imports the pool only when it starts one, and finds
        the recorder.
        """
        started = []

        class RecordingPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        return started

    def test_workers_capped_at_cpu_count(self, monkeypatch, pools):
        # 340 classes up to 7 chords: past one batch, so a pool may start
        serial = verify_flip_theorem(7, workers=1)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert verify_flip_theorem(7, workers=10**6) == serial
        assert pools == [2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker
        assert verify_flip_theorem(7, workers=4) == serial
        assert pools == [2]

    def test_pool_starts_only_past_one_batch(self, monkeypatch, pools):
        # one batch of 128 would go whole to one worker
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert list(flips._pooled(str, range(128), 2)) == list(map(str, range(128)))
        assert pools == []
        assert list(flips._pooled(str, range(129), 2)) == list(map(str, range(129)))
        assert pools == [2]

    def test_check_word_flips(self, monkeypatch):
        sites, bad, agrees = check_word_flips("ABCDEABCDE")
        assert sites == 10
        assert bad == ()
        assert agrees is True
        # fails slot parity: no flip applied, and the gadget agrees
        assert check_word_flips("ABAB") == (4, (), True)
        # a realizable class is checked as the sweep checks it: its decided
        # key goes through the leaf trace, and the flips through the decision
        monkeypatch.setattr(flips, "_traces_plane", lambda d, key: False)
        assert check_word_flips("ABCDEABCDE") == (10, (), False)
        assert check_word_flips("ABAB") == (4, (), True)
        monkeypatch.setattr(flips, "is_realizable", turned(flips.is_realizable))
        sites, bad, _ = check_word_flips("ABCADEBCED")
        assert {(c.word, c.before, c.after) for c in bad} == {
            ("ABCADEBCED", True, False), ("ABCDEABCDE", False, True)
        }
