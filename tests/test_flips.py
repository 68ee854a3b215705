"""Tests for the flip move: sites, application, orbits, theorem sweep."""

from __future__ import annotations

import pytest

from gaussflip.cubic import are_isomorphic, graph_from_diagram
from gaussflip.diagrams import canonical_form, canonical_words, parse_word
from gaussflip.flips import (
    FlipError,
    FlipSite,
    StaleSiteError,
    apply_flip,
    check_word_flips,
    flip_orbit,
    flip_sites,
    verify_flip_theorem,
)

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
        for n in range(2, 7):
            for word in canonical_words(n):
                d = parse_word(word)
                for site in flip_sites(d):
                    got = apply_flip(d, site)
                    want = slot_permutation_flip(d, site)
                    assert (got.pairing, got.labels) == want, (word, site)

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

    def test_every_unlisted_site_is_stale(self):
        for word in ("AABB", "ABAB", "ADBECADBEC"):
            d = parse_word(word)
            listed = {(s.i, s.j) for s in flip_sites(d)}
            for i in range(2 * d.n):
                for j in range(2 * d.n):
                    if (i, j) not in listed:
                        with pytest.raises(StaleSiteError):
                            apply_flip(d, FlipSite(i, j, "A", "B"))


class TestOrbits:
    def test_diameters_orbit(self):
        orbit = flip_orbit(DIAMETERS)
        assert orbit.members == (
            ("ABCADEBCED", True),
            ("ABCDEABCDE", True),
        )
        assert orbit.homogeneous()
        words = set(orbit.words())
        for src, _, dst in orbit.edges:
            assert src in words and dst in words
        assert orbit.edges  # the two classes are actually linked

    def test_span3_orbit_stays_unrealizable(self):
        orbit = flip_orbit(SPAN3)
        assert orbit.verdicts() == {"ABCADCEDBE": False}
        assert orbit.homogeneous()

    def test_singleton_orbit(self):
        orbit = flip_orbit(parse_word("AABB"))
        assert orbit.members == (("AABB", True),)
        assert orbit.edges == ()

    def test_orbits_homogeneous_small(self):
        for n in range(2, 5):
            for word in canonical_words(n):
                assert flip_orbit(parse_word(word)).homogeneous(), word

    def test_json_dict(self):
        data = flip_orbit(DIAMETERS).to_json_dict()
        assert {m["word"] for m in data["members"]} == {
            "ABCADEBCED",
            "ABCDEABCDE",
        }
        assert all(set(e) == {"from", "site", "to"} for e in data["edges"])


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
            "max_n": 2,
            "diagrams_checked": 3,
            "sites_checked": 4,
            "counterexamples": [],
        }

    def test_five_chords(self):
        report = verify_flip_theorem(5)
        assert report.diagrams_checked == 104
        assert report.sites_checked == 144
        assert report.ok()

    def test_workers_match_serial(self):
        serial = verify_flip_theorem(3)
        parallel = verify_flip_theorem(3, workers=2)
        assert serial == parallel

    def test_check_word_flips(self):
        sites, bad, agrees = check_word_flips("ABCDEABCDE")
        assert sites == 10
        assert bad == ()
        assert agrees is True
