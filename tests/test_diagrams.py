"""Tests for the diagram core: parsing, canonical forms, interlacement."""

from __future__ import annotations

import hashlib
import math
import pickle
import random
import sys
import tracemalloc
from collections import Counter
from collections.abc import Iterable, Sequence

import pytest
from test_cli import symmetric_sum
from test_criterion import rosette

from gaussflip import diagrams
from gaussflip.diagrams import (
    DiagramError,
    EmptyDiagramError,
    GaussDiagram,
    MalformedWordError,
    SlotPartitionError,
    canonical_form,
    canonical_words,
    class_count,
    enumerate_diagrams,
    flip_site_count,
    from_chord_pairs,
    interlacement_graph,
    parity_check,
    parse_chord_pairs,
    parse_diagram_input,
    parse_word,
)
from gaussflip.diagrams import _chord_names, _symmetries
from gaussflip.flips import flip_sites
from gaussflip.realize import is_realizable, trace_faces

# Five-chord companions used across the suite: all three live on the same
# cubic graph (see test_cubic) but only the last two bound plane curves.
WORD_ALL_SPAN3 = "AEBACBDCED"  # every chord skips 2 slots; unrealizable
WORD_DIAMETERS = "ADBECADBEC"  # five diameters; realizable
WORD_MIXED_SPANS = "ACDECABDEB"  # realizable, different curve

# Class counts for n = 1..7 under rotation+reflection (OEIS A007769).
# Confirmed by the brute-force orbit count below up to n = 5 and by the
# Burnside count ``class_count`` up to n = 7.
CLASS_COUNTS = (1, 2, 5, 17, 79, 554, 5283)


def parity_class_count(n: int) -> int:
    """Classes that pass slot parity, by Burnside over the even-odd pairings.

    A passing pairing matches the n even slots with the n odd ones.  Under
    the rotation by r there are d = gcd(r, 2n) orbits of length L = 2n/d.
    For d even each orbit keeps one parity, and a fixed passing pairing
    sends each even orbit onto an odd one, in L ways: (d/2)! L^(d/2).  For
    d odd the orbits alternate parity, and orbit k goes onto orbit k' by a
    shift s only when k + k' + s is odd: L/2 shifts onto another orbit, and
    onto itself (s = L/2) only when L/2 is odd.  A reflection s -> r - s
    with r odd has n orbits {x, r - x} of one even and one odd slot, each
    paired with itself, or with another orbit in the one of its two ways
    that joins opposite parities.  With r even the orbits keep one parity,
    both ways join an even orbit to an odd one, and the two fixed points
    r/2 and r/2 + n, which must pair up, differ in parity only for n odd.
    """

    def fixed(c: int, ways: int, onto_itself: bool) -> int:
        prev, cur = 0, 1  # f(-1), f(0)
        for k in range(1, c + 1):
            prev, cur = cur, onto_itself * cur + (k - 1) * ways * prev
        return cur

    m = 2 * n
    total = 0
    for r in range(m):
        d = math.gcd(r, m)
        length = m // d
        if d % 2 == 0:
            total += math.factorial(d // 2) * length ** (d // 2)
        else:
            total += fixed(d, length // 2, length % 4 == 2)
    total += n * fixed(n, 1, True)  # the n reflections with r odd
    if n % 2 == 1:
        half = (n - 1) // 2
        total += n * math.factorial(half) * 2**half
    count, rest = divmod(total, 2 * m)
    assert rest == 0
    return count


def assert_pruned_stream_matches(max_n: int) -> int:
    """The parity-pruned stream is the filtered stream, pairing for pairing.

    Checks 1..max_n chords in the same order, and returns how many
    classes passed.  CI runs it up to 8 chords.
    """
    passed = 0
    for n in range(1, max_n + 1):
        pruned = [d.pairing for d in enumerate_diagrams(n, parity_only=True)]
        kept = [d.pairing for d in enumerate_diagrams(n) if parity_check(d)]
        assert pruned == kept, n
        passed += len(pruned)
    return passed


def assert_realizable_stream_matches(sizes: Iterable[int]) -> list[int]:
    """The realizable stream is the decided parity stream, pairing for pairing.

    For each chord count in ``sizes``, in the same order; returns the
    realizable class counts.  CI runs it at 9 and 10 chords.
    """
    counts = []
    for n in sizes:
        streamed = [d.pairing for d, _ in enumerate_diagrams(n, realizable_only=True)]
        decided = [
            d.pairing for d in enumerate_diagrams(n, parity_only=True) if is_realizable(d)
        ]
        assert streamed == decided, n
        counts.append(len(streamed))
    return counts


def stream_digest(n: int, parity_only: bool = False) -> tuple[int, str]:
    """How many words the n-chord stream yields, and their sha256.

    The digest is over every ``d.word()`` followed by a newline, in stream
    order.  CI pins the 9-chord stream and the 9- and 10-chord parity
    streams by it.
    """
    digest = hashlib.sha256()
    count = 0
    for d in enumerate_diagrams(n, parity_only=parity_only):
        digest.update(f"{d.word()}\n".encode())
        count += 1
    return count, digest.hexdigest()


def brute_pairings(m: int) -> list[tuple[int, ...]]:
    """Every fixed-point-free involution on 0..m-1, by direct recursion."""
    out: list[tuple[int, ...]] = []

    def rec(assigned: dict[int, int]) -> None:
        free = [s for s in range(m) if s not in assigned]
        if not free:
            p = [0] * m
            for a, b in assigned.items():
                p[a] = b
            out.append(tuple(p))
            return
        a = free[0]
        for b in free[1:]:
            assigned[a] = b
            assigned[b] = a
            rec(assigned)
            del assigned[a], assigned[b]

    rec({})
    return out


def is_canonical_sequence(seq: Sequence[int]) -> bool:
    """True when no rotation/reflection relabels strictly below ``seq``.

    Each of the 4n - 1 other reads is relabelled by a dict, apart from the
    read rule the package uses.
    """
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


def filtered_canonical_words(n: int) -> tuple[str, ...]:
    """Reference stream: every first-occurrence-labeled word, lex ascending,
    kept when ``is_canonical_sequence`` accepts it.

    This is how ``enumerate_diagrams`` worked before it pruned prefixes:
    all (2n-1)!! words are built and filtered.
    """
    m = 2 * n
    names = _chord_names(n)
    seq: list[int] = []
    out: list[str] = []

    def rec(opened: int, open_ids: tuple[int, ...]) -> None:
        t = len(seq)
        if t == m:
            if is_canonical_sequence(seq):
                out.append("".join(names[x] for x in seq))
            return
        for cid in open_ids:
            seq.append(cid)
            rec(opened, tuple(x for x in open_ids if x != cid))
            seq.pop()
        if opened < n and m - t >= len(open_ids) + 2:
            seq.append(opened)
            rec(opened + 1, open_ids + (opened,))
            seq.pop()

    rec(0, ())
    return tuple(out)


def _word_tuple(pairing: tuple[int, ...]) -> tuple[int, ...]:
    ids: dict[int, int] = {}
    seq = []
    for s in range(len(pairing)):
        key = min(s, pairing[s])
        if key not in ids:
            ids[key] = len(ids)
        seq.append(ids[key])
    return tuple(seq)


def orbit_key(pairing: tuple[int, ...]) -> tuple[int, ...]:
    """Least word over the whole dihedral orbit of a pairing."""
    m = len(pairing)
    variants = []
    for k in range(m):
        rot = tuple((pairing[(s + k) % m] - k) % m for s in range(m))
        variants.append(rot)
        refl = tuple(m - 1 - rot[m - 1 - s] for s in range(m))
        variants.append(refl)
    return min(_word_tuple(v) for v in variants)


def orbit_word(pairing: tuple[int, ...]) -> str:
    """``orbit_key`` spelt with the default chord names."""
    n = len(pairing) // 2
    names = _chord_names(n)
    return ("" if n <= 26 else " ").join(names[x] for x in orbit_key(pairing))


def random_diagram(rng: random.Random, n: int) -> GaussDiagram:
    slots = list(range(2 * n))
    rng.shuffle(slots)
    return from_chord_pairs([(slots[2 * i], slots[2 * i + 1]) for i in range(n)])


def oracle_interlaced(p1: tuple[int, int], p2: tuple[int, int]) -> bool:
    """Endpoints alternate around the circle: tag pattern xyxy."""
    tagged = sorted([(p1[0], 1), (p1[1], 1), (p2[0], 2), (p2[1], 2)])
    tags = [t for _, t in tagged]
    return tags[0] == tags[2] and tags[1] == tags[3]


def assert_symmetries_match(cases: Iterable[GaussDiagram]) -> int:
    """``_symmetries`` against the direct test p[g(i)] == g(p[i]).

    Returns how many diagrams were compared; CI runs it on every class up
    to 8 chords.
    """
    compared = 0
    for d in cases:
        p = d.pairing
        m = len(p)
        direct = [
            (start, step)
            for start in range(m)
            for step in (1, -1)
            if all(
                p[(start + step * i) % m] == (start + step * p[i]) % m
                for i in range(m)
            )
        ]
        assert _symmetries(d) == direct, p
        compared += 1
    return compared


def read_pairing(p: Sequence[int], start: int, step: int) -> tuple[int, ...]:
    """The pairing seen by the read that visits slot ``start + step * i`` at i."""
    m = len(p)
    return tuple((p[(start + step * i) % m] - start) * step % m for i in range(m))


def assert_difference_matches_words(
    cases: Iterable[GaussDiagram], base: tuple[int, int] = (0, 1)
) -> Counter[int]:
    """``_difference`` over whole reads against comparing their words.

    For every read (start, step) of each diagram, ``_difference`` given the
    entries of the ``base`` read must return the sign of comparing the
    two reads' first-occurrence words, labelled here by ``_word_tuple``.
    Returns how often each sign came up.
    """
    signs: Counter[int] = Counter()
    for d in cases:
        p, m = d.pairing, 2 * d.n
        ref = read_pairing(p, *base)
        entries = [j if j < i else m for i, j in enumerate(ref)]
        b = _word_tuple(ref)
        for start in range(m):
            for step in (1, -1):
                a = _word_tuple(read_pairing(p, start, step))
                sign = diagrams._difference(entries, p, start, step, 0, m)
                assert sign == (a > b) - (a < b), (d.word(), base, start, step)
                signs[sign] += 1
    return signs


class TestParsing:
    def test_word_pairing(self):
        d = parse_word("ABAB")
        assert d.n == 2
        assert d.pairing == (2, 3, 0, 1)
        assert d.labels == ("A", "B")
        assert d.word() == "ABAB"

    def test_multichar_tokens_roundtrip(self):
        d = parse_word("X1 Y X1 Y")
        assert d.n == 2
        assert d.labels == ("X1", "Y")
        assert d.word() == "X1 Y X1 Y"
        assert parse_word(d.word()) == d

    def test_empty_word(self):
        with pytest.raises(EmptyDiagramError):
            parse_word("")
        with pytest.raises(EmptyDiagramError):
            parse_word("   ")

    def test_odd_occurrence_names_token(self):
        with pytest.raises(MalformedWordError, match="'B'"):
            parse_word("ABA")
        with pytest.raises(MalformedWordError, match="'A'"):
            parse_word("AAAA")

    def test_pairs_equal_word(self):
        d = from_chord_pairs([(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])
        assert d == parse_word(WORD_DIAMETERS)
        d2 = from_chord_pairs([(0, 5), (1, 4), (2, 7), (3, 8), (6, 9)])
        assert d2 == parse_word(WORD_MIXED_SPANS)

    def test_pair_errors(self):
        with pytest.raises(EmptyDiagramError):
            from_chord_pairs([])
        with pytest.raises(SlotPartitionError, match="slot 1"):
            from_chord_pairs([(0, 1), (1, 2)])
        with pytest.raises(SlotPartitionError):
            from_chord_pairs([(0, 9), (1, 2)])
        with pytest.raises(SlotPartitionError):
            from_chord_pairs([(3, 3), (0, 1)])
        with pytest.raises(SlotPartitionError, match=r"\(0, 1, 2\) does not have 2"):
            from_chord_pairs([(0, 1, 2), (3, 4)])

    def test_pair_text_syntax(self):
        d = parse_chord_pairs("0-5, 1-6, 2-7, 3-8, 4-9")
        assert d == parse_word(WORD_DIAMETERS)
        with pytest.raises(SlotPartitionError):
            parse_chord_pairs("0-5-1")
        with pytest.raises(EmptyDiagramError):
            parse_chord_pairs(" , ")
        with pytest.raises(SlotPartitionError, match="'0-x'"):
            parse_chord_pairs("1-2, 0-x")

    def test_autodetect(self):
        assert parse_diagram_input("ABAB") == parse_word("ABAB")
        assert parse_diagram_input("0-2,1-3") == parse_word("ABAB")

    def test_chord_slots_follow_chord_ids(self):
        rng = random.Random(20261018)
        for _ in range(300):
            d = random_diagram(rng, rng.randint(1, 14))
            want = [
                tuple(s for s, c in enumerate(d.chord_of) if c == cid)
                for cid in range(d.n)
            ]
            assert list(d.chord_slots) == want

    def test_labels_do_not_affect_equality(self):
        assert parse_word("ABAB") == parse_word("XYXY")
        assert hash(parse_word("ABAB")) == hash(parse_word("XYXY"))

    def test_chord_count_comes_from_the_pairing(self):
        d = GaussDiagram((2, 3, 0, 1))
        assert d.n == 2
        assert d.labels == ("A", "B")
        assert d == parse_word("ABAB")
        assert GaussDiagram((2, 3, 0, 1), ("X", "Y")).word() == "XYXY"

    @pytest.mark.parametrize(
        "pairing",
        [
            (),  # no slots
            (0,),  # one slot
            (1, 0, 2),  # odd length: slot 2 can only pair with itself
            (1, 2, 1),  # odd length: not an involution
            (1, 0, 0),  # odd length: two slots claim slot 0
            (3, 4, 5, 0, 1),  # odd length, out of range
            (1, 0, 3),  # out of range
            (1, 0, -1, 2),  # negative slot
        ],
    )
    def test_malformed_pairings_raise_diagram_errors(self, pairing):
        with pytest.raises(DiagramError):
            GaussDiagram(pairing)

    def test_pickle_round_trip(self, monkeypatch):
        # verify's pool ships diagrams to its workers as pickles
        fresh = parse_word("XAYBXCBAYC")
        cached = parse_word("ACDECABDEB")
        cached.interlacement_masks  # fills chord_of and chord_slots too
        for d in (fresh, cached):
            blob = pickle.dumps(d)
            with monkeypatch.context() as m:
                # loading fills the fields without validating them again
                m.setattr(GaussDiagram, "__post_init__", None)
                back = pickle.loads(blob)
            assert back == d
            assert (back.pairing, back.labels, back.n) == (d.pairing, d.labels, d.n)
            twin = GaussDiagram(d.pairing, d.labels)
            assert back.chord_slots == twin.chord_slots
            assert back.interlacement_masks == twin.interlacement_masks

    def test_lists_are_stored_as_tuples(self):
        d = GaussDiagram([1, 0, 3, 2], ["X", "Y"])
        assert (d.pairing, d.labels) == ((1, 0, 3, 2), ("X", "Y"))
        assert d == GaussDiagram((1, 0, 3, 2))
        assert hash(d) == hash(GaussDiagram((1, 0, 3, 2)))

    def test_labels_that_cannot_spell_back_raise(self):
        # spelt, these would read "x y x y" (2 chords) and " B  B" (BB)
        for tokens in (["x y", "x y"], ["", "B", "", "B"], ["A", "B\t", "A", "B\t"]):
            with pytest.raises(DiagramError, match="whitespace"):
                GaussDiagram.from_tokens(tokens)

    def test_label_count_and_distinctness(self):
        with pytest.raises(DiagramError, match="1 labels for 2 chords"):
            GaussDiagram((2, 3, 0, 1), ("A",))
        with pytest.raises(DiagramError, match="distinct"):
            GaussDiagram((2, 3, 0, 1), ("A", "A"))


class TestSymmetries:
    def test_canonical_examples(self):
        assert isinstance(canonical_form(parse_word("BAAB")), str)
        assert canonical_form(parse_word("BAAB")) == "AABB"
        assert canonical_form(parse_word("ABAB")) == "ABAB"
        assert canonical_form(parse_word(WORD_DIAMETERS)) == "ABCDEABCDE"
        assert (
            canonical_form(parse_word(WORD_DIAMETERS))
            != canonical_form(parse_word(WORD_ALL_SPAN3))
        )

    def test_canonical_invariance_exhaustive(self):
        # every symmetry of every class representative, n <= 5
        for n in range(1, 6):
            for word in canonical_words(n):
                want = canonical_form(parse_word(word))
                for k in range(2 * n):
                    rotated = word[k:] + word[:k]
                    assert canonical_form(parse_word(rotated)) == want
                    assert canonical_form(parse_word(rotated[::-1])) == want

    def test_canonical_random_words_land_in_stream(self):
        rng = random.Random(20260822)
        members = {n: set(canonical_words(n)) for n in range(1, 7)}
        for _ in range(1200):
            n = rng.randint(1, 6)
            d = random_diagram(rng, n)
            assert canonical_form(d) in members[n]

    def test_canonical_form_matches_orbit_oracle(self):
        cases = [
            GaussDiagram(p) for n in range(1, 6) for p in brute_pairings(2 * n)
        ]
        rng = random.Random(20261018)
        cases += [random_diagram(rng, rng.randint(6, 14)) for _ in range(300)]
        tokens = [f"c{i}" for i in range(27)]
        cases.append(parse_word(" ".join(tokens * 2)))
        # symmetric input: every read of a rosette ties, and many of a sum do
        cases += [rosette(k) for k in range(3, 102, 2)]
        cases += [parse_word(symmetric_sum(rng)) for _ in range(300)]
        for d in cases:
            assert canonical_form(d) == orbit_word(d.pairing), d.word()

    def test_symmetry_reads_match_the_pairing_test(self):
        # a read is a symmetry exactly when its circle map keeps the pairing
        every = (GaussDiagram(p) for n in range(1, 7) for p in brute_pairings(2 * n))
        assert assert_symmetries_match(every) == 11464
        # random words rarely have a symmetry; rotated connected sums of
        # stars, isolated chords and the fixtures often do
        rng = random.Random(20261019)
        words = [random_diagram(rng, rng.randint(7, 30)) for _ in range(300)]
        sums = [parse_word(symmetric_sum(rng)) for _ in range(300)]
        assert assert_symmetries_match(words + sums) == 600
        assert sum(len(_symmetries(d)) > 1 for d in sums) == 187
        for k in (501, 1001):
            # R_k = 1 2 ... k 1 2 ... k: every read is a symmetry
            m = 2 * k
            rosette = GaussDiagram(tuple((s + k) % m for s in range(m)))
            assert len(_symmetries(rosette)) == 4 * k

    def test_difference_orders_reads_as_their_words(self):
        # entries (where each slot's partner was read, or 2n) order reads
        # as their words do, against the identity read and another one
        classes = [parse_word(w) for n in range(1, 7) for w in canonical_words(n)]
        rng = random.Random(20261020)
        words = [random_diagram(rng, rng.randint(8, 20)) for _ in range(60)]
        # a canonical word is its least read, so no read is below it
        assert assert_difference_matches_words(classes) == {0: 1232, 1: 13996}
        signs = assert_difference_matches_words(classes, (1, -1))
        assert sum(signs.values()) == 15228 and len(signs) == 3
        for base in ((0, 1), (1, -1)):
            signs = assert_difference_matches_words(words, base)
            assert signs[-1] and signs[1]

    def test_labels_above_26_chords_carry_a_suffix(self):
        tokens = [f"c{i}" for i in range(27)]
        form = canonical_form(parse_word(" ".join(tokens * 2)))
        names = form.split()
        assert names[:2] == ["A0", "B0"] and names[26] == "A1"
        assert canonical_form(parse_word(form)) == form

    def test_canonical_idempotent(self):
        for n in range(1, 6):
            for word in canonical_words(n):
                assert canonical_form(parse_word(word)) == word


class TestInterlacement:
    def test_five_cycle(self):
        g = interlacement_graph(parse_word(WORD_ALL_SPAN3))
        assert g.degrees == (2, 2, 2, 2, 2)
        # a 2-regular graph on 5 vertices is a 5-cycle iff connected
        seen = {"A"}
        grown = True
        while grown:
            grown = False
            for a, b in g.edges:
                if (a in seen) != (b in seen):
                    seen |= {a, b}
                    grown = True
        assert seen == set(g.vertices)

    def test_complete_on_diameters(self):
        g = interlacement_graph(parse_word(WORD_DIAMETERS))
        assert g.degrees == (4, 4, 4, 4, 4)
        assert len(g.edges) == 10

    def test_nested_and_disjoint_are_not_edges(self):
        g = interlacement_graph(parse_word("ABBA"))
        assert g.degrees == (0, 0)
        assert g.edges == ()
        g = interlacement_graph(parse_word("AABB"))
        assert g.degrees == (0, 0)
        assert g.edges == ()

    def test_against_alternation_oracle(self):
        for n in range(1, 5):
            for p in brute_pairings(2 * n):
                d = GaussDiagram(p)
                g = interlacement_graph(d)
                want_edges = []
                for i in range(n):
                    for j in range(i + 1, n):
                        want = oracle_interlaced(d.chord_slots[i], d.chord_slots[j])
                        if want:
                            want_edges.append((d.labels[i], d.labels[j]))
                        # the criterion also reads the rows below the diagonal
                        assert d.interlacement_masks[j] >> i & 1 == want
                assert g.edges == tuple(want_edges)
                # degrees come from the rows' popcounts, edges from above the diagonal
                assert g.degrees == tuple(
                    sum(v in e for e in want_edges) for v in d.labels
                )

    def test_rows_need_no_prefix_list(self):
        # R_4001: 4,001 rows of about 500 bytes; the build holds little more
        k = 4001
        d = GaussDiagram(tuple((s + k) % (2 * k) for s in range(2 * k)))
        d.chord_of  # built before tracing, so only the rows are measured
        tracemalloc.start()
        try:
            rows = d.interlacement_masks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == tuple(((1 << k) - 1) ^ (1 << i) for i in range(k))
        assert peak <= 1.2 * (sys.getsizeof(rows) + sum(map(sys.getsizeof, rows)))

    def test_dot_output(self):
        dot = interlacement_graph(parse_word("ABAB")).to_dot()
        assert dot.startswith("graph interlacement {")
        assert '"A" -- "B";' in dot


class TestParity:
    def test_fixture_values(self):
        assert parity_check(parse_word(WORD_ALL_SPAN3))
        assert parity_check(parse_word(WORD_DIAMETERS))
        assert parity_check(parse_word(WORD_MIXED_SPANS))
        assert not parity_check(parse_word("ABAB"))
        assert parity_check(parse_word("AABB"))

    def test_matches_even_interlacement_degrees(self):
        for n in range(1, 7):
            for word in canonical_words(n):
                d = parse_word(word)
                g = interlacement_graph(d)
                even = all(deg % 2 == 0 for deg in g.degrees)
                assert parity_check(d) == even


class TestEnumeration:
    def test_class_counts(self):
        got = tuple(len(canonical_words(n)) for n in range(1, 8))
        assert got == CLASS_COUNTS
        assert got == tuple(class_count(n) for n in range(1, 8))

    def test_burnside_counts(self):
        # the enumerator has reached all but the last; CI checks 65,346 and
        # 966,156, and the last is OEIS A007769's
        got = tuple(class_count(n) for n in range(1, 11))
        assert got == CLASS_COUNTS + (65346, 966156, 16411700)

    def test_parity_pruned_stream_is_the_filtered_stream(self):
        # CI goes to 8 chords
        assert assert_pruned_stream_matches(7) == 340

    def test_realizable_stream_is_the_decided_stream(self):
        # CI goes to 10 chords
        assert assert_realizable_stream_matches(range(1, 9)) == [
            1, 1, 3, 5, 15, 43, 172, 750
        ]

    def test_realizable_stream_keys_trace_plane(self):
        # each leaf's cut colouring, read as a key, traces to n + 2 faces
        traced = 0
        for n in range(1, 9):
            for d, key in enumerate_diagrams(n, realizable_only=True):
                assert trace_faces(d, key).genus == 0, (d.word(), key)
                traced += 1
        assert traced == 990

    def test_parity_pruned_counts(self):
        got = tuple(
            sum(1 for _ in enumerate_diagrams(n, parity_only=True)) for n in range(1, 9)
        )
        assert got == (1, 1, 3, 5, 17, 53, 260, 1466)
        assert got == tuple(parity_class_count(n) for n in range(1, 9))

    def test_flip_site_count(self):
        for n in range(1, 8):
            sites = sum(len(flip_sites(d)) for d in enumerate_diagrams(n))
            assert flip_site_count(n) == sites, n
        # beyond: the sums the 8-, 9- and 10-chord sweeps report
        assert [flip_site_count(n) for n in (8, 9, 10)] == [71022, 1028992, 17305914]

    def test_matches_filtered_reference(self):
        # same classes in the same order as filtering every pairing
        for n in range(1, 7):
            assert canonical_words(n) == filtered_canonical_words(n)

    def test_matches_orbit_oracle(self):
        for n in range(1, 6):
            keys = {orbit_key(p) for p in brute_pairings(2 * n)}
            stream = canonical_words(n)
            assert len(stream) == len(keys)
            got = {tuple(_word_tuple(parse_word(w).pairing)) for w in stream}
            assert got == keys

    def test_prefix_pruning_spares_the_exact_test(self, monkeypatch):
        # 975 of the 10,395 six-chord words are complete when the prefix
        # checks let them through, and the leaf finishes 4,053 reads over
        # them: only those still tied, about 4 of each word's 23 other
        # reads.  A prefix check ends its read before the last slot; a leaf
        # read starts past index 0 and runs to it.
        leaves: set[tuple[int, ...]] = set()
        reads = []
        difference = diagrams._difference

        def counted(seq, partner, start, step, lo, hi):
            if lo > 0 and hi == len(partner):
                leaves.add(tuple(seq))
                reads.append((start, step))
            return difference(seq, partner, start, step, lo, hi)

        monkeypatch.setattr(diagrams, "_difference", counted)
        assert len(canonical_words(6)) == 554
        assert len(leaves) == 975
        assert len(reads) == 4053

    def test_stream_digests(self):
        # every word of the 7-chord stream and of the 8-chord parity stream,
        # in order; CI pins 9 chords and the parity streams at 9 and 10
        assert stream_digest(7) == (
            5283, "7992a753518b877aa0047656bc012a74f2bb24abcfd5bdab71b3b7a996f2a242"
        )
        assert stream_digest(8, parity_only=True) == (
            1466, "72b2c5d9fbf3c82d15569d5db859b4926ffdfc281184d7c6255e0e2565fc4181"
        )

    def test_stream_sorted_distinct_canonical(self):
        for n in range(1, 7):
            words = canonical_words(n)
            assert list(words) == sorted(set(words))
            sample = words[:: max(1, len(words) // 20)]
            for w in sample:
                assert canonical_form(parse_word(w)) == w

    def test_small_streams_exact(self):
        assert canonical_words(1) == ("AA",)
        assert canonical_words(2) == ("AABB", "ABAB")
        assert canonical_words(3) == (
            "AABBCC",
            "AABCBC",
            "AABCCB",
            "ABACBC",
            "ABCABC",
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(DiagramError):
            next(enumerate_diagrams(0))
        with pytest.raises(DiagramError):
            next(enumerate_diagrams(-1))
        for count in (class_count, flip_site_count):
            with pytest.raises(DiagramError):
                count(0)
