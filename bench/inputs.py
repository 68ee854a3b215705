"""Seeded inputs for the three workloads.

The program under test receives only what these functions return: words
for ``analyze``, inline edge lists (or ``mobius:k``) for ``graph``.  The
families and their sizes are fixed; the seed picks labels,
vertex numberings and random words, so every seed asks for about the
same amount of work.
"""

from __future__ import annotations

import random
import string

from checker import flip, flip_sites

LETTERS = string.ascii_uppercase

# the paper's three five-chord fixtures: unrealizable, pentagram, mixed
FIXTURES = ("AEBACBDCED", "ADBECADBEC", "ACDECABDEB")


def isolated(k: int) -> str:
    """k chords, none crossing another: AABBCC..."""
    return "".join(c * 2 for c in LETTERS[:k])


def star(k: int) -> str:
    """w·w with w = ABC..; every chord crosses every other (odd k: realizable)."""
    return LETTERS[:k] * 2


def random_word(rng: random.Random, k: int) -> str:
    slots = list(LETTERS[:k] * 2)
    rng.shuffle(slots)
    return "".join(slots)


def connected_sum(parts: list[str]) -> str:
    """Concatenate words after giving each part its own labels."""
    out = []
    used = 0
    for part in parts:
        names: dict[str, str] = {}
        for c in part:
            if c not in names:
                names[c] = LETTERS[used + len(names)]
            out.append(names[c])
        used += len(names)
    return "".join(out)


def relabel(rng: random.Random, word: str) -> str:
    """The same diagram under random letters.

    Rotating or reflecting the word would renumber the chords, which moves
    where the 2^n searches stop early; relabelling keeps every seed's work
    the same.
    """
    labels = sorted(set(word))
    names = dict(zip(labels, rng.sample(LETTERS, len(labels))))
    return "".join(names[c] for c in word)


def analyze_words(seed: int) -> list[str]:
    """48 words: the fixtures, isolated chords, odd stars, connected sums of
    realizable words, one flip of each of those, and random words.

    Random words of 8+ chords are almost never realizable, so realizable
    words of that size are built.  Built words take their first flip, so
    that every seed asks for the same realizations (a flip can merge
    interlacement components, halving the curves to code).
    """
    rng = random.Random(seed)
    unrealizable, pentagram, mixed = FIXTURES
    sums = [
        [star(5), star(3)],
        [mixed, star(3)],
        [pentagram, star(5)],
        [star(3), star(3), star(3)],
        [star(7), isolated(2)],
        [star(9), isolated(1)],
        [pentagram, mixed],
        [star(5), isolated(4)],
        [star(3), star(7)],
        [star(3), star(5), isolated(2)],
        [isolated(3), star(3), star(5)],
    ]
    built = [pentagram, mixed] + [star(k) for k in (3, 5, 7, 9, 11)]
    built += [connected_sum(parts) for parts in sums]
    flipped = [flip(w, flip_sites(w)[0]) for w in built]
    # 9 and 10 chords: every command on a random word then costs more than
    # the median command, so the seed cannot move which command is the median
    randoms = [random_word(rng, k) for k in (9, 9, 9, 10, 10, 10)]
    words = [unrealizable] + [isolated(k) for k in range(6, 11)]
    return [relabel(rng, w) for w in words + built + flipped + randoms]


def diagram_edges(word: str) -> list[tuple[int, int]]:
    """Cubic graph of a diagram: the circle of slots plus one edge per chord."""
    m = len(word)
    first: dict[str, int] = {}
    chords = []
    for s, c in enumerate(word):
        if c in first:
            chords.append((first[c], s))
        else:
            first[c] = s
    return [(s, (s + 1) % m) for s in range(m)] + chords


def prism_edges(k: int) -> list[tuple[int, int]]:
    """C_k x K_2: two k-cycles joined by k rungs."""
    return (
        [(i, (i + 1) % k) for i in range(k)]
        + [(k + i, k + (i + 1) % k) for i in range(k)]
        + [(i, k + i) for i in range(k)]
    )


def renumber(rng: random.Random, edges: list[tuple[int, int]]) -> str:
    """Inline edge list under a random vertex numbering and edge order."""
    m = 1 + max(max(e) for e in edges)
    perm = list(range(m))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return ",".join(f"{u} {v}" for u, v in out)


def graph_cases(seed: int) -> list[tuple[str, str]]:
    """48 (G, H) pairs for ``hamcycles G``, ``iso G H`` and ``census G``.

    - graphs of random 8..14-chord diagrams, three per size: against a
      renumbered copy, against another diagram's graph, and against the
      graph of one of its flips (a flip keeps the graph);
    - graphs of the 15..17-chord star diagrams (renumbered Moebius ladders
      of 30..34 vertices) against a renumbered copy;
    - ``mobius:5`` .. ``mobius:16`` against the prism of the same order,
      a negative pair that colour refinement cannot split;
    - prisms of order 5..16 against a renumbered copy.

    Random diagrams stop at 14 chords: Hamiltonian-cycle search on one
    random 18-chord diagram graph takes from 0.27 s to 1.7 s depending on
    the diagram, so seeds would not be comparable.  Ladders and prisms are
    vertex-transitive, so their search cost ignores the numbering.  Star
    diagrams stop at 17 chords: the 36-vertex ladder alone took a quarter
    of a round, and shorter rounds give each command more chances to run
    while the host is fast.
    """
    rng = random.Random(seed)
    cases = []
    for k in range(8, 15):
        same = diagram_edges(random_word(rng, k))
        cases.append((renumber(rng, same), renumber(rng, same)))
        g, h = (diagram_edges(random_word(rng, k)) for _ in range(2))
        cases.append((renumber(rng, g), renumber(rng, h)))
        while not (sites := flip_sites(word := random_word(rng, k))):
            pass
        flipped = flip(word, rng.choice(sites))
        cases.append((renumber(rng, diagram_edges(word)), renumber(rng, diagram_edges(flipped))))
    for k in range(15, 18):
        g = diagram_edges(star(k))
        cases.append((renumber(rng, g), renumber(rng, g)))
    for k in range(5, 17):
        cases.append((f"mobius:{k}", renumber(rng, prism_edges(k))))
    for k in range(5, 17):
        prism = prism_edges(k)
        cases.append((renumber(rng, prism), renumber(rng, prism)))
    return cases
