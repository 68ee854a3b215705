"""Independent answers the benchmark checks the program's outputs against.

Nothing here imports gaussflip.  Realizability comes from Rosenstiehl's
interlacement criterion on bitsets, not from face tracing or planarity;
class counts come from OEIS A007769; isomorphism from networkx's VF2
matcher, not from colour refinement; Hamiltonian cycles from perfect
matchings whose complement is one cycle, not from path search.

Words are strings of single-letter chord labels, each label twice.
"""

from __future__ import annotations

import json
import string
from collections import Counter

# diagram classes under rotation and reflection, n = 1..7 chords
A007769 = (1, 2, 5, 17, 79, 554, 5283)


def partners(word: str) -> list[int]:
    """For each slot, the other slot of its chord."""
    first: dict[str, int] = {}
    out = [-1] * len(word)
    for s, c in enumerate(word):
        if c in first:
            out[s], out[first[c]] = first[c], s
        else:
            first[c] = s
    if -1 in out:
        raise ValueError(f"{word!r} is not a double occurrence word")
    return out


def interlacement_masks(word: str) -> list[int]:
    """Bit j of mask i is set when chords i and j (first-occurrence ids) cross."""
    ends: dict[str, list[int]] = {}
    for s, c in enumerate(word):
        ends.setdefault(c, []).append(s)
    spans = list(ends.values())
    masks = [0] * len(spans)
    for i, (a, b) in enumerate(spans):
        for j, (c, d) in enumerate(spans):
            if (a < c < b) != (a < d < b):
                masks[i] |= 1 << j
    return masks


def components(masks: list[int]) -> int:
    """Connected components of the interlacement graph."""
    seen = 0
    count = 0
    for v in range(len(masks)):
        if seen >> v & 1:
            continue
        count += 1
        frontier = 1 << v
        while frontier:
            seen |= frontier
            grow = 0
            while frontier:
                low = frontier & -frontier
                grow |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = grow & ~seen
    return count


def rosenstiehl(word: str) -> bool:
    """Realizable iff: every chord crosses evenly many; every non-crossing pair
    shares evenly many crossers; the crossing pairs sharing evenly many form
    a cut of the interlacement graph."""
    masks = interlacement_masks(word)
    n = len(masks)
    if any(m.bit_count() % 2 for m in masks):
        return False
    colour = [-1] * n
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in range(n):
                if v == u:
                    continue
                even = (masks[u] & masks[v]).bit_count() % 2 == 0
                if not masks[u] >> v & 1:
                    if not even:
                        return False
                    continue
                want = colour[u] ^ even
                if colour[v] < 0:
                    colour[v] = want
                    stack.append(v)
                elif colour[v] != want:
                    return False
    return True


def canonical(word: str) -> str:
    """Least first-occurrence relabelling over all rotations and reflections."""
    m = len(word)
    best = None
    for seq in (word, word[::-1]):
        for r in range(m):
            names: dict[str, str] = {}
            text = "".join(
                names.setdefault(c, string.ascii_uppercase[len(names)])
                for c in seq[r:] + seq[:r]
            )
            if best is None or text < best:
                best = text
    return best


def flip_sites(word: str) -> list[tuple[int, int]]:
    """Slots (i, j) of a chord whose neighbours at i+1 and j+1 form a chord."""
    m = len(word)
    p = partners(word)
    return [
        (i, p[i])
        for i in range(m)
        if p[(i + 1) % m] == (p[i] + 1) % m and p[i] != (i + 1) % m
    ]


def flip(word: str, site: tuple[int, int]) -> str:
    """Reverse the arc from slot i+2 to slot j-1."""
    i, j = site
    m = len(word)
    arc = [(i + 2 + t) % m for t in range((j - i - 2) % m)]
    out = list(word)
    for s, t in zip(arc, reversed(arc)):
        out[s] = word[t]
    return "".join(out)


def classes(n: int) -> list[str]:
    """Every n-chord class, by brute force over first-occurrence words."""
    found: set[str] = set()

    def grow(prefix: str, opened: int, open_labels: str) -> None:
        if len(prefix) == 2 * n:
            found.add(canonical(prefix))
            return
        for c in open_labels:
            grow(prefix + c, opened, open_labels.replace(c, ""))
        if opened < n:
            c = string.ascii_uppercase[opened]
            grow(prefix + c, opened + 1, open_labels + c)

    grow("", 0, "")
    return sorted(found)


def graph_edges(spec: str) -> list[tuple[int, int]]:
    """Edge multiset of an inline '0 1,1 2,...' graph or 'mobius:k'."""
    if spec.startswith("mobius:"):
        k = int(spec.split(":", 1)[1])
        return [(i, (i + 1) % (2 * k)) for i in range(2 * k)] + [
            (i, i + k) for i in range(k)
        ]
    return [tuple(int(x) for x in e.split()) for e in spec.split(",")]


def is_isomorphic(e1: list[tuple[int, int]], e2: list[tuple[int, int]]) -> bool:
    import networkx as nx  # deferred: only the graph workload needs it

    return nx.is_isomorphic(nx.MultiGraph(e1), nx.MultiGraph(e2))


def ham_cycles(edges: list[tuple[int, int]]) -> set[tuple[int, ...]]:
    """Hamiltonian cycles (vertex sequences) of a cubic multigraph.

    Each is the complement of a perfect matching that leaves one cycle
    through every vertex.  Sequences start at 0 and go toward the smaller
    neighbour, as the program prints them.
    """
    m = 1 + max(max(e) for e in edges)
    nbrs: list[set[int]] = [set() for _ in range(m)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    matched = [-1] * m
    out: set[tuple[int, ...]] = set()

    def complement_cycle() -> tuple[int, ...] | None:
        rest: list[list[int]] = [[] for _ in range(m)]
        removed: set[tuple[int, int]] = set()
        for u, v in edges:
            key = (min(u, v), max(u, v))
            if matched[u] == v and key not in removed:
                removed.add(key)
                continue
            rest[u].append(v)
            rest[v].append(u)
        path = [0]
        prev, cur = -1, 0
        while True:
            a, b = rest[cur]
            nxt = b if a == prev else a
            if nxt == 0:
                break
            if len(path) == m:
                return None
            prev, cur = cur, nxt
            path.append(cur)
        if len(path) != m:
            return None
        return tuple(path) if path[1] < path[-1] else (0, *reversed(path[1:]))

    def match(u: int) -> None:
        while u < m and matched[u] >= 0:
            u += 1
        if u == m:
            cycle = complement_cycle()
            if cycle is not None:
                out.add(cycle)
            return
        for v in nbrs[u]:
            if matched[v] < 0:
                matched[u], matched[v] = v, u
                match(u + 1)
                matched[u] = matched[v] = -1

    match(0)
    return out


def cycle_word(edges: list[tuple[int, int]], cycle: tuple[int, ...]) -> str:
    """Diagram of (graph, Hamiltonian cycle): the edges off the cycle are chords."""
    m = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    rest = list(edges)
    for i in range(m):
        u, v = cycle[i], cycle[(i + 1) % m]
        rest.remove((u, v) if (u, v) in rest else (v, u))
    word = [""] * m
    for label, (u, v) in zip(string.ascii_uppercase, rest):
        word[pos[u]] = word[pos[v]] = label
    return "".join(word)


class Checker:
    """Compares CLI outputs with the answers above; remembers answers per input.

    ``check`` returns a list of problems, empty when the output is right.
    """

    def __init__(self, graphs: dict[str, list[tuple[int, int]]]) -> None:
        self.graphs = graphs  # graph argument -> its edges
        self.memo: dict[tuple, object] = {}

    def _once(self, key: tuple, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def realizable(self, word: str) -> bool:
        return self._once(("R", word), lambda: rosenstiehl(word))

    def canonical(self, word: str) -> str:
        return self._once(("C", word), lambda: canonical(word))

    def edges(self, spec: str) -> list[tuple[int, int]]:
        return self._once(("E", spec), lambda: self.graphs.get(spec) or graph_edges(spec))

    def cycles(self, spec: str) -> set[tuple[int, ...]]:
        return self._once(("H", spec), lambda: ham_cycles(self.edges(spec)))

    def check(self, argv: list[str], code: int, out: str) -> list[str]:
        cmd = argv[0] if argv[0] != "graph" else argv[1]
        want = 1 if cmd == "check" and not self.realizable(argv[1]) else 0
        if code != want:
            return [f"exit code {code}, expected {want}"]
        if cmd == "check":
            return [] if out == ("realizable\n" if want == 0 else "unrealizable\n") else [f"printed {out!r}"]
        if cmd == "verify":
            return self._verify(int(argv[argv.index("--max-chords") + 1]), out)
        data = json.loads(out)
        return getattr(self, "_" + cmd)(argv, data)

    def _verify(self, max_n: int, out: str) -> list[str]:
        n_classes = sum(A007769[:max_n])
        n_sites = self._once(
            ("sites", max_n),
            lambda: sum(len(flip_sites(w)) for n in range(1, max_n + 1) for w in classes(n)),
        )
        want = (
            f"flip theorem up to {max_n} chords: {n_classes} diagram classes, "
            f"{n_sites} flips checked, no counterexamples\n"
            f"oracle agreement up to {max_n} chords: all {n_classes} diagram classes agree\n"
        )
        return [] if out == want else [f"verify printed {out!r}, expected {want!r}"]

    def _enumerate(self, argv: list[str], data: dict) -> list[str]:
        n = int(argv[argv.index("--chords") + 1])
        rows = data["classes"]
        problems = []
        if len(rows) != A007769[n - 1]:
            problems.append(f"{len(rows)} classes of {n} chords, A007769 says {A007769[n - 1]}")
        if len({r["word"] for r in rows}) != len(rows):
            problems.append("a class is listed twice")
        letters = Counter(string.ascii_uppercase[:n] * 2)
        for r in rows:
            if Counter(r["word"]) != letters or self.canonical(r["word"]) != r["word"]:
                problems.append(f"{r['word']} is not a canonical word")
            if r["realizable"] != self.realizable(r["word"]):
                problems.append(f"{r['word']} realizable={r['realizable']}")
        return problems

    def _analyze(self, argv: list[str], rec: dict) -> list[str]:
        word = argv[1]
        n = len(word) // 2
        masks = interlacement_masks(word)
        ok = self.realizable(word)
        problems = []
        expected = {
            "word": word,
            "chords": n,
            "canonical": self.canonical(word),
            "parity": all(m.bit_count() % 2 == 0 for m in masks),
            "realizable": ok,
            "gadget_planar": ok,
            "oracles_agree": True,
            "realizations": 2 ** components(masks) if ok else 0,
        }
        for key, value in expected.items():
            if rec[key] != value:
                problems.append(f"{word}: {key}={rec[key]!r}, expected {value!r}")
        if rec["interlacement"]["degrees"] != [m.bit_count() for m in masks]:
            problems.append(f"{word}: interlacement degrees")
        if (rec["min_genus"] == 0) != ok:
            problems.append(f"{word}: min_genus={rec['min_genus']} but realizable={ok}")
        if ok != bool(rec["curves"]):
            problems.append(f"{word}: {len(rec['curves'])} curves but realizable={ok}")
        for curve in rec["curves"]:
            degrees = curve["face_degrees"]
            if curve["face_count"] != n + 2 or len(degrees) != n + 2 or sum(degrees) != 4 * n:
                problems.append(f"{word}: curve {curve['code']} faces {degrees}")
        return problems

    def _flips(self, argv: list[str], orbit: dict) -> list[str]:
        members = {m["word"]: m["realizable"] for m in orbit["members"]}
        start = self.canonical(argv[1])
        problems = []
        verdict = self.realizable(start)
        for word, ok in members.items():
            if ok != self.realizable(word) or ok != verdict:
                problems.append(f"orbit of {start}: {word} realizable={ok}")
        listed: dict[str, list[tuple[int, int]]] = {w: [] for w in members}
        reached = {start}
        for e in orbit["edges"]:
            site = tuple(e["site"])
            listed.setdefault(e["from"], []).append(site)
            reached.add(e["to"])
            if self.canonical(flip(e["from"], site)) != e["to"]:
                problems.append(f"flip {e['from']} at {site} gives {e['to']}")
        if reached != set(members):
            problems.append(f"orbit of {start}: members are not the flip closure")
        for word, sites in listed.items():
            if sorted(sites) != flip_sites(word):
                problems.append(f"{word}: sites {sorted(sites)}, expected {flip_sites(word)}")
        return problems

    def _hamcycles(self, argv: list[str], data: dict) -> list[str]:
        edges = self.edges(argv[2])
        cycles = [tuple(c) for c in data["cycles"]]
        if data["count"] != len(cycles) or len(set(cycles)) != len(cycles):
            return [f"{argv[2]}: count {data['count']} of {len(cycles)} listed, distinct?"]
        adjacent = {frozenset(e) for e in edges}
        m = len(edges) * 2 // 3
        for c in cycles:
            if sorted(c) != list(range(m)) or any(
                frozenset((c[i], c[(i + 1) % m])) not in adjacent for i in range(m)
            ):
                return [f"{argv[2]}: {c} is not a Hamiltonian cycle"]
        if set(cycles) != self.cycles(argv[2]):
            return [f"{argv[2]}: {len(cycles)} cycles, expected {len(self.cycles(argv[2]))}"]
        return []

    def _iso(self, argv: list[str], data: dict) -> list[str]:
        g, h = self.edges(argv[2]), self.edges(argv[3])
        want = self._once(("iso", argv[2], argv[3]), lambda: is_isomorphic(g, h))
        if data["isomorphic"] != want:
            return [f"iso {argv[2]} {argv[3]}: {data['isomorphic']}, networkx says {want}"]
        if want:
            f = {int(k): v for k, v in data["mapping"].items()}
            image = sorted(tuple(sorted((f[u], f[v]))) for u, v in g)
            if image != sorted(tuple(sorted(e)) for e in h):
                return [f"iso {argv[2]} {argv[3]}: mapping does not carry edges to edges"]
        return []

    def _census(self, argv: list[str], data: dict) -> list[str]:
        spec = argv[2]
        want = self._once(
            ("census", spec),
            lambda: Counter(
                self.canonical(cycle_word(self.edges(spec), c)) for c in self.cycles(spec)
            ),
        )
        got = Counter({e["word"]: e["cycles"] for e in data["classes"]})
        problems = []
        if got != want or data["total_cycles"] != len(self.cycles(spec)):
            problems.append(f"census {spec}: classes or total_cycles differ")
        for e in data["classes"]:
            if e["realizable"] != self.realizable(e["word"]):
                problems.append(f"census {spec}: {e['word']} realizable={e['realizable']}")
        return problems
