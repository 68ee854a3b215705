"""Command-line front end.

Subcommands map onto the library one to one: analyze and check read a
diagram (word or pair syntax), graph works on cubic graphs (edge lists,
``mobius:k`` shorthand, or ``-`` for stdin), flips explores the flip move,
enumerate lists diagram classes, and verify sweeps the flip theorem plus
the two-oracle agreement check.  Each command builds one JSON-ready record
and its text (or census CSV) lines from the same values; ``--json`` prints
the record, and otherwise the lines are printed.
Each graph action (hamcycles, census, iso) is a sub-command of its own,
which reads its own number of graphs and takes its output flags after it.
The parser is built once per process, at import; ``main`` looks up
``cmd_<command>`` by name when called, so a handler patched later still runs.

Exit codes: 0 success (and "realizable" for check), 1 unrealizable (check
only), 2 malformed input (or an internal error, labelled as such on
stderr), 3 verification found a counterexample or an oracle disagreement,
141 (128 + SIGPIPE) the reader of stdout closed it early, as ``| head``
does, with nothing on stderr.
Input beyond a command's size limit also exits 2, with an error on stderr.
argparse's ``choices`` bound ``enumerate --chords`` to 1..``ENUMERATE_MAX``
and ``verify --max-chords`` to 2..``VERIFY_MAX``: the usage line lists the
values, and the error for any other value reads ``argument --chords:
invalid choice: 9 (choose from 1, 2, ...)``.  ``analyze`` refuses an
unrealizable diagram of more than ``ANALYZE_MAX_UNREALIZABLE`` chords and
a realizable one of more than ``ANALYZE_MAX_COMPONENTS`` interlacement
components, whose 2^n or 2^k walks would run for seconds to hours;
``check`` decides either in O(n^2).  ``graph`` refuses ``mobius:k`` above
``MOBIUS_MAX``, which bounds building the ladder and ``iso``; ``hamcycles``
and ``census`` on a ladder still grow as about k^3.  ``flips --orbit`` stops an
orbit past ``flips.ORBIT_MAX_FLIPS`` flips: a connected sum of k pentagrams
takes 500 * 5^(k-4).  Those three print an ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain

from .cubic import (
    CubicGraph,
    GraphError,
    are_isomorphic,
    ham_census,
    hamiltonian_cycles,
    moebius_ladder,
    parse_edge_list,
)
from .diagrams import (
    DiagramError,
    GaussDiagram,
    canonical_form,
    class_count,
    enumerate_diagrams,
    interlacement_graph,
    parity_check,
    parse_diagram_input,
)
from .flips import FlipError, apply_flip, flip_orbit, flip_sites, verify_flip_theorem
from .realize import (
    RealizeError,
    _one_per_curve,
    _plane_key,
    _plane_keys,
    curve_code,
    gadget_planarity,
    is_realizable,
    min_genus,
    trace_faces,
)

# `enumerate --chords 8 --json` takes 3.6-4.3 s on a 2-core host with
# orderly generation, against 20-21 s when every pairing was built and
# filtered.  Each chord more multiplies the class count by about 12.
ENUMERATE_MAX = 8
# `verify --max-chords 11 --threads 2` takes 21-22 s on a 2-core host, and
# 22-24 s with one worker: of its 330,149,440 classes only the 156,377
# realizable ones are enumerated, each with a plane key, and checked by
# tracing the key carried to one flip per site orbit.  10 chords take
# 3.5-4.6 s and 3.3-3.9 s, and 9 chords 0.8-0.9 s and 0.7-1.0 s (3 runs
# each, 2 for 11 chords, alternating with runs that decided those flips:
# 23.8-25.7 s and 30.0-37.8 s at 11; the host switches between speed modes
# about 1.8x apart).  12 chords have about 6 times as many realizable
# classes as 11.
VERIFY_MAX = 11
# `analyze --json` finds the least genus of an unrealizable diagram by
# counting the faces of all 2^n rotation systems: ABACBC plus isolated
# chords takes 0.55-0.81 s at 16 chords and 1.1-1.8 s at 17 on a 2-core
# host (0.87-1.14 s and 1.9-2.5 s when each key rebuilt every crossing).
# 17 would still fit the 14-component walk's time, but the limit stays:
# raising it would turn refused input into reports.
ANALYZE_MAX_UNREALIZABLE = 16
# A realizable diagram with k interlacement components has 2^k plane
# embeddings to check for genus 0, and traces and codes one per orbit of
# its symmetries and the mirror.  With the identity as its only symmetry
# that is 2^(k-1) codes: nested chords AABCCBDEFFED... in nests of 1, 2, 3, 4 and 4 chords (k = 14)
# take 2.1-2.4 s, and in nests of 1 to 5 chords (k = 15) 4.2-4.6 s, on the
# same host.  14 isolated chords, with 28 symmetries, take 0.49-0.57 s.
ANALYZE_MAX_COMPONENTS = 14
# `graph iso mobius:k mobius:k --json` takes 0.34-0.41 s and 36 MB at
# k = 10^4 and 2.0-2.4 s and 219 MB at k = 10^5 on a 2-core host; the
# ladder is built before any other check, so a larger k is refused as
# input.  `graph hamcycles mobius:200` takes 1.0-1.1 s there, and grows as
# about k^3.
MOBIUS_MAX = 100_000


def _verdict(realizable: bool) -> str:
    return "realizable" if realizable else "unrealizable"


def _emit(record: dict, lines: Iterable[str], as_json: bool) -> None:
    """Print the record as indented JSON, or the text lines rendered from it."""
    print(json.dumps(record, indent=2) if as_json else "\n".join(lines))


def _load_graph(spec: str) -> CubicGraph:
    if spec.startswith("mobius:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise GraphError(f"bad ladder order in {spec!r}") from exc
        if k > MOBIUS_MAX:
            raise GraphError(
                f"ladder order {k} in {spec!r} exceeds the limit of {MOBIUS_MAX}"
            )
        return moebius_ladder(k)
    # isfile is False, not an error, on a name too long for a file
    if spec == "-" or os.path.isfile(spec):
        try:
            if spec == "-":
                text = sys.stdin.read()
            else:
                with open(spec) as f:
                    text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphError(f"cannot read graph {spec!r}: {exc}") from exc
        return parse_edge_list(text)
    if "," in spec or "\n" in spec:
        return parse_edge_list(spec.replace(",", "\n"))
    raise GraphError(
        f"cannot read graph {spec!r}: not a file, '-', 'mobius:k', or inline edges"
    )


def analysis_record(d: GaussDiagram, raw: str) -> dict:
    """Everything the library can say about one diagram, JSON-ready.

    Key order is fixed and all values are strings, integers, booleans, or
    arrays of those, so dumping the record is byte-for-byte reproducible.
    Input whose 2^n or 2^k walk would exceed the limits above is refused
    with a ``RealizeError`` before the walk starts.
    """
    inter = interlacement_graph(d)
    solved = _plane_key(d)  # None, or a plane key and the components
    if solved is not None and len(solved[1]) > ANALYZE_MAX_COMPONENTS:
        raise RealizeError(
            f"analyze checks all 2^k plane embeddings and traces and codes one per"
            f" symmetry orbit; {len(solved[1])} interlacement components exceed"
            f" the limit of {ANALYZE_MAX_COMPONENTS}"
            " (use 'gaussflip check' for the verdict alone)"
        )
    keys = _plane_keys(d, solved)
    realizable = solved is not None
    if not realizable and d.n > ANALYZE_MAX_UNREALIZABLE:
        raise RealizeError(
            f"analyze traces all 2^n rotation systems of an unrealizable diagram;"
            f" {d.n} chords exceed the limit of {ANALYZE_MAX_UNREALIZABLE}"
            " (use 'gaussflip check' for the verdict alone)"
        )
    genus = 0 if realizable else min_genus(d)
    gadget = gadget_planarity(d)
    curves = {}
    for key in _one_per_curve(d, keys):
        report = trace_faces(d, key)
        curves[curve_code(report)] = report.face_degrees()
    return {
        "input": raw,
        "word": d.word(),
        "chords": d.n,
        "canonical": canonical_form(d),
        "parity": parity_check(d),
        "interlacement": {
            "labels": list(inter.vertices),
            "degrees": list(inter.degrees),
            "edges": [[a, b] for a, b in inter.edges],
        },
        "realizable": realizable,
        "gadget_planar": gadget,
        "oracles_agree": realizable == gadget,
        "min_genus": genus,
        "realizations": len(keys),
        "curves": [
            {
                "code": code,
                "face_degrees": list(degrees),
                "face_count": len(degrees),
            }
            for code, degrees in sorted(curves.items())
        ],
    }


def _analysis_lines(r: dict) -> Iterator[str]:
    inter = r["interlacement"]
    degs = " ".join(f"{a}:{d}" for a, d in zip(inter["labels"], inter["degrees"]))
    agree = "" if r["oracles_agree"] else "  ORACLES DISAGREE"
    gadget = f"(gadget agrees: {r['gadget_planar']}){agree}"
    yield f"word        {r['word']}"
    yield f"chords      {r['chords']}"
    yield f"canonical   {r['canonical']}"
    yield f"parity      {'pass' if r['parity'] else 'fail'}"
    yield f"interlace   {degs}"
    yield f"verdict     {_verdict(r['realizable'])} {gadget}"
    yield f"min genus   {r['min_genus']}"
    yield f"embeddings  {r['realizations']} of {2 ** r['chords']} systems are planar"
    for curve in r["curves"]:
        faces = ",".join(str(x) for x in curve["face_degrees"])
        yield f"curve       faces[{faces}] code {curve['code']}"


def _class_lines(classes: list[dict], footer: str) -> Iterator[str]:
    """One "WORD  verdict" line per diagram class, then the footer."""
    for c in classes:
        yield f"{c['word']}  {_verdict(c['realizable'])}"
    yield footer


def cmd_analyze(args: argparse.Namespace) -> int:
    d = parse_diagram_input(args.diagram)
    if args.dot:
        print(interlacement_graph(d).to_dot(), end="")
        return 0
    record = analysis_record(d, args.diagram)
    _emit(record, _analysis_lines(record), args.json)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    realizable = is_realizable(parse_diagram_input(args.diagram))
    _emit({"realizable": realizable}, [_verdict(realizable)], False)
    return 0 if realizable else 1


def cmd_graph(args: argparse.Namespace) -> int:
    action = args.action
    graphs = [_load_graph(spec) for spec in args.graphs]
    if args.dot:
        print(graphs[0].to_dot(), end="")
        return 0
    # rows are generated only when printed: --json never reads them
    if action == "hamcycles":
        cycles = [list(h.vertices) for h in hamiltonian_cycles(graphs[0])]
        record = {"count": len(cycles), "cycles": cycles}
        rows = (" ".join(map(str, cycle)) for cycle in cycles)
        lines = chain(rows, [f"# cycles={len(cycles)}"])
    elif action == "census":
        census = ham_census(graphs[0])
        record, entries = census.to_json_dict(), census.entries
        if args.csv:
            rows = (f"{e.word},{e.cycles},{str(e.realizable).lower()}" for e in entries)
            lines = chain(["word,cycles,realizable"], rows)
        else:
            rows = (
                f"{e.word}  cycles={e.cycles}  {_verdict(e.realizable)}" for e in entries
            )
            footer = f"# cycles={census.total_cycles} classes={len(entries)}"
            lines = chain(rows, [footer])
    else:
        ok, witness = are_isomorphic(*graphs)
        record = {"isomorphic": ok, "mapping": witness}
        lines = ["isomorphic" if ok else "not isomorphic"]
        if ok:
            lines.append(" ".join(f"{a}->{b}" for a, b in witness.items()))
    _emit(record, lines, args.json)
    return 0


def cmd_flips(args: argparse.Namespace) -> int:
    d = parse_diagram_input(args.diagram)
    if args.orbit:
        orbit = flip_orbit(d)
        record = orbit.to_json_dict()
        members, edges = len(record["members"]), len(record["edges"])
        homogeneous = str(orbit.homogeneous()).lower()
        footer = f"# members={members} edges={edges} homogeneous={homogeneous}"
        lines = _class_lines(record["members"], footer)
    else:
        sites = [
            {"i": s.i, "j": s.j, "p": s.chord_p, "q": s.chord_q,
             "result": apply_flip(d, s).word()}
            for s in flip_sites(d)
        ]
        record = {"word": d.word(), "sites": sites}
        lines = ["i={i} j={j} P={p} Q={q} -> {result}".format(**s) for s in sites]
        lines.append(f"# sites={len(sites)}")
    _emit(record, lines, args.json)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.chords
    if args.realizable_only:  # the tree closes chords by Rosenstiehl's criterion
        stream = enumerate_diagrams(n, realizable_only=True)
        classes = [dict(word=d.word(), realizable=True) for d, _ in stream]
    else:
        stream = enumerate_diagrams(n)
        classes = [dict(word=d.word(), realizable=is_realizable(d)) for d in stream]
    total, realizable = class_count(n), sum(c["realizable"] for c in classes)
    unrealizable = total - realizable
    footer = f"# classes={total} realizable={realizable} unrealizable={unrealizable}"
    _emit({"chords": n, "classes": classes}, _class_lines(classes, footer), args.json)
    return 0


def _verify_lines(r: dict, summary: str) -> Iterator[str]:
    yield summary
    for c in r["flip_theorem"]["counterexamples"]:
        site = tuple(c["site"])
        yield f"  counterexample {c['word']} site {site}: {c['before']} -> {c['after']}"
    oracles = r["oracle_agreement"]
    head = f"oracle agreement up to {oracles['max_n']} chords:"
    if oracles["mismatches"]:
        yield f"{head} {len(oracles['mismatches'])} DISAGREEMENTS"
        yield from (f"  oracle mismatch on {w}" for w in oracles["mismatches"])
    else:
        yield f"{head} all {oracles['diagrams_checked']} diagram classes agree"


def cmd_verify(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise FlipError(f"--threads must be positive, got {args.threads}")
    theorem = verify_flip_theorem(args.max_chords, workers=args.threads)
    record = theorem.to_json_dict()
    _emit(record, _verify_lines(record, theorem.summary()), args.json)
    return 0 if theorem.ok() else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussflip",
        description="Gauss diagrams, their cubic graphs, realizability, flips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report on one diagram")
    p.add_argument("diagram", help="word like ABAB, or pairs like 0-2,1-3")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    out.add_argument("--dot", action="store_true", help="interlacement graph as dot")

    p = sub.add_parser("check", help="realizability verdict via exit code")
    p.add_argument("diagram")

    actions = sub.add_parser("graph", help="cubic graph queries").add_subparsers(
        dest="action", required=True
    )
    # each action: how many graphs it reads, and its output flags besides --json
    for action, count, flags in (
        ("hamcycles", 1, ("dot",)), ("census", 1, ("csv", "dot")), ("iso", 2, ())
    ):
        p = actions.add_parser(action)
        p.add_argument(
            "graphs",
            nargs=count,
            help="edge-list file, '-', 'mobius:k', or inline '0 1,1 2,...'",
        )
        out = p.add_mutually_exclusive_group()
        for flag in ("json", *flags):
            out.add_argument(f"--{flag}", action="store_true")
        p.set_defaults(csv=False, dot=False)

    p = sub.add_parser("flips", help="flip sites or the whole flip orbit")
    p.add_argument("diagram")
    p.add_argument("--orbit", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("enumerate", help="canonical diagram classes")
    p.add_argument(
        "--chords", type=int, required=True, choices=range(1, ENUMERATE_MAX + 1)
    )
    p.add_argument("--realizable-only", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="flip theorem + oracle agreement sweep")
    p.add_argument(
        "--max-chords", type=int, required=True, choices=range(2, VERIFY_MAX + 1)
    )
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")

    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader left, e.g. `| head`; fd 1 goes to the null device so
        # that the interpreter's last flush of stdout stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141
    except (DiagramError, GraphError, FlipError, RealizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input; same documented exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
