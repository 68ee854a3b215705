"""Command-line front end.

Subcommands map onto the library one to one: analyze and check read a
diagram (word or pair syntax), graph works on cubic graphs (edge lists,
``mobius:k`` shorthand, or ``-`` for stdin), flips explores the flip move,
enumerate lists diagram classes, and verify sweeps the flip theorem plus
the two-oracle agreement check.

Exit codes: 0 success (and "realizable" for check), 1 unrealizable (check
only), 2 malformed input (or an internal error, labelled as such on
stderr), 3 verification found a counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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
    enumerate_diagrams,
    interlacement_graph,
    parity_check,
    parse_diagram_input,
)
from .flips import FlipError, apply_flip, flip_orbit, flip_sites, verify_flip_theorem
from .realize import (
    RealizeError,
    curve_code,
    gadget_planarity,
    is_realizable,
    min_genus,
    realize_all,
)

ENUMERATE_MAX = 8
VERIFY_MAX = 6


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2))


def _load_graph(spec: str) -> CubicGraph:
    if spec.startswith("mobius:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise GraphError(f"bad ladder order in {spec!r}") from exc
        return moebius_ladder(k)
    if spec == "-":
        return parse_edge_list(sys.stdin.read())
    path = Path(spec)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. an inline edge list too long to be a file name
        is_file = False
    if is_file:
        return parse_edge_list(path.read_text())
    if "," in spec or "\n" in spec:
        return parse_edge_list(spec.replace(",", "\n"))
    raise GraphError(
        f"cannot read graph {spec!r}: not a file, '-', 'mobius:k', or inline edges"
    )


def analysis_record(d: GaussDiagram, raw: str) -> dict:
    """Everything the library can say about one diagram, JSON-ready.

    Key order is fixed and all values are strings, integers, booleans, or
    arrays of those, so dumping the record is byte-for-byte reproducible.
    """
    inter = interlacement_graph(d)
    genus = min_genus(d)
    realizable = genus == 0
    reports = realize_all(d) if realizable else []
    gadget = gadget_planarity(d)
    curves: dict[str, tuple[int, ...]] = {}
    for report in reports:
        curves.setdefault(curve_code(report).text, report.face_degrees())
    return {
        "input": raw,
        "word": d.word(),
        "chords": d.n,
        "canonical": canonical_form(d).text,
        "parity": parity_check(d),
        "interlacement": {
            "labels": list(inter.vertices),
            "degrees": list(inter.degrees()),
            "edges": [[a, b] for a, b in inter.edges],
        },
        "realizable": realizable,
        "gadget_planar": gadget,
        "oracles_agree": realizable == gadget,
        "min_genus": genus,
        "realizations": len(reports),
        "curves": [
            {
                "code": code,
                "face_degrees": list(degrees),
                "face_count": len(degrees),
            }
            for code, degrees in sorted(curves.items())
        ],
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    d = parse_diagram_input(args.diagram)
    if args.dot:
        print(interlacement_graph(d).to_dot(), end="")
        return 0
    record = analysis_record(d, args.diagram)
    if args.json:
        _emit_json(record)
        return 0
    print(f"word        {record['word']}")
    print(f"chords      {record['chords']}")
    print(f"canonical   {record['canonical']}")
    print(f"parity      {'pass' if record['parity'] else 'fail'}")
    degs = " ".join(
        f"{lab}:{deg}"
        for lab, deg in zip(
            record["interlacement"]["labels"], record["interlacement"]["degrees"]
        )
    )
    print(f"interlace   {degs}")
    verdict = "realizable" if record["realizable"] else "unrealizable"
    agree = "" if record["oracles_agree"] else "  ORACLES DISAGREE"
    print(f"verdict     {verdict} (gadget agrees: {record['gadget_planar']}){agree}")
    print(f"min genus   {record['min_genus']}")
    print(f"embeddings  {record['realizations']} of {2 ** d.n} systems are planar")
    for curve in record["curves"]:
        faces = ",".join(str(x) for x in curve["face_degrees"])
        print(f"curve       faces[{faces}] code {curve['code']}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    d = parse_diagram_input(args.diagram)
    if is_realizable(d):
        print("realizable")
        return 0
    print("unrealizable")
    return 1


def cmd_graph(args: argparse.Namespace) -> int:
    want = 2 if args.action == "iso" else 1
    if len(args.graphs) != want:
        raise GraphError(
            f"graph {args.action} takes exactly {want} graph argument(s)"
        )
    g = _load_graph(args.graphs[0])
    if args.dot:
        print(g.to_dot(), end="")
        return 0
    if args.action == "hamcycles":
        cycles = hamiltonian_cycles(g)
        if args.json:
            _emit_json(
                {
                    "count": len(cycles),
                    "cycles": [list(h.vertices) for h in cycles],
                }
            )
        else:
            for h in cycles:
                print(h)
            print(f"# cycles={len(cycles)}")
        return 0
    if args.action == "census":
        report = ham_census(g)
        if args.json:
            _emit_json(report.to_json_dict())
        elif args.csv:
            print("word,cycles,realizable")
            for e in report.entries:
                print(f"{e.word},{e.cycles},{str(e.realizable).lower()}")
        else:
            for e in report.entries:
                verdict = "realizable" if e.realizable else "unrealizable"
                print(f"{e.word}  cycles={e.cycles}  {verdict}")
            print(f"# cycles={report.total_cycles} classes={len(report.entries)}")
        return 0
    # iso
    h = _load_graph(args.graphs[1])
    ok, witness = are_isomorphic(g, h)
    if args.json:
        _emit_json(
            {
                "isomorphic": ok,
                "mapping": None
                if witness is None
                else {str(k): v for k, v in witness.items()},
            }
        )
    elif ok:
        assert witness is not None
        print("isomorphic")
        print(" ".join(f"{a}->{b}" for a, b in witness.items()))
    else:
        print("not isomorphic")
    return 0


def cmd_flips(args: argparse.Namespace) -> int:
    d = parse_diagram_input(args.diagram)
    if args.orbit:
        orbit = flip_orbit(d)
        if args.json:
            _emit_json(orbit.to_json_dict())
        else:
            for word, realizable in orbit.members:
                verdict = "realizable" if realizable else "unrealizable"
                print(f"{word}  {verdict}")
            print(
                f"# members={len(orbit.members)} edges={len(orbit.edges)}"
                f" homogeneous={str(orbit.homogeneous()).lower()}"
            )
        return 0
    sites = flip_sites(d)
    if args.json:
        _emit_json(
            {
                "word": d.word(),
                "sites": [
                    {
                        "i": s.i,
                        "j": s.j,
                        "p": s.chord_p,
                        "q": s.chord_q,
                        "result": apply_flip(d, s).word(),
                    }
                    for s in sites
                ],
            }
        )
    else:
        for s in sites:
            print(
                f"i={s.i} j={s.j} P={s.chord_p} Q={s.chord_q}"
                f" -> {apply_flip(d, s).word()}"
            )
        print(f"# sites={len(sites)}")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.chords
    if not 1 <= n <= ENUMERATE_MAX:
        raise DiagramError(
            f"chord count must be between 1 and {ENUMERATE_MAX}, got {n}"
        )
    everything = [(d.word(), is_realizable(d)) for d in enumerate_diagrams(n)]
    realizable_total = sum(ok for _, ok in everything)
    rows = [r for r in everything if r[1]] if args.realizable_only else everything
    if args.json:
        _emit_json(
            {
                "chords": n,
                "classes": [
                    {"word": w, "realizable": ok} for w, ok in rows
                ],
            }
        )
        return 0
    for word, ok in rows:
        print(f"{word}  {'realizable' if ok else 'unrealizable'}")
    print(
        f"# classes={len(everything)} realizable={realizable_total}"
        f" unrealizable={len(everything) - realizable_total}"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    max_n = args.max_chords
    if not 2 <= max_n <= VERIFY_MAX:
        raise FlipError(
            f"--max-chords must be between 2 and {VERIFY_MAX}, got {max_n}"
        )
    if args.threads < 1:
        raise FlipError(f"--threads must be positive, got {args.threads}")
    theorem = verify_flip_theorem(max_n, workers=args.threads)
    mismatches = theorem.oracle_mismatches
    failed = bool(theorem.counterexamples or mismatches)
    if args.json:
        _emit_json(
            {
                "flip_theorem": theorem.to_json_dict(),
                "oracle_agreement": {
                    "max_n": max_n,
                    "diagrams_checked": theorem.diagrams_checked,
                    "mismatches": list(mismatches),
                },
            }
        )
        return 3 if failed else 0
    print(theorem.summary())
    for c in theorem.counterexamples:
        print(
            f"  counterexample {c.word} site ({c.i}, {c.j}):"
            f" {c.before} -> {c.after}"
        )
    if mismatches:
        print(
            f"oracle agreement up to {max_n} chords:"
            f" {len(mismatches)} DISAGREEMENTS"
        )
        for w in mismatches:
            print(f"  oracle mismatch on {w}")
    else:
        print(
            f"oracle agreement up to {max_n} chords:"
            f" all {theorem.diagrams_checked} diagram classes agree"
        )
    return 3 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussflip",
        description="Gauss diagrams, their cubic graphs, realizability, flips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report on one diagram")
    p.add_argument("diagram", help="word like ABAB, or pairs like 0-2,1-3")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", action="store_true", help="interlacement graph as dot")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="realizability verdict via exit code")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("graph", help="cubic graph queries")
    p.add_argument("action", choices=("hamcycles", "census", "iso"))
    p.add_argument(
        "graphs",
        nargs="+",
        help="edge-list file, '-', 'mobius:k', or inline '0 1,1 2,...'",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true", help="census only")
    p.add_argument("--dot", action="store_true", help="echo the graph as dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("flips", help="flip sites or the whole flip orbit")
    p.add_argument("diagram")
    p.add_argument("--orbit", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_flips)

    p = sub.add_parser("enumerate", help="canonical diagram classes")
    p.add_argument("--chords", type=int, required=True)
    p.add_argument("--realizable-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="flip theorem + oracle agreement sweep")
    p.add_argument("--max-chords", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (DiagramError, GraphError, FlipError, RealizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input; same documented exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
