"""Benchmark of the gaussflip command line, with every output checked.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (``--workload all``, the default, runs the three in turn):

- ``sweep``: ``verify --max-chords 6 --threads 2``, ``enumerate --chords 7``;
- ``analyze``: ``analyze``, ``check`` and ``flips --orbit`` on 48 words;
- ``graph``: ``graph hamcycles``, ``iso`` and (up to 16 vertices) ``census``
  on 48 graphs.

The load is a closed loop: one command at a time.  A round runs the
workload's whole command list in a fresh interpreter (``worker.py``), so
the program's caches start cold; rounds repeat until ``--seconds`` have
passed.  Set-up time is the ``import gaussflip.cli`` at the start of every
round.  Every time is scaled by the host's speed at the moment it was
taken (``scaled``).  After the timed rounds every output is compared with
``checker.py``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced rounds and runs
``verify`` with one worker in both, because pool workers would not report
their spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from checker import Checker, graph_edges
from inputs import analyze_words, graph_cases

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep", "analyze", "graph")
# Times are scaled to a host on which one reference pass (worker.py) takes
# this long: about the fastest pass seen on the 2-core host of the README's
# figures, so on that host's fast spells scaled and measured times agree.
REFERENCE_PASS_S = 0.0006
# A census looks up the verdict of every class its cycles give, with 2^n
# face tracing each; on random 10-chord graphs that took 0.1-0.4 s by seed
# and set the graph workload's tail.  Up to 16 vertices it stays small.
CENSUS_MAX_VERTICES = 16
ROUND_TIMEOUT_S = 150
# the extra counters, by metric name: (function, field of its totals)
COUNTERS = {
    "diagrams.enumerate_diagrams.classes": ("diagrams.enumerate_diagrams", "items"),
    "realize.rotation_systems": ("realize.transverse_rotation_systems", "items"),
    "cubic.hamiltonian_cycles.cycles": ("cubic.hamiltonian_cycles", "items"),
}


def commands(
    workload: str, seed: int, tmp: Path, traced: bool
) -> tuple[list[list[str]], dict[str, list[tuple[int, int]]]]:
    """The workload's argv list, and the edges behind each graph file it names.

    Generated graphs go to edge-list files: the CLI takes a long inline
    edge list for a file name first and fails on it.
    """
    if workload == "sweep":
        threads = "1" if traced else "2"
        verify = ["verify", "--max-chords", "6", "--threads", threads]
        return [verify, ["enumerate", "--chords", "7", "--json"]], {}
    if workload == "analyze":
        return [
            argv
            for w in analyze_words(seed)
            for argv in (["analyze", w, "--json"], ["check", w], ["flips", w, "--orbit", "--json"])
        ], {}
    graphs: dict[str, list[tuple[int, int]]] = {}

    def graph_arg(spec: str, name: str) -> str:
        if spec.startswith("mobius:"):
            return spec
        path = tmp / name
        path.write_text(spec.replace(",", "\n") + "\n")
        graphs[str(path)] = graph_edges(spec)
        return str(path)

    argvs = []
    for i, (g, h) in enumerate(graph_cases(seed)):
        g_arg, h_arg = graph_arg(g, f"g{i}.txt"), graph_arg(h, f"h{i}.txt")
        argvs.append(["graph", "hamcycles", g_arg, "--json"])
        argvs.append(["graph", "iso", g_arg, h_arg, "--json"])
        if len(graph_edges(g)) * 2 // 3 <= CENSUS_MAX_VERTICES:
            argvs.append(["graph", "census", g_arg, "--json"])
    return argvs, graphs


def child_env() -> dict[str, str]:
    # a fixed hash seed keeps set iteration, and so the work done, identical
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def scaled(timed: dict) -> float:
    """A worker's timing, in seconds at a host speed of REFERENCE_PASS_S per pass.

    This host's speed flips between a fast and a slow mode, up to 1.8x
    apart, for spells of a fraction of a second to minutes.  The reference
    passes around and during the timed code measure the mix of the two.
    """
    return timed["s"] * REFERENCE_PASS_S / timed["ref_s"]


def run_round(argvs: list[list[str]], traced: bool) -> dict:
    job = json.dumps({"src": str(SRC), "argvs": argvs, "trace": traced})
    proc = subprocess.run(
        [sys.executable, str(WORKER)],
        input=job,
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the least value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def command_seconds(rounds: list[dict], scale: bool = True) -> list[float]:
    """Each command's least time over the rounds, scaled unless told not to.

    Scaling takes out most of a swing in the host's speed; the least time
    then drops the rounds on which the rest of one fell.
    """
    return [
        min(scaled(rnd["results"][i]) if scale else rnd["results"][i]["s"] for rnd in rounds)
        for i in range(len(rounds[0]["results"]))
    ]


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Per-layer metrics, each the median over the traced rounds."""
    rounds = []
    for rnd in traced:
        flat = {"realize.realizable_class.hit_ratio": rnd["cache_hit_ratio"]}
        for name, totals in rnd["layers"].items():
            for field in ("calls", "s", "self_s"):
                flat[f"{name}.{field}"] = totals[field]
        for metric, (name, field) in COUNTERS.items():
            flat[metric] = rnd["layers"][name][field]
        rounds.append(flat)
    out = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    out["tracing_overhead_s"] = sum(command_seconds(traced)) - sum(command_seconds(plain))
    return out


def end_to_end_metrics(workload: str, plain: list[dict]) -> dict[str, float]:
    """Every end-to-end metric but setup_s, which spans the whole invocation."""
    seconds = command_seconds(plain)
    if workload == "sweep":
        # fixed slots rather than ranks, so a faster enumerate never swaps them
        p50, p90 = seconds  # verify, enumerate
    else:
        p50, p90 = percentile(seconds, 0.5), percentile(seconds, 0.9)
    return {
        "wall_s": sum(seconds),
        "op_p50_ms": 1000 * p50,
        "op_p90_ms": 1000 * p90,
        "peak_rss_mb": max(rnd["rss_kb"] for rnd in plain) / 1024,
    }


def measure(
    workload: str, seed: int, seconds: int, trace: bool, setup: list[float]
) -> tuple[int, int, list[str], dict[str, float]]:
    """Timed rounds, then checks: (attempted, failed, problems, metric values).

    Untraced rounds add their scaled import time to ``setup``.
    """
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        argvs, graphs = commands(workload, seed, Path(tmp).relative_to(ROOT), trace)
        plain: list[dict] = []
        traced: list[dict] = []
        start = perf_counter()
        while True:
            plain.append(run_round(argvs, False))
            if trace:
                traced.append(run_round(argvs, True))
            if perf_counter() - start >= seconds:
                break
    if not trace:
        setup += [scaled(rnd["setup"]) for rnd in plain]

    checker = Checker(graphs)
    attempted = failed = 0
    problems: list[str] = []
    for rnd in plain + traced:
        for argv, res in zip(argvs, rnd["results"], strict=True):
            attempted += 1
            if res["code"] == 2:  # the CLI's error exit; every generated input is valid
                failed += 1
                problems.append(f"{argv[:3]}: exit 2: {res['err'].strip()}")
                continue
            try:
                found = checker.check(argv, res["code"], res["out"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                found = [f"unreadable output: {exc!r}"]
            problems += [f"{argv[:3]}: {p}" for p in found]
    for p in problems[:20]:
        print(f"wrong: {workload}: {p}", file=sys.stderr)
    reference_ms = 1000 * statistics.median(r["ref_s"] for rnd in plain for r in rnd["results"])
    print(
        f"# {workload} seed={seed} rounds={len(plain) + len(traced)}"
        f" reference_pass_ms={reference_ms:.4f}"
        f" measured_wall_s={sum(command_seconds(plain, scale=False)):.4f}"
    )
    values = layer_metrics(plain, traced) if trace else end_to_end_metrics(workload, plain)
    return attempted, failed, problems, values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gaussflip" / "cli.py").is_file():
        print(f"no gaussflip sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    section = "per_layer" if args.trace else "end_to_end"
    setup: list[float] = []
    measured = [
        (w, *measure(w, args.seed, args.seconds, bool(args.trace), setup)) for w in workloads
    ]
    ok = True
    for workload, attempted, failed, problems, values in measured:
        if setup:
            # set-up does not depend on the workload: one figure from every round
            values["setup_s"] = statistics.median(setup)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
        }
        print(f"# {workload} attempted={attempted} failed={failed} correct={not problems}")
        for name, m in metrics.items():
            print(f"#   {name:44s} {m['value']:.6g} {m['unit']}")
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        print(json.dumps(result), flush=True)
        ok &= not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
