"""One timed round: run a list of gaussflip CLI commands in this process.

Reads a JSON job from stdin: ``{"src": path, "argvs": [[...], ...],
"trace": bool}``.  Imports ``gaussflip.cli``, then runs each command
through ``gaussflip.cli.main`` with stdout and stderr captured.  Writes
one JSON report to stdout: the import's seconds and each command's exit
code, seconds and output, each with the median reference pass around
and during it (see ``Timed``); the peak RSS of this process and its
children; and (traced rounds) the per-function totals from ``spans``.

A fresh process per round keeps the program's caches cold, as they are
for every real CLI call.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter, thread_time

from checker import canonical, classes, rosenstiehl

# The reference pass: fixed work in the checker's own code, which shares no
# code with gaussflip but is made of the same kind of string, dict and
# small-integer work.  Its time tracks the host's speed of the moment.
REFERENCE_WORDS = classes(4)
SAMPLE_EVERY_S = 0.05


def reference_pass() -> float:
    """CPU seconds of one reference pass, about a millisecond.

    CPU time leaves out the spells in which other processes, such as the
    pool workers of ``verify --threads 2``, hold the core; the host's own
    slow spells stay in.  The collector is off during the pass: a
    collection would cost in proportion to the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = thread_time()
    for word in REFERENCE_WORDS:
        canonical(word)
        rosenstiehl(word)
    seconds = thread_time() - start
    if enabled:
        gc.enable()
    return seconds


class Timed:
    """Wall seconds of a block of the program's code, and the host's speed then.

    Reference passes run twice before the block, twice after it, and every
    SAMPLE_EVERY_S inside it from a SIGALRM handler, so a long command is
    sampled all through.  ``seconds`` leaves out the passes inside the
    block; ``reference_s`` is the median of all the passes.
    """

    def __enter__(self) -> Timed:
        self.passes = [reference_pass(), reference_pass()]
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.start = perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.passes.append(reference_pass())
        self.paused += perf_counter() - start

    def __exit__(self, *exc) -> None:
        self.seconds = perf_counter() - self.start - self.paused
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.passes += [reference_pass(), reference_pass()]
        self.reference_s = statistics.median(self.passes)


def main() -> None:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    tracer = None
    if job["trace"]:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    with Timed() as setup:
        import gaussflip
        import gaussflip.cli

    if src not in Path(gaussflip.__file__).resolve().parents:
        raise SystemExit(f"gaussflip imported from {gaussflip.__file__}, not {src}")
    results = []
    for argv in job["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        with Timed() as timed, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gaussflip.cli.main(argv)
        results.append(
            {
                "code": code,
                "s": timed.seconds,
                "ref_s": timed.reference_s,
                "out": out.getvalue(),
                "err": err.getvalue(),
            }
        )
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report = {
        "setup": {"s": setup.seconds, "ref_s": setup.reference_s},
        "rss_kb": rss_kb,
        "results": results,
    }
    if tracer is not None:
        report["layers"] = tracer.totals()
        info = gaussflip.realize.realizable_class.__wrapped__.cache_info()
        lookups = info.hits + info.misses
        report["cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
