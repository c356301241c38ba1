"""One pass of a workload in a fresh interpreter.

    python3 client.py SPEC OUT MODE

MODE is `setup` (import and load only), `plain` (timed queries, tracing
off) or `trace` (queries under spans.Tracer).  The client imports dpchroma,
parses every graph file of the workload, then sends the queries one at a
time to `dpchroma.cli.main`, a closed loop with one query in flight.  It
writes raw timings, exit codes and captured output to OUT as JSON; checking
the answers is left to the caller, outside the timed region.

Before the queries, after them and about once a second of query time in
between, the client times a fixed pure-Python loop (`calibrate`); the mean
loop time lets the caller express the pass's times at a fixed machine speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

CALIBRATE_EVERY_S = 1.0
BACKTRACK_REPEATS = 40


def calibrate() -> float:
    """Seconds that one fixed piece of plain-Python work takes now.

    Half of it fills a dict keyed by tuples; half counts the proper
    4-colourings of a fixed 7-vertex circulant graph by explicit-stack
    backtracking.  That is the kind of work dpchroma does, in none of its
    code, so a change to the program cannot move it.
    """
    start = perf_counter()
    table: dict = {}
    acc = 0
    for i in range(100_000):
        key = (i & 1023, (i >> 10) & 15)  # 16,384 distinct keys, a few MB
        table[key] = table.get(key, 0) + 1
        acc += len(table) ^ i
    earlier = [[w for w in ((v + 1) % 7, (v - 1) % 7, (v + 3) % 7, (v - 3) % 7) if w < v]
               for v in range(7)]
    for _ in range(BACKTRACK_REPEATS):
        chosen = [0] * 7
        stack = [list(range(4))]
        while stack:
            options = stack[-1]
            if not options:
                stack.pop()
                continue
            k = len(stack) - 1
            chosen[k] = options.pop()
            if k == 6:
                acc += 1
                continue
            banned = {chosen[w] for w in earlier[k + 1]}
            stack.append([c for c in range(4) if c not in banned])
    return perf_counter() - start


def main() -> int:
    spec_path, out_path, mode = sys.argv[1:4]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    before = calibrate()
    start = perf_counter()
    import dpchroma.cli
    from dpchroma.graphs import parse_graph
    for path in spec["graph_files"]:
        with open(path, encoding="utf-8") as fh:
            parse_graph(fh.read())
    setup = perf_counter() - start
    result: dict = {"setup_s": setup, "setup_loop_s": (before + calibrate()) / 2}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        cli_main = dpchroma.cli.main
        loops = [calibrate()]
        answers = []
        since = 0.0
        for k, query in enumerate(spec["queries"]):
            if tracer is not None:
                tracer.query = k
            out, err = io.StringIO(), io.StringIO()
            error = None
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main(query["argv"])
            except Exception as exc:  # a crash is a failed query, not a failed run
                code, error = None, repr(exc)
            seconds = perf_counter() - t0
            answers.append({"exit": code, "seconds": seconds,
                            "stdout": out.getvalue(), "stderr": err.getvalue(),
                            "error": error})
            since += seconds
            if since >= CALIBRATE_EVERY_S:
                loops.append(calibrate())
                since = 0.0
        loops.append(calibrate())
        result["answers"] = answers
        result["loop_s"] = sum(loops) / len(loops)
        if tracer is not None:
            from spans import summarize
            result["layers"] = summarize(tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
