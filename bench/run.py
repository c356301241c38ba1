"""dpchroma benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing is installed.  The run makes
the workload's graphs and queries from the seed (workloads.py), then starts
a fresh interpreter for every pass (client.py), so that the module-global
chromatic cache of one pass never reaches another.  Each pass imports
dpchroma, loads the graphs and sends the queries to `dpchroma.cli.main`, one
at a time.  Every answer is checked afterwards (checks.py), outside the
timed region.

Times are reported at a fixed machine speed.  The host is shared, and the
speed of the same Python code drifts by a third over seconds to minutes, so
each pass also times a fixed loop (client.calibrate) and every time is
multiplied by LOOP_REF_S over the pass's mean loop time.  The reported
seconds are those of a machine on which the loop takes LOOP_REF_S.

--trace 0 measures the end-to-end metrics: setup_s is the median of several
import-and-load probes, wall_s the median over passes of the summed query
times, query_p50_s and query_p90_s the quantiles of every query latency of
every pass, and peak_rss_mb the median peak resident size of a pass (worker
processes of `--jobs` excluded).  Passes repeat while another one still fits
into --seconds; there is always at least one.

--trace 1 makes one plain pass and one traced pass (spans.py) and reports
the per-layer metrics of the traced pass, with the tracing overhead: the
traced minus the plain summed query time.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  A failed query is a wrong answer, an exit code other than 0 or an
exception; attempted counts queries over all passes, and failed / attempted
is the workload's failed share.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from checks import check
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
# seconds that client.calibrate takes on the reference machine
LOOP_REF_S = 0.08
PASS_TIMEOUT_S = 170


def run_client(spec_path: str, workdir: str, mode: str) -> dict:
    """One pass in a fresh interpreter; the client writes its record to a file."""
    out_path = os.path.join(workdir, "pass.json")
    subprocess.run([sys.executable, os.path.join(HERE, "client.py"), spec_path, out_path, mode],
                   check=True, timeout=PASS_TIMEOUT_S, stdout=subprocess.DEVNULL)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def grade(queries: list, passes: list) -> tuple[int, int, list]:
    """(attempted, failed, failure reasons) over every pass."""
    failures = []
    verdicts: dict[tuple, object] = {}  # an identical answer is checked once
    for record in passes:
        for k, (query, answer) in enumerate(zip(queries, record["answers"])):
            key = (k, answer["exit"], answer["error"], answer["stdout"])
            if key not in verdicts:
                verdicts[key] = check(query, answer)
            if verdicts[key] is not None:
                failures.append(f"query {k} {' '.join(query['argv'])}: {verdicts[key]}")
    attempted = sum(len(record["answers"]) for record in passes)
    return attempted, len(failures), failures


def scaled(seconds: float, loop_s: float) -> float:
    """Seconds at the reference speed, given the calibration loop's time."""
    return seconds * LOOP_REF_S / loop_s


def latencies(record: dict) -> list[float]:
    return [scaled(a["seconds"], record["loop_s"]) for a in record["answers"]]


def end_to_end(probes: list, passes: list) -> dict:
    pooled = [t for record in passes for t in latencies(record)]
    return {
        "setup_s": statistics.median(scaled(p["setup_s"], p["setup_loop_s"]) for p in probes),
        "wall_s": statistics.median(sum(latencies(record)) for record in passes),
        "query_p50_s": statistics.median(pooled),
        "query_p90_s": statistics.quantiles(pooled, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(record["peak_rss_mb"] for record in passes),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    """Layer times as shares of the traced pass's query time, counts as
    counted, and the tracing overhead in seconds."""
    metrics = dict(traced["layers"])
    busy = sum(a["seconds"] for a in traced["answers"])
    for name, value in metrics.items():
        if name.endswith("share"):
            metrics[name] = value / busy
    metrics["trace.wall_s"] = sum(latencies(traced))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - sum(latencies(plain))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "dpchroma", "cli.py")):
        print(f"error: no dpchroma sources under {SRC}", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix="bench-", dir=ROOT)
    try:
        build = WORKLOADS[args.workload](args.seed, workdir)
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"src": SRC, "graph_files": build.graph_files,
                       "queries": build.queries}, fh)
        queries = build.queries
        print(f"{args.workload} seed {args.seed}: {len(queries)} queries, "
              f"{len(build.graph_files)} graph files", file=sys.stderr)

        if args.trace:
            passes = [run_client(spec_path, workdir, "plain"),
                      run_client(spec_path, workdir, "trace")]
            metrics = per_layer(*passes)
        else:
            # the first import compiles the byte code once per checkout
            probes = [run_client(spec_path, workdir, "setup")
                      for _ in range(SETUP_PROBES + 1)][1:]
            passes = []
            start = perf_counter()
            while True:
                t0 = perf_counter()
                passes.append(run_client(spec_path, workdir, "plain"))
                took = perf_counter() - t0
                if perf_counter() - start + took > args.seconds:
                    break
            metrics = end_to_end(probes, passes)
        attempted, failed, failures = grade(queries, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{len(passes)} passes, {attempted} queries, {failed} failed", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("share", "counts_per_cover", "trees_per_dp_good")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
