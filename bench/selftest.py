"""Self-test of the answer checks: corrupted answers must be caught.

    python3 bench/selftest.py

For every kind of query in the three workloads, one query (the cheapest
kind of instance, never the long fig3b classify) is sent through a real
client pass.  Its answer must pass the checks; then each answer is corrupted
in a way a wrong program could produce, and the failed count, and with it
the failed share, must rise by exactly one.  Exits 1 if any corruption slips
through.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import ROOT, SRC, grade, run_client  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _edit(field_path, change):
    """A corruption that rewrites one field of the JSON output."""
    def corrupt(answer):
        out = json.loads(answer["stdout"])
        node = out
        for key in field_path[:-1]:
            node = node[key]
        node[field_path[-1]] = change(node[field_path[-1]])
        answer["stdout"] = json.dumps(out)
    return corrupt


def _bump(text):
    return str(int(text) + 1)


def _classify_tamper(answer):
    out = json.loads(answer["stdout"])
    for verdict in out["verdicts"]:
        if verdict["condition"] == "dp-good":
            if verdict["status"] == "satisfied":
                verdict["certificate"]["labeling"].reverse()
                verdict["certificate"]["labeling"].append(0)
            else:
                verdict["detail"]["trees_tried"] = verdict["detail"].get("trees_tried", 0) + 1
                verdict["witness"] = None
    answer["stdout"] = json.dumps(out)


CORRUPTIONS = {
    "dpexact": _edit(["dp_value"], _bump),
    "chromatic": _edit(["evaluations", "5"], _bump),
    "twist": _edit(["count"], _bump),
    "setgirth": _edit(["value"], lambda v: 3 if v == "infinity" else v + 1),
    "classify": _classify_tamper,
    "crossing": _edit(["certificate", "set_girth"], lambda v: v + 2),
    "orientation": _edit(["certificate", "set_girth"], lambda v: v + 2),
    "balance": _edit(["balanced"], lambda v: not v),
}


def _exit_budget(answer):
    answer["exit"] = 3


def _crash(answer):
    answer["error"] = "RuntimeError('injected')"


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="bench-selftest-", dir=ROOT)
    problems = []
    try:
        queries, files = [], []
        for name, build_workload in WORKLOADS.items():
            os.mkdir(os.path.join(workdir, name))
            build = build_workload(1, os.path.join(workdir, name))
            files += build.graph_files
            seen = set()
            for query in build.queries:
                slow = query["kind"] == "classify" and "fig3b" in query["argv"]
                if query["kind"] not in seen and not slow and "--jobs" not in query["argv"]:
                    seen.add(query["kind"])
                    queries.append(query)
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"src": SRC, "graph_files": files, "queries": queries}, fh)
        record = run_client(spec_path, workdir, "plain")
        attempted, failed, failures = grade(queries, [record])
        print(f"clean pass: {attempted} queries of kinds "
              f"{sorted({q['kind'] for q in queries})}, {failed} failed")
        problems += failures
        for k, query in enumerate(queries):
            for label, corrupt in ((query["kind"], CORRUPTIONS[query["kind"]]),
                                   ("exit 3", _exit_budget), ("exception", _crash)):
                bad = copy.deepcopy(record)
                corrupt(bad["answers"][k])
                _, bad_failed, _ = grade(queries, [bad])
                caught = bad_failed == failed + 1
                print(f"{'caught' if caught else 'MISSED'}: {label} on {' '.join(query['argv'][:1])}, "
                      f"failed share {failed / attempted:.3f} -> {bad_failed / attempted:.3f}")
                if not caught:
                    problems.append(f"{label} on query {k} not caught")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems:
        print(f"PROBLEM {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
