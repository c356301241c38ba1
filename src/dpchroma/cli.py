"""Command-line front end.

Every operation is exposed as a subcommand over a graph given either as an
edge-list file (--graph) or a named fixture (--fixture).  Output is a human
summary by default or JSON with --format json.  Exit status: 0 on success,
2 for input errors, 3 when a budget is exceeded; `classify` alone reports an
overrun as an inconclusive verdict and exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .chromatic import chromatic_polynomial
from .classify import (
    check_balanced_orientation,
    check_crossing_edge_set,
    check_dp_good,
    check_vertex_order,
    classify,
)
from .covers import (
    Cover,
    count_transversals,
    dp_exact,
    sloping_report,
    twisted_cover,
)
from .errors import DEFAULT_BUDGET, BudgetExceededError, GraphParseError
from .girth import OrientedEdgeSet, check_balance, edge_girth, edge_set_girth
from .graphs import fixture, parse_graph

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load_graph(args):
    if args.graph:
        with open(args.graph, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    return fixture(args.fixture)


def _edge_tokens(g, text):
    """Parse a comma-separated edge list of indices, "u-v" or "u>v" tokens
    into (tail, head) pairs; the tail of an undirected edge is its smaller
    endpoint."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        sep = ">" if ">" in tok else "-" if "-" in tok else None
        try:
            ends = [int(x) for x in tok.split(sep)] if sep else [int(tok)]
        except ValueError:
            ends = []
        if len(ends) != (2 if sep else 1):
            raise ValueError(f"malformed edge {tok!r}")
        if sep == ">":
            out.append(tuple(ends))
        elif sep:
            out.append(tuple(sorted(ends)))
        else:
            i = ends[0]
            if not (0 <= i < len(g.edges)):
                raise ValueError(f"edge index {i} out of range")
            out.append(g.edges[i])
    return out


def _oriented(g, text):
    """An oriented edge set; an edge named twice, in any form, is an error."""
    return OrientedEdgeSet.from_pairs(g, _edge_tokens(g, text))


def _vertices(text):
    """Parse a comma-separated vertex list."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"malformed vertex {tok!r}") from None
    return out


def _emit(args, lines, payload):
    if args.format == "json":
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        for line in lines:
            print(line)


def _cmd_chromatic(args):
    g = _load_graph(args)
    p = chromatic_polynomial(g)
    lines = [f"P(G, m) = {p.format()}"]
    evals = {}
    for m in args.at or []:
        value = p(m)
        evals[str(m)] = str(value)
        lines.append(f"P({m}) = {value}")
    _emit(args, lines, {"polynomial": p.to_json(), "evaluations": evals})
    return EXIT_OK


def _cmd_dpcount(args):
    g = _load_graph(args)
    with open(args.cover, "r", encoding="utf-8") as fh:
        cov = Cover.from_json(g, json.load(fh))
    report = count_transversals(g, cov)
    _emit(args, [f"transversals = {report.value}"], report.to_json())
    return EXIT_OK


def _cmd_dpexact(args):
    g = _load_graph(args)
    report = dp_exact(g, args.m, budget=args.budget_covers, jobs=args.jobs)
    p_value = chromatic_polynomial(g)(args.m)
    rel = "<" if report.value < p_value else "="
    lines = [f"P_DP(G, {args.m}) = {report.value} {rel} P(G, {args.m}) = {p_value}"]
    assert report.cover is not None
    twists = {i: p for i, p in enumerate(report.cover.perms)
              if not report.cover.is_identity(i)}
    if twists:
        desc = "; ".join(f"edge {i} {g.edges[i]} -> {list(p)}" for i, p in twists.items())
        lines.append(f"argmin cover: {desc}")
    else:
        lines.append("argmin cover: the canonical cover (all identity)")
    lines.append(f"minimizing covers: {report.minimizers}")
    _emit(args, lines, {"dp_value": str(report.value),
                        "chromatic_value": str(p_value),
                        "argmin": report.cover.to_json(),
                        "minimizers": report.minimizers})
    return EXIT_OK


def _cmd_twist(args):
    g = _load_graph(args)
    oriented = _oriented(g, args.estar)
    cov = twisted_cover(g, oriented, args.m)
    count = count_transversals(g, cov).value
    p_value = chromatic_polynomial(g)(args.m)
    rel = "<" if count < p_value else ("=" if count == p_value else ">")
    lines = [
        f"twisted cover count = {count} {rel} P(G, {args.m}) = {p_value}",
        f"sloping edges: {sorted(i for i, _ in oriented.tails)}",
    ]
    _emit(args, lines, {"count": str(count), "chromatic_value": str(p_value),
                        "cover": cov.to_json(),
                        "sloping": sloping_report(cov).to_json()})
    return EXIT_OK


def _cmd_girth(args):
    g = _load_graph(args)
    if not (0 <= args.edge < len(g.edges)):
        raise ValueError(f"edge index {args.edge} out of range")
    r = edge_girth(g, args.edge)
    value = int(r.value) if r.is_finite else "infinity"
    lines = [f"girth of edge {args.edge} {g.edges[args.edge]}: {value}"]
    if r.witness:
        lines.append(f"witness cycle: {list(r.witness.vertices)}")
    _emit(args, lines, r.to_json())
    return EXIT_OK


def _cmd_setgirth(args):
    g = _load_graph(args)
    r = edge_set_girth(g, _oriented(g, args.edges).edges)
    value = int(r.value) if r.is_finite else "infinity"
    lines = [f"set girth: {value}"]
    if r.witness:
        lines.append(f"witness cycle: {list(r.witness.vertices)}")
    _emit(args, lines, r.to_json())
    return EXIT_OK


def _cmd_balance(args):
    g = _load_graph(args)
    oriented = _oriented(g, args.estar)
    verdict = check_balance(g, oriented, args.bound, cycle_budget=args.budget_cycles)
    lines = [f"balanced below length {args.bound}: {verdict.balanced}"]
    if verdict.witness:
        lines.append(f"failing cycle: {list(verdict.witness.vertices)}")
    _emit(args, lines, verdict.to_json())
    return EXIT_OK


def _verdict_lines(v):
    lines = [f"{v.condition}: {v.status} (implied class: {v.implied})"]
    if v.detail.get("reason"):
        lines.append(f"  reason: {v.detail['reason']}")
    return lines


def _cmd_dpgood(args):
    g = _load_graph(args)
    verdict = check_dp_good(g, budget=args.budget_trees)
    lines = _verdict_lines(verdict)
    if verdict.satisfied:
        cert = verdict.certificate
        lines.append(f"  tree edges: {cert.to_json()['tree']}")
        lines.append(f"  labeling: {list(cert.labeling)}")
        lines.append(f"  girths: {verdict.detail['girth_sequence']}")
    _emit(args, lines, verdict.to_json())
    return EXIT_OK


def _cmd_vorder(args):
    g = _load_graph(args)
    order = _vertices(args.order) if args.order is not None else None
    verdict = check_vertex_order(g, order=order, budget=args.budget_trees)
    lines = _verdict_lines(verdict)
    if verdict.satisfied:
        lines.append(f"  order: {list(verdict.certificate)}")
    _emit(args, lines, verdict.to_json())
    return EXIT_OK


def _cmd_thm5(args):
    g = _load_graph(args)
    oriented = _oriented(g, args.estar)
    verdict = check_balanced_orientation(g, oriented, cycle_budget=args.budget_cycles)
    _emit(args, _verdict_lines(verdict), verdict.to_json())
    return EXIT_OK


def _cmd_cor5(args):
    g = _load_graph(args)
    estar = _oriented(g, args.estar).edges if args.estar is not None else None
    verdict = check_crossing_edge_set(g, _vertices(args.v1), _vertices(args.v2), estar,
                                      cycle_budget=args.budget_cycles)
    _emit(args, _verdict_lines(verdict), verdict.to_json())
    return EXIT_OK


def _cmd_classify(args):
    g = _load_graph(args)
    verdicts = classify(g, budget=args.budget_trees)
    lines = []
    for v in verdicts:
        lines.extend(_verdict_lines(v))
    implied = sorted({v.implied for v in verdicts if v.satisfied})
    lines.append(f"implied memberships: {', '.join(implied) if implied else 'none'}")
    _emit(args, lines, {"verdicts": [v.to_json() for v in verdicts],
                        "implied": implied})
    return EXIT_OK


_COMMANDS = {
    "chromatic": _cmd_chromatic,
    "dpcount": _cmd_dpcount,
    "dpexact": _cmd_dpexact,
    "twist": _cmd_twist,
    "girth": _cmd_girth,
    "setgirth": _cmd_setgirth,
    "balance": _cmd_balance,
    "dpgood": _cmd_dpgood,
    "vorder": _cmd_vorder,
    "thm5": _cmd_thm5,
    "cor5": _cmd_cor5,
    "classify": _cmd_classify,
}


_BUDGET_HELP = {
    "covers": "cap on the cover sweep's work: 2^m column sets per orbit of all "
              "but the last non-tree edge, plus m! when S_m is listed",
    "cycles": "cap on enumerated cycles",
    "trees": "cap on the bases tried at one girth (dpgood, classify), the vertex "
             "sets decided (vorder, classify) and quad crossing candidates (classify)",
}


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared after it:
    parsing reads it without changing it, and help and errors go to the
    `sys.stdout` and `sys.stderr` of the moment they are printed."""
    parser = argparse.ArgumentParser(
        prog="dp-chroma",
        description="Chromatic polynomials, cover counts and coloring "
                    "certificates for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *budgets):
        def budget(text):
            value = int(text)
            if value < 1:
                raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
            return value

        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--graph", help="path to an edge-list file")
        src.add_argument("--fixture",
                         help="named graph: cycle:n, path:n, complete:n, "
                              "complete_multipartite:a,b,..., fig1, fig3b")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for kind in budgets:
            p.add_argument(f"--budget-{kind}", type=budget, default=DEFAULT_BUDGET,
                           help=_BUDGET_HELP[kind])

    p = sub.add_parser("chromatic", help="chromatic polynomial")
    common(p)
    p.add_argument("--at", type=int, action="append",
                   help="evaluate at this m (repeatable)")

    p = sub.add_parser("dpcount", help="count the transversals of a cover")
    common(p)
    p.add_argument("--cover", required=True, help="path to a cover JSON file")

    p = sub.add_parser("dpexact", help="exact DP color function value at m")
    common(p, "covers")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers over the cover space (at most the CPU count)")

    p = sub.add_parser("twist", help="build the shift cover on an edge set and count")
    common(p)
    p.add_argument("--estar", required=True,
                   help="directed edges 'u>v,...' (or edge indices, tail = "
                        "smaller endpoint)")
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("girth", help="girth of one edge")
    common(p)
    p.add_argument("--edge", type=int, required=True, help="edge index")

    p = sub.add_parser("setgirth", help="girth of an edge set (odd intersection)")
    common(p)
    p.add_argument("--edges", required=True,
                   help="edge list: indices or 'u-v' pairs, comma separated")

    p = sub.add_parser("balance", help="balance of an oriented edge set on short cycles")
    common(p, "cycles")
    p.add_argument("--estar", required=True, help="directed edges 'u>v,...'")
    p.add_argument("--bound", type=int, required=True,
                   help="check cycles strictly shorter than this")

    p = sub.add_parser("dpgood", help="search for a DP-good certificate")
    common(p, "trees")

    p = sub.add_parser("vorder", help="connected back-neighborhood vertex order")
    common(p, "trees")
    p.add_argument("--order", help="comma-separated vertex order to verify")

    p = sub.add_parser("thm5", help="even set-girth + balanced orientation check")
    common(p, "cycles")
    p.add_argument("--estar", required=True, help="directed edges 'u>v,...'")

    p = sub.add_parser("cor5", help="crossing edge set between two vertex classes")
    common(p, "cycles")
    p.add_argument("--v1", required=True, help="comma-separated vertex class")
    p.add_argument("--v2", required=True, help="comma-separated vertex class")
    p.add_argument("--estar", help="edge subset (defaults to all crossing edges)")

    p = sub.add_parser("classify", help="run every sufficient-condition check")
    common(p, "trees")

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit status.

    It may be called any number of times in one process; each call parses
    its own arguments into a fresh namespace.  The parser is built on the
    first call and reused by every later one.
    """
    # exact counts are printed in full, however many digits they have
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphParseError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        print(f"run dp-chroma {args.command} --help for usage", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
