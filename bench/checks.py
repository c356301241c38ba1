"""Answer checks, each by a second route that does not use dpchroma.

`check(query, answer)` returns None for a correct answer and a short reason
otherwise.  An answer is the client's record of one query: exit code, output
and error.  Every query must exit 0 with JSON output; what the JSON must
satisfy depends on the query's kind.
"""

from __future__ import annotations

import json

import oracles


def check(query: dict, answer: dict):
    if answer["error"] is not None:
        return f"raised {answer['error']}"
    if answer["exit"] != 0:
        return f"exit {answer['exit']}: {answer['stderr'].strip()[:200]}"
    try:
        out = json.loads(answer["stdout"])
    except ValueError:
        return "output is not JSON"
    n, edges = query["n"], [tuple(e) for e in query["edges"]]
    try:
        return _CHECKS[query["kind"]](query, out, n, edges)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed answer: {exc!r}"


def _dpexact(query, out, n, edges):
    m = query["m"]
    dp, p = int(out["dp_value"]), int(out["chromatic_value"])
    if p != oracles.colourings(n, edges, m):
        return "chromatic value differs from the colouring count"
    if dp > p:
        return "P_DP exceeds P"
    argmin = out["argmin"]
    if int(argmin["m"]) != m:
        return "argmin cover has the wrong fold count"
    perms = [tuple(range(m))] * len(edges)
    for key, perm in argmin["perms"].items():
        if sorted(perm) != list(range(m)):
            return "argmin holds a non-permutation"
        perms[int(key)] = tuple(perm)
    cover = [(u, v, f) for (u, v), f in zip(edges, perms)]
    if oracles.count_assignments(n, cover, m) != dp:
        return "argmin cover does not have P_DP transversals"
    if "dp_value" in query and dp != query["dp_value"]:
        return "P_DP differs from the brute-force minimum"
    if int(out["minimizers"]) < 1:
        return "no minimizing cover"
    return None


def _chromatic(query, out, n, edges):
    coeffs = [int(c) for c in out["polynomial"]]
    if len(coeffs) != n + 1 or coeffs[-1] != 1 or (n > 1 and coeffs[-2] != -len(edges)):
        return "polynomial has the wrong degree or leading terms"
    values = {int(m): v for m, v in query["values"].items()}
    for m, want in values.items():
        if int(out["evaluations"][str(m)]) != want:
            return f"P({m}) differs from the reference"
        if sum(c * m ** k for k, c in enumerate(coeffs)) != want:
            return f"polynomial at {m} differs from the reference"
    return None


def _twist(query, out, n, edges):
    if int(out["count"]) != query["count"]:
        return "twisted cover count differs from the reference"
    if int(out["chromatic_value"]) != query["p"]:
        return "chromatic value differs from the reference"
    return None


def _setgirth(query, out, n, edges):
    subset = set(query["subset"])
    want = oracles.edge_set_girth(n, edges, subset)
    value = out["value"]
    if want is None:
        return None if value == "infinity" and out["witness"] is None else "set girth should be infinite"
    if value != want:
        return f"set girth {value}, expected {want}"
    cyc = out["witness"]
    if not _is_cycle(cyc, edges) or len(cyc) != want:
        return "witness is not a shortest cycle"
    index = {e: i for i, e in enumerate(edges)}
    if sum(1 for i in oracles.cycle_edge_indices(tuple(cyc), index) if i in subset) % 2 != 1:
        return "witness meets the edge set evenly"
    return None


def _is_cycle(cyc, edges) -> bool:
    present = set(edges)
    return (len(cyc) >= 3 and len(set(cyc)) == len(cyc)
            and all((min(a, b), max(a, b)) in present
                    for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]])))


def _classify(query, out, n, edges):
    verdicts = {v["condition"]: v for v in out["verdicts"]}
    checks = (("even-girth-edge", _even_girth), ("dp-good", _dp_good),
              ("connected-back-neighborhood-order", _vertex_order),
              ("quad-girth-crossing-set", _quad_crossing))
    if sorted(verdicts) != sorted(name for name, _ in checks):
        return "unexpected set of verdicts"
    for name, fn in checks:
        reason = fn(query, verdicts[name], n, edges)
        if reason:
            return f"{name}: {reason}"
    implied = sorted({v["implied"] for v in verdicts.values() if v["status"] == "satisfied"})
    if out["implied"] != implied:
        return "implied memberships disagree with the verdicts"
    return None


def _girths(n, edges):
    return [oracles.edge_girth(n, edges, i) for i in range(len(edges))]


def _even_girth(query, v, n, edges):
    girths = _girths(n, edges)
    even = [i for i, g in enumerate(girths) if g is not None and g % 2 == 0]
    if v["status"] == "violated":
        return "an edge has even girth" if even else None
    if v["status"] != "satisfied":
        return f"status {v['status']}"
    cert = v["certificate"]
    e = cert["edge"]
    if cert["girth"] != girths[e] or e not in even:
        return "certified edge does not have that even girth"
    return None


def _dp_good(query, v, n, edges):
    status, detail = v["status"], v["detail"]
    girths = _girths(n, edges)
    forced = oracles.forced_edges(n, edges)
    if status == "satisfied":
        reason = _dp_good_certificate(v["certificate"], n, edges, girths)
        if reason:
            return reason
        if detail["trees_tried"] > oracles.forced_tree_count(n, edges, forced):
            return "tried more trees than exist"
    elif status == "violated":
        if "trees_tried" not in detail:
            cyc = v["witness"]
            index = {e: i for i, e in enumerate(edges)}
            if not _is_cycle(cyc, edges) or not set(
                    oracles.cycle_edge_indices(tuple(cyc), index)) <= forced:
                return "witness is not a cycle of even- or infinite-girth edges"
        elif detail["trees_tried"] != oracles.forced_tree_count(n, edges, forced):
            return "violated without trying every spanning tree"
    else:
        return f"status {status}"
    if "trees" in query and detail.get("trees_tried") != query["trees"]:
        return f"tried {detail.get('trees_tried')} trees, expected {query['trees']}"
    return None


def _dp_good_certificate(cert, n, edges, girths):
    """Re-check a DP-good certificate from its definition."""
    tree = set(cert["tree"])
    if len(tree) != n - 1 or not oracles.connected(n, range(n), [edges[i] for i in tree]):
        return "certificate tree is not a spanning tree"
    labeling = cert["labeling"]
    if sorted(labeling) != [i for i in range(len(edges)) if i not in tree]:
        return "labeling is not the set of non-tree edges"
    seq = [girths[e] for e in labeling]
    if any(g is None or g % 2 == 0 for g in seq) or seq != sorted(seq):
        return "labeled girths are not odd and non-decreasing"
    if len(cert["cycles"]) != len(labeling):
        return "one witness cycle per labeled edge is needed"
    index = {e: i for i, e in enumerate(edges)}
    available = set(tree)
    seen = set()
    for e, cyc in zip(labeling, cert["cycles"]):
        available.add(e)
        used = set(oracles.cycle_edge_indices(tuple(cyc), index)) if _is_cycle(cyc, edges) else None
        if used is None or len(cyc) != girths[e] or e not in used or not used <= available:
            return f"witness cycle for edge {e} is not a shortest available cycle"
        if tuple(cyc) in seen:
            return "witness cycles repeat"
        seen.add(tuple(cyc))
    return None


def _vertex_order(query, v, n, edges):
    if v["status"] == "satisfied":
        order = v["certificate"]
        if sorted(order) != list(range(n)):
            return "certificate is not a vertex order"
        present = set(edges)
        for k in range(1, n):
            back = {w for w in order[:k] if (min(w, order[k]), max(w, order[k])) in present}
            if not oracles.connected(n, back, edges):
                return f"back-neighbourhood of vertex {order[k]} is empty or disconnected"
        return None
    if v["status"] == "violated":
        return "an order exists" if _order_exists(n, edges) else None
    return f"status {v['status']}"


def _order_exists(n, edges) -> bool:
    """Some vertex order with non-empty connected back-neighbourhoods?"""
    nbrs = [set() for _ in range(n)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    good: dict[frozenset, bool] = {}

    def fits(v, placed):
        back = frozenset(nbrs[v] & placed)
        if back not in good:
            good[back] = oracles.connected(n, back, edges)
        return good[back]

    reachable = {frozenset([v]) for v in range(n)}
    for _ in range(n - 1):
        reachable = {placed | {v} for placed in reachable for v in range(n)
                     if v not in placed and fits(v, placed)}
    return bool(reachable)


def _quad_crossing(query, v, n, edges):
    if v["status"] == "inconclusive":
        return None  # the candidate search is not exhaustive by design
    if v["status"] != "satisfied":
        return f"status {v['status']}"
    cert = v["certificate"]
    s1, s2 = set(cert["v1"]), set(cert["v2"])
    chosen = set(cert["edges"])
    for i in chosen:
        a, b = edges[i]
        if not ((a in s1 and b in s2) or (a in s2 and b in s1)):
            return "certified edge set does not cross the classes"
    if oracles.edge_set_girth(n, edges, chosen) != 4:
        return "certified edge set does not have set girth four"
    return None


def _set_girth_verdict(query, out, n, edges, subset):
    if out["status"] != "satisfied":
        return f"status {out['status']}"
    if out["certificate"]["set_girth"] != oracles.edge_set_girth(n, edges, subset):
        return "certified set girth differs from the enumeration"
    return None


def _crossing(query, out, n, edges):
    s1, s2 = set(query["v1"]), set(query["v2"])
    subset = {i for i, (a, b) in enumerate(edges)
              if (a in s1 and b in s2) or (a in s2 and b in s1)}
    return _set_girth_verdict(query, out, n, edges, subset)


def _arc_indices(query, edges):
    index = {e: i for i, e in enumerate(edges)}
    return {index[(min(t, h), max(t, h))]: t for t, h in query["arcs"]}


def _orientation(query, out, n, edges):
    return _set_girth_verdict(query, out, n, edges, set(_arc_indices(query, edges)))


def _balance(query, out, n, edges):
    tails = _arc_indices(query, edges)
    index = {e: i for i, e in enumerate(edges)}
    balanced = True
    for cyc in oracles.simple_cycles(n, edges):
        if len(cyc) >= query["bound"]:
            continue
        steps = list(zip(cyc, cyc[1:] + cyc[:1]))
        member = [(index[(min(a, b), max(a, b))], a) for a, b in steps
                  if index[(min(a, b), max(a, b))] in tails]
        along = sum(1 for i, a in member if tails[i] == a)
        if member and (len(member) % 2 or 2 * along != len(member)):
            balanced = False
    return None if out["balanced"] == balanced else "balance verdict differs from the enumeration"


_CHECKS = {
    "dpexact": _dpexact,
    "chromatic": _chromatic,
    "twist": _twist,
    "setgirth": _setgirth,
    "classify": _classify,
    "crossing": _crossing,
    "orientation": _orientation,
    "balance": _balance,
}
