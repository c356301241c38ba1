import json
import os
import subprocess
import sys
import time

import pytest

import oracles

from dpchroma import Cover, DpGoodCertificate, Polynomial, verify_dp_good_certificate
from dpchroma.cli import _build_parser, main
from dpchroma.covers import SWEEP_COUNTER
from dpchroma.graphs import fixture
from test_classify import SEARCHED_EDGES


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_chromatic_text(capsys):
    code, out, _ = run_cli(capsys, "chromatic", "--fixture", "cycle:4", "--at", "3")
    assert code == 0
    assert "P(3) = 18" in out


def test_chromatic_json_reparses(capsys):
    data = run_json(capsys, "chromatic", "--fixture", "cycle:4", "--at", "3", "--at", "2")
    p = Polynomial.from_json(data["polynomial"])
    assert p(3) == 18
    assert data["evaluations"] == {"3": "18", "2": "2"}


def test_dpexact_text(capsys):
    code, out, _ = run_cli(capsys, "dpexact", "--fixture", "cycle:4", "--m", "3")
    assert code == 0
    assert "P_DP(G, 3) = 15" in out and "P(G, 3) = 18" in out


def test_dpexact_json_cover_reverifies(capsys):
    data = run_json(capsys, "dpexact", "--fixture", "cycle:4", "--m", "3")
    g = fixture("cycle:4")
    cov = Cover.from_json(g, data["argmin"])
    from dpchroma import build_cover, count_transversals

    assert count_transversals(cov).value == int(data["dp_value"]) == 15
    # the emitted permutations feed back through the normalizing constructor
    rebuilt, _ = build_cover(g, 3, {int(k): v for k, v in data["argmin"]["perms"].items()})
    assert count_transversals(rebuilt).value == 15


def test_chromatic_prints_integers_of_any_length(capsys, tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text("10000\n0 1\n")
    data = run_json(capsys, "chromatic", "--graph", str(path), "--at", "3")
    # P = m^9999 (m - 1); main lifted this process's limit on decimal digits
    assert int(data["evaluations"]["3"]) == 2 * 3**9999
    assert Polynomial.from_json(data["polynomial"])(2) == 2**9999


def test_twist(capsys):
    code, out, _ = run_cli(capsys, "twist", "--fixture", "cycle:3",
                           "--estar", "0>1", "--m", "3")
    assert code == 0
    assert "= 9" in out and "P(G, 3) = 6" in out


@pytest.mark.parametrize("n", [4, 5, 6, 40])
def test_twist_on_a_cycle_with_one_shift(capsys, n):
    # 2^n - (-1)^n transversals on the n-cycle with one 3-shift
    data = run_json(capsys, "twist", "--fixture", f"cycle:{n}", "--estar", "0>1", "--m", "3")
    assert data["count"] == str(2**n - (-1)**n)  # 1099511627775 at n = 40


def test_twist_on_fig1_at_forty_folds(capsys):
    # a shift cover is counted up to a common shift of every fibre; keyed on
    # plain values this search passes the default 10^7 node budget
    start = time.perf_counter()
    data = run_json(capsys, "twist", "--fixture", "fig1", "--estar", "0>1", "--m", "40")
    assert time.perf_counter() - start < 10.0
    assert data["count"] == "15722290665260235299840"


TWIST_ARCS = {"fig1": "0>1", "fig3b": "2>3,2>7,6>3,0>3,2>1"}


@pytest.mark.parametrize("name", ["fig1", "fig3b"])
def test_twist_and_dpexact_print_the_chromatic_value_at_m(capsys, name):
    # twist and dpexact evaluate P(G, m) at their one m; chromatic --at
    # reads it off the whole polynomial
    folds = [1, *range(2, 9), 40]
    at = [x for m in folds for x in ("--at", str(m))]
    values = run_json(capsys, "chromatic", "--fixture", name, *at)["evaluations"]
    for m in folds[1:]:
        data = run_json(capsys, "twist", "--fixture", name, "--estar", TWIST_ARCS[name],
                        "--m", str(m))
        assert data["chromatic_value"] == values[str(m)]
    for m in folds[:2]:  # the cover sweep at m = 1 and 2; m = 3 takes minutes
        data = run_json(capsys, "dpexact", "--fixture", name, "--m", str(m))
        assert data["chromatic_value"] == values[str(m)]


def test_twist_on_fig3b_builds_one_search_plan(capsys, monkeypatch):
    # fig3b is one block, so the chromatic search and the transversal count
    # walk the same plan, built once and memoised on the graph
    from dpchroma import graphs

    built = []
    builder = graphs._greedy_plan
    monkeypatch.setattr(graphs, "_greedy_plan", lambda g, keep: built.append(keep) or builder(g, keep))
    run_json(capsys, "twist", "--fixture", "fig3b", "--estar", TWIST_ARCS["fig3b"], "--m", "5")
    assert built == [()]


def test_dpexact_sweep_builds_its_keep_plan_once(capsys, monkeypatch):
    # K4's tree from 0 leaves edges 12, 13 and 23 free; the sweep counts K4
    # without 23 once per orbit of the first two, each pass keeping 2 and 3
    from dpchroma import covers, graphs

    built, passes = [], []
    builder, counter = graphs._greedy_plan, covers._pair_counts
    monkeypatch.setattr(graphs, "_greedy_plan", lambda g, keep: built.append(keep) or builder(g, keep))
    monkeypatch.setattr(covers, "_pair_counts", lambda *a: passes.append(a[1:]) or counter(*a))
    data = run_json(capsys, "dpexact", "--fixture", "complete:4", "--m", "3", "--jobs", "1")
    assert data["dp_value"] == data["chromatic_value"] == "0"
    assert len(passes) > 1 and set(passes) == {(2, 3)}
    assert built.count((2, 3)) == 1


def test_girth_and_setgirth(capsys):
    data = run_json(capsys, "girth", "--fixture", "complete:4", "--edge", "0")
    assert data["value"] == 3
    data = run_json(capsys, "setgirth", "--fixture", "cycle:4", "--edges", "0-1,2-3")
    assert data["value"] == "infinity"
    data = run_json(capsys, "setgirth", "--fixture", "cycle:4", "--edges", "0")
    assert data["value"] == 4


def test_balance(capsys):
    data = run_json(capsys, "balance", "--fixture", "cycle:4",
                    "--estar", "0>1,2>3", "--bound", "5")
    assert data["balanced"] is False
    assert data["witness"] == [0, 1, 2, 3]
    data = run_json(capsys, "balance", "--fixture", "cycle:4",
                    "--estar", "0>1,3>2", "--bound", "5")
    assert data["balanced"] is True


def test_dpgood_json_certificate_round_trips(capsys):
    data = run_json(capsys, "dpgood", "--fixture", "fig1")
    assert data["status"] == "satisfied"
    cert = DpGoodCertificate.from_json(data["certificate"])
    assert verify_dp_good_certificate(fixture("fig1"), cert)


def test_vorder(capsys):
    data = run_json(capsys, "vorder", "--fixture", "complete:4")
    assert data["status"] == "satisfied"
    data = run_json(capsys, "vorder", "--fixture", "cycle:4", "--order", "0,1,2,3")
    assert data["status"] == "violated"


def test_thm5_and_cor5(capsys):
    data = run_json(capsys, "thm5", "--fixture", "cycle:4", "--estar", "0>1")
    assert data["status"] == "satisfied"
    data = run_json(capsys, "cor5", "--fixture", "fig3b",
                    "--v1", "0,2,6", "--v2", "1,3,7",
                    "--estar", "2-3,2-7,3-6,0-3,1-2")
    assert data["status"] == "satisfied"


def test_classify(capsys):
    data = run_json(capsys, "classify", "--fixture", "fig1")
    sat = {v["condition"] for v in data["verdicts"] if v["status"] == "satisfied"}
    assert "dp-good" in sat
    assert data["implied"] == ["DP*"]


SHIFT_ON_EDGE_0 = {"m": 3, "perms": {"0": [1, 2, 0]}}


def test_dpcount_with_cover_file(capsys, tmp_path):
    cover_file = tmp_path / "cover.json"
    cover_file.write_text(json.dumps(SHIFT_ON_EDGE_0))
    argv = ["dpcount", "--fixture", "cycle:4", "--cover", str(cover_file)]
    assert run_json(capsys, *argv) == {"value": "15"}
    assert run_cli(capsys, *argv) == (0, "transversals = 15\n", "")


@pytest.mark.parametrize("name, value", [("fig1", 255), ("fig3b", 6), ("complete:8", 0)])
def test_dpcount_answers_on_the_figures(capsys, tmp_path, name, value):
    # the brute force checks the counts up to 3^10 picks; fig1's 3^14 are
    # too many, and its count is the one a sum over edge subsets agreed on
    cover_file = tmp_path / "cover.json"
    cover_file.write_text(json.dumps(SHIFT_ON_EDGE_0))
    start = time.perf_counter()
    data = run_json(capsys, "dpcount", "--fixture", name, "--cover", str(cover_file))
    assert time.perf_counter() - start < 5.0
    assert data == {"value": str(value)}
    g = fixture(name)
    if g.n <= 10:
        perms = list(Cover.from_json(g, SHIFT_ON_EDGE_0).perms)
        assert oracles.transversal_count(g.n, list(g.edges), perms, 3) == value


def test_graph_file_input(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# triangle\n3\n0 1\n1 2\n0 2\n")
    code, out, _ = run_cli(capsys, "chromatic", "--graph", str(path), "--at", "3")
    assert code == 0 and "P(3) = 6" in out


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 0\n")
    code, _, err = run_cli(capsys, "chromatic", "--graph", str(path))
    assert code == 2
    assert "loop at line 2" in err


def test_unknown_fixture_exit_code(capsys):
    code, _, err = run_cli(capsys, "chromatic", "--fixture", "petersen")
    assert code == 2
    assert "unknown fixture" in err


def test_unknown_subcommand_exit_code(capsys):
    code, _, _ = run_cli(capsys, "frobnicate", "--fixture", "cycle:4")
    assert code == 2


def test_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "dpexact", "--fixture", "complete:4",
                           "--m", "3", "--budget-covers", "10")
    assert code == 3
    assert f"budget exceeded: {SWEEP_COUNTER}: reached 94, over the budget of 10" in err


BAD_COVERS = {
    "perms_list": {"m": 3, "perms": [1, 2]},
    "perm_not_list": {"m": 3, "perms": {"0": 5}},
    "not_object": [],
    "m_null": {"m": None},
    "m_float": {"m": 3.7},
    "m_bool": {"m": True},
    "image_float": {"m": 3, "perms": {"0": [0, 2.9, 1]}},
}


@pytest.mark.parametrize("argv, expected", [
    (["dpexact", "--fixture", "complete:3", "--m", "-2"], 2),
    (["dpexact", "--fixture", "complete:3", "--m", "0"], 2),
    (["dpexact", "--fixture", "complete:3", "--m", "2", "--jobs", "-4"], 2),
    (["dpexact", "--fixture", "complete:3", "--m", "2", "--jobs", "0"], 2),
    (["dpcount", "--fixture", "complete:3", "--cover", "{m0}"], 2),
    (["chromatic", "--fixture", "cycle:4", "--budget-trees", "5"], 2),
    (["cor5", "--fixture", "fig3b", "--v1", "0,2,6", "--v2", "1,3,7",
      "--budget-cycles", "1"], 3),
    (["dpexact", "--fixture", "cycle:4", "--m", "3", "--budget-covers", "-1"], 2),
    (["classify", "--fixture", "cycle:5", "--budget-trees", "-1"], 2),
    (["cor5", "--fixture", "fig3b", "--v1", "0,2,6", "--v2", "1,3,7",
      "--budget-cycles", "0"], 2),
    (["dpgood", "--graph", "{searched}", "--budget-trees", "12"], 3),
    (["vorder", "--fixture", "fig1", "--budget-trees", "63"], 3),
    (["chromatic", "--graph", "{huge}", "--at", "3"], 2),
    (["chromatic", "--fixture", "cycle:100000"], 2),
    (["chromatic", "--fixture", "complete:100000"], 2),
    # fold counts above MAX_FOLD, rejected before a cover of that size is built
    (["twist", "--fixture", "cycle:4", "--estar", "0>1", "--m", "200000"], 2),
    (["dpcount", "--fixture", "cycle:4", "--cover", "{m_big}"], 2),
    (["dpexact", "--fixture", "cycle:4", "--m", "200000"], 2),
    # cover files that are not {"m": integer, "perms": {edge index: [integers]}}
    *[(["dpcount", "--fixture", "complete:3", "--cover", f"{{{name}}}"], 2) for name in BAD_COVERS],
    # a vertex class outside the graph, and an edge oriented twice
    (["cor5", "--fixture", "fig3b", "--v1", "0,2,6", "--v2", "1,3,7,99"], 2),
    (["twist", "--fixture", "cycle:4", "--estar", "0>1,1>0", "--m", "3"], 2),
    (["thm5", "--fixture", "cycle:4", "--estar", "0-1,0>1"], 2),
    (["balance", "--fixture", "cycle:4", "--estar", "0,1>0", "--bound", "4"], 2),
    # a cover file whose keys "1" and "01" both name edge 1
    (["dpcount", "--fixture", "cycle:3", "--cover", "{edge_twice}"], 2),
    # an empty edge set given to cor5, which is not all crossing edges
    (["cor5", "--fixture", "fig3b", "--v1", "0,2,6", "--v2", "1,3,7", "--estar", ""], 2),
    (["cor5", "--fixture", "fig3b", "--v1", "0,2,6", "--v2", "1,3,7", "--estar", " , "], 2),
])
def test_rejected_input_exit_code(capsys, tmp_path, argv, expected):
    files = {"m0": json.dumps({"m": 0}), "m_big": json.dumps({"m": 200000}),
             "huge": "100000000\n0 1\n",
             "edge_twice": json.dumps({"m": 3, "perms": {"1": [1, 2, 0], "01": [0, 1, 2]}}),
             "searched": "9\n" + "".join(f"{u} {v}\n" for u, v in SEARCHED_EDGES)}
    files.update({name: json.dumps(data) for name, data in BAD_COVERS.items()})
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    code, out, _ = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == expected
    assert out == ""


def test_fixture_over_the_edge_limit_is_refused_before_it_is_built(capsys):
    # K_10000 has 49,995,000 edges, far more memory than a test may take
    # if it were built; its closed-form edge count refuses it at once
    code, out, err = run_cli(capsys, "girth", "--fixture", "complete:10000", "--edge", "0")
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: bad fixture 'complete:10000': 49995000 edges is above the limit of 2000000"]


@pytest.mark.parametrize("argv", [
    ["setgirth", "--fixture", "cycle:4", "--edges", "0,0"],
    ["setgirth", "--fixture", "cycle:4", "--edges", "0-1,1>0"],
    ["setgirth", "--fixture", "cycle:4", "--edges", "3,0-3"],
    ["cor5", "--fixture", "fig3b", "--v1", "0,2,6", "--v2", "1,3,7", "--estar", "0,2-3"],
])
def test_unoriented_edge_named_twice(capsys, argv):
    # an unoriented edge list rejects a repeat as the oriented lists of
    # twist, thm5 and balance do, instead of merging it
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "given twice" in err


NAMED_ERRORS = [
    (["setgirth", "--fixture", "cycle:4", "--edges", "0>1>2"], "malformed edge '0>1>2'"),
    (["setgirth", "--fixture", "cycle:4", "--edges", "1-2-3"], "malformed edge '1-2-3'"),
    (["setgirth", "--fixture", "cycle:4", "--edges", "0,1-x"], "malformed edge '1-x'"),
    (["twist", "--fixture", "cycle:4", "--m", "3", "--estar", "0>"], "malformed edge '0>'"),
    (["setgirth", "--fixture", "cycle:4", "--edges", "0-2"], "no edge (0, 2)"),
    (["thm5", "--fixture", "cycle:4", "--estar", "2>0"], "no edge (0, 2)"),
    (["cor5", "--fixture", "fig3b", "--v1", "0,2,6", "--v2", "1,3,7", "--estar", ""],
     "the oriented edge set must be non-empty"),
    (["vorder", "--fixture", "cycle:4", "--order", "0,1,x"], "malformed vertex 'x'"),
    # an empty order is checked, not taken as no order at all
    (["vorder", "--fixture", "cycle:4", "--order", ""],
     "order must be a permutation of the vertices"),
    (["vorder", "--fixture", "cycle:4", "--order="],
     "order must be a permutation of the vertices"),
    (["cor5", "--fixture", "fig3b", "--v2", "1", "--v1", "0,x"], "malformed vertex 'x'"),
]


@pytest.mark.parametrize("argv, message", NAMED_ERRORS,
                         ids=[f"{a[0]} {a[-1]!r}" for a, _ in NAMED_ERRORS])
def test_input_error_names_the_input(capsys, argv, message):
    # the message names the bad token, without the quotes str() puts
    # around a KeyError's message
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"error: {message}"


# inputs on a thousand-vertex path or cycle, far below MAX_VERTICES, whose
# tree walk or cycle enumeration must not grow the interpreter's stack
LONG = [
    (["dpgood", "--fixture", "path:1100"],
     {"status": "satisfied", "certificate.labeling": []}),
    (["dpgood", "--fixture", "cycle:1101"],
     {"status": "satisfied", "detail.trees_tried": 1}),
    (["thm5", "--fixture", "cycle:1100", "--estar", "0>1"],
     {"status": "satisfied", "certificate.set_girth": 1100}),
    (["cor5", "--fixture", "cycle:1100", "--v1", "0", "--v2", "1"],
     {"status": "satisfied", "certificate.set_girth": 1100}),
    (["balance", "--fixture", "cycle:1100", "--estar", "0>1", "--bound", "1101"],
     {"balanced": False}),
]


@pytest.mark.parametrize("argv, expected", LONG, ids=[" ".join(a[:3]) for a, _ in LONG])
def test_long_path_and_cycle_verdicts(capsys, argv, expected):
    data = run_json(capsys, *argv)
    for key, value in expected.items():
        got = data
        for part in key.split("."):
            got = got[part]
        assert got == value, key


def test_vertex_subset_budget_past_the_index_size(capsys):
    # a budget above 2^70 once sized a 2^70-byte table of vertex subsets and
    # died with an OverflowError; the search decides only the subsets it meets
    argv = ["--fixture", "path:70", "--budget-trees", str(10**30)]
    data = run_json(capsys, "vorder", *argv)
    assert (data["status"], data["certificate"]) == ("satisfied", list(range(69, -1, -1)))
    verdicts = run_json(capsys, "classify", *argv)["verdicts"]
    assert [v["status"] for v in verdicts if v["condition"] == data["condition"]] == \
        ["satisfied"]


@pytest.mark.parametrize("fixture_name, m, value, chromatic, minimizers", [
    ("cycle:4", 10, "6560", "6570", 1_334_961),
    ("complete:4", 5, "120", "120", 1),
])
def test_dpexact_past_the_full_sweep(capsys, fixture_name, m, value, chromatic, minimizers):
    # both exited 3 while the budget capped (m!)^q covers: 10! and 120^3
    data = run_json(capsys, "dpexact", "--fixture", fixture_name, "--m", str(m))
    assert (data["dp_value"], data["chromatic_value"], data["minimizers"]) == \
        (value, chromatic, minimizers)


def test_cover_budget_is_checked_before_the_cover_space_is_built(capsys):
    # 2^100000 column sets has 30,103 digits; the check stops multiplying
    # once the product is past the budget and 2^64, and prints only that far
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "dpexact", "--fixture", "cycle:4", "--m", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert f"budget exceeded: {SWEEP_COUNTER}: reached {2**65}," in err
    assert len(err) < 200


@pytest.mark.parametrize("argv", [
    ["dpexact", "--m", "3"], ["classify"], ["dpgood"], ["vorder"],
], ids=lambda argv: argv[0])
def test_empty_graph_is_not_connected(capsys, tmp_path, argv):
    path = tmp_path / "empty.txt"
    path.write_text("0\n")
    code, out, err = run_cli(capsys, *argv, "--graph", str(path))
    assert code == 2
    assert out == ""
    assert "graph must be connected" in err


@pytest.mark.parametrize("argv", [
    ["dpexact", "--m", "3"], ["classify"], ["dpgood"], ["vorder"],
    ["vorder", "--order", "0,1,2"],
], ids=" ".join)
def test_disconnected_graph_is_rejected(capsys, tmp_path, argv):
    path = tmp_path / "split.txt"
    path.write_text("3\n0 1\n")
    code, out, err = run_cli(capsys, *argv, "--graph", str(path))
    assert code == 2
    assert out == ""
    assert "graph must be connected" in err


def test_missing_graph_source_exit_code(capsys):
    code, _, _ = run_cli(capsys, "chromatic")
    assert code == 2


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "classify", "--fixture", "complete:4", "--format", "json")
    second = run_cli(capsys, "classify", "--fixture", "complete:4", "--format", "json")
    assert first == second


def test_repeated_calls_in_one_process_stay_independent(capsys):
    data = run_json(capsys, "chromatic", "--fixture", "cycle:4", "--at", "4")
    assert data["evaluations"] == {"4": "84"}
    # the --at list of the call before does not carry over
    data = run_json(capsys, "chromatic", "--fixture", "cycle:4")
    assert data["evaluations"] == {}
    code, out, err = run_cli(capsys, "dpexact", "--fixture", "cycle:4", "--m", "x")
    assert code == 2 and out == "" and "invalid int value: 'x'" in err
    data = run_json(capsys, "dpexact", "--fixture", "cycle:4", "--m", "3")
    assert data["dp_value"] == "15" and data["chromatic_value"] == "18"
    for _ in range(2):
        code, out, _ = run_cli(capsys, "chromatic", "--help")
        assert code == 0 and out.startswith("usage: dp-chroma chromatic")


def test_parser_is_built_once_per_process(capsys):
    for argv in (["chromatic", "--fixture", "path:3"], ["girth", "--fixture", "cycle:5",
                                                       "--edge", "1"], ["nope"]):
        main(argv)
    capsys.readouterr()
    assert _build_parser.cache_info().misses == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dpchroma", "chromatic", "--fixture", "cycle:4",
         "--at", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "P(3) = 18" in proc.stdout


def test_small_sweep_never_imports_the_process_pool():
    # K4 at m = 4 is under POOL_WORK, so --jobs 2 starts no worker; K5 at
    # m = 3 is over it and starts them wherever two CPUs are usable
    script = """if True:
        import contextlib, io, json, sys
        from dpchroma.cli import main
        from dpchroma.covers import _usable_cpus
        seen = []
        for fixture, m in (("complete:4", "4"), ("complete:5", "3")):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["dpexact", "--fixture", fixture, "--m", m, "--jobs", "2"]) == 0
            seen.append("concurrent.futures.process" in sys.modules)
        print(json.dumps([seen, _usable_cpus() > 1]))
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen, pooled = json.loads(proc.stdout)
    assert seen == [False, pooled]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_ends_the_command_quietly(fmt):
    # P(G, m) of a 2000-cycle is about 886 KB in either format, more than a
    # pipe holds, so the write meets the closed pipe; it is not an input error
    argv = [sys.executable, "-m", "dpchroma", "chromatic", "--fixture", "cycle:2000",
            "--at", "3", "--format", fmt]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 with a POSIX shell")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_missing_stdout_is_a_write_error(fmt):
    # started with fd 1 closed, the interpreter sets sys.stdout to None and
    # print drops the text: one error line, no usage hint, exit 1
    argv = ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "dpchroma", "chromatic",
            "--fixture", "cycle:4", "--format", fmt]
    proc = subprocess.run(argv, stderr=subprocess.PIPE, text=True)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr and "--help" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_write_error_is_not_an_input_error(fmt):
    # every write to /dev/full fails with ENOSPC: one error line, no usage
    # hint, exit 1, and the interpreter's last flush adds nothing
    argv = [sys.executable, "-m", "dpchroma", "chromatic", "--fixture", "cycle:4",
            "--format", fmt]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (
        1, "error: cannot write the output: [Errno 28] No space left on device\n")


# --format json output of the paper's figures, recorded before the graph
# primitives were merged; it fixes the BFS tie-breaking behind every witness
FIG3B_ARGS = ("--fixture", "fig3b")
NOTE = ("satisfied status is a sufficient condition for the implied "
        "membership, for all large enough fold counts")
FIG3B_ORIENTATION = [
    {"edge": 0, "tail": 2, "head": 3}, {"edge": 1, "tail": 2, "head": 7},
    {"edge": 2, "tail": 6, "head": 3}, {"edge": 3, "tail": 0, "head": 3},
    {"edge": 4, "tail": 2, "head": 1},
]
K4_M4 = {"dp_value": "24", "chromatic_value": "24", "argmin": {"m": 4, "perms": {}},
         "minimizers": 1}
PINNED = [
    (("girth", "--fixture", "fig1", "--edge", "5"),
     {"value": 3, "witness": [2, 6, 11]}),
    (("setgirth", *FIG3B_ARGS, "--edges", "2-3,2-7,3-6,0-3,1-2"),
     {"value": 4, "witness": [0, 3, 5, 4]}),
    (("cor5", *FIG3B_ARGS, "--v1", "0,2,6", "--v2", "1,3,7"),
     {"condition": "crossing-edge-set", "status": "satisfied", "implied": "DP<",
      "note": NOTE,
      "certificate": {"set_girth": 4, "girth_witness": [0, 3, 5, 4],
                      "orientation": FIG3B_ORIENTATION,
                      "v1": [0, 2, 6], "v2": [1, 3, 7]},
      "witness": None, "detail": {}}),
    (("thm5", *FIG3B_ARGS, "--estar", "2>3,2>7,6>3,0>3,2>1"),
     {"condition": "balanced-orientation", "status": "satisfied", "implied": "DP<",
      "note": NOTE,
      "certificate": {"set_girth": 4, "girth_witness": [0, 3, 5, 4],
                      "orientation": FIG3B_ORIENTATION},
      "witness": None, "detail": {}}),
    (("classify", "--fixture", "fig1"),
     {"verdicts": [
         {"condition": "even-girth-edge", "status": "violated", "implied": "unknown",
          "note": NOTE, "certificate": None, "witness": None,
          "detail": {"reason": "every edge has odd or infinite girth",
                     "edge_girths": [3, 5, 5, 5] + [3] * 17}},
         {"condition": "dp-good", "status": "satisfied", "implied": "DP*",
          "note": NOTE,
          "certificate": {
              "tree": [0, 1, 4, 5, 6, 7, 8, 9, 11, 13, 15, 17, 19],
              "labeling": [10, 12, 14, 16, 18, 20, 2, 3],
              "cycles": [[5, 7, 8], [5, 6, 9], [3, 7, 10], [2, 6, 11],
                         [0, 4, 12], [0, 1, 13], [2, 3, 7, 5, 6], [0, 1, 2, 3, 4]]},
          "witness": None,
          "detail": {"trees_tried": 3781, "girth_sequence": [3, 3, 3, 3, 3, 3, 5, 5]}},
         {"condition": "connected-back-neighborhood-order", "status": "violated",
          "implied": "unknown", "note": NOTE, "certificate": None, "witness": None,
          "detail": {"reason": "no vertex order satisfies the condition "
                               "(exhaustive over all orders)"}},
         {"condition": "quad-girth-crossing-set", "status": "inconclusive",
          "implied": "unknown", "note": NOTE, "certificate": None, "witness": None,
          "detail": {"reason": "no edge set has set girth four: every 4-cycle "
                               "is a sum of triangles",
                     "tried": 21}}],
      "implied": ["DP*"]}),
    # recorded before the BFS walks were merged: the argmin cover is stated
    # relative to the BFS tree from vertex 0
    (("dpexact", "--fixture", "complete:4", "--m", "3"),
     {"dp_value": "0", "chromatic_value": "0", "argmin": {"m": 3, "perms": {}},
      "minimizers": 1}),
    (("dpexact", "--fixture", "cycle:4", "--m", "3"),
     {"dp_value": "15", "chromatic_value": "18",
      "argmin": {"m": 3, "perms": {"2": [1, 2, 0]}}, "minimizers": 2}),
    # recorded from the full (m!)^q sweep, before it ran over orbit heads;
    # with --jobs 2 the same bytes: a sweep this small runs in this process
    (("dpexact", "--fixture", "complete:4", "--m", "4"), K4_M4),
    (("dpexact", "--fixture", "complete:4", "--m", "4", "--jobs", "2"), K4_M4),
]


@pytest.mark.parametrize("argv, expected", PINNED, ids=[a[0] for a, _ in PINNED])
def test_pinned_json_output(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    assert out == json.dumps(expected, indent=2, ensure_ascii=False) + "\n"


# a 4-cycle 0-1-2-3 plus a 5-edge path 0-4-5-6-7-1: the edge sets below meet
# the 4-cycle twice and the 6-cycle through the path once, so the set girth
# is 6 and the 4-cycle decides; recorded before the two DP< checks shared
# one cycle walk
SQUARE_WITH_HANDLE = "8\n0 1\n1 2\n2 3\n0 3\n0 4\n4 5\n5 6\n6 7\n1 7\n"
PINNED_SQUARE = [
    (("cor5", "--v1", "0,2", "--v2", "1,3", "--estar", "0-1,2-3"),
     {"condition": "crossing-edge-set", "status": "violated", "implied": "unknown",
      "note": NOTE, "certificate": None, "witness": [0, 1, 2, 3],
      "detail": {"reason": "a short cycle minus the crossing edges leaves a "
                           "cross-class path",
                 "path_endpoints": [1, 2], "set_girth": 6}}),
    (("thm5", "--estar", "0>1,2>3"),
     {"condition": "balanced-orientation", "status": "violated", "implied": "unknown",
      "note": NOTE, "certificate": None, "witness": [0, 1, 2, 3],
      "detail": {"reason": "orientation unbalanced on a short cycle", "set_girth": 6}}),
    (("thm5", "--estar", "0>1,3>2"),
     {"condition": "balanced-orientation", "status": "satisfied", "implied": "DP<",
      "note": NOTE,
      "certificate": {"set_girth": 6, "girth_witness": [0, 1, 7, 6, 5, 4],
                      "orientation": [{"edge": 0, "tail": 0, "head": 1},
                                      {"edge": 2, "tail": 3, "head": 2}]},
      "witness": None, "detail": {}}),
]


@pytest.mark.parametrize("argv, expected", PINNED_SQUARE,
                         ids=[" ".join(a) for a, _ in PINNED_SQUARE])
def test_pinned_json_on_a_square_with_a_handle(capsys, tmp_path, argv, expected):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_WITH_HANDLE)
    code, out, err = run_cli(capsys, *argv, "--graph", str(path), "--format", "json")
    assert code == 0, err
    assert out == json.dumps(expected, indent=2, ensure_ascii=False) + "\n"


# the default text output of every subcommand, and the exact stderr of one
# input error and one budget overrun; recorded before the subcommands
# returned their lines to `main`.  "{cover}" names a 3-shift on edge 0
FIG3B_ESTAR = "2>3,2>7,6>3,0>3,2>1"
PINNED_TEXT = [
    (("chromatic", "--fixture", "cycle:4", "--at", "3", "--at", "0"), 0,
     "P(G, m) = m^4 - 4*m^3 + 6*m^2 - 3*m\nP(3) = 18\nP(0) = 0\n", ""),
    (("dpcount", "--fixture", "fig1", "--cover", "{cover}"), 0, "transversals = 255\n", ""),
    (("dpexact", "--fixture", "cycle:4", "--m", "3"), 0,
     "P_DP(G, 3) = 15 < P(G, 3) = 18\nargmin cover: edge 2 (2, 3) -> [1, 2, 0]\n"
     "minimizing covers: 2\n", ""),
    (("twist", *FIG3B_ARGS, "--estar", FIG3B_ESTAR, "--m", "3"), 0,
     "twisted cover count = 3 > P(G, 3) = 0\nsloping edges: [0, 1, 2, 3, 4]\n", ""),
    (("girth", "--fixture", "fig1", "--edge", "5"), 0,
     "girth of edge 5 (2, 6): 3\nwitness cycle: [2, 6, 11]\n", ""),
    (("setgirth", *FIG3B_ARGS, "--edges", "2-3,2-7,3-6,0-3,1-2"), 0,
     "set girth: 4\nwitness cycle: [0, 3, 5, 4]\n", ""),
    (("balance", "--fixture", "fig1", "--estar", "0", "--bound", "5"), 0,
     "balanced below length 5: False\nfailing cycle: [0, 1, 13]\n", ""),
    (("dpgood", "--fixture", "fig1"), 0,
     "dp-good: satisfied (implied class: DP*)\n"
     "  tree edges: [0, 1, 4, 5, 6, 7, 8, 9, 11, 13, 15, 17, 19]\n"
     "  labeling: [10, 12, 14, 16, 18, 20, 2, 3]\n"
     "  girths: [3, 3, 3, 3, 3, 3, 5, 5]\n", ""),
    (("vorder", "--fixture", "complete:4"), 0,
     "connected-back-neighborhood-order: satisfied (implied class: DP*)\n"
     "  order: [3, 2, 1, 0]\n", ""),
    (("thm5", *FIG3B_ARGS, "--estar", FIG3B_ESTAR), 0,
     "balanced-orientation: satisfied (implied class: DP<)\n", ""),
    (("cor5", *FIG3B_ARGS, "--v1", "0,2,6", "--v2", "1,3,7"), 0,
     "crossing-edge-set: satisfied (implied class: DP<)\n", ""),
    (("classify", "--fixture", "fig1"), 0,
     "even-girth-edge: violated (implied class: unknown)\n"
     "  reason: every edge has odd or infinite girth\n"
     "dp-good: satisfied (implied class: DP*)\n"
     "connected-back-neighborhood-order: violated (implied class: unknown)\n"
     "  reason: no vertex order satisfies the condition (exhaustive over all orders)\n"
     "quad-girth-crossing-set: inconclusive (implied class: unknown)\n"
     "  reason: no edge set has set girth four: every 4-cycle is a sum of triangles\n"
     "implied memberships: DP*\n", ""),
    (("girth", "--fixture", "fig1", "--edge", "99"), 2, "",
     "error: edge index 99 out of range\nrun dp-chroma girth --help for usage\n"),
    (("dpexact", "--fixture", "cycle:4", "--m", "3", "--budget-covers", "1"), 3, "",
     "budget exceeded: prefix orbits x 2^m column sets + listed permutations: "
     "reached 8, over the budget of 1\n"),
]


@pytest.mark.parametrize("argv, code, out, err", PINNED_TEXT,
                         ids=[" ".join(a) for a, *_ in PINNED_TEXT])
def test_pinned_text_output(capsys, tmp_path, argv, code, out, err):
    cover = tmp_path / "shift.json"
    cover.write_text('{"m": 3, "perms": {"0": [1, 2, 0]}}')
    assert run_cli(capsys, *(a.format(cover=cover) for a in argv)) == (code, out, err)
