import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hitset
from hitset import (
    Graph,
    ParseError,
    Pattern,
    WeightedGraph,
    parse_graph,
    random_graph,
    serialize_graph,
    unit_weights,
    verify_solution,
)
from hitset.cli import main, parse_solution_document
from helpers import (
    complete_graph,
    hub_branches_pattern,
    path_graph,
    restarting_decomposition,
    star_graph,
    too_many_digits,
    triangle_square_share_vertex,
    with_isolated_vertex,
)

K3_TEXT = "p 3 3\ne 0 1\ne 1 2\ne 0 2\n"
P3_TEXT = "p 3 2\ne 0 1\ne 1 2\n"
P5_TEXT = "p 5 4\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n"
STAR4_TEXT = "p 5 4\ne 0 1\ne 0 2\ne 0 3\ne 0 4\n"
K2_TEXT = "p 2 1\ne 0 1\n"
BOWTIE_TEXT = "p 5 6\ne 0 1\ne 0 2\ne 1 2\ne 2 3\ne 2 4\ne 3 4\n"


@pytest.fixture
def files(tmp_path):
    k3 = tmp_path / "k3.graph"
    k3.write_text(K3_TEXT)
    p3 = tmp_path / "p3.graph"
    p3.write_text(P3_TEXT)
    p5 = tmp_path / "p5.graph"
    p5.write_text(P5_TEXT)
    return tmp_path, k3, p3, p5


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_document(files, capsys):
    _, k3, p3, _ = files
    code, out, _ = run(capsys, "solve", k3, p3)
    assert code == 0
    assert "classification: semi-symmetric" in out
    assert "guaranteed_factor: 5/2" in out
    assert "vertices: 0" in out
    assert "weight: 1" in out
    keys = [line.split(":")[0] for line in out.splitlines() if not line.startswith("#")]
    assert keys == sorted(keys)


def test_solve_deterministic(files, capsys):
    _, k3, p3, _ = files
    _, first, _ = run(capsys, "solve", k3, p3, "--explain")
    _, second, _ = run(capsys, "solve", k3, p3, "--explain")
    assert first == second


def test_exact(files, capsys):
    _, k3, p3, _ = files
    code, out, _ = run(capsys, "exact", k3, p3)
    assert code == 0
    assert "weight: 1" in out
    code, out, err = run(capsys, "exact", k3)
    assert (code, out) == (2, "")
    assert err == "error: exact needs a pattern file (or --vertex-cover)\n"


def test_exact_vertex_cover(files, capsys):
    _, k3, _, _ = files
    code, out, _ = run(capsys, "exact", "--vertex-cover", k3)
    assert code == 0
    assert "vertex_cover_size: 2" in out


def test_analyze_path5(files, capsys):
    _, _, _, p5 = files
    code, out, _ = run(capsys, "analyze", p5)
    assert code == 0
    assert "classification: semi-symmetric" in out
    assert "guaranteed_factor: 9/2" in out


def test_analyze_two_connected(files, capsys):
    _, k3, _, _ = files
    code, out, _ = run(capsys, "analyze", k3)
    assert code == 0
    assert "classification: two-connected" in out
    assert "guaranteed_factor: 3" in out


def test_verify_valid_and_invalid(files, capsys, tmp_path):
    _, k3, p3, _ = files
    code, out, _ = run(capsys, "solve", k3, p3)
    sol = tmp_path / "sol.txt"
    sol.write_text(out)
    code, out, _ = run(capsys, "verify", k3, p3, sol)
    assert code == 0 and out == "VALID\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("vertices:\n")
    code, out, _ = run(capsys, "verify", k3, p3, bad)
    assert code == 1 and out == "INVALID\n"
    bad.write_text("vertices: 0 3\n")
    code, out, err = run(capsys, "verify", k3, p3, bad)
    assert (code, out, err) == (2, "", "error: solution vertex out of range\n")


def test_parse_solution_document():
    assert parse_solution_document("weight: 3\nvertices: 2 5 7\n") == (2, 5, 7)
    assert parse_solution_document("vertices:\n") == ()
    for bad in ("1_0", "\u0662", "x"):
        with pytest.raises(ParseError, match="line 1: vertices must be integers"):
            parse_solution_document(f"vertices: 2 {bad}\n")


def test_parse_solution_document_too_many_digits():
    with pytest.raises(ParseError) as err:
        parse_solution_document(f"weight: 1\nvertices: 0 {too_many_digits()}\n")
    assert err.value.kind == "malformed"
    assert str(err.value) == "line 2: integer vertex id has too many digits"


def test_gen_random_deterministic(capsys):
    code, first, _ = run(capsys, "gen", "random", "--n", "6", "--p", "0.5", "--seed", "9")
    assert code == 0
    _, second, _ = run(capsys, "gen", "random", "--n", "6", "--p", "0.5", "--seed", "9")
    assert first == second
    assert first.startswith("p 6 ")


K3_ON_K3 = """\
p 6 9
e 0 1
e 0 2
e 0 3
e 0 4
e 1 2
e 1 3
e 1 5
e 2 4
e 2 5
# provenance
# v 3 0 1 2
# v 4 0 2 2
# v 5 1 2 2
"""

# P3 minus leaf 0 is the edge 1-2; pattern vertex 1 sits on each base vertex
P3_ON_K3 = """\
p 6 6
e 0 1
e 0 2
e 0 3
e 1 2
e 1 4
e 2 5
# provenance
# v 3 0 2
# v 4 1 2
# v 5 2 2
"""


def test_gen_gadgets(files, capsys, tmp_path):
    _, k3, p3, _ = files
    args = ("gen", "vc-edge-gadget", "--base", k3, "--pattern", k3)
    assert run(capsys, *args) == (0, K3_ON_K3, "")
    args = ("gen", "vc-vertex-gadget", "--base", k3, "--pattern", p3)
    assert run(capsys, *args) == (0, P3_ON_K3, "")


def test_gen_gl(files, capsys, tmp_path):
    _, k3, _, _ = files
    base = tmp_path / "base.hg"
    base.write_text("p 3 1\nh 0 1 2\n")
    args = ["gen", "gl", "--base", base, "--pattern", k3, "--cloud-size", "2", "--seed", "5"]
    code, first, _ = run(capsys, *args)
    assert code == 0
    _, second, _ = run(capsys, *args)
    assert first == second
    assert "# tags" in first


def test_bench(files, capsys):
    _, _, p3, _ = files
    code, out, _ = run(
        capsys, "bench", "--pattern", p3, "--count", "4", "--n", "7", "--p", "0.4", "--seed", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("instance\tk\tn")
    assert len(lines) == 5
    for row in lines[1:]:
        fields = row.split("\t")
        opt = fields[5]
        if opt not in ("-", "0"):
            assert Fraction(fields[8]) <= Fraction(5, 2)
            assert Fraction(fields[7]) <= Fraction(3)


def test_parse_error_exit_code(files, capsys, tmp_path):
    _, _, p3, _ = files
    bad = tmp_path / "bad.graph"
    bad.write_text("p x\n")
    code, _, err = run(capsys, "solve", bad, p3)
    assert code == 2
    assert "line 1" in err


def test_non_utf8_files_report_line_number(files, capsys, tmp_path):
    _, k3, p3, _ = files
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"p 3 2\ne 0 1\ne 1 2\n# caf\xe9\n")  # byte 0xe9 on line 4
    sol = tmp_path / "sol.txt"
    sol.write_text("vertices: 1\n")
    for argv in (
        ["solve", bad, p3],
        ["solve", k3, bad],
        ["verify", k3, p3, bad],
        ["gen", "gl", "--base", bad, "--pattern", k3, "--cloud-size", "2"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: line 4: text is not valid UTF-8\n"


def test_parse_error_too_many_digits_exit_code(files, capsys, tmp_path):
    _, _, p3, _ = files
    bad = tmp_path / "bad.graph"
    bad.write_text(f"p 2 1\ne 0 1\nw 0 {too_many_digits()}\n")
    code, out, err = run(capsys, "solve", bad, p3)
    assert (code, out) == (2, "")
    assert err == "error: line 3: integer weight numerator has too many digits\n"


def test_output_past_int_digit_limit(capsys, tmp_path):
    # valid input: each weight parses, but their sum prints more digits than
    # Python converts by default
    if not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0:
        pytest.skip("this interpreter converts integers of any length")
    limit = sys.get_int_max_str_digits()
    digits = limit * 7 // 10
    a, b = int("1" + "3" * (digits - 1)), int("1" + "7" * (digits - 1))
    host = tmp_path / "host.graph"
    host.write_text(f"p 4 2\ne 0 1\ne 2 3\nw 0 1/{a}\nw 2 1/{b}\n")
    k2 = tmp_path / "k2.graph"
    k2.write_text(K2_TEXT)
    sys.set_int_max_str_digits(0)
    try:
        weight = f"weight: {Fraction(1, a) + Fraction(1, b)}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(weight) > limit
    for argv in (("solve", host, k2), ("solve", host, k2, "--explain"), ("exact", host, k2)):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert weight in out
        assert sys.get_int_max_str_digits() == limit


def test_budget_exit_code(files, capsys, tmp_path):
    _, _, p3, _ = files
    star = tmp_path / "star.graph"
    star.write_text("p 5 4\ne 0 1\ne 0 2\ne 0 3\ne 0 4\n")
    code, _, err = run(capsys, "solve", star, p3, "--budget", "1")
    assert code == 3
    assert "budget" in err


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", tmp_path / "missing.graph")
    assert code == 2
    # an unreadable path is a usage error too, not a traceback
    p3 = tmp_path / "p3.graph"
    p3.write_text(P3_TEXT)
    code, out, err = run(capsys, "solve", tmp_path, p3)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_analyze_uncertified_gadget_exit_code(files, capsys, monkeypatch):
    _, _, _, p5 = files
    monkeypatch.setattr(hitset.cli, "verify_goodness", lambda good, h: False)
    code, out, err = run(capsys, "analyze", p5)
    assert (code, out) == (4, "")
    assert err == "error: gadget failed its goodness certificate\n"


def test_solve_gadget_vertex_on_no_copy_exit_code(files, capsys, monkeypatch):
    _, k3, p3, _ = files
    monkeypatch.setattr(
        hitset.pipeline, "verify_goodness", hitset.oracle.verify_goodness.__wrapped__
    )
    build = hitset.pipeline.construct_good_graph
    monkeypatch.setattr(
        hitset.pipeline, "construct_good_graph", lambda h, d: with_isolated_vertex(build(h, d))
    )
    code, out, err = run(capsys, "solve", k3, p3)
    assert (code, out) == (4, "")
    assert err == "error: gadget failed its goodness certificate\n"


def test_value_error_exit_code(capsys):
    code, out, err = run(capsys, "gen", "random", "--n", "3", "--p", "2")
    assert (code, out) == (2, "")
    assert err == "error: edge probability must lie in [0, 1]\n"


STAR4_P3_EXPLAIN = """\
classification: semi-symmetric
guaranteed_factor: 5/2
lower_bound: 1
vertices: 0
weight: 1
# subtraction step 1: gadget 0 scale 1 image 0->1 1->0 2->2 3->3
# zero set: 0
# residual vertices: 1 2 3 4
# colouring (palette 6): 0:0 1:0 2:0 3:0 4:0
"""

SEEDED_P3_EXPLAIN = """\
classification: semi-symmetric
guaranteed_factor: 5/2
lower_bound: 8/3
vertices: 3 4 6
weight: 3
# subtraction step 1: gadget 0 scale 1 image 0->0 1->3 2->4 3->5
# zero set: 3
# residual vertices: 0 1 2 4 5 6 7
# colouring (palette 6): 0:0 1:1 2:2 3:0 4:0 5:0 6:1 7:0
# conflict arcs: 1->4 1->7 2->4 2->6 4->1 4->2 6->2 6->7 7->1 7->6
# cover step 1: zero-support at 1: select 4 from edge 1,2,4
# cover step 2: zero-support at 1: select 6 from edge 1,6,7
"""


K3_ON_K4_EXPLAIN = """\
classification: two-connected
guaranteed_factor: 3
lower_bound: 4/3
vertices: 0 1 2
weight: 3
# subtraction step 1: gadget 0 scale 1 image 0->0 1->1 2->2
# zero set: 0 1 2
"""

TRIANGLE_SQUARE_EXPLAIN = """\
classification: unknown
guaranteed_factor: 6
lower_bound: 4/3
vertices: 0 1 2 3 5 6
warning: pattern is neither 2-connected nor has a usable cut vertex; only the trivial factor applies
weight: 6
# subtraction step 1: gadget 0 scale 1 image 0->0 1->1 2->3 3->5 4->2 5->6
# zero set: 0 1 2 3 5 6
"""

P3_BENCH = """\
instance\tk\tn\tbaseline_weight\tpipeline_weight\texact_opt\ttau_star\tbaseline_ratio\tpipeline_ratio
r0000\t3\t10\t9\t5\t4\t10/3\t9/4\t5/4
r0001\t3\t10\t6\t4\t4\t10/3\t3/2\t1
r0002\t3\t10\t6\t4\t4\t10/3\t3/2\t1
"""


@pytest.fixture
def star(tmp_path):
    path = tmp_path / "star.graph"
    path.write_text(STAR4_TEXT)
    return path


def test_solve_explain_golden_star(files, star, capsys):
    _, _, p3, _ = files
    assert run(capsys, "solve", star, p3, "--explain") == (0, STAR4_P3_EXPLAIN, "")


def test_solve_explain_golden_seeded_host(files, capsys, tmp_path):
    _, _, p3, _ = files
    code, text, _ = run(capsys, "gen", "random", "--n", "8", "--p", "0.4", "--seed", "1")
    assert code == 0
    host = tmp_path / "seeded.graph"
    host.write_text(text)
    assert run(capsys, "solve", host, p3, "--explain") == (0, SEEDED_P3_EXPLAIN, "")


def test_solve_explain_golden_two_connected(files, tmp_path, capsys):
    _, k3, _, _ = files
    k4 = tmp_path / "k4.graph"
    k4.write_text("p 4 6\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n")
    assert run(capsys, "solve", k4, k3, "--explain") == (0, K3_ON_K4_EXPLAIN, "")


def test_solve_explain_golden_unknown_pattern(capsys, tmp_path):
    code, text, _ = run(capsys, "gen", "random", "--n", "8", "--p", "0.6", "--seed", "1")
    assert code == 0
    host = tmp_path / "seeded.graph"
    host.write_text(text)
    pattern = tmp_path / "triangle_square.graph"
    pattern.write_text(serialize_graph(unit_weights(triangle_square_share_vertex().graph)))
    assert run(capsys, "solve", host, pattern, "--explain") == (0, TRIANGLE_SQUARE_EXPLAIN, "")


def test_bench_golden(files, capsys):
    _, _, p3, _ = files
    assert run(capsys, "bench", "--pattern", p3, "--count", "3") == (0, P3_BENCH, "")


@pytest.mark.parametrize(
    "budget, phase",
    [(1, "copy enumeration"), (6, "weight decomposition")],
)
def test_solve_budget_messages(files, star, capsys, budget, phase):
    # P3 has six copies in the star; one subtraction step follows them
    _, _, p3, _ = files
    code, out, err = run(capsys, "solve", star, p3, "--budget", budget)
    assert (code, out) == (3, "")
    assert err == f"error: {phase} exceeded the budget of {budget}\n"


def test_solve_budget_just_enough(files, star, capsys):
    _, _, p3, _ = files
    code, out, err = run(capsys, "solve", star, p3, "--budget", 7)
    assert (code, err) == (0, "")
    assert "vertices: 0" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{host}", "{p3}", "--budget", "-2"],
        ["exact", "{host}", "{p3}", "--budget", "-1"],
        ["exact", "{host}", "{p3}", "--cap", "-1"],
        ["exact", "--vertex-cover", "{host}", "--cap", "-3"],
        ["bench", "--pattern", "{p3}", "--count", "-1"],
        ["bench", "--pattern", "{p3}", "--cap", "-1"],
        ["bench", "--pattern", "{p3}", "--budget", "-5"],
        ["bench", "--pattern", "{p3}", "--count", "two"],
    ],
)
def test_negative_budget_cap_count_are_usage_errors(files, star, capsys, argv):
    _, _, p3, _ = files
    argv = [a.format(host=star, p3=p3) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"argument {argv[-2]}: expected a nonnegative integer, got '{argv[-1]}'" in out.err


def test_zero_budget_cap_count_accepted(files, star, capsys):
    _, _, p3, _ = files
    code, out, err = run(capsys, "solve", star, p3, "--budget", 0)
    assert (code, out, err) == (3, "", "error: copy enumeration exceeded the budget of 0\n")
    code, out, _ = run(capsys, "bench", "--pattern", p3, "--count", 2, "--cap", 0)
    rows = out.splitlines()[1:]
    assert code == 0 and len(rows) == 2
    assert all(row.split("\t")[5] == "-" for row in rows)  # n = 10 is over the cap: no exact_opt


def test_bench_rows_in_index_order(files, capsys):
    # past r9999 the row names no longer sort as strings: r10000 < r1001
    _, _, p3, _ = files
    code, out, _ = run(capsys, "bench", "--pattern", p3, "--count", 10001, "--n", 0, "--p", 0)
    names = [row.split("\t")[0] for row in out.splitlines()[1:]]
    assert code == 0 and names == [f"r{i:04d}" for i in range(10001)]


def test_bench_count_zero_prints_header_only(files, capsys):
    _, _, p3, _ = files
    code, out, err = run(capsys, "bench", "--pattern", p3, "--count", 0)
    assert (code, out, err) == (0, P3_BENCH.splitlines(keepends=True)[0], "")


@pytest.mark.parametrize(
    "budget, phase",
    [(2, "weight decomposition"), (3, "copy enumeration")],
)
def test_bench_budget_messages(files, capsys, budget, phase):
    # the first row's baseline subtraction takes 3 steps; its solve then enumerates more copies
    _, _, p3, _ = files
    code, out, err = run(capsys, "bench", "--pattern", p3, "--count", 3, "--budget", budget)
    assert (code, out) == (3, "")
    assert err == f"error: {phase} exceeded the budget of {budget}\n"


@pytest.mark.parametrize("text", [P3_TEXT, BOWTIE_TEXT])
@pytest.mark.parametrize("seed", range(3))
def test_bench_baseline_is_the_unit_pattern_zero_set(tmp_path, capsys, text, seed):
    pattern = tmp_path / "pattern.graph"
    pattern.write_text(text)
    h = Pattern(parse_graph(text).graph)
    argv = ["bench", "--pattern", pattern, "--count", 4, "--n", 12, "--p", 0.4, "--seed", seed]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    for i, row in enumerate(out.splitlines()[1:]):
        g = unit_weights(random_graph(12, 0.4, seed + i))
        zero = restarting_decomposition(g, unit_weights(h.graph)).zero_set
        assert row.split("\t")[3] == str(g.total(zero))
        assert verify_solution(g.graph, h, zero)


def test_exact_budget_message(files, star, capsys):
    _, _, p3, _ = files
    code, out, err = run(capsys, "exact", star, p3, "--budget", 1)
    assert (code, out) == (3, "")
    assert err == "error: copy enumeration exceeded the budget of 1\n"


BOWTIE_ON_K2 = """\
p 5 6
e 0 1
e 0 2
e 1 2
e 2 3
e 2 4
e 3 4
# provenance
# v 2 0 1 2
# v 3 0 1 3
# v 4 0 1 4
"""

HUB_ANALYSIS = """\
classification: semi-symmetric
guaranteed_factor: 17/2
k: 9
root: 2
# branch 0: 0 1 2
# branch 1: 2 3 4 5
# branch 2: 2 6 7 8
# witness: branch 0 into branch 1 via 0->3 1->5 2->2
# gadget total weight: 8
# gadget graph:
# p 12 17
# e 0 1
# e 0 2
# e 1 2
# e 2 3
# e 2 5
# e 2 6
# e 2 7
# e 2 9
# e 2 11
# e 3 4
# e 3 5
# e 4 5
# e 6 8
# e 7 8
# e 9 10
# e 9 11
# e 10 11
# w 0 1/2
# w 1 1/2
# w 3 1/2
# w 4 1/2
# w 5 1/2
# w 9 1/2
# w 10 1/2
# w 11 1/2
"""


def test_gen_edge_gadget_golden_bowtie(capsys, tmp_path):
    # the glued edge 0-1 lies in the leaf block {0, 1, 2}, away from cut vertex 2
    base = tmp_path / "k2.graph"
    base.write_text(K2_TEXT)
    bowtie = tmp_path / "bowtie.graph"
    bowtie.write_text(BOWTIE_TEXT)
    args = ("gen", "vc-edge-gadget", "--base", base, "--pattern", bowtie)
    assert run(capsys, *args) == (0, BOWTIE_ON_K2, "")


def test_analyze_golden_hub_pattern(capsys, tmp_path):
    hub = tmp_path / "hub.graph"
    hub.write_text(serialize_graph(unit_weights(hub_branches_pattern().graph)))
    assert run(capsys, "analyze", hub) == (0, HUB_ANALYSIS, "")


def test_solve_explain_same_with_cold_and_warm_caches(capsys, tmp_path):
    # classifications, gadgets, match plans and goodness certificates are
    # cached per process; a document must not depend on what it solved before
    patterns = {
        "p3": path_graph(3),
        "p4": path_graph(4),
        "k13": star_graph(3),
        "paw": Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
        "k3": complete_graph(3),
    }
    for name, graph in patterns.items():
        (tmp_path / f"{name}.graph").write_text(serialize_graph(unit_weights(graph)))
    hosts = []
    for seed in (1, 2):
        g = random_graph(16, 0.3, seed)
        rng = random.Random(seed)
        for label, wg in (
            ("unit", unit_weights(g)),
            ("int", WeightedGraph(g, tuple(rng.randint(1, 5) for _ in range(g.n)))),
        ):
            path = tmp_path / f"host{seed}-{label}.graph"
            path.write_text(serialize_graph(wg))
            hosts.append(str(path))
    cases = [
        ["solve", host, str(tmp_path / f"{name}.graph"), "--explain"]
        for host in hosts
        for name in patterns
    ]
    # cold: a fresh interpreter, with every pattern cache emptied before each document
    code = (
        "import contextlib, io, json, sys\n"
        "from hitset.cli import main\n"
        "from hitset.copies import _plan, symmetry_pairs\n"
        "from hitset.oracle import verify_goodness\n"
        "from hitset.patterns import classify_pattern, construct_good_graph\n"
        "docs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    classify_pattern.cache_clear()\n"
        "    construct_good_graph.cache_clear()\n"
        "    _plan.cache_clear()\n"
        "    symmetry_pairs.cache_clear()\n"
        "    verify_goodness.cache_clear()\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        docs.append([main(argv), out.getvalue()])\n"
        "print(json.dumps(docs))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(hitset.__file__).resolve().parents[1])}
    fresh = subprocess.run(
        [sys.executable, "-c", code, json.dumps(cases)],
        env=env, capture_output=True, text=True, check=True,
    )
    cold = [tuple(doc) for doc in json.loads(fresh.stdout)]
    # warm: this process, after solving the corpus and other patterns first
    (tmp_path / "k14.graph").write_text(serialize_graph(unit_weights(star_graph(4))))
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    (tmp_path / "c4.graph").write_text(serialize_graph(unit_weights(c4)))
    for host in hosts:
        for extra in ("k14", "c4"):
            run(capsys, "solve", host, tmp_path / f"{extra}.graph")
    for argv in cases:
        run(capsys, *argv)
    warm = [run(capsys, *argv)[:2] for argv in cases]
    assert all(code == 0 for code, _ in cold)
    assert warm == cold
