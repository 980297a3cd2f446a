"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Each test prints a single pass line (visible with `pytest -s` or `-v`)
after all of its exact checks go through.  The corpus sizes and bounds
are pinned here; nothing is tuned at runtime.
"""

import random
from fractions import Fraction

from hitset import (
    Coloring,
    CopyHypergraph,
    GLParams,
    Pattern,
    SEMI_SYMMETRIC,
    WeightedGraph,
    classify_pattern,
    construct_good_graph,
    cover_colored_hypergraph,
    decompose_weights,
    embeddings,
    enumerate_copies,
    exact_min_hitting_set,
    gadget_edge_glue,
    gadget_vertex_glue,
    gl_random_instance,
    random_graph,
    serialize_tagged_graph,
    solve,
    solve_cover_lp,
    unit_weights,
    verify_goodness,
    verify_solution,
)
from helpers import (
    all_trees,
    base_graph_corpus,
    check_complementary_slackness,
    complete_graph,
    cycle_graph,
    hub_branches_pattern,
    naive_min_vertex_cover,
    path_graph,
    random_hypergraph,
    random_weights,
    star_graph,
)

ORACLE_CAP = 60


def tree_patterns_3_to_5() -> list[Pattern]:
    trees = all_trees(3) + all_trees(4) + all_trees(5)
    assert len(trees) == 6
    return [Pattern(t) for t in trees]


def criterion1_corpus() -> list[tuple[str, WeightedGraph, Pattern]]:
    """>= 500 instances: random hosts n <= 12 at three densities plus all
    vertex-glue gadget instances over the 6-vertex base family, with the
    pattern ranging over all trees on 3..5 vertices."""
    instances = []
    for t_idx, pat in enumerate(tree_patterns_3_to_5()):
        for n in range(5, 13):
            for p_idx, p in enumerate((0.2, 0.4, 0.6)):
                for rep in range(3):
                    seed = 10_000 * t_idx + 1_000 * p_idx + 10 * n + rep
                    g = unit_weights(random_graph(n, p, seed))
                    instances.append((f"t{t_idx}-n{n}-p{p_idx}-r{rep}", g, pat))
        for bname, base in base_graph_corpus():
            glued, _ = gadget_vertex_glue(base, pat)
            instances.append((f"t{t_idx}-vglue-{bname}", unit_weights(glued), pat))
    return instances


def test_criterion_1_factor_guarantee():
    corpus = criterion1_corpus()
    assert len(corpus) >= 500
    violations = []
    for name, g, pat in corpus:
        sol = solve(g, pat)
        assert sol.classification == SEMI_SYMMETRIC
        assert verify_solution(g.graph, pat, sol.hitting_set)
        _, opt = exact_min_hitting_set(g, pat, cap=ORACLE_CAP)
        bound = Fraction(2 * pat.k - 1, 2) * opt
        if sol.weight > bound:
            violations.append((name, sol.weight, opt))
        assert sol.lower_bound <= opt
    assert not violations, violations
    print(f"criterion 1 (factor guarantee): PASS - {len(corpus)} instances, 0 violations")


def test_criterion_2_color_cover_bound():
    # graph corpus: the bound is re-derived here against a fresh LP solve
    checked = 0
    for name, g, pat in criterion1_corpus()[::5]:
        sol = solve(g, pat)
        detail = sol.detail
        positive = frozenset(detail.residual_vertices)
        edges = tuple(vs for vs in enumerate_copies(g.graph, pat) if positive.issuperset(vs))
        if not edges:
            continue
        residual_weights = detail.trace.final_weights
        cover, _ = solve_cover_lp(CopyHypergraph(g.n, edges), residual_weights)
        residual_selection = [v for v in sol.hitting_set if v in positive]
        total = sum((residual_weights[v] for v in residual_selection), Fraction(0))
        t, k = 2 * pat.k, pat.k
        assert total * t <= k * (t - 1) * cover.value
        checked += 1

    # synthetic hypergraph corpus
    synthetic = 0
    attempts = 0
    rng = random.Random(20_000)
    while synthetic < 100:
        attempts += 1
        assert attempts < 1_000
        n = rng.randint(3, 12)
        edges = random_hypergraph(rng, n, max_edges=14, min_size=2, max_size=4)
        weights = random_weights(rng, n)
        k = max(len(e) for e in edges)
        t = max(k, n)
        colors = None
        for _ in range(100):
            cand = tuple(rng.randrange(t) for _ in range(n))
            if all(len({cand[v] for v in e}) >= 2 for e in edges):
                colors = cand
                break
        if colors is None:
            colors = tuple(v % t for v in range(n))
        hg = CopyHypergraph(n, edges)
        run = cover_colored_hypergraph(hg, weights, Coloring(colors, t), k)
        cover, _ = solve_cover_lp(hg, weights)
        total = sum((weights[v] for v in run.selected), Fraction(0))
        assert total * t <= k * (t - 1) * cover.value
        assert all(set(e) & set(run.selected) for e in edges)
        synthetic += 1
    print(
        "criterion 2 (colour cover bound): PASS - "
        f"{checked} pipeline residuals + {synthetic} synthetic hypergraphs, 0 violations"
    )


def test_criterion_3_strong_duality():
    rng = random.Random(30_000)
    for case in range(200):
        n = rng.randint(2, 12)
        edges = random_hypergraph(rng, n, max_edges=40, min_size=1, max_size=5)
        weights = random_weights(rng, n, max_den=8)
        hg = CopyHypergraph(n, edges)
        cover, matching = solve_cover_lp(hg, weights)
        assert cover.value == matching.value
        assert check_complementary_slackness(cover, matching, hg, weights)
        for e in hg.hyperedges:
            assert sum(cover.values[v] for v in e) >= 1
    print("criterion 3 (strong duality): PASS - 200 random hypergraphs, exact equality")


def test_criterion_4_goodness_certificates():
    count = 0
    for n in (3, 4, 5, 6):
        for tree in all_trees(n):
            pat = Pattern(tree)
            d = classify_pattern(pat).decomposition
            assert d is not None
            good = construct_good_graph(pat, d)
            assert verify_goodness(good, pat)
            count += 1
    hub = hub_branches_pattern()
    good = construct_good_graph(hub, classify_pattern(hub).decomposition)
    assert sum(good.weights) == 8
    _, min_weight = exact_min_hitting_set(good, hub, cap=ORACLE_CAP)
    assert min_weight == 1
    assert verify_goodness(good, hub)
    print(
        f"criterion 4 (goodness certificates): PASS - {count} trees plus the "
        "nine-vertex hub pattern (total weight 8, minimum hitting weight 1)"
    )


def test_criterion_5_gadget_optimum_equality():
    vertex_patterns = [Pattern(path_graph(3)), Pattern(path_graph(4)), Pattern(star_graph(3))]
    edge_patterns = [Pattern(complete_graph(3)), Pattern(cycle_graph(4)), Pattern(complete_graph(4))]
    checked = 0
    for pat in vertex_patterns:
        for bname, base in base_graph_corpus():
            glued, _ = gadget_vertex_glue(base, pat)
            _, hit = exact_min_hitting_set(unit_weights(glued), pat, cap=ORACLE_CAP)
            assert hit == naive_min_vertex_cover(base), (bname, pat.k)
            checked += 1
    for pat in edge_patterns:
        for bname, base in base_graph_corpus():
            glued, _ = gadget_edge_glue(base, pat)
            _, hit = exact_min_hitting_set(unit_weights(glued), pat, cap=ORACLE_CAP)
            assert hit == naive_min_vertex_cover(base), (bname, pat.k)
            checked += 1
    print(f"criterion 5 (gadget optimum equality): PASS - {checked} gadget instances, exact")


def test_criterion_6_coloring_validity():
    checked = 0
    for name, g, pat in criterion1_corpus()[::4]:
        sol = solve(g, pat)
        detail = sol.detail
        colors = detail.coloring.colors
        assert len(set(colors)) <= 2 * pat.k - 1
        assert detail.coloring.t == 2 * pat.k
        out_degree = {}
        for u, w in detail.conflict_arcs:
            assert colors[u] != colors[w]
            out_degree[u] = out_degree.get(u, 0) + 1
        assert all(c <= pat.k - 1 for c in out_degree.values())
        positive = frozenset(detail.residual_vertices)
        for vs in enumerate_copies(g.graph, pat):
            if positive.issuperset(vs):
                assert len({colors[v] for v in vs}) >= 2
        checked += 1
    print(f"criterion 6 (colouring validity): PASS - {checked} pipeline runs re-verified")


def test_criterion_7_decomposition_contract():
    checked = 0
    for name, g, pat in criterion1_corpus()[::4]:
        sol = solve(g, pat)
        trace = sol.detail.trace
        assert len(trace.steps) <= g.n
        good = construct_good_graph(pat, classify_pattern(pat).decomposition)
        recon = list(trace.final_weights)
        for st in trace.steps:
            for x in range(good.graph.n):
                recon[st.embedding[x]] += st.scale * good.weights[x]
        assert tuple(recon) == g.weights
        residual = WeightedGraph(g.graph, trace.final_weights)
        assert decompose_weights(residual, good).steps == ()
        checked += 1
    print(f"criterion 7 (decomposition contract): PASS - {checked} runs, identities exact")


def test_criterion_8_cloud_generator_structure():
    rng = random.Random(80_000)
    patterns = [Pattern(complete_graph(3)), Pattern(path_graph(3))]
    for case in range(50):
        n = rng.randint(3, 8)
        base_edges = tuple(
            tuple(rng.sample(range(n), 3)) for _ in range(rng.randint(1, 4))
        )
        params = GLParams(
            base_n=n,
            base_edges=base_edges,
            cloud_size=rng.randint(1, 20),
            multiplier=rng.randint(1, 3),
            seed=case,
        )
        pat = patterns[case % 2]
        tg = gl_random_instance(pat, params)
        assert tg.graph.n == n * params.cloud_size
        per_edge = {}
        for ei, j, verts in tg.planted:
            per_edge[ei] = per_edge.get(ei, 0) + 1
        expected = params.multiplier * params.cloud_size
        assert all(per_edge[ei] == expected for ei in range(len(base_edges)))
        found = set(enumerate_copies(tg.graph, pat))
        planted_sets = {}
        for ei, j, verts in tg.planted:
            assert tuple(sorted(verts)) in found
            planted_sets[(ei, j)] = tuple(sorted(verts))
            for p, q in pat.graph.sorted_edges():
                edge = tuple(sorted((verts[p], verts[q])))
                assert (ei, j) in tg.all_tags[edge]
        # the reverse direction: a copy whose edges share a tag is a planted one
        for emb in embeddings(tg.graph, pat.graph):
            edge_tags = []
            for p, q in pat.graph.sorted_edges():
                edge = tuple(sorted((emb[p], emb[q])))
                edge_tags.append(set(tg.all_tags[edge]))
            for tag in set.intersection(*edge_tags):
                assert planted_sets[tag] == tuple(sorted(emb))
        again = gl_random_instance(pat, params)
        assert serialize_tagged_graph(tg) == serialize_tagged_graph(again)
    print("criterion 8 (cloud generator): PASS - 50 seeded instances, byte-identical reruns")
