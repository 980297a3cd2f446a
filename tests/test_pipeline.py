import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hitset import (
    BudgetExceededError,
    CopyHypergraph,
    EnumerationBudget,
    FractionalCover,
    Graph,
    Pattern,
    SEMI_SYMMETRIC,
    TWO_CONNECTED,
    UNKNOWN,
    VerificationError,
    WeightedGraph,
    classify_pattern,
    construct_good_graph,
    decompose_weights,
    enumerate_copies,
    exact_min_hitting_set,
    find_rooted_copy,
    gadget_edge_glue,
    oracle,
    pipeline,
    solve,
    solve_baseline,
    solve_cover_lp,
    unit_weights,
    verify_solution,
)
from hitset import random_graph
from hitset.cli import solution_document
from hitset.oracle import verify_goodness
from helpers import (
    DIFFERENTIAL_PATTERNS,
    all_trees,
    complete_graph,
    cycle_graph,
    hub_branches_pattern,
    path_graph,
    restarting_decomposition,
    rooted_everywhere_cover,
    sparse_weighted_hosts,
    star_graph,
    triangle_square_share_vertex,
)

P3 = Pattern(path_graph(3))
K3 = Pattern(complete_graph(3))


def test_solve_triangle_host():
    sol = solve(unit_weights(complete_graph(3)), P3)
    assert sol.classification == SEMI_SYMMETRIC
    assert sol.guaranteed_factor == Fraction(5, 2)
    assert verify_solution(complete_graph(3), P3, sol.hitting_set)
    assert sol.weight in (1, 2)
    assert sol.lower_bound == 1
    assert sol.hitting_set == (0,)  # deterministic


def test_solve_two_connected_pattern_uses_baseline():
    g = unit_weights(complete_graph(4))
    sol = solve(g, K3)
    assert sol.classification == TWO_CONNECTED
    assert sol.guaranteed_factor == 3
    assert verify_solution(g.graph, K3, sol.hitting_set)


def test_solve_pattern_free_host():
    g = unit_weights(Graph(4, [(0, 1)]))
    sol = solve(g, P3)
    assert sol.hitting_set == () and sol.weight == 0
    assert sol.lower_bound == 0


def test_solve_empty_host():
    sol = solve(unit_weights(Graph(0)), P3)
    assert sol.hitting_set == () and sol.weight == 0


def test_solve_unknown_pattern_warns():
    pat = triangle_square_share_vertex()
    g = unit_weights(random_graph(8, 0.6, 5))
    sol = solve(g, pat)
    assert sol.classification == UNKNOWN
    assert sol.warning is not None
    assert sol.guaranteed_factor == pat.k
    assert verify_solution(g.graph, pat, sol.hitting_set)


def test_semi_symmetric_star_host():
    # one subtraction zeroes the hub, the residual is edgeless
    g = unit_weights(star_graph(5))
    sol = solve(g, P3)
    assert sol.hitting_set == (0,)
    assert sol.weight == 1
    assert sol.detail.trace.zero_set == frozenset({0})
    assert sol.detail.cover_steps == ()


def test_semi_symmetric_k3_host_details():
    sol = solve(unit_weights(complete_graph(3)), P3)
    assert sol.detail.trace.steps == ()
    assert sol.detail.residual_vertices == (0, 1, 2)
    # every vertex is central with two outgoing arcs
    assert len(sol.detail.conflict_arcs) == 6
    assert sol.detail.coloring.t == 6
    assert len(set(sol.detail.coloring.colors)) <= 5


def test_baseline_k3_on_k3():
    sol = solve_baseline(unit_weights(complete_graph(3)), K3)
    assert sol.hitting_set == (0, 1, 2)
    assert sol.weight == 3
    assert sol.lower_bound == 1
    assert sol.guaranteed_factor == 3


def test_baseline_two_disjoint_triangles():
    g = unit_weights(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    sol = solve_baseline(g, K3)
    assert sol.weight == 6
    assert sol.lower_bound == 2
    assert sol.detail.tau_star == 0  # no copies, so no certificate LP
    _, opt = exact_min_hitting_set(g, K3)
    assert opt == 2


def test_baseline_pattern_free():
    sol = solve_baseline(unit_weights(Graph(3, [(0, 1)])), K3)
    assert sol.hitting_set == () and sol.weight == 0


@pytest.mark.parametrize("seed", range(10))
def test_factor_guarantee_small_corpus(seed):
    trees = all_trees(3) + all_trees(4)
    g = unit_weights(random_graph(9, 0.45, 7000 + seed))
    for tree in trees:
        pat = Pattern(tree)
        sol = solve(g, pat)
        _, opt = exact_min_hitting_set(g, pat)
        bound = (Fraction(2 * pat.k - 1, 2)) * opt
        assert sol.weight <= bound
        assert sol.lower_bound <= opt
        assert verify_solution(g.graph, pat, sol.hitting_set)


@pytest.mark.parametrize("seed", range(4))
def test_residual_copies_bichromatic_and_spokes_blocked(seed):
    g = unit_weights(random_graph(10, 0.5, 8000 + seed))
    d = classify_pattern(P3).decomposition
    sol = solve(g, P3)
    detail = sol.detail
    positive = frozenset(detail.residual_vertices)
    colors = detail.coloring.colors
    residual_copies = [vs for vs in enumerate_copies(g.graph, P3) if positive.issuperset(vs)]
    for vs in residual_copies:
        assert len({colors[v] for v in vs}) >= 2
    # arcs are proper and bounded by k - 1 out-degree
    out = {}
    for u, w in detail.conflict_arcs:
        assert colors[u] != colors[w]
        out[u] = out.get(u, 0) + 1
    assert all(c <= P3.k - 1 for c in out.values())
    # chosen-copy spokes block every rooted branch copy
    big = d.branches[d.big_index]
    from hitset import induced_subgraph

    branch_graph, branch_ids = induced_subgraph(P3.graph, big)
    branch_root = branch_ids.index(d.root)
    for u in sorted(positive):
        emb = find_rooted_copy(g.graph, P3.graph, d.root, u, allowed=positive)
        if emb is None:
            continue
        spokes = frozenset(emb) - {u}
        assert (
            find_rooted_copy(g.graph, branch_graph, branch_root, u, allowed=positive - spokes)
            is None
        )


def test_budget_propagates():
    g = unit_weights(star_graph(4))
    with pytest.raises(BudgetExceededError):
        solve(g, P3, EnumerationBudget(max_copies=1))


def test_budget_charges_each_copy_once_plus_each_step():
    g = unit_weights(random_graph(30, 0.15, 1))
    budget = EnumerationBudget()
    sol = solve(g, P3, budget)
    charged = len(enumerate_copies(g.graph, P3)) + len(sol.detail.trace.steps)
    assert budget.used == charged
    # a fresh but equal pattern reuses the certificate and charges the same
    misses = verify_goodness.cache_info().misses
    again = EnumerationBudget()
    assert solution_document(solve(g, Pattern(path_graph(3)), again)) == solution_document(sol)
    assert again.used == charged
    assert verify_goodness.cache_info().misses == misses
    assert solve(g, P3, EnumerationBudget(max_copies=charged)).hitting_set == sol.hitting_set
    with pytest.raises(BudgetExceededError):
        solve(g, P3, EnumerationBudget(max_copies=charged - 1))


def test_verify_solution_cases():
    g = complete_graph(3)
    assert verify_solution(g, P3, (0, 1, 2))
    assert not verify_solution(g, P3, ())
    sol = solve(unit_weights(g), P3)
    assert verify_solution(g, P3, sol.hitting_set)


def test_lower_bound_includes_fractional_cover():
    # no subtraction happens here, so the certificate comes from the LP:
    # the single copy set gives fractional cover value exactly 1
    g = unit_weights(complete_graph(3))
    sol = solve(g, P3)
    assert sol.detail.trace.steps == ()
    assert sol.lower_bound == sol.detail.tau_star == 1


def test_single_edge_pattern_is_vertex_cover():
    # the smallest pattern: hitting every edge is vertex cover
    k2 = Pattern(Graph(2, [(0, 1)]))
    g = unit_weights(random_graph(9, 0.4, 31))
    sol = solve(g, k2)
    assert sol.classification == UNKNOWN
    assert sol.guaranteed_factor == 2
    assert verify_solution(g.graph, k2, sol.hitting_set)
    _, opt = exact_min_hitting_set(g, k2)
    assert sol.weight <= 2 * opt


def test_weighted_host():
    weights = (Fraction(3), Fraction(1, 2), Fraction(2), Fraction(1, 3))
    from hitset import WeightedGraph

    g = WeightedGraph(star_graph(3), weights)
    sol = solve(g, P3)
    _, opt = exact_min_hitting_set(g, P3)
    assert sol.weight <= Fraction(5, 2) * opt
    assert verify_solution(g.graph, P3, sol.hitting_set)


@pytest.mark.parametrize("seed", range(8))
def test_factor_guarantee_weighted_corpus(seed):
    import random

    from hitset import WeightedGraph
    from helpers import random_weights

    rng = random.Random(90_000 + seed)
    n = rng.randint(5, 10)
    g = random_graph(n, rng.choice([0.3, 0.5]), 90_000 + seed)
    wg = WeightedGraph(g, random_weights(rng, n))
    for tree in all_trees(4):
        pat = Pattern(tree)
        sol = solve(wg, pat)
        _, opt = exact_min_hitting_set(wg, pat)
        assert sol.weight <= Fraction(2 * pat.k - 1, 2) * opt
        assert sol.lower_bound <= opt
        assert verify_solution(g, pat, sol.hitting_set)


@pytest.mark.parametrize("seed", range(4))
def test_zero_weight_vertices_in_host(seed):
    import random

    from hitset import WeightedGraph
    from helpers import random_weights

    rng = random.Random(95_000 + seed)
    n = rng.randint(5, 9)
    g = random_graph(n, 0.5, 95_000 + seed)
    weights = list(random_weights(rng, n))
    for v in rng.sample(range(n), rng.randint(1, 3)):
        weights[v] = Fraction(0)
    wg = WeightedGraph(g, tuple(weights))
    sol = solve(wg, P3)
    # the certificate LP sees exactly the copies avoiding every zero-weight vertex
    live = tuple(e for e in enumerate_copies(g, P3) if all(weights[v] > 0 for v in e))
    tau = solve_cover_lp(CopyHypergraph(n, live), weights)[0].value if live else 0
    assert sol.detail.tau_star == tau
    _, opt = exact_min_hitting_set(wg, P3)
    assert sol.weight <= Fraction(5, 2) * opt
    assert sol.lower_bound <= opt
    assert verify_solution(g, P3, sol.hitting_set)


def test_non_tree_semi_symmetric_pattern():
    # nine-vertex hub pattern through the full improved-factor route
    from helpers import hub_branches_pattern
    from hitset import construct_good_graph, gadget_edge_glue

    hub = hub_branches_pattern()
    good = construct_good_graph(hub, classify_pattern(hub).decomposition)
    host = unit_weights(good.graph)  # the gadget itself hosts copies
    sol = solve(host, hub)
    assert sol.classification == SEMI_SYMMETRIC
    assert sol.guaranteed_factor == Fraction(17, 2)
    assert verify_solution(host.graph, hub, sol.hitting_set)
    _, opt = exact_min_hitting_set(host, hub)
    assert opt == 1 and sol.weight <= Fraction(17, 2) * opt

    glued, _ = gadget_edge_glue(complete_graph(2), hub)  # hub has min degree 2
    wg = unit_weights(glued)
    sol = solve(wg, hub)
    assert verify_solution(glued, hub, sol.hitting_set)
    _, opt = exact_min_hitting_set(wg, hub, cap=glued.n)
    assert opt == 1 and sol.weight <= Fraction(17, 2) * opt


PROPERTY_PATTERNS = [
    Pattern(path_graph(3)),
    Pattern(path_graph(4)),
    Pattern(star_graph(3)),
    Pattern(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])),  # paw
    Pattern(complete_graph(3)),
    Pattern(cycle_graph(4)),
]


@st.composite
def weighted_hosts(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    # halves 1/2 .. 9, so both integer and half-integer weights occur
    weights = tuple(Fraction(draw(st.integers(1, 18)), 2) for _ in range(n))
    return WeightedGraph(Graph(n, edges), weights)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(g=weighted_hosts(), h=st.sampled_from(PROPERTY_PATTERNS))
def test_solve_certificates_hold(g, h):
    sol = solve(g, h)
    # the conservation identity, recomputed from the trace and a fresh gadget lookup
    good = construct_good_graph(h, classify_pattern(h).decomposition)
    recon = list(sol.detail.trace.final_weights)
    for step in sol.detail.trace.steps:
        for x in range(good.graph.n):
            recon[step.embedding[x]] += step.scale * good.weights[x]
    assert tuple(recon) == g.weights
    _, opt = exact_min_hitting_set(g, h)
    assert sol.lower_bound <= opt <= sol.weight <= sol.guaranteed_factor * opt
    assert sol.weight == g.total(sol.hitting_set)
    assert verify_solution(g.graph, h, sol.hitting_set)


def _prefilter_cases():
    paw = Pattern(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    bull = Pattern(Graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)]))
    hub = hub_branches_pattern()
    for seed in (1, 2, 3):
        for h in (paw, bull):
            yield h, random_graph(40, 0.1, seed)
            yield h, random_graph(16, 0.3, seed)
        yield hub, gadget_edge_glue(random_graph(5, 0.6, seed), hub)[0]


@pytest.mark.parametrize("weights", ["unit", "1..9"])
def test_rooted_searches_only_at_residual_copies(weights, monkeypatch):
    find = pipeline.find_rooted_copy
    roots: list[int] = []

    def counting_find(g, f, f_root, at, allowed=None):
        roots.append(at)
        return find(g, f, f_root, at, allowed)

    monkeypatch.setattr(pipeline, "find_rooted_copy", counting_find)
    arcs_seen = 0
    for h, host in _prefilter_cases():
        rng = random.Random(host.n)
        ws = (1,) * host.n if weights == "unit" else tuple(rng.randint(1, 9) for _ in range(host.n))
        g = WeightedGraph(host, ws)
        roots.clear()
        sol = solve(g, h)
        positive, coloring, arcs, run = rooted_everywhere_cover(g, h, sol.detail.trace)
        assert sol.detail.conflict_arcs == arcs
        assert sol.detail.residual_vertices == positive
        assert sol.detail.coloring == coloring
        hitting = tuple(sorted(sol.detail.trace.zero_set | set(run.selected)))
        detail = replace(
            sol.detail,
            residual_vertices=positive,
            coloring=coloring,
            conflict_arcs=arcs,
            cover_steps=run.steps,
        )
        reference = replace(sol, hitting_set=hitting, weight=g.total(hitting), detail=detail)
        assert solution_document(sol, explain=True) == solution_document(reference, explain=True)
        # one rooted search per distinct vertex of a copy on positive vertices only
        central = {
            v for e in enumerate_copies(host, h) if set(positive).issuperset(e) for v in e
        }
        assert roots == sorted(central)
        arcs_seen += len(arcs)
    assert arcs_seen > 0


@pytest.mark.parametrize("name", ("paw", "P4", "K1,3", "bowtie"))
def test_rooted_searches_on_residual_vertices_match_positive(name, monkeypatch):
    # a rooted copy on positive vertices is a residual copy, so searching only
    # the residual copies' vertices finds the same first embedding
    h = Pattern(DIFFERENTIAL_PATTERNS[name])
    good = construct_good_graph(h, classify_pattern(h).decomposition)
    find = pipeline.find_rooted_copy
    positive = frozenset()
    outcomes = []

    def both(g, f, f_root, at, allowed=None):
        emb = find(g, f, f_root, at, allowed)
        assert allowed <= positive
        assert emb == find(g, f, f_root, at, positive)
        outcomes.append(emb is not None)
        return emb

    monkeypatch.setattr(pipeline, "find_rooted_copy", both)
    # the certificate LP, nearly all of a tree pattern's solve, steers no search
    no_lp = (FractionalCover({}, Fraction(0)),)
    monkeypatch.setattr(pipeline, "solve_cover_lp", lambda hg, weights: no_lp)
    for g in sparse_weighted_hosts(name):
        positive = frozenset(range(g.n)) - decompose_weights(g, good).zero_set
        solve(g, h)
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("name", ("paw", "C4", "K3", "P4", "K1,3", "bowtie"))
def test_baseline_trace_is_the_whole_host_decomposition(name):
    h = Pattern(DIFFERENTIAL_PATTERNS[name])
    for g in sparse_weighted_hosts(name):
        expected = restarting_decomposition(g, unit_weights(h.graph))
        assert solve_baseline(g, h).detail.trace == expected


def test_gadget_vertex_on_no_copy_fails_the_solve(monkeypatch):
    # the uncached check over a search that misses every copy through the
    # gadget's last vertex
    monkeypatch.setattr(pipeline, "verify_copy_cover", oracle.verify_copy_cover.__wrapped__)
    search = oracle.embeddings
    monkeypatch.setattr(
        oracle,
        "embeddings",
        lambda g, h, **kw: (e for e in search(g, h, **kw) if g.n - 1 not in e),
    )
    paw = Pattern(DIFFERENTIAL_PATTERNS["paw"])
    with pytest.raises(VerificationError, match="gadget has a vertex on no pattern copy"):
        solve(unit_weights(complete_graph(4)), paw)


def test_copy_cover_certified_once_per_gadget():
    h = Pattern(DIFFERENTIAL_PATTERNS["bowtie"])
    g = unit_weights(random_graph(30, 0.3, 5))
    solve(g, h)
    solve_baseline(g, h)
    before = oracle.verify_copy_cover.cache_info()
    solve(g, h)
    solve_baseline(g, h)
    after = oracle.verify_copy_cover.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 2)
