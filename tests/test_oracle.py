import itertools
import random
from fractions import Fraction

import pytest

from hitset import (
    Graph,
    Pattern,
    VerificationError,
    WeightedGraph,
    exact_min_hitting_set,
    exact_min_vertex_cover,
    min_weight_cover,
    unit_weights,
    verify_goodness,
)
from hitset import random_graph
from helpers import (
    complete_graph,
    cycle_graph,
    has_edge,
    naive_min_hitting,
    naive_min_vertex_cover,
    path_graph,
    random_hypergraph,
    random_weights,
    star_graph,
)

P3 = Pattern(path_graph(3))


def test_k3_p3():
    vertices, weight = exact_min_hitting_set(unit_weights(complete_graph(3)), P3)
    assert weight == 1 and vertices == (0,)


def test_p4_p3():
    vertices, weight = exact_min_hitting_set(unit_weights(path_graph(4)), P3)
    assert weight == 1
    assert vertices == (1,)  # deterministic tie-break


def test_pattern_free_host():
    vertices, weight = exact_min_hitting_set(unit_weights(Graph(4, [(0, 1)])), P3)
    assert vertices == () and weight == 0


@pytest.mark.parametrize("seed", range(8))
def test_double_oracle_unit(seed):
    g = random_graph(7, 0.5, 40 + seed)
    _, weight = exact_min_hitting_set(unit_weights(g), P3)
    assert weight == naive_min_hitting(unit_weights(g), P3.graph)


@pytest.mark.parametrize("seed", range(5))
def test_double_oracle_weighted(seed):
    rng = random.Random(seed)
    g = random_graph(7, 0.5, 80 + seed)
    wg = WeightedGraph(g, random_weights(rng, 7))
    _, weight = exact_min_hitting_set(wg, P3)
    assert weight == naive_min_hitting(wg, P3.graph)


def test_vertex_cover_examples():
    assert exact_min_vertex_cover(complete_graph(2)) == 1
    assert exact_min_vertex_cover(complete_graph(3)) == 2
    assert exact_min_vertex_cover(cycle_graph(5)) == 3


@pytest.mark.parametrize("seed", range(8))
def test_vertex_cover_double_oracle(seed):
    for n, p in ((8, 0.5), (10, 0.7), (11, 0.8), (12, 0.9)):
        g = random_graph(n, p, 200 + seed)
        assert exact_min_vertex_cover(g) == naive_min_vertex_cover(g), (n, p)


@pytest.mark.parametrize("seed", range(6))
def test_monotone_in_edges(seed):
    rng = random.Random(500 + seed)
    g = random_graph(8, 0.35, 300 + seed)
    candidates = [(u, v) for u in range(8) for v in range(u + 1, 8) if not has_edge(g, u, v)]
    if not candidates:
        return
    extra = rng.choice(candidates)
    bigger = Graph(8, list(g.edges) + [extra])
    _, w1 = exact_min_hitting_set(unit_weights(g), P3)
    _, w2 = exact_min_hitting_set(unit_weights(bigger), P3)
    assert w2 >= w1


def test_verify_goodness_star_gadget():
    gadget = Graph(4, [(0, 1), (1, 2), (1, 3)])
    halves = (Fraction(1, 2), Fraction(1), Fraction(1, 2), Fraction(1, 2))
    assert verify_goodness(WeightedGraph(gadget, halves), P3)
    # every hitting set weighs exactly 1 at best: scaled up it passes, down it fails
    assert verify_goodness(WeightedGraph(gadget, [w * Fraction(6, 5) for w in halves]), P3)
    assert not verify_goodness(WeightedGraph(gadget, [w * Fraction(4, 5) for w in halves]), P3)


def test_verify_goodness_rejects_a_vertex_on_no_copy():
    # every hitting set of the one copy weighs 1, but vertex 3 lies on no copy
    assert not verify_goodness(unit_weights(Graph(4, [(0, 1), (1, 2)])), P3)


def test_cap_enforced():
    with pytest.raises(ValueError):
        exact_min_hitting_set(unit_weights(Graph(25)), P3, cap=20)
    with pytest.raises(ValueError):
        exact_min_vertex_cover(Graph(30), cap=20)


def test_min_weight_cover_zero_weights():
    # zero-weight vertices are all taken, and they hit both edges for free
    edges = ((0, 1), (1, 2))
    weights = (Fraction(0), Fraction(5), Fraction(0))
    assert min_weight_cover(edges, weights) == ((0, 2), Fraction(0))


def test_min_weight_cover_search_bound_with_zero_weights():
    # zero-weight vertices have negative keys, so the key sum plus one can lie
    # below the optimum (it does for the first input); the search bound
    # counts only the positive keys
    assert min_weight_cover([(1,), (0,)], [0, 1]) == ((0, 1), 1)
    assert min_weight_cover([(1, 2), (0, 3), (2,)], [0, 1, 3, 0]) == ((0, 2, 3), 3)


def test_min_weight_cover_failed_rebuild_raises(monkeypatch):
    # a search result that does not decode into a cover with that key sum is
    # a solver bug; it must raise even under python -O, which strips asserts
    from hitset import oracle

    search = oracle._least_cover

    def off_by_one(pending, excluded, current, w, best):
        # only the outermost call starts from an empty set, current == 0
        least = search(pending, excluded, current, w, best)
        return least + 1 if current == 0 else least

    monkeypatch.setattr(oracle, "_least_cover", off_by_one)
    with pytest.raises(VerificationError, match="optimal weight"):
        min_weight_cover(((0, 1), (1, 2)), (Fraction(1),) * 3)
    # the vertex cover of P3 is one more unit-weight cover, checked the same way
    with pytest.raises(VerificationError, match="optimal weight"):
        exact_min_vertex_cover(Graph(3, [(0, 1), (1, 2)]))


@pytest.mark.parametrize("den", (1, 6, 35))
def test_min_weight_cover_least_weight_gap(den):
    # the smallest weight gap, 1/den, against the largest tie-break
    # perturbation: all of vertices 0..n-2 against vertex n-1 alone
    gap = Fraction(1, den)
    a = 1 + gap
    for n in range(3, 14):
        edges = tuple((i, n - 1) for i in range(n - 1))
        lighter = (a,) * (n - 1) + ((n - 1) * a - gap,)
        assert min_weight_cover(edges, lighter) == ((n - 1,), (n - 1) * a - gap)
        tied = (a,) * (n - 1) + ((n - 1) * a,)
        assert min_weight_cover(edges, tied) == (tuple(range(n - 1)), (n - 1) * a)


def test_min_weight_cover_rejects_empty_hyperedge():
    with pytest.raises(ValueError, match="empty hyperedge"):
        min_weight_cover(((0, 1), ()), (Fraction(1),) * 2)


def test_min_weight_cover_rejects_float_weights():
    with pytest.raises(TypeError, match="floats"):
        min_weight_cover(((0, 1),), [0.5, 0.5])
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        min_weight_cover(((0, 1),), [1, Fraction(-1, 2)])


def test_min_weight_cover_rejects_vertex_ids_outside_weights():
    # a negative id would read a weight from the end, a large one past it
    with pytest.raises(ValueError, match="vertex ids"):
        min_weight_cover([(-1,)], [5, 7])
    with pytest.raises(ValueError, match="vertex ids"):
        min_weight_cover([(0, 5)], [1, 1])


def _least_optimal_cover(edges, weights):
    """Brute force over covers drawn from the edges' vertices: the least weight,
    ties broken by taking each vertex in turn whenever an optimal cover can."""
    universe = sorted({v for e in edges for v in e})
    covers = (
        s
        for size in range(len(universe) + 1)
        for s in itertools.combinations(universe, size)
        if all(set(e) & set(s) for e in edges)
    )
    weight, _, best = min(
        (sum((weights[v] for v in s), Fraction(0)), [v not in s for v in universe], s)
        for s in covers
    )
    return best, weight


def test_min_weight_cover_least_optimal_set():
    # with strictly positive weights no optimal set contains another, so the
    # tie-break yields the lexicographically least optimal tuple; small
    # integer weights make ties common, zero weights make optimal supersets,
    # and denominators 2, 3 and 5 make the weights' common step 1/30, which
    # the tie-break keys must scale by
    for seed in range(800):
        rng = random.Random(1300 + seed)
        n = rng.randint(2, 9)
        edges = random_hypergraph(rng, n, max_edges=10)
        if seed >= 600:
            weights = tuple(Fraction(rng.randint(0, 6), rng.choice((2, 3, 5))) for _ in range(n))
        elif seed % 2:
            weights = random_weights(rng, n, max_den=2)
        else:
            weights = tuple(Fraction(rng.randint(1, 3)) for _ in range(n))
        assert min_weight_cover(edges, weights) == _least_optimal_cover(edges, weights)


def test_min_weight_cover_deterministic():
    rng = random.Random(9)
    edges = random_hypergraph(rng, 9, 14)
    weights = random_weights(rng, 9)
    assert min_weight_cover(edges, weights) == min_weight_cover(edges, weights)


def test_star_pattern_oracle():
    g = star_graph(5)
    star3 = Pattern(star_graph(3))
    vertices, weight = exact_min_hitting_set(unit_weights(g), star3)
    assert weight == 1 and vertices == (0,)
