import random
from fractions import Fraction

import pytest

from hitset import (
    Coloring,
    CopyHypergraph,
    Graph,
    InvalidColoringError,
    Pattern,
    WeightedGraph,
    build_copy_hypergraph,
    color_digraph,
    cover_colored_hypergraph,
    solve_cover_lp,
    unit_weights,
)
from helpers import (
    complete_graph,
    path_graph,
    random_hypergraph,
    random_weights,
    rescanning_coloring,
)

P3 = Pattern(path_graph(3))


def _proper(arcs, colors: tuple[int, ...]) -> bool:
    return all(colors[u] != colors[v] for u, v in arcs)


def test_arcless():
    assert color_digraph(4, set(), 2) == (0, 0, 0, 0)


def test_directed_path():
    arcs = {(0, 1), (1, 2)}
    colors = color_digraph(3, arcs, 1)
    assert _proper(arcs, colors)
    assert len(set(colors)) <= 3


def test_directed_five_cycle():
    arcs = {(i, (i + 1) % 5) for i in range(5)}
    colors = color_digraph(5, arcs, 1)
    assert _proper(arcs, colors)
    assert len(set(colors)) == 3  # odd cycle needs three


def test_out_degree_violation():
    with pytest.raises(ValueError):
        color_digraph(3, {(0, 1), (0, 2)}, 1)


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        color_digraph(3, [(0, 0)], 1)


def test_arc_end_outside_vertices_rejected():
    with pytest.raises(ValueError, match="leaves the vertices"):
        color_digraph(3, [(-1, 0), (0, 1)], 1)
    with pytest.raises(ValueError, match="leaves the vertices"):
        color_digraph(3, [(0, 3)], 1)


@pytest.mark.parametrize("seed", range(10))
def test_random_digraph_property(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    m = rng.randint(1, 6)
    arcs = set()
    for u in range(n):
        targets = rng.sample([v for v in range(n) if v != u], min(rng.randint(0, m), n - 1))
        arcs.update((u, v) for v in targets)
    colors = color_digraph(n, arcs, m)
    assert len(colors) == n
    assert _proper(arcs, colors)
    assert all(0 <= c <= 2 * m for c in colors)


def test_matches_rescanning_reference():
    """The heap peel picks the same vertex as a rescan from id 0 in every
    round, on digraphs with m out-arcs per vertex, antiparallel pairs and
    vertices of degree above 2m."""
    antiparallel = high_degree = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        m = rng.randint(1, 3)
        arcs = set()
        for u in range(n):
            arcs.update((u, v) for v in rng.sample([v for v in range(n) if v != u], min(m, n - 1)))
        antiparallel += any((v, u) in arcs for u, v in arcs)
        degree = [0] * n
        for u, v in arcs:
            degree[u] += 1
            degree[v] += 1
        high_degree += max(degree) > 2 * m
        assert color_digraph(n, arcs, m) == rescanning_coloring(n, arcs, m), seed
    assert antiparallel >= 100 and high_degree >= 100


def _cover_copies(g: WeightedGraph, coloring: Coloring) -> tuple[int, ...]:
    """Colour-guided cover of every P3 copy of ``g``."""
    hg = build_copy_hypergraph(g, P3)
    return cover_colored_hypergraph(hg, g.weights, coloring, P3.k).selected


def test_color_simp_triangle_host():
    g = unit_weights(complete_graph(3))
    coloring = Coloring((0, 1, 2), 6)
    selected = _cover_copies(g, coloring)
    # covers the one copy within the guaranteed budget 3 * (5/6) * 1
    assert len(selected) >= 1
    assert sum(g.weights[v] for v in selected) <= Fraction(5, 2)


def test_color_simp_two_disjoint_copies():
    g = unit_weights(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))
    coloring = Coloring((0, 1, 2, 0, 1, 2), 6)
    selected = _cover_copies(g, coloring)
    assert sum(g.weights[v] for v in selected) <= Fraction(5)
    assert {1, 4} & set(selected) or len(selected) >= 2


def test_color_simp_pattern_free():
    g = unit_weights(Graph(3, [(0, 1)]))
    coloring = Coloring((0, 0, 0), 6)
    assert _cover_copies(g, coloring) == ()


def test_color_simp_rejects_monochromatic():
    g = unit_weights(complete_graph(3))
    with pytest.raises(InvalidColoringError):
        _cover_copies(g, Coloring((0, 0, 0), 6))


def test_color_simp_rejects_negative_vertex():
    # a negative id is rejected by CopyHypergraph (test_hypergraph_validation)
    coloring = Coloring((0, 1, 2), 6)
    with pytest.raises(ValueError, match="has a vertex with no colour"):
        cover_colored_hypergraph(CopyHypergraph(4, [(0, 3)]), (Fraction(1),) * 3, coloring, 3)


def test_color_simp_rejects_small_palette():
    g = unit_weights(complete_graph(3))
    with pytest.raises(ValueError):
        _cover_copies(g, Coloring((0, 1, 0), 2))
    with pytest.raises(ValueError, match="at least one colour"):
        Coloring((), 0)
    with pytest.raises(ValueError, match="out of palette range"):
        Coloring((0, 2), 2)


def test_color_simp_rejects_bad_edge_sizes():
    ones = (Fraction(1),) * 3
    with pytest.raises(ValueError, match="at least two vertices"):
        cover_colored_hypergraph(CopyHypergraph(3, [(0, 1)]), ones, Coloring((0, 1, 2), 3), 1)
    with pytest.raises(ValueError, match=r"hyperedge \(0, 1, 2\) larger than the declared bound 2"):
        cover_colored_hypergraph(CopyHypergraph(3, [(0, 1, 2)]), ones, Coloring((0, 1, 2), 3), 2)
    with pytest.raises(ValueError, match=r"hyperedge \(1,\) has fewer than two vertices"):
        cover_colored_hypergraph(CopyHypergraph(3, [(1, 1)]), ones, Coloring((0, 1, 2), 3), 2)


def test_color_simp_rejects_zero_weights():
    g = WeightedGraph(Graph(3, [(0, 1), (1, 2)]), (Fraction(1), Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        _cover_copies(g, Coloring((0, 1, 2), 6))


def test_color_simp_rejects_missing_weights():
    with pytest.raises(ValueError, match="covered vertex 2 has no weight"):
        cover_colored_hypergraph(CopyHypergraph(3, [(0, 2)]), [1, 1], Coloring((0, 1, 1), 4), 2)


def _valid_coloring(rng: random.Random, edges, n: int, t: int) -> Coloring:
    for _ in range(200):
        colors = tuple(rng.randrange(t) for _ in range(n))
        if all(len({colors[v] for v in e}) >= 2 for e in edges):
            return Coloring(colors, t)
    return Coloring(tuple(v % t for v in range(n)), t)  # rainbow fallback, t >= n


@pytest.mark.parametrize("seed", range(15))
def test_cover_bound_on_synthetic_hypergraphs(seed):
    rng = random.Random(900 + seed)
    n = rng.randint(3, 12)
    edges = random_hypergraph(rng, n, max_edges=12, min_size=2, max_size=4)
    weights = random_weights(rng, n)
    k = max(len(e) for e in edges)
    t = max(k, n)
    coloring = _valid_coloring(rng, edges, n, t)
    hg = CopyHypergraph(n, edges)
    run = cover_colored_hypergraph(hg, weights, coloring, k)
    cover, _ = solve_cover_lp(hg, weights)
    total = sum((weights[v] for v in run.selected), Fraction(0))
    assert total * t <= k * (t - 1) * cover.value
    assert all(set(e) & set(run.selected) for e in edges)
