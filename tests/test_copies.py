import pytest

from hitset import (
    BudgetExceededError,
    EnumerationBudget,
    Graph,
    Pattern,
    build_copy_hypergraph,
    embeddings,
    enumerate_copies,
    find_rooted_copy,
    is_embedding,
    unit_weights,
)
from helpers import (
    complete_graph,
    cycle_graph,
    naive_copy_sets,
    path_graph,
    star_graph,
)
from hitset import random_graph

P3 = Pattern(path_graph(3))
K3 = Pattern(complete_graph(3))


def test_p3_in_k3():
    copies = enumerate_copies(complete_graph(3), P3)
    assert [vs for vs, _ in copies] == [(0, 1, 2)]
    vs, emb = copies[0]
    assert is_embedding(complete_graph(3), P3.graph, emb.mapping)
    # six injective maps are all valid here, one distinct vertex set
    assert sum(1 for _ in embeddings(complete_graph(3), P3.graph)) == 6


def test_k3_in_k4():
    copies = enumerate_copies(complete_graph(4), K3)
    assert [vs for vs, _ in copies] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_pattern_bigger_than_host():
    assert enumerate_copies(complete_graph(2), K3) == []


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize(
    "pattern", [P3, K3, Pattern(path_graph(4)), Pattern(star_graph(3))]
)
def test_completeness_against_naive(pattern, n, seed):
    g = random_graph(n, 0.45, seed)
    expected = naive_copy_sets(g, pattern.graph)
    got = {vs for vs, _ in enumerate_copies(g, pattern)}
    assert got == expected
    for vs, emb in enumerate_copies(g, pattern):
        assert is_embedding(g, pattern.graph, emb.mapping)
        assert emb.vertex_set() == vs


def test_hyperedges_have_pattern_size():
    g = random_graph(9, 0.5, 3)
    hg = build_copy_hypergraph(unit_weights(g), Pattern(path_graph(4)))
    assert all(len(e) == 4 for e in hg.hyperedges)


def test_hypergraph_two_disjoint_copies():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    hg = build_copy_hypergraph(unit_weights(g), P3)
    assert hg.hyperedges == ((0, 1, 2), (3, 4, 5))
    assert hg.covered_vertices() == (0, 1, 2, 3, 4, 5)


def test_hypergraph_pattern_free_host():
    hg = build_copy_hypergraph(unit_weights(Graph(4, [(0, 1)])), P3)
    assert hg.hyperedges == ()
    assert hg.covered_vertices() == ()


def _centres(g: Graph, h: Pattern, root: int) -> tuple[int, ...]:
    """Host vertices at which some copy of the pattern can be centred."""
    return tuple(u for u in range(g.n) if find_rooted_copy(g, h.graph, root, u) is not None)


def test_central_vertices_star():
    assert _centres(star_graph(3), P3, 1) == (0,)


def test_central_vertices_path():
    assert _centres(path_graph(4), P3, 1) == (1, 2)


def test_central_vertices_empty():
    assert _centres(Graph(3, [(0, 1)]), K3, 0) == ()


def test_central_matches_rooted_search():
    g = random_graph(8, 0.4, 9)
    for root in range(3):
        expected = tuple(sorted({emb[root] for emb in embeddings(g, P3.graph)}))
        assert _centres(g, P3, root) == expected


def test_find_rooted_copy_edge():
    edge = Graph(2, [(0, 1)])
    g = path_graph(3)
    emb = find_rooted_copy(g, edge, 0, 1)
    assert emb is not None and emb[0] == 1


def test_find_rooted_copy_triangle_free():
    assert find_rooted_copy(cycle_graph(5), complete_graph(3), 0, 2) is None


def test_find_rooted_copy_forbidden_neighbors():
    g = star_graph(4)
    forbidden = frozenset(range(1, 5))  # every neighbour of the hub
    edge = Graph(2, [(0, 1)])
    assert find_rooted_copy(g, edge, 0, 0, forbidden=forbidden) is None
    assert find_rooted_copy(g, edge, 0, 0) is not None


def test_budget_flag_and_partial():
    budget = EnumerationBudget(max_copies=2)
    copies = enumerate_copies(complete_graph(4), K3, budget)
    assert budget.exceeded
    assert len(copies) == 2


def test_budget_error_in_hypergraph():
    with pytest.raises(BudgetExceededError):
        build_copy_hypergraph(
            unit_weights(complete_graph(4)), K3, EnumerationBudget(max_copies=1)
        )


def test_deterministic():
    g = random_graph(8, 0.5, 4)
    a = enumerate_copies(g, Pattern(path_graph(4)))
    b = enumerate_copies(g, Pattern(path_graph(4)))
    assert a == b


def test_allowed_restriction():
    g = complete_graph(4)
    allowed = frozenset({0, 1, 2})
    copies = enumerate_copies(g, K3, allowed=allowed)
    assert [vs for vs, _ in copies] == [(0, 1, 2)]
