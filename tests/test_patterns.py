import hashlib
import itertools
from fractions import Fraction

import networkx as nx
import pytest

from hitset import (
    Graph,
    Pattern,
    SEMI_SYMMETRIC,
    TWO_CONNECTED,
    UNKNOWN,
    branches_at,
    classify_pattern,
    construct_good_graph,
    embeddings,
    exact_min_hitting_set,
    induced_subgraph,
    random_graph,
    serialize_graph,
    verify_goodness,
)
from hitset.generators import _glue_edge
from helpers import (
    all_trees,
    complete_graph,
    connected_atlas,
    cycle_graph,
    has_edge,
    hub_branches_pattern,
    path_graph,
    star_graph,
    triangle_square_share_vertex,
)


def _cut_vertices(g: Graph) -> tuple[int, ...]:
    return tuple(v for v in range(g.n) if len(branches_at(g, v)) >= 2)


def _two_connected(g: Graph) -> bool:
    return classify_pattern(Pattern(g)).kind == TWO_CONNECTED


def _least_rooted(small: Graph, small_root: int, big: Graph, big_root: int):
    return min(embeddings(big, small, root=small_root, root_image=big_root), default=None)


def test_blocks_triangle():
    g = complete_graph(3)
    assert all(branches_at(g, v) == ((0, 1, 2),) for v in range(3))
    assert _cut_vertices(g) == ()


def test_blocks_bowtie():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert branches_at(g, 2) == ((0, 1, 2), (2, 3, 4))
    assert _cut_vertices(g) == (2,)


def test_blocks_path():
    g = path_graph(4)
    assert branches_at(g, 1) == ((0, 1), (1, 2, 3))
    assert branches_at(g, 2) == ((0, 1, 2), (2, 3))
    assert _cut_vertices(g) == (1, 2)


def test_blocks_disconnected_rejected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        Pattern(g)


def test_blocks_cover_edges_exactly_once():
    g = hub_branches_pattern().graph
    for v in range(g.n):
        for u, w in g.edges:
            assert sum(u in b and w in b for b in branches_at(g, v)) == 1


def test_blocks_relabel_invariant():
    g = hub_branches_pattern().graph
    perm = [3, 7, 0, 8, 2, 5, 1, 6, 4]
    relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])

    def sizes(x):
        return sorted(len(b) for v in range(x.n) for b in branches_at(x, v))

    assert sizes(g) == sizes(relabeled)
    assert len(_cut_vertices(g)) == len(_cut_vertices(relabeled))


def test_cut_structure_matches_networkx():
    atlas = connected_atlas()
    assert len(atlas) == 995
    # a square 0-1-2-3 between two triangles: the first branch in sorted
    # order holds the free edge 0-1 of the square, which is no leaf block
    dumbbell = nx.Graph(
        [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (2, 5), (4, 5), (3, 6), (3, 7), (6, 7)]
    )
    for x in atlas + [dumbbell]:
        g = Graph(x.number_of_nodes(), list(x.edges()))
        articulation = set(nx.articulation_points(x))
        assert _cut_vertices(g) == tuple(sorted(articulation))
        if g.n >= 3:
            assert _two_connected(g) == nx.is_biconnected(x)
        if min(d for _, d in x.degree()) >= 2:
            u, v = _glue_edge(Pattern(g))
            blocks = [b for b in nx.biconnected_components(x) if u in b and v in b]
            assert len(blocks) == 1
            assert len(blocks[0] & articulation) <= 1
            assert u not in articulation and v not in articulation


def test_is_two_connected():
    assert _two_connected(cycle_graph(4))
    assert not _two_connected(path_graph(3))
    assert not _two_connected(hub_branches_pattern().graph)
    assert not _two_connected(complete_graph(2))


def test_semi_symmetric_path3():
    d = classify_pattern(Pattern(path_graph(3))).decomposition
    assert d.root == 1
    assert d.branches == ((0, 1), (1, 2))
    assert (d.small_index, d.big_index) == (0, 1)
    assert dict(d.embedding) == {1: 1, 0: 2}


def test_semi_symmetric_triangle_none():
    assert classify_pattern(Pattern(complete_graph(3))).decomposition is None


def test_semi_symmetric_hub_pattern():
    d = classify_pattern(hub_branches_pattern()).decomposition
    assert d.root == 2
    assert d.branches == ((0, 1, 2), (2, 3, 4, 5), (2, 6, 7, 8))
    assert (d.small_index, d.big_index) == (0, 1)
    assert dict(d.embedding) == {2: 2, 0: 3, 1: 5}


def test_semi_symmetric_every_tree_has_one():
    for n in (3, 4, 5, 6):
        for tree in all_trees(n):
            assert classify_pattern(Pattern(tree)).decomposition is not None


def test_degree_one_vertex_always_gives_decomposition():
    # the neighbour of a pendant vertex always works, tree or not
    from hitset import random_graph

    for seed in range(12):
        core = random_graph(6, 0.5, 400 + seed)
        if not core.is_connected():
            continue
        pendant = Graph(7, list(core.edges) + [(seed % 6, 6)])
        p = Pattern(pendant)
        d = classify_pattern(p).decomposition
        assert d is not None
        assert verify_goodness(construct_good_graph(p, d), p)


def test_rooted_containment_edge_into_triangle():
    edge = Graph(2, [(0, 1)])
    tri = complete_graph(3)
    assert _least_rooted(edge, 0, tri, 0) == (0, 1)


def test_rooted_containment_triangle_into_square():
    assert _least_rooted(complete_graph(3), 0, cycle_graph(4), 0) is None


def test_rooted_containment_too_big():
    assert _least_rooted(cycle_graph(4), 0, complete_graph(3), 0) is None


def _least_rooted_map(small: Graph, small_root: int, big: Graph, big_root: int):
    """Brute force: permutations come in lexicographic order, so the first hit is least."""
    for m in itertools.permutations(range(big.n), small.n):
        if m[small_root] == big_root and all(has_edge(big, m[a], m[b]) for a, b in small.edges):
            return m
    return None


def _tree_branches(t: Graph) -> set[tuple[Graph, int]]:
    """Every branch of a tree at each cut vertex, relabelled, with its root."""
    out = set()
    for v in _cut_vertices(t):
        for branch in branches_at(t, v):
            sub, ids = induced_subgraph(t, branch)
            out.add((sub, ids.index(v)))
    return out


def test_rooted_containment_matches_brute_force():
    rooted = set()
    for n in range(3, 7):
        for t in all_trees(n):
            rooted |= _tree_branches(t)
    for seed in range(40):
        g = random_graph(2 + seed % 4, 0.6, 500 + seed)
        if g.is_connected():
            rooted.add((g, seed % g.n))
    rooted = sorted(rooted, key=lambda gr: (gr[0].n, sorted(gr[0].edges), gr[1]))
    found = missing = 0
    for small, small_root in rooted:
        for big, big_root in rooted:
            expected = _least_rooted_map(small, small_root, big, big_root)
            assert _least_rooted(small, small_root, big, big_root) == expected
            found += expected is not None
            missing += expected is None
    assert found > 100 and missing > 100


def test_good_graph_path3():
    p = Pattern(path_graph(3))
    good = construct_good_graph(p, classify_pattern(p).decomposition)
    assert good.graph == Graph(4, [(0, 1), (1, 2), (1, 3)])
    assert good.weights == (Fraction(1, 2), Fraction(1), Fraction(1, 2), Fraction(1, 2))
    assert sum(good.weights) == Fraction(5, 2)
    assert exact_min_hitting_set(good, p)[1] == 1


def test_good_graph_hub_pattern():
    p = hub_branches_pattern()
    good = construct_good_graph(p, classify_pattern(p).decomposition)
    assert good.graph.n == 12
    halves = [v for v in range(12) if good.weights[v] == Fraction(1, 2)]
    ones = [v for v in range(12) if good.weights[v] == Fraction(1)]
    assert len(halves) == 8 and len(ones) == 4
    assert sum(good.weights) == 8


def test_good_graph_star_center():
    p = Pattern(star_graph(3))
    good = construct_good_graph(p, classify_pattern(p).decomposition)
    assert good.graph == Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert sorted(good.weights) == [Fraction(1, 2)] * 3 + [Fraction(1)] * 2
    assert good.weights[0] == 1  # the hub keeps full weight
    assert sum(good.weights) == Fraction(7, 2)
    assert verify_goodness(good, p)


@pytest.mark.parametrize("n", [4, 5])
def test_good_graph_certified_for_trees(n):
    for tree in all_trees(n):
        p = Pattern(tree)
        d = classify_pattern(p).decomposition
        good = construct_good_graph(p, d)
        small = d.branches[d.small_index]
        assert sum(good.weights) == Fraction(p.k) - Fraction(len(small) - 1, 2)
        assert verify_goodness(good, p)


def test_classification_golden_on_atlas():
    # pins kind, root, branch order, the (i, j) pair and the witness map
    digest = hashlib.sha256()
    for x in connected_atlas():
        cls = classify_pattern(Pattern(Graph(x.number_of_nodes(), list(x.edges()))))
        d = cls.decomposition
        key = (cls.kind, d and (d.root, d.branches, d.small_index, d.big_index, d.embedding))
        digest.update(repr(key).encode() + b"\n")
    assert digest.hexdigest() == (
        "d1fbc7ef0a4292676bb700201feccb1b06abd1eb327b419e5362c9805c33b975"
    )


def test_pattern_preparation_golden():
    # pins connectivity and the branches at every vertex of every atlas graph
    # with 2 to 7 vertices, disconnected ones included, and of the trees with
    # 8 to 10 vertices; for the connected ones also the classification and
    # the serialized gadget
    graphs = [
        Graph(x.number_of_nodes(), list(x.edges()))
        for x in nx.graph_atlas_g()
        if 2 <= x.number_of_nodes() <= 7
    ]
    graphs += [Graph(n, list(t.edges())) for n in (8, 9, 10) for t in nx.nonisomorphic_trees(n)]
    assert len(graphs) == 1427
    digest = hashlib.sha256()
    for g in graphs:
        row = [g.is_connected(), [branches_at(g, v) for v in range(g.n)]]
        if g.is_connected():
            p = Pattern(g)
            cls = classify_pattern(p)
            d = cls.decomposition
            row += [
                cls.kind,
                d and (d.root, d.branches, d.small_index, d.big_index, d.embedding),
                serialize_graph(construct_good_graph(p, d)),
            ]
        digest.update(repr(row).encode() + b"\n")
    assert digest.hexdigest() == (
        "be67eb94ff7020a479e47f244834c3fe8fa238ad1e2a1d7ac10163381d0e77ce"
    )


def test_good_graph_golden_on_small_patterns():
    # pins every gadget, vertex ids and weights included, of the trees with
    # 2 to 6 vertices and the connected graphs with at most 6 vertices
    graphs = [tree for n in range(2, 7) for tree in all_trees(n)]
    graphs += [
        Graph(x.number_of_nodes(), list(x.edges()))
        for x in connected_atlas()
        if x.number_of_nodes() <= 6
    ]
    assert len(graphs) == 155
    digest = hashlib.sha256()
    for g in graphs:
        p = Pattern(g)
        good = construct_good_graph(p, classify_pattern(p).decomposition)
        digest.update(serialize_graph(good).encode())
    assert digest.hexdigest() == (
        "2363ce6e47614bf6914f844a68e672f37bd16d1226eee949bd104eca8105de54"
    )


def test_classify():
    assert classify_pattern(Pattern(path_graph(5))).kind == SEMI_SYMMETRIC
    assert classify_pattern(Pattern(cycle_graph(5))).kind == TWO_CONNECTED
    assert classify_pattern(triangle_square_share_vertex()).kind == UNKNOWN
    assert classify_pattern(Pattern(complete_graph(2))).kind == UNKNOWN
    for n in (3, 4, 5):
        for tree in all_trees(n):
            assert classify_pattern(Pattern(tree)).kind == SEMI_SYMMETRIC


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(Graph(1))
    with pytest.raises(ValueError):
        Pattern(Graph(4, [(0, 1), (2, 3)]))


def test_tree_counts():
    assert [len(all_trees(n)) for n in (3, 4, 5, 6)] == [1, 2, 3, 6]


def test_every_gadget_vertex_lies_on_a_pattern_copy():
    # what lets the solve route search only the vertices of the host's copies:
    # the pattern itself is one copy, and the pattern with its big branch
    # swapped for the fresh copy, whose ids follow the branch's vertex order,
    # is another
    for x in connected_atlas():
        p = Pattern(Graph(x.number_of_nodes(), list(x.edges())))
        d = classify_pattern(p).decomposition
        good = construct_good_graph(p, d)
        covered = set(range(p.k))
        if d is not None:
            fresh = [u for u in d.branches[d.big_index] if u != d.root]
            swap = dict(zip(fresh, range(p.k, good.n)))
            image = [swap.get(u, u) for u in range(p.k)]
            edges = {frozenset(e) for e in good.graph.edges}
            assert all(frozenset((image[a], image[b])) in edges for a, b in p.graph.edges)
            covered.update(image)
        assert covered == set(range(good.n))
        assert verify_goodness(good, p)  # the runtime certificate agrees
