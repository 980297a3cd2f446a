import gc
import hashlib
import itertools
import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from hitset import (
    BudgetExceededError,
    CopyHypergraph,
    EnumerationBudget,
    Graph,
    Pattern,
    WeightedGraph,
    build_copy_hypergraph,
    embeddings,
    enumerate_copies,
    exact_min_hitting_set,
    exact_min_vertex_cover,
    find_rooted_copy,
    min_weight_cover,
    solve,
    symmetry_pairs,
    unit_weights,
)
from hitset import copies, pipeline
from hitset.graphs import normalize_edge
from helpers import (
    DIFFERENTIAL_PATTERNS,
    complete_graph,
    connected_atlas,
    cycle_graph,
    is_embedding,
    naive_copy_sets,
    path_graph,
    scanning_embeddings,
    star_graph,
)
from hitset import random_graph

P3 = Pattern(path_graph(3))
K3 = Pattern(complete_graph(3))


def test_p3_in_k3():
    assert enumerate_copies(complete_graph(3), P3) == [(0, 1, 2)]
    # six injective maps are all valid here, one distinct vertex set
    maps = list(embeddings(complete_graph(3), P3.graph))
    assert len(maps) == 6
    assert all(is_embedding(complete_graph(3), P3.graph, emb) for emb in maps)


def test_k3_in_k4():
    copies = enumerate_copies(complete_graph(4), K3)
    assert copies == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


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
    got = enumerate_copies(g, pattern)
    assert got == sorted(expected)
    images = set()
    for emb in embeddings(g, pattern.graph):
        assert is_embedding(g, pattern.graph, emb)
        images.add(tuple(sorted(emb)))
    assert images == expected


def test_search_state_freed_without_cycle_collector():
    g = random_graph(12, 0.4, 1)
    gc.collect()
    gc.disable()
    try:
        list(embeddings(g, P3.graph))
        next(embeddings(g, P3.graph, allowed=frozenset(range(6))), None)
        assert find_rooted_copy(g, P3.graph, 1, 0) is not None
        assert gc.collect() == 0  # every search was freed by reference counting
    finally:
        gc.enable()


def test_oracle_search_state_freed_without_cycle_collector():
    g = random_graph(12, 0.4, 1)
    rng = random.Random(1)
    wg = WeightedGraph(g, tuple(rng.randint(1, 9) for _ in range(g.n)))
    gc.collect()
    gc.disable()
    try:
        assert exact_min_hitting_set(wg, P3)[1] > 0
        assert min_weight_cover(CopyHypergraph(6, [(0, 1, 2), (2, 3), (3, 4, 5)]), wg.weights)[0]
        assert exact_min_vertex_cover(g) > 0
        assert gc.collect() == 0  # the branch-and-bound state was freed by reference counting
    finally:
        gc.enable()


def test_disconnected_pattern_rejected():
    two_edges = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="^pattern graph must be connected$"):
        list(embeddings(complete_graph(5), two_edges))
    with pytest.raises(ValueError, match="^pattern graph must be connected$"):
        next(embeddings(complete_graph(5), two_edges, root=0, root_image=0))


def test_root_outside_pattern_rejected():
    edge = Graph(2, [(0, 1)])
    for host in (complete_graph(4), Graph(1, [])):  # also on a host too small for any copy
        for root in (5, -1):
            with pytest.raises(ValueError, match="vertices of the pattern"):
                list(embeddings(host, edge, root=root, root_image=0))


def test_pair_vertex_outside_pattern_rejected():
    for pairs in (((0, 5),), ((-1, 1),)):
        with pytest.raises(ValueError, match="vertices of the pattern"):
            list(embeddings(complete_graph(5), P3.graph, pairs=pairs))


def test_negative_root_image_does_not_wrap():
    c4 = cycle_graph(4)
    edge = Graph(2, [(0, 1)])
    assert list(embeddings(c4, edge, root=0, root_image=3)) == [(3, 0), (3, 2)]
    for image in (-1, -4):
        assert list(embeddings(c4, edge, root=0, root_image=image)) == []
        assert find_rooted_copy(c4, edge, 0, image) is None


def test_root_image_past_host_has_no_embedding():
    c4 = cycle_graph(4)
    edge = Graph(2, [(0, 1)])
    for image in (4, 7):
        assert list(embeddings(c4, edge, root=0, root_image=image)) == []
        assert find_rooted_copy(c4, edge, 0, image) is None


def test_match_plan_prepared_once_per_pattern(monkeypatch):
    paw = Pattern(DIFFERENTIAL_PATTERNS["paw"])
    g = unit_weights(random_graph(640, 4 / 640, 1))
    plan, find = copies._plan, pipeline.find_rooted_copy
    keys, rooted = [], []

    def recording_plan(*key):
        keys.append(key)
        return plan(*key)

    def counting_find(*args, **kwargs):
        rooted.append(args)
        return find(*args, **kwargs)

    monkeypatch.setattr(copies, "_plan", recording_plan)
    monkeypatch.setattr(pipeline, "find_rooted_copy", counting_find)
    plan.cache_clear()
    solve(g, paw)
    info = plan.cache_info()
    assert info.misses == len(set(keys)) == info.currsize  # one build per distinct plan
    # only the first rooted search builds its plan; every later one reuses it
    assert info.hits == len(keys) - info.misses >= len(rooted) - 1 > 0


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
    allowed = frozenset(range(g.n)) - frozenset(range(1, 5))  # no neighbour of the hub
    edge = Graph(2, [(0, 1)])
    assert find_rooted_copy(g, edge, 0, 0, allowed=allowed) is None
    assert find_rooted_copy(g, edge, 0, 0) is not None


def test_budget_flag_and_partial():
    budget = EnumerationBudget(max_copies=2)
    with pytest.raises(BudgetExceededError, match="^copy enumeration exceeded the budget of 2$"):
        enumerate_copies(complete_graph(4), K3, budget)
    assert budget.used == 2


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
    copies = [vs for vs in enumerate_copies(g, K3) if allowed.issuperset(vs)]
    assert copies == [(0, 1, 2)]
    images = {tuple(sorted(emb)) for emb in embeddings(g, K3.graph, allowed=allowed)}
    assert images == {(0, 1, 2)}


def _nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def _vf2_maps(g: Graph, h: Graph, allowed=None) -> set[tuple[int, ...]]:
    """VF2 monomorphisms of ``h`` into ``g``, as tuples indexed by pattern vertex."""
    host = _nx(g) if allowed is None else _nx(g).subgraph(allowed)
    maps = set()
    for m in GraphMatcher(host, _nx(h)).subgraph_monomorphisms_iter():
        inverse = {hv: gv for gv, hv in m.items()}
        maps.add(tuple(inverse[x] for x in range(h.n)))
    return maps


def _differential_hosts():
    for seed in range(6):
        yield random_graph(6 + seed, 0.5, 9100 + seed), random.Random(seed)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_PATTERNS))
def test_embeddings_match_networkx(name):
    h = DIFFERENTIAL_PATTERNS[name]
    for g, _ in _differential_hosts():
        got = list(embeddings(g, h))
        assert len(got) == len(set(got))
        assert set(got) == _vf2_maps(g, h)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_PATTERNS))
def test_embeddings_allowed_match_networkx(name):
    h = DIFFERENTIAL_PATTERNS[name]
    for g, rng in _differential_hosts():
        allowed = frozenset(rng.sample(range(g.n), g.n - 2))
        got = set(embeddings(g, h, allowed=allowed))
        assert got == _vf2_maps(g, h, allowed)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_PATTERNS))
def test_embeddings_rooted_match_networkx(name):
    h = DIFFERENTIAL_PATTERNS[name]
    for g, _ in _differential_hosts():
        every = _vf2_maps(g, h)
        for root in range(h.n):
            for image in range(g.n):
                got = set(embeddings(g, h, root=root, root_image=image))
                assert got == {m for m in every if m[root] == image}


START_PATTERNS = ("P3", "P4", "K1,3", "paw", "K3", "C4")


@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("name", START_PATTERNS)
def test_embeddings_start_filters_first_matched_image(name, restricted):
    h = DIFFERENTIAL_PATTERNS[name]
    first = copies._plan(h, None, ())[0][0]  # the pattern vertex matched first
    for g, rng in _differential_hosts():
        allowed = frozenset(rng.sample(range(g.n), g.n - 2)) if restricted else None
        every = list(embeddings(g, h, allowed=allowed))
        for s in (0, 1, g.n // 2, g.n - 1, g.n):
            got = list(embeddings(g, h, allowed=allowed, start=s))
            assert got == [emb for emb in every if emb[first] >= s]


def test_embeddings_start_with_root_rejected():
    with pytest.raises(ValueError, match="pinned root"):
        list(embeddings(complete_graph(5), P3.graph, root=0, root_image=0, start=1))
    with pytest.raises(ValueError, match="nonnegative"):
        list(embeddings(complete_graph(5), P3.graph, start=-1))
    with pytest.raises(ValueError, match="given together"):
        list(embeddings(complete_graph(5), P3.graph, root=0))
    # the empty pattern is checked like any other
    with pytest.raises(ValueError, match="given together"):
        list(embeddings(complete_graph(5), Graph(0), root=0))
    with pytest.raises(ValueError, match="nonnegative"):
        list(embeddings(complete_graph(5), Graph(0), start=-1))
    with pytest.raises(ValueError, match="vertices of the pattern"):
        list(embeddings(complete_graph(5), Graph(0), root=5, root_image=0))


def test_embeddings_self_pair_rejected():
    # no embedding puts a vertex's image below itself; rejected before any plan is made
    plans = copies._plan.cache_info()
    with pytest.raises(ValueError, match=r"ordering pair \(v, v\)"):
        list(embeddings(complete_graph(3), P3.graph, pairs=((0, 0),)))
    with pytest.raises(ValueError, match=r"ordering pair \(v, v\)"):
        list(embeddings(complete_graph(3), P3.graph, pairs=((0, 1), (2, 2))))
    assert copies._plan.cache_info() == plans
    assert list(embeddings(complete_graph(3), P3.graph, pairs=((0, 1), (1, 0)))) == []


# every differential pattern, and K1,7: the star with the longest chain of pair bounds
ORDER_PATTERNS = {**DIFFERENTIAL_PATTERNS, "K1,7": star_graph(7)}
ORDER_PREFIX = 4_000  # a dense host has millions of paw-gadget embeddings


def _order_hosts():
    for seed in (1, 2):
        yield random_graph(160, 4 / 160, seed)  # sparse: cycles are rare
        yield random_graph(30, 0.5, seed)  # dense: most candidates fail some check


@pytest.mark.parametrize("name", sorted(ORDER_PATTERNS))
def test_embeddings_same_sequence_as_scanning_reference(name):
    h = ORDER_PATTERNS[name]
    pairs = symmetry_pairs(h)
    for g in _order_hosts():
        rng = random.Random(g.n)
        allowed = frozenset(rng.sample(range(g.n), g.n * 3 // 4))
        searches = [
            {},
            {"allowed": allowed},
            {"pairs": pairs},
            {"pairs": pairs, "allowed": allowed},
            {"start": g.n // 3},
            {"pairs": pairs, "start": g.n // 2},
        ]
        searches += [
            {"root": root, "root_image": rng.randrange(g.n), "allowed": allowed}
            for root in range(h.n)
        ]
        searches += [{"root": root, "root_image": image} for root in (0, h.n - 1) for image in (0, 7)]
        for kwargs in searches:
            got = list(itertools.islice(embeddings(g, h, **kwargs), ORDER_PREFIX))
            want = list(itertools.islice(scanning_embeddings(g, h, **kwargs), ORDER_PREFIX))
            assert got == want, kwargs


@pytest.mark.parametrize("leaves", [5, 7])
def test_plan_keeps_one_binding_bound_per_star_leaf(leaves):
    h = star_graph(leaves)
    pairs = symmetry_pairs(h)
    order, _, steps, _ = copies._plan(h, None, pairs)
    assert order[0] == 0  # the centre; every later position is a leaf
    assert [step[3] for step in steps[1:]] == [()] + [(p - 1,) for p in range(2, leaves + 1)]
    assert all(step[4] == () for step in steps)
    for g in _order_hosts():
        got = list(itertools.islice(embeddings(g, h, pairs=pairs), ORDER_PREFIX))
        assert got == list(itertools.islice(scanning_embeddings(g, h, pairs=pairs), ORDER_PREFIX))
    total = 0
    for g, _ in _differential_hosts():
        # every pair as given, tested on the unrestricted sequence, admits the same embeddings
        got = list(embeddings(g, h, pairs=pairs))
        assert got == [emb for emb in embeddings(g, h) if all(emb[a] < emb[b] for a, b in pairs)]
        total += len(got)
    assert total > 0


@pytest.mark.parametrize("name", ["P4", "K1,3", "C4", "paw", "diamond", "bowtie"])
def test_arbitrary_pairs_filter_the_unrestricted_sequence(name):
    # redundant, duplicated and contradictory pairs alike
    h = DIFFERENTIAL_PATTERNS[name]
    rng = random.Random(name)
    for g, _ in _differential_hosts():
        every = list(embeddings(g, h))
        for _ in range(8):
            pairs = tuple(tuple(rng.sample(range(h.n), 2)) for _ in range(rng.randint(1, 2 * h.n)))
            want = [emb for emb in every if all(emb[a] < emb[b] for a, b in pairs)]
            assert list(embeddings(g, h, pairs=pairs)) == want, pairs


def test_compiled_searches_match_scanning_reference_on_atlas():
    for x in connected_atlas():
        h = Graph(x.number_of_nodes(), list(x.edges()))
        pairs = symmetry_pairs(h)
        assert list(embeddings(h, h)) == list(scanning_embeddings(h, h))
        assert list(embeddings(h, h, pairs=pairs)) == list(scanning_embeddings(h, h, pairs=pairs))


# sha256 over the steps and generated source of every pattern's symmetry-broken plan
PLAN_DIGEST = "f1a82c0d0eda4e24631e92d3c3ea962827ff92604774fb64dc093d526d5ed866"


def test_symmetry_plans_match_their_digest(monkeypatch):
    # the 995 connected atlas graphs, the 176 trees with 8 to 10 vertices, and K1,8
    patterns = [Graph(x.number_of_nodes(), list(x.edges())) for x in connected_atlas()]
    patterns += [Graph(n, list(t.edges())) for n in (8, 9, 10) for t in nx.nonisomorphic_trees(n)]
    patterns.append(star_graph(8))
    sources = []
    generate = compile
    monkeypatch.setattr(
        copies, "compile", lambda src, *args: sources.append(src) or generate(src, *args),
        raising=False,
    )
    digest = hashlib.sha256()
    for h in patterns:
        pairs = symmetry_pairs(h)
        # transitively closed, which is what lets ``_plan`` read bounds off the pairs
        closed = set(pairs)
        assert all((a, c) in closed for a, b in pairs for b2, c in pairs if b == b2), h
        _, _, steps, _ = copies._plan.__wrapped__(h, None, pairs)
        digest.update(f"{steps!r}\n{sources.pop()}\n".encode())
    assert digest.hexdigest() == PLAN_DIGEST


def test_long_plans_continue_across_generated_functions():
    # more match positions than one generated function nests; counts are per search below
    cases = (
        (path_graph(40), cycle_graph(43), (86, 43, 4)),
        (cycle_graph(35), cycle_graph(35), (70, 1, 0)),
    )
    for h, g, counts in cases:
        searches = ({}, {"pairs": symmetry_pairs(h)}, {"allowed": frozenset(range(2, g.n))})
        for kwargs, count in zip(searches, counts):
            got = list(embeddings(g, h, **kwargs))
            assert got == list(scanning_embeddings(g, h, **kwargs))
            assert len(got) == count and all(is_embedding(g, h, emb) for emb in got)
    k18 = complete_graph(18)
    assert list(itertools.islice(embeddings(k18, k18, root=5, root_image=5), 50)) == list(
        itertools.islice(scanning_embeddings(k18, k18, root=5, root_image=5), 50)
    )


def _edge_image(h: Graph, emb: tuple[int, ...]) -> frozenset:
    return frozenset(normalize_edge(emb[u], emb[v]) for u, v in h.edges)


@pytest.mark.parametrize("restricted", [False, True])
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_PATTERNS))
def test_symmetry_broken_embeddings_match_networkx(name, restricted):
    h = DIFFERENTIAL_PATTERNS[name]
    automorphisms = len(_vf2_maps(h, h))
    total = 0
    for g, rng in _differential_hosts():
        allowed = frozenset(rng.sample(range(g.n), g.n - 2)) if restricted else None
        every = _vf2_maps(g, h, allowed)
        got = list(embeddings(g, h, allowed=allowed, pairs=symmetry_pairs(h)))
        assert set(got) <= every
        # one mapping per copy, i.e. per distinct edge-set image
        images = [_edge_image(h, emb) for emb in got]
        assert len(images) == len(set(images))
        assert set(images) == {_edge_image(h, emb) for emb in every}
        assert len(got) * automorphisms == len(every)
        total += len(got)
    assert total > 0


def test_symmetry_pairs_on_atlas():
    atlas = connected_atlas()
    assert len(atlas) == 995
    for x in atlas:
        h = Graph(x.number_of_nodes(), list(x.edges()))
        automorphisms = sum(1 for _ in GraphMatcher(x, x).isomorphisms_iter())
        assert sum(1 for _ in embeddings(h, h)) == automorphisms
        identity = tuple(range(h.n))
        assert list(embeddings(h, h, pairs=symmetry_pairs(h))) == [identity]


def test_symmetry_pairs_star():
    # the centre is fixed; the leaves must appear in ascending order
    assert symmetry_pairs(star_graph(3)) == ((1, 2), (1, 3), (2, 3))
    assert symmetry_pairs(path_graph(2)) == ((0, 1),)


def test_symmetry_pairs_with_root_rejected():
    h = star_graph(3)
    with pytest.raises(ValueError, match="pinned root"):
        list(embeddings(complete_graph(5), h, root=0, root_image=0, pairs=symmetry_pairs(h)))


def test_budget_counts_distinct_sets_of_symmetric_pattern():
    g = random_graph(16, 0.6, 5)
    k15 = Pattern(star_graph(5))
    budget = EnumerationBudget()
    copies = enumerate_copies(g, k15, budget)
    assert copies == sorted({tuple(sorted(emb)) for emb in embeddings(g, k15.graph)})
    assert budget.used == len(copies) > 0
    short = EnumerationBudget(max_copies=len(copies) - 1)
    message = f"^copy enumeration exceeded the budget of {len(copies) - 1}$"
    with pytest.raises(BudgetExceededError, match=message):
        enumerate_copies(g, k15, short)
    assert short.used == len(copies) - 1
