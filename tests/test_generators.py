import pytest

from hitset import (
    GLParams,
    Graph,
    ParseError,
    Pattern,
    enumerate_copies,
    exact_min_hitting_set,
    gadget_edge_glue,
    gadget_vertex_glue,
    gl_random_instance,
    parse_graph,
    random_graph,
    serialize_tagged_graph,
    unit_weights,
)
from hitset.generators import parse_hypergraph_text
from helpers import (
    complete_graph,
    cycle_graph,
    naive_min_vertex_cover,
    path_graph,
    scalar_random_graph,
    too_many_digits,
)

P3 = Pattern(path_graph(3))
K3 = Pattern(complete_graph(3))


def test_edge_glue_k2_base():
    out, provenance = gadget_edge_glue(complete_graph(2), K3)
    assert out.n == 3 and out.m == 3  # a single triangle
    _, hit = exact_min_hitting_set(unit_weights(out), K3)
    assert hit == naive_min_vertex_cover(complete_graph(2)) == 1
    assert set(provenance) == {2}


def test_edge_glue_k3_base():
    out, _ = gadget_edge_glue(complete_graph(3), K3)
    assert out.n == 6
    _, hit = exact_min_hitting_set(unit_weights(out), K3)
    assert hit == naive_min_vertex_cover(complete_graph(3)) == 2


def test_edge_glue_edgeless_base():
    out, provenance = gadget_edge_glue(Graph(4), K3)
    assert out == Graph(4) and provenance == {}


def test_edge_glue_requires_min_degree_two():
    with pytest.raises(ValueError):
        gadget_edge_glue(complete_graph(3), P3)


def test_vertex_glue_k2_base_gives_path():
    out, provenance = gadget_vertex_glue(complete_graph(2), P3)
    assert out.n == 4
    assert out == Graph(4, [(0, 1), (0, 2), (1, 3)])  # a path on four vertices
    _, hit = exact_min_hitting_set(unit_weights(out), P3)
    assert hit == naive_min_vertex_cover(complete_graph(2)) == 1


def test_vertex_glue_edgeless_base():
    out, _ = gadget_vertex_glue(Graph(3), P3)
    assert out.n == 6 and out.m == 3  # three disjoint pendants
    _, hit = exact_min_hitting_set(unit_weights(out), P3)
    assert hit == 0 == naive_min_vertex_cover(Graph(3))


def test_vertex_glue_c4_base():
    out, _ = gadget_vertex_glue(cycle_graph(4), P3)
    assert out.n == 8
    _, hit = exact_min_hitting_set(unit_weights(out), P3)
    assert hit == naive_min_vertex_cover(cycle_graph(4)) == 2


def test_vertex_glue_requires_leaf():
    with pytest.raises(ValueError):
        gadget_vertex_glue(complete_graph(3), K3)


def test_gl_counts_and_tags():
    params = GLParams(3, ((0, 1, 2),), 2, 1, 42)
    tg = gl_random_instance(K3, params)
    assert tg.graph.n == 3 * 2
    assert len(tg.planted) == 1 * 2  # multiplier * cloud size per hyperedge
    found = set(enumerate_copies(tg.graph, K3))
    for ei, j, verts in tg.planted:
        assert tuple(sorted(verts)) in found
        for p, q in K3.graph.sorted_edges():
            edge = tuple(sorted((verts[p], verts[q])))
            assert (ei, j) in tg.all_tags[edge]


def test_gl_reproducible():
    params = GLParams(4, ((0, 1, 2), (1, 2, 3)), 3, 2, 7)
    a = gl_random_instance(K3, params)
    b = gl_random_instance(K3, params)
    assert serialize_tagged_graph(a) == serialize_tagged_graph(b)
    other = gl_random_instance(K3, GLParams(4, ((0, 1, 2), (1, 2, 3)), 3, 2, 8))
    assert serialize_tagged_graph(a) != serialize_tagged_graph(other)


def test_gl_degenerate_cloud():
    params = GLParams(3, ((0, 1, 2),), 1, 2, 0)
    tg = gl_random_instance(K3, params)
    assert tg.graph.n == 3
    assert tg.graph.m == 3  # all plantings collapse onto the same triangle
    assert len(tg.all_tags[(0, 1)]) == 2


def test_gl_clouds_partition():
    params = GLParams(4, ((0, 1, 2), (1, 2, 3)), 5, 1, 3)
    tg = gl_random_instance(K3, params)
    seen = set()
    for base, members in tg.clouds.items():
        assert len(members) == 5
        assert not seen & set(members)
        seen.update(members)
    assert seen == set(range(tg.graph.n))
    for u, v in tg.graph.edges:
        assert u // 5 != v // 5  # planted edges join distinct clouds


def test_gl_size_mismatch():
    with pytest.raises(ValueError):
        gl_random_instance(P3, GLParams(4, ((0, 1, 2, 3),), 2, 1, 0))
    for args, message in (
        ((3, ((0, 1, 2),), 0, 1, 0), "cloud size must be at least 1"),
        ((3, ((0, 1, 2),), 2, 0, 0), "multiplier must be at least 1"),
        ((3, ((0, 1, 2),), 2, 1, -1), "seed must be nonnegative"),
        ((3, ((0, 1, 1),), 2, 1, 0), "repeated vertices"),
        ((3, ((0, 1, 3),), 2, 1, 0), "out of range"),
    ):
        with pytest.raises(ValueError, match=message):
            GLParams(*args)


def test_gl_serialization_is_plain_graph_too():
    params = GLParams(3, ((0, 1, 2),), 2, 1, 42)
    tg = gl_random_instance(K3, params)
    text = serialize_tagged_graph(tg)
    assert parse_graph(text).graph == tg.graph


def test_random_graph_extremes():
    assert random_graph(5, 0.0, 1).m == 0
    assert random_graph(5, 1.0, 1) == complete_graph(5)
    assert random_graph(8, 0.5, 3) == random_graph(8, 0.5, 3)
    assert random_graph(8, 0.5, 3) != random_graph(8, 0.5, 4)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 300])
def test_random_graph_matches_scalar_draws(n):
    for p in (0, 0.05, 0.5, 1):
        for seed in range(3):
            g = random_graph(n, p, seed)
            assert g == scalar_random_graph(n, p, seed), (p, seed)
            assert all(type(x) is int for e in g.edges for x in e)


def test_parse_hypergraph_text():
    n, edges = parse_hypergraph_text("p 4 2\nh 0 1 2\nh 1 2 3\n")
    assert n == 4 and edges == ((0, 1, 2), (1, 2, 3))
    with pytest.raises(ParseError):
        parse_hypergraph_text("h 0 1\n")
    with pytest.raises(ParseError):
        parse_hypergraph_text("p 2 1\nh 0 5\n")
    with pytest.raises(ParseError, match="line 2: empty hyperedge"):
        parse_hypergraph_text("p 2 1\nh\n")
    assert parse_hypergraph_text("p 4 1\nh +0 01 2\n") == (4, ((0, 1, 2),))
    for bad in ("1_0", "\u0662", "2.0"):
        with pytest.raises(ParseError, match="line 2: vertex ids must be integers"):
            parse_hypergraph_text(f"p 40 1\nh 0 1 {bad}\n")


def test_parse_hypergraph_bad_integers_and_bytes_are_malformed():
    with pytest.raises(ParseError) as err:
        parse_hypergraph_text(f"p 2 1\nh 0 {too_many_digits()}\n")
    assert err.value.kind == "malformed"
    assert str(err.value) == "line 2: integer vertex id has too many digits"
    with pytest.raises(ParseError) as err:
        parse_hypergraph_text(b"p 2 1\nh 0 \xff\n")
    assert (err.value.line, err.value.kind) == (2, "malformed")
    assert parse_hypergraph_text(b"p 2 1\nh 0 1\n") == (2, ((0, 1),))


def test_parse_hypergraph_count_mismatch_names_header_line():
    with pytest.raises(ParseError) as err:
        parse_hypergraph_text("# c\np 3 2\nh 0 1 2\n")
    assert err.value.line == 2
    assert str(err.value) == "line 2: header declares 2 hyperedges, found 1"


def test_parse_hypergraph_negative_counts_rejected():
    with pytest.raises(ParseError) as err:
        parse_hypergraph_text("p -2 0\n")
    assert (err.value.line, err.value.kind) == (1, "malformed")
    assert str(err.value) == "line 1: counts must be nonnegative"
