import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hitset import (
    CopyHypergraph,
    Graph,
    ParseError,
    WeightedGraph,
    induced_subgraph,
    parse_graph,
    serialize_graph,
    unit_weights,
)
from hitset.cli import parse_solution_document
from hitset.generators import parse_hypergraph_text
from helpers import too_many_digits

PARSE_ERROR_KINDS = {"malformed", "vertex-range", "duplicate-edge", "negative-weight"}


def test_parse_triangle():
    wg = parse_graph("p 3 3\ne 0 1\ne 1 2\ne 0 2\n")
    assert wg.graph == Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert wg.weights == (Fraction(1),) * 3
    # one shared default weight, which WeightedGraph keeps rather than copies
    assert all(w is wg.weights[0] for w in wg.weights)


def test_parse_single_vertex():
    wg = parse_graph("p 1 0")
    assert wg.graph.n == 1 and wg.graph.m == 0
    assert wg.weights == (Fraction(1),)


def test_parse_rational_weight():
    wg = parse_graph("p 2 1\ne 0 1\nw 0 3/2\n")
    assert wg.weights == (Fraction(3, 2), Fraction(1))


def test_parse_comments_and_blanks():
    wg = parse_graph("# header\n\np 2 1  # inline\ne 0 1\n")
    assert wg.graph.m == 1


@pytest.mark.parametrize(
    "text,kind,line",
    [
        ("p 2 1\ne 0 1\nq 1\n", "malformed", 3),
        ("p 2 1\ne 0 2\n", "vertex-range", 2),
        ("p 3 2\ne 0 1\ne 1 0\n", "duplicate-edge", 3),
        ("p 2 1\ne 0 1\nw 0 -1\n", "negative-weight", 3),
        ("p 2 1\ne 1 1\n", "malformed", 2),
        ("p 2 1\ne 0 1\nw 5 1\n", "vertex-range", 3),
        ("p 2 1\ne 0 1\nw 0 1\nw 0 2\n", "malformed", 4),
        ("p 2 1\ne 0 1\nw 0 1/0\n", "malformed", 3),
        ("e 0 1\n", "malformed", 1),
        ("p 2 2\ne 0 1\n", "malformed", 1),
        ("", "malformed", 1),
        # int() alone takes digit-group underscores and non-ASCII digits
        ("p 1_1 1\ne \u0663 +4\nw 0 1_0/\u0662\n", "malformed", 1),
        ("p 11 1\ne \u0663 4\n", "malformed", 2),
        ("p 11 1\ne 3 4\nw 0 1_0/2\n", "malformed", 3),
        ("p 11 1\ne 3 4\nw 0 10/\u0662\n", "malformed", 3),
        ("p 11 1\ne 3 4\nw 0 \uff13\n", "malformed", 3),
        ("p 11 1\ne 3 4.0\n", "malformed", 2),
        ("p 11 1\ne 3 4\nw 0 5/\n", "malformed", 3),
        # bytes that are not UTF-8; lines are numbered as str.splitlines does
        (b"p 2 1\ne 0 1\n# caf\xe9\n", "malformed", 3),
        (b"p 2 1\r\ne 0\x0b \xff 1\n", "malformed", 3),
    ],
)
def test_parse_errors(text, kind, line):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.kind == kind
    assert err.value.line == line


def test_parse_integers_are_ascii():
    with pytest.raises(ParseError) as err:
        parse_graph("p 1_1 1\ne \u0663 +4\nw 0 1_0/\u0662\n")
    assert str(err.value) == "line 1: expected an integer vertex count, got '1_1'"
    wg = parse_graph("p 011 1\ne 3 +4\nw 0 -0\nw 1 +10/2\n")
    assert wg.graph == Graph(11, [(3, 4)])
    assert wg.weights[:2] == (Fraction(0), Fraction(5))


def test_parse_too_many_digits_is_malformed():
    with pytest.raises(ParseError) as err:
        parse_graph(f"p 2 1\ne 0 1\nw 0 {too_many_digits()}\n")
    assert err.value.kind == "malformed"
    assert str(err.value) == "line 3: integer weight numerator has too many digits"


def test_serialize_canonical_triangle():
    text = serialize_graph(parse_graph("p 3 3\ne 1 2\ne 0 1\ne 0 2\n"))
    assert text == "p 3 3\ne 0 1\ne 0 2\ne 1 2\n"


def test_serialize_rational():
    wg = WeightedGraph(Graph(2, [(0, 1)]), (Fraction(3, 2), Fraction(1)))
    assert "w 0 3/2" in serialize_graph(wg).splitlines()


def test_serialize_empty():
    assert serialize_graph(unit_weights(Graph(0))) == "p 0 0\n"


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    with pytest.raises(TypeError):
        WeightedGraph(Graph(1), (0.5,))
    with pytest.raises(ValueError):
        WeightedGraph(Graph(1), (Fraction(-1),))
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Graph(-1)
    with pytest.raises(ValueError, match="exactly one weight per vertex"):
        WeightedGraph(Graph(2), (Fraction(1),))


def test_is_connected_edge_cases():
    assert Graph(0).is_connected()
    assert Graph(1).is_connected()
    assert Graph(2, [(0, 1)]).is_connected()
    assert not Graph(2).is_connected()
    assert not Graph(4, [(0, 1), (1, 2)]).is_connected()  # vertex 3 is isolated
    assert not Graph(4, [(1, 2), (2, 3)]).is_connected()  # vertex 0 is isolated


def test_induced_subgraph():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    sub, ids = induced_subgraph(g, [1, 2, 4])
    assert ids == (1, 2, 4)
    assert sub == Graph(3, [(0, 1)])


@st.composite
def weighted_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = tuple(
        Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 8))) for _ in range(n)
    )
    return WeightedGraph(Graph(n, edges), weights)


@given(weighted_graphs())
@settings(max_examples=80, deadline=None)
def test_roundtrip(wg):
    parsed = parse_graph(serialize_graph(wg))
    assert parsed == wg
    # the one neighbour index: built once per graph, sorted, equal to the edges
    g = parsed.graph
    assert g.adjacency is g.adjacency
    reference = tuple(
        tuple(sorted(u for e in g.edges if v in e for u in e if u != v)) for v in range(g.n)
    )
    assert type(g.adjacency) is tuple and all(type(row) is tuple for row in g.adjacency)
    assert g.adjacency == reference
    assert hash(g) == hash(wg.graph) and g == wg.graph


@given(
    weighted_graphs(),
    st.lists(st.fractions(min_value=0, max_denominator=10**20), min_size=8, max_size=8),
    st.booleans(),
)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_roundtrip_fractional_weights(wg, weights, as_bytes):
    wg = WeightedGraph(wg.graph, weights[: wg.n])
    text = serialize_graph(wg)
    assert parse_graph(text.encode() if as_bytes else text) == wg


# documents of a header and short lines get past the header far more often than raw text
_fields = st.one_of(
    st.sampled_from(("0", "1", "2")),
    st.sampled_from(("-1", "+2", "3/2", "-1/2", "1/0", "1_0", "\u0663", "x", "#")),
)
_lines = st.builds(
    lambda tag, fields: " ".join((tag, *fields)),
    st.sampled_from(("e", "e", "w", "h", "p", "vertices:", "")),
    st.lists(_fields, min_size=1, max_size=3),
)
_documents = st.builds(
    lambda n, m, lines: "\n".join((f"p {n} {m}", *lines)),
    st.sampled_from(("1", "2", "3", "x")),
    st.sampled_from(("0", "1", "2")),
    st.lists(_lines, max_size=6),
)
_texts = st.one_of(st.text(max_size=120), _documents)


@given(st.one_of(_texts, _texts.map(str.encode), st.binary(max_size=120)))
@example("p 2 1\ne 0 1\nw 0 " + "7" * 5000 + "\n")
@example("p 2 1\nh 0 " + "7" * 5000 + "\n")
@example("vertices: 0 " + "7" * 5000 + "\n")
@example(b"p 2 1\ne 0 1\nw 0 \xff\n")
@example(b"p 2 1\nh 0 \xff\n")
@settings(max_examples=200, derandomize=True, deadline=None)
def test_parsers_raise_only_documented_parse_errors(data):
    parsers = [parse_graph, parse_hypergraph_text]
    if isinstance(data, str):
        parsers.append(parse_solution_document)
    for parse in parsers:
        try:
            parse(data)
        except ParseError as exc:
            assert exc.kind in PARSE_ERROR_KINDS


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
)
@settings(max_examples=60, deadline=None)
def test_rational_arithmetic_exact(a, b):
    assert (a + b) - b == a
    assert Fraction(a.numerator, a.denominator) == a  # normalization idempotent


def test_rational_lowest_terms():
    x = Fraction(6, 4)
    assert (x.numerator, x.denominator) == (3, 2)
    assert str(x) == "3/2"
    assert str(Fraction(4, 2)) == "2"


def test_hypergraph_canonical_order():
    edges = [(2, 0, 1), (3, 4, 5), (0, 1, 2), (5, 3, 4)]
    rng = random.Random(5)
    reference = CopyHypergraph(6, tuple(edges))
    for _ in range(10):
        shuffled = edges[:]
        rng.shuffle(shuffled)
        assert CopyHypergraph(6, tuple(shuffled)) == reference
    assert reference.hyperedges == ((0, 1, 2), (3, 4, 5))


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        CopyHypergraph(3, ((),))
    with pytest.raises(ValueError):
        CopyHypergraph(3, ((0, 7),))
    assert CopyHypergraph(4, ((1, 0), (0, 1))).hyperedges == ((0, 1),)
    assert CopyHypergraph(4, ((3, 1),)).covered_vertices() == (1, 3)
