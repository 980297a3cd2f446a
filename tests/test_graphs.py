import random
from fractions import Fraction

import numpy as np
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
from hitset import graphs
from hitset.cli import parse_solution_document
from hitset.generators import parse_hypergraph_text, random_graph
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


@pytest.mark.parametrize(
    "edges,message",
    [
        # the first fault in input order is named, whatever the faults after it
        ([(0, 1), (0, 5), (1, 1)], r"edge \(0, 5\) out of range for n=3"),
        ([(1, 1), (0, 5)], "self-loop at vertex 1"),
        ([(4, 0), (2, 2)], r"edge \(4, 0\) out of range for n=3"),  # as given, not normalised
        ([(0, 1), (5, 5)], "self-loop at vertex 5"),  # a self-loop before its range
        ([(-1, 0), (1, 1)], r"edge \(-1, 0\) out of range for n=3"),
        (iter([(0, 1), (2, 2), (0, 9)]), "self-loop at vertex 2"),  # a one-shot iterator
    ],
)
def test_graph_names_its_first_fault(edges, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(3, edges)


def test_weighted_graph_check_order():
    # conversion, then the count, then the signs
    with pytest.raises(TypeError, match="not floats"):
        WeightedGraph(Graph(3), (Fraction(-1), 0.5, 1))
    with pytest.raises(ValueError, match="^need exactly one weight per vertex$"):
        WeightedGraph(Graph(2), (Fraction(-1),))
    with pytest.raises(ValueError, match="^weights must be nonnegative$"):
        WeightedGraph(Graph(2), (1, Fraction(-1, 2)))
    with pytest.raises(ValueError, match="^weights must be nonnegative$"):
        WeightedGraph(Graph(2), (Fraction(1), Fraction(-1, 2)))
    # Fractions are kept as given; other exact values become Fractions
    half = Fraction(1, 2)
    wg = WeightedGraph(Graph(3), (half, 2, True))
    assert wg.weights[0] is half and wg.weights[1:] == (Fraction(2), Fraction(1))
    assert all(type(w) is Fraction for w in wg.weights)
    assert WeightedGraph(Graph(2), iter((half, half))).weights == (half, half)


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


def _canonical_examples():
    yield unit_weights(Graph(0))
    yield unit_weights(Graph(5, [(0, 4)]))  # isolated vertices
    yield WeightedGraph(Graph(3, [(0, 1), (1, 2)]), (Fraction(0), Fraction(7, 3), Fraction(1)))
    g = random_graph(300, 4 / 300, 1)
    yield unit_weights(g)
    yield WeightedGraph(g, tuple(Fraction(v % 9 + 1, v % 4 + 1) for v in range(g.n)))


def test_canonical_text_is_read_in_bulk(monkeypatch):
    def no_line_checker(text):
        raise AssertionError("the line checker read canonical text")

    monkeypatch.setattr(graphs, "_parse_lines", no_line_checker)
    for wg in _canonical_examples():
        text = serialize_graph(wg)
        for data in (text, text.encode()):
            parsed = parse_graph(data)
            assert parsed == wg
            # one shared default weight
            defaults = [w for v, w in enumerate(parsed.weights) if wg.weights[v] == 1]
            assert all(w is defaults[0] for w in defaults)


def _outcome(parse, data):
    try:
        return parse(data)
    except ParseError as exc:
        return exc.line, exc.kind, str(exc)


_BAD_TOKENS = (
    "x", "+1", "-1", "+0", "-0", "01", "007", "1_0", "\u0663", "3/0", "-1/2", "1/", "/2",
    "2/04", "1.5", "7" * 19, "1" + "0" * 17, "7" * 601, "7" * 601 + "/3", "1/" + "3" * 601,
)


@st.composite
def _corrupted_texts(draw):
    """Serialized graphs, with up to three lines corrupted, and their encoding."""
    wg = draw(weighted_graphs(max_n=6))
    lines = serialize_graph(wg).splitlines()
    n = wg.n
    vertex = st.integers(0, n + 1)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from((
            "token", "duplicate", "self-loop", "edge", "weight", "count", "comment", "blank",
            "swap",
        )))
        if kind == "token":
            i = draw(st.integers(0, len(lines) - 1))
            fields = lines[i].split(" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
            lines[i] = " ".join(fields)
        elif kind == "duplicate":
            lines.insert(at, lines[draw(st.integers(0, len(lines) - 1))])
        elif kind == "self-loop":
            v = draw(vertex)
            lines.insert(at, f"e {v} {v}")
        elif kind == "edge":  # out of range, reversed, or a new edge out of place
            lines.insert(at, f"e {draw(vertex)} {draw(vertex)}")
        elif kind == "weight":
            lines.insert(at, f"w {draw(vertex)} {draw(st.sampled_from(('0', '1', '5/2', '3')))}")
        elif kind == "count":
            lines[0] = f"p {n} {wg.graph.m + draw(st.sampled_from((-1, 1)))}"
        elif kind == "comment":
            if draw(st.booleans()):
                lines.insert(at, "# a comment")
            else:
                lines[at - 1 if at else 0] += draw(st.sampled_from(("  # inline", "#", "\t")))
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(("", " ", "\t"))))
        elif len(lines) > 1:  # swap two lines: a weight line before an edge line, say
            i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    if draw(st.sampled_from((True, True, False))):
        # back into canonical block order with the header counting the edge lines,
        # so faults within lines reach the bulk reader's own checks
        lines.sort(key=lambda line: "pew".find(line[:1]))
        if lines and lines[0].startswith("p "):
            lines[0] = f"p {n} {sum(line.startswith('e ') for line in lines)}"
    # mostly canonical line ends and encodings, so the faults above are what varies
    end = draw(st.sampled_from(("\n", "\n", "\n", "\r\n")))
    text = end.join(lines) + draw(st.sampled_from((end, end, "")))
    encoding = draw(st.sampled_from(("str", "str", "bytes", "bytes", "not UTF-8")))
    if encoding == "str":
        return text
    data = text.encode()
    if encoding == "bytes":
        return data
    at = draw(st.integers(0, len(data)))
    return data[:at] + b"\xff" + data[at:]


@given(_corrupted_texts())
# canonical in shape, each with one fault for the bulk reader's own checks to find
@example("p 3 2\ne 0 1\ne 2 2\n")  # self-loop
@example("p 3 2\ne 0 1\ne 1 0\n")  # duplicate edge
@example("p 3 2\ne 0 1\ne 1 3\n")  # vertex out of range
@example("p 3 1\ne 0 1\ne 1 2\n")  # more edge lines than the header counts
@example("p 3 3\ne 0 1\ne 1 2\n")  # fewer
@example("p 0 1\ne 0 1\n")
@example("p 3 1\ne 0 1\nw 3 2\n")  # weight out of range
@example("p 3 1\ne 0 1\nw 1 2\nw 1 2\n")  # duplicate weight
@example("p 3 1\ne 0 1\nw 1 2/0\n")  # zero denominator
@example("p 3 1\ne 0 1\nw 1 2/03\n")  # leading zeros
@example("p 3 1\ne 00 001\nw 01 0/3\n")
@example(f"p 3 1\ne 0 1\nw 1 {'7' * 600}/{'3' * 600}\n")
@example(f"p 3 1\ne 0 1\nw 1 {'7' * 601}/{'3' * 601}\n")  # longer than the bulk reader takes
@example(f"p 3 1\ne 0 {'0' * 18}1\n")
@example(f"p 3 1\ne 0 {'1' + '0' * 17}\n")
@example(f"p 3 1\ne 0 {'9' * 20}\n")  # past a 64-bit integer
@example("p 3 1\ne 0 1\nw 1 2\ne 1 2\n")  # interleaved
@settings(max_examples=300, derandomize=True, deadline=None)
def test_bulk_reader_agrees_with_line_checker(data):
    # equal graphs, or ParseErrors with equal line, kind and message
    assert _outcome(parse_graph, data) == _outcome(graphs._parse_lines, data)


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
    with pytest.raises(ValueError):
        CopyHypergraph(3, ((-1, 0),))
    assert CopyHypergraph(4, ((1, 0), (0, 1))).hyperedges == ((0, 1),)
    assert CopyHypergraph(4, ((3, 1),)).covered_vertices() == (1, 3)


def test_hypergraph_rejects_non_integer_vertex_ids():
    # the LP would read 1.5 as vertex 1 and certify a cover of another hypergraph
    with pytest.raises(TypeError):
        CopyHypergraph(3, [(0, 1.5), (1, 2)])
    with pytest.raises(TypeError):
        CopyHypergraph(3, [(0, "1")])
    # integer types other than int are read through ``operator.index``
    hg = CopyHypergraph(3, [(np.int64(2), np.int64(0))])
    assert hg.hyperedges == ((0, 2),)
    assert {type(v) for v in hg.hyperedges[0]} == {int}


def test_hypergraph_avoiding_matches_a_fresh_build():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 12)
        sizes = [rng.randint(1, min(4, n)) for _ in range(rng.randint(0, 15))]
        edges = [tuple(rng.sample(range(n), size)) for size in sizes]
        hg = CopyHypergraph(n, edges)
        covered = set(hg.covered_vertices())
        assert hg.avoiding(set()) is hg
        assert hg.avoiding(covered) == CopyHypergraph(n)
        for _ in range(4):
            s = set(rng.sample(range(n), rng.randint(0, n)))
            view = hg.avoiding(s)
            assert view == CopyHypergraph(n, [e for e in hg.hyperedges if s.isdisjoint(e)])
            assert type(view) is CopyHypergraph
