"""Core graph, pattern, weighted graph and hypergraph types with text I/O.

All weights are exact ``fractions.Fraction`` values; solver code never
touches floating point.  The instance text format is line oriented:

    p <n> <m>             header: vertex count and edge count
    e <u> <v>             one line per edge, m lines total
    w <u> <num>[/<den>]   optional vertex weight, default 1

``#`` starts a comment and blank lines are ignored.  Vertex ids are the
dense range 0..n-1.

``parse_graph`` reads canonical text (what ``serialize_graph`` writes:
the header, edge lines, then weight lines, single spaces, ``\n`` line
ends, unsigned digits) in bulk, and any other text line by line.  Both
give the same graphs; every error comes from the line-by-line checker.
``Graph`` checks each edge once, in input order; ``WeightedGraph``
checks its weights in bulk.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import AbstractSet, Callable, Iterable

import numpy as np

from .errors import ParseError

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def as_fraction(value) -> Fraction:
    """Coerce ints/Fractions to Fraction; floats are rejected outright."""
    if type(value) is Fraction:  # already normalised and immutable: share it
        return value
    if isinstance(value, float):
        raise TypeError("weights must be exact rationals, not floats")
    return Fraction(value)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Each edge is checked and normalised in input order, so an error names
    the first fault.
    """

    n: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        normal = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            normal.add(normalize_edge(u, v))
        # through a set, so the frozenset table is sized for the edges, not grown
        object.__setattr__(self, "edges", frozenset(normal))

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbour tuples, built once per graph."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(row)) for row in adj)

    @functools.cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        """Per-vertex neighbour sets, built on first use from ``adjacency``."""
        return tuple(map(frozenset, self.adjacency))

    def is_connected(self) -> bool:
        return len(_components(self)) <= 1


def _components(g: Graph, removed: int | None = None) -> list[set[int]]:
    """Vertex sets of the components of ``g`` less ``removed``, by least vertex."""
    adj = g.adjacency
    seen = {removed}
    comps: list[set[int]] = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for x in adj[stack.pop()]:
                if x not in comp and x != removed:
                    comp.add(x)
                    stack.append(x)
        seen |= comp
        comps.append(comp)
    return comps


@dataclass(frozen=True)
class Pattern:
    """The fixed graph whose copies must be hit; connected, >= 2 vertices."""

    graph: Graph

    def __post_init__(self):
        if self.graph.n < 2:
            raise ValueError("pattern needs at least two vertices")
        if not self.graph.is_connected():
            raise ValueError("pattern must be connected")

    @property
    def k(self) -> int:
        return self.graph.n


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vertices``, relabelled densely.

    Returns the subgraph and the sorted tuple of original ids; new id i
    corresponds to original id ``ids[i]``.
    """
    ids = tuple(sorted(set(vertices)))
    pos = {v: i for i, v in enumerate(ids)}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return Graph(len(ids), frozenset(edges)), ids


def _glue(g: Graph, sites: Iterable, fixed: Callable, piece: list[Edge]) -> tuple[Graph, dict]:
    """Hang a copy of the pattern edges ``piece`` on ``g`` at every site.

    ``fixed(site)`` maps some pattern vertices to host vertices, the same
    pattern vertices at every site.  Every other vertex of ``piece`` gets
    the next fresh id, in ascending pattern-vertex order.  Returns the
    glued graph and the provenance ``{fresh id: (site, pattern vertex)}``.
    """
    edges = set(g.edges)
    provenance: dict[int, tuple] = {}
    fresh = None
    for site in sites:
        at = fixed(site)
        if fresh is None:
            fresh = sorted({x for e in piece for x in e}.difference(at))
        for hv in fresh:
            at[hv] = g.n + len(provenance)
            provenance[at[hv]] = (site, hv)
        edges.update(normalize_edge(at[p], at[q]) for p, q in piece)
    return Graph(g.n + len(provenance), frozenset(edges)), provenance


@dataclass(frozen=True)
class WeightedGraph:
    """Graph plus one nonnegative exact rational weight per vertex.

    Weights that are all ``Fraction`` are kept as given and checked in
    bulk; any other weights are converted one at a time by ``as_fraction``.
    """

    graph: Graph
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(self.weights)
        if not set(map(type, ws)) <= {Fraction}:
            ws = tuple(map(as_fraction, ws))
        if len(ws) != self.graph.n:
            raise ValueError("need exactly one weight per vertex")
        if ws and min(map(operator.attrgetter("numerator"), ws)) < 0:
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", ws)

    @property
    def n(self) -> int:
        return self.graph.n

    def total(self, vertices: Iterable[int]) -> Fraction:
        return sum((self.weights[v] for v in vertices), Fraction(0))


def unit_weights(g: Graph) -> WeightedGraph:
    return WeightedGraph(g, (Fraction(1),) * g.n)


@dataclass(frozen=True)
class CopyHypergraph:
    """Hyperedges are the distinct vertex sets of pattern copies.

    Hyperedges are deduplicated as sets and stored canonically: each as a
    sorted tuple, the whole list sorted lexicographically.  The order is
    therefore independent of insertion order.  The constructor checks and
    canonicalises outside input; the package builds from canonical input
    (``enumerate_copies``) through ``_canonical`` and narrows with ``avoiding``.
    """

    n: int
    hyperedges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        canon = set()
        for e in self.hyperedges:
            vs = tuple(sorted(set(map(operator.index, e))))  # TypeError on a non-integer id
            if not vs:
                raise ValueError("empty hyperedge")
            if vs[0] < 0 or vs[-1] >= self.n:
                raise ValueError(f"hyperedge {vs} out of range for n={self.n}")
            canon.add(vs)
        object.__setattr__(self, "hyperedges", tuple(sorted(canon)))

    @classmethod
    def _canonical(cls, n: int, hyperedges: Iterable[tuple[int, ...]]) -> CopyHypergraph:
        """``hyperedges``, trusted canonical and in range, stored without ``__post_init__``."""
        hg = object.__new__(cls)
        object.__setattr__(hg, "n", n)
        object.__setattr__(hg, "hyperedges", tuple(hyperedges))
        return hg

    def covered_vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for e in self.hyperedges for v in e}))

    def avoiding(self, vertices: AbstractSet[int]) -> CopyHypergraph:
        """The hyperedges sharing no vertex with ``vertices``, in their order, on the same n.

        A subsequence of canonical hyperedges is canonical, so the view is
        built by ``_canonical``; with no vertices it is ``self``.
        """
        if not vertices:
            return self
        return self._canonical(self.n, filter(vertices.isdisjoint, self.hyperedges))


# ASCII digits only: int() alone would also take '1_0' and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_int(text: str, lineno: int, what: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ParseError(lineno, "malformed", f"expected an integer {what}, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParseError(lineno, "malformed", f"integer {what} has too many digits") from None


def _parse_weight(text: str, lineno: int) -> Fraction:
    num_text, slash, den_text = text.partition("/")
    num = _parse_int(num_text, lineno, "weight numerator")
    den = 1
    if slash:
        den = _parse_int(den_text, lineno, "weight denominator")
        if den <= 0:
            raise ParseError(lineno, "malformed", f"weight denominator must be positive, got {den}")
    value = Fraction(num, den)
    if value < 0:
        raise ParseError(lineno, "negative-weight", f"negative weight {text}")
    return value


def _decode_text(text: str | bytes) -> str:
    """``text`` as a string; bytes that are not UTF-8 raise a line-numbered ``ParseError``."""
    if isinstance(text, (bytes, bytearray)):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # number lines as str.splitlines does; 'x' stands in for the bad byte
            lineno = len((text[: exc.start].decode("utf-8") + "x").splitlines())
            raise ParseError(lineno, "malformed", "text is not valid UTF-8") from None
    return text


def _read_lines(
    text: str | bytes, body: dict[str, str], on_line: Callable[[int, list[str], int], None]
) -> tuple[int, int, int]:
    """Read a 'p <n> <m>' header and pass body lines to ``on_line``.

    ``body`` maps each allowed directive to its name in error messages.
    Comments and blank lines are skipped; every other line is checked in
    file order, and ``on_line(lineno, fields, n)`` sees each body line
    after the header.  Returns n, m and the header's line number.
    """
    text = _decode_text(text)
    n = m = None
    header_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if n is not None:
                raise ParseError(lineno, "malformed", "duplicate header line")
            if len(fields) != 3:
                raise ParseError(lineno, "malformed", "header must be 'p <n> <m>'")
            n = _parse_int(fields[1], lineno, "vertex count")
            m = _parse_int(fields[2], lineno, "edge count")
            if n < 0 or m < 0:
                raise ParseError(lineno, "malformed", "counts must be nonnegative")
            header_line = lineno
        elif tag in body:
            if n is None:
                raise ParseError(lineno, "malformed", f"{body[tag]} line before header")
            on_line(lineno, fields, n)
        else:
            raise ParseError(lineno, "malformed", f"unknown directive {tag!r}")
    if n is None:
        raise ParseError(1, "malformed", "missing 'p <n> <m>' header")
    return n, m, header_line


def _parse_lines(text: str | bytes) -> WeightedGraph:
    """Check instance text line by line; every ``ParseError`` of ``parse_graph`` comes from here."""
    edges: set[Edge] = set()
    weights: dict[int, Fraction] = {}

    def on_line(lineno: int, fields: list[str], n: int) -> None:
        if fields[0] == "e":
            if len(fields) != 3:
                raise ParseError(lineno, "malformed", "edge line must be 'e <u> <v>'")
            u = _parse_int(fields[1], lineno, "vertex id")
            v = _parse_int(fields[2], lineno, "vertex id")
            for x in (u, v):
                if not 0 <= x < n:
                    raise ParseError(lineno, "vertex-range", f"vertex {x} out of range 0..{n - 1}")
            if u == v:
                raise ParseError(lineno, "malformed", f"self-loop at vertex {u}")
            key = normalize_edge(u, v)
            if key in edges:
                raise ParseError(lineno, "duplicate-edge", f"duplicate edge {key[0]} {key[1]}")
            edges.add(key)
        else:
            if len(fields) != 3:
                raise ParseError(lineno, "malformed", "weight line must be 'w <u> <value>'")
            u = _parse_int(fields[1], lineno, "vertex id")
            if not 0 <= u < n:
                raise ParseError(lineno, "vertex-range", f"vertex {u} out of range 0..{n - 1}")
            if u in weights:
                raise ParseError(lineno, "malformed", f"duplicate weight for vertex {u}")
            weights[u] = _parse_weight(fields[2], lineno)

    n, m, header_line = _read_lines(text, {"e": "edge", "w": "weight"}, on_line)
    if len(edges) != m:
        raise ParseError(header_line, "malformed", f"header declares {m} edges, found {len(edges)}")
    graph = Graph(n, edges)
    one = Fraction(1)  # shared default: n vertices cost n references, not n objects
    ws = tuple(weights.get(v, one) for v in range(n))
    return WeightedGraph(graph, ws)


# Canonical text, as serialize_graph writes it, matched one block at a time
# (one match over every block would keep the engine's backtracking state for
# all of them).  Ids and counts have at most 18 digits, so they fit a 64-bit
# integer; weights at most 600 digits a part, under any int-conversion limit;
# a denominator has no leading zero, so it is never 0.
_HEADER = re.compile(r"p ([0-9]{1,18}) ([0-9]{1,18})\n")
_EDGE_LINES = re.compile(r"(?:e [0-9]{1,18} [0-9]{1,18}\n)*")
_WEIGHT_LINES = re.compile(r"(?:w [0-9]{1,18} [0-9]{1,600}(?:/[1-9][0-9]{0,599})?\n)*")


def _read_canonical(text: str | bytes) -> WeightedGraph | None:
    """Canonical text read in bulk; None for any text the line checker must decide."""
    if not isinstance(text, str):
        if not isinstance(text, (bytes, bytearray)) or not text.isascii():
            return None
        text = text.decode("ascii")
    header = _HEADER.match(text)
    if header is None:
        return None
    edge_lines = _EDGE_LINES.match(text, header.end())
    weight_lines = _WEIGHT_LINES.fullmatch(text, edge_lines.end())
    if weight_lines is None:
        return None
    n, m = int(header[1]), int(header[2])
    ends = np.fromstring(edge_lines[0].replace("e", ""), dtype=np.int64, sep=" ")
    if len(ends) != 2 * m:
        return None
    try:  # the constructor checks ranges and self-loops
        graph = Graph(n, ends.reshape(m, 2).tolist())
    except ValueError:
        return None
    if graph.m != m:  # two lines named the same edge
        return None
    fields = weight_lines[0].split()
    owners, values = list(map(int, fields[1::3])), fields[2::3]
    del fields
    if owners and max(owners) >= n or len(set(owners)) != len(owners):
        return None
    exact = {value: Fraction(value) for value in set(values)}  # one Fraction per distinct weight
    weights = dict(zip(owners, map(exact.__getitem__, values)))
    one = Fraction(1)  # shared default: n vertices cost n references, not n objects
    return WeightedGraph(graph, tuple(map(weights.get, range(n), repeat(one, n))))


def parse_graph(text: str | bytes) -> WeightedGraph:
    """Parse instance text into a weighted graph; weights default to 1.

    Canonical text is read in bulk; any other text, and any canonical
    text with a fault, is read by the line-by-line checker, which gives
    the same graphs and raises every ``ParseError``.
    """
    wg = _read_canonical(text)
    return wg if wg is not None else _parse_lines(text)


def serialize_graph(wg: WeightedGraph) -> str:
    """Canonical text form: sorted edges, then non-unit weights."""
    g = wg.graph
    lines = [f"p {g.n} {g.m}"]
    for u, v in g.sorted_edges():
        lines.append(f"e {u} {v}")
    for v in range(g.n):
        if wg.weights[v] != 1:
            lines.append(f"w {v} {wg.weights[v]}")
    return "\n".join(lines) + "\n"
