"""Instance generators with known structure.

The two vertex-cover gadgets produce instances whose exact minimum
hitting weight equals the minimum vertex cover of the base graph: one
glues a pattern copy onto every base edge (patterns of minimum degree 2),
the other glues the pattern minus a degree-1 vertex onto every base
vertex.  The cloud construction replaces each base-hypergraph vertex by a
cloud of fresh vertices and plants tagged pattern copies on random cloud
positions; it stresses the enumerator and the solvers on instances with
many overlapping copies.

Randomness comes from PCG64 seeded through ``numpy``'s SeedSequence; the
cloud construction derives one independent stream per (hyperedge index,
copy index) via spawn keys, so output is bit-exact reproducible for a
fixed seed regardless of generation order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .graphs import Edge, Graph, Pattern, normalize_edge, serialize_graph, unit_weights
from .graphs import _INTEGER, _glue, _parse_int, _read_lines
from .patterns import branches_at


def _rng(seed: int, *spawn_key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded uniform random graph: each pair becomes an edge with probability p."""
    if not 0 <= p <= 1:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = _rng(seed)
    # One uniform per pair u < v in row-major order, drawn a row at a time.
    edges = [
        (u, v) for u in range(n)
        for v in (np.flatnonzero(rng.random(n - u - 1) < p) + (u + 1)).tolist()
    ]
    return Graph(n, frozenset(edges))


def _glue_edge(h: Pattern) -> Edge:
    """Edge of a leaf block with neither endpoint a cut vertex.

    A leaf block is a branch at a cut vertex v that holds no other cut
    vertex; a pattern without cut vertices is one block.
    """
    branches = [branches_at(h.graph, v) for v in range(h.k)]
    cuts = {v for v in range(h.k) if len(branches[v]) > 1}
    leaves = sorted(b for v in cuts for b in branches[v] if len(cuts.intersection(b)) == 1)
    for block in leaves or [tuple(range(h.k))]:
        members = set(block)
        for u, v in h.graph.sorted_edges():
            if u in members and v in members and u not in cuts and v not in cuts:
                return (u, v)
    raise ValueError("no usable edge; is the pattern minimum degree 2?")


def gadget_edge_glue(g: Graph, h: Pattern) -> tuple[Graph, dict[int, tuple[Edge, int]]]:
    """Glue a pattern copy onto every edge of the base graph.

    Requires the pattern to have minimum degree at least 2.  The minimum
    hitting weight of the output (unit weights) equals the minimum vertex
    cover of the base.  Provenance maps each new vertex to (base edge,
    pattern vertex).
    """
    adj = h.graph.adjacency
    if any(len(row) < 2 for row in adj):
        raise ValueError("edge gadget needs a pattern of minimum degree 2")
    x0, y0 = _glue_edge(h)
    return _glue(g, g.sorted_edges(), lambda e: {x0: e[0], y0: e[1]}, h.graph.sorted_edges())


def gadget_vertex_glue(g: Graph, h: Pattern) -> tuple[Graph, dict[int, tuple[int, int]]]:
    """Glue the pattern minus a degree-1 vertex onto every base vertex.

    Requires a degree-1 pattern vertex; the glued piece attaches at that
    vertex's unique neighbour.  The minimum hitting weight of the output
    equals the minimum vertex cover of the base.  Provenance maps each
    new vertex to (base vertex, pattern vertex).
    """
    adj = h.graph.adjacency
    leaves = [v for v in range(h.k) if len(adj[v]) == 1]
    if not leaves:
        raise ValueError("vertex gadget needs a degree-1 pattern vertex")
    v0 = leaves[0]
    u0 = adj[v0][0]
    piece = [e for e in h.graph.sorted_edges() if v0 not in e]
    return _glue(g, range(g.n), lambda u: {u0: u}, piece)


@dataclass(frozen=True)
class GLParams:
    """Parameters of the cloud construction.

    ``base_edges`` is a k-uniform hyperedge list (ordered tuples) on
    ``base_n`` vertices; every hyperedge spawns ``multiplier *
    cloud_size`` planted copies.
    """

    base_n: int
    base_edges: tuple[tuple[int, ...], ...]
    cloud_size: int
    multiplier: int
    seed: int

    def __post_init__(self):
        if self.cloud_size < 1:
            raise ValueError("cloud size must be at least 1")
        if self.multiplier < 1:
            raise ValueError("multiplier must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for e in self.base_edges:
            if len(set(e)) != len(e):
                raise ValueError(f"hyperedge {e} has repeated vertices")
            if any(not 0 <= v < self.base_n for v in e):
                raise ValueError(f"hyperedge {e} out of range")


@dataclass
class TaggedGraph:
    """Cloud instance plus the provenance of every planted edge.

    ``all_tags`` keeps every tag of collapsed parallel plantings, first
    planting first, so intended copies stay checkable.
    ``planted`` lists (hyperedge index, copy index, vertex tuple) for
    every planted copy.
    """

    graph: Graph
    clouds: dict[int, tuple[int, ...]]
    all_tags: dict[Edge, tuple[tuple[int, int], ...]]
    planted: tuple[tuple[int, int, tuple[int, ...]], ...]


def gl_random_instance(h: Pattern, params: GLParams) -> TaggedGraph:
    """Plant tagged pattern copies on random cloud positions.

    Vertex (v, l) of the output is id v * cloud_size + l.  Copy j of
    hyperedge ei maps pattern vertex i to cloud position (e[i], l_i) with
    the l_i drawn from the stream spawned at (ei, j).  Parallel planted
    edges collapse to one simple edge; all their tags are retained.
    """
    k = h.k
    for e in params.base_edges:
        if len(e) != k:
            raise ValueError(
                f"hyperedge {e} has size {len(e)}, pattern needs {k}"
            )
    B = params.cloud_size
    all_tags: dict[Edge, list[tuple[int, int]]] = defaultdict(list)
    planted: list[tuple[int, int, tuple[int, ...]]] = []
    pattern_edges = h.graph.sorted_edges()
    for ei, e in enumerate(params.base_edges):
        for j in range(1, params.multiplier * B + 1):
            rng = _rng(params.seed, ei, j)
            slots = rng.integers(0, B, size=k)
            verts = tuple(e[i] * B + int(slots[i]) for i in range(k))
            for p, q in pattern_edges:
                ge = normalize_edge(verts[p], verts[q])
                all_tags[ge].append((ei, j))
            planted.append((ei, j, verts))
    graph = Graph(params.base_n * B, frozenset(all_tags))
    clouds = {v: tuple(range(v * B, (v + 1) * B)) for v in range(params.base_n)}
    return TaggedGraph(
        graph,
        clouds,
        {e: tuple(ts) for e, ts in all_tags.items()},
        tuple(planted),
    )


def serialize_tagged_graph(tg: TaggedGraph) -> str:
    """Instance text plus a comment sidecar with tags, clouds and plantings.

    The sidecar lives in comment lines, so the output parses as a plain
    graph file too.
    """
    parts = [serialize_graph(unit_weights(tg.graph))]
    parts.append("# tags\n")
    for u, v in sorted(tg.all_tags):
        entries = " ".join(f"{ei} {j}" for ei, j in tg.all_tags[(u, v)])
        parts.append(f"# t {u} {v} {entries}\n")
    parts.append("# clouds\n")
    for base in sorted(tg.clouds):
        members = " ".join(map(str, tg.clouds[base]))
        parts.append(f"# c {base} {members}\n")
    parts.append("# planted\n")
    for ei, j, verts in tg.planted:
        parts.append(f"# g {ei} {j} {' '.join(map(str, verts))}\n")
    return "".join(parts)


def parse_hypergraph_text(text: str | bytes) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Read a base hypergraph: 'p <n> <m>' then m lines 'h <v1> ... <vk>'."""
    edges: list[tuple[int, ...]] = []

    def on_line(lineno: int, fields: list[str], n: int) -> None:
        if not all(_INTEGER.fullmatch(x) for x in fields[1:]):
            raise ParseError(lineno, "malformed", "vertex ids must be integers")
        vs = tuple(_parse_int(x, lineno, "vertex id") for x in fields[1:])
        if not vs:
            raise ParseError(lineno, "malformed", "empty hyperedge")
        for v in vs:
            if not 0 <= v < n:
                raise ParseError(lineno, "vertex-range", f"vertex {v} out of range 0..{n - 1}")
        edges.append(vs)

    n, m, header_line = _read_lines(text, {"h": "hyperedge"}, on_line)
    if len(edges) != m:
        found = len(edges)
        raise ParseError(header_line, "malformed", f"header declares {m} hyperedges, found {found}")
    return n, tuple(edges)
