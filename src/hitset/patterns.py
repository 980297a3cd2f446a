"""Structural analysis of the fixed pattern graph.

A cut vertex v of the pattern splits it into branches (the components of
the pattern minus v, each with v re-attached).  When one branch embeds
into another as v-rooted graphs, the pattern admits a weighted gadget:
the pattern plus a second copy of the larger branch hung on v.  Every
hitting set of that gadget carries at least 1/t of its total weight,
which is what the local-ratio phase needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .copies import embeddings
from .graphs import Graph, Pattern, as_fraction, induced_subgraph, normalize_edge

SEMI_SYMMETRIC = "semi-symmetric"
TWO_CONNECTED = "two-connected"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class BlockCutTree:
    """Maximal 2-connected blocks, articulation points, and their incidence."""

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    block_cuts: tuple[tuple[int, ...], ...]


def block_cut_tree(h: Graph) -> BlockCutTree:
    """Blocks and articulation points of a connected graph (iterative DFS)."""
    if not h.is_connected():
        raise ValueError("block decomposition needs a connected graph")
    if h.n == 0:
        return BlockCutTree((), (), ())
    if h.m == 0:
        return BlockCutTree(((0,),), (), ((),))

    adj = h.adjacency()
    n = h.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    nxt = [0] * n
    edge_stack: list[tuple[int, int]] = []
    raw_blocks: list[set[int]] = []
    cuts: set[int] = set()

    disc[0] = low[0] = 0
    clock = 1
    stack = [0]
    root_children = 0
    while stack:
        u = stack[-1]
        if nxt[u] < len(adj[u]):
            v = adj[u][nxt[u]]
            nxt[u] += 1
            if disc[v] == -1:
                parent[v] = u
                disc[v] = low[v] = clock
                clock += 1
                edge_stack.append((u, v))
                stack.append(v)
                if u == 0:
                    root_children += 1
            elif v != parent[u] and disc[v] < disc[u]:
                edge_stack.append((u, v))
                low[u] = min(low[u], disc[v])
        else:
            stack.pop()
            p = parent[u]
            if p == -1:
                continue
            low[p] = min(low[p], low[u])
            if low[u] >= disc[p]:
                comp: set[int] = set()
                while True:
                    e = edge_stack.pop()
                    comp.update(e)
                    if e == (p, u):
                        break
                raw_blocks.append(comp)
                if p != 0:
                    cuts.add(p)
    if root_children >= 2:
        cuts.add(0)

    blocks = tuple(sorted(tuple(sorted(b)) for b in raw_blocks))
    cut_list = tuple(sorted(cuts))
    block_cuts = tuple(tuple(v for v in b if v in cuts) for b in blocks)
    return BlockCutTree(blocks, cut_list, block_cuts)


def is_two_connected(h: Graph) -> bool:
    """True iff h has >= 3 vertices, is connected and has no cut vertex."""
    if h.n < 3 or not h.is_connected():
        return False
    return not block_cut_tree(h).cut_vertices


@dataclass(frozen=True)
class RootedDecomposition:
    """Branch split at a cut vertex with a root-fixing branch embedding.

    ``branches`` are sorted vertex tuples, each containing ``root``, in
    canonical order.  ``embedding`` maps every vertex of branch
    ``small_index`` to a vertex of branch ``big_index``, fixing the root
    and preserving edges.
    """

    root: int
    branches: tuple[tuple[int, ...], ...]
    small_index: int
    big_index: int
    embedding: tuple[tuple[int, int], ...]


def rooted_subgraph_contains(
    small: Graph, small_root: int, big: Graph, big_root: int
) -> tuple[int, ...] | None:
    """Lexicographically least injective edge-preserving map fixing the root.

    Returns a tuple ``m`` with ``m[u]`` the image of small-vertex ``u``,
    or None when no such map exists.  ``small`` must be connected.
    """
    return min(embeddings(big, small, root=small_root, root_image=big_root), default=None)


def _branches_at(h: Graph, v: int) -> tuple[tuple[int, ...], ...]:
    """Components of h - v, each with v re-attached, in canonical order."""
    adj = h.adjacency()
    seen = {v}
    comps: list[tuple[int, ...]] = []
    for start in range(h.n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for x in adj[u]:
                if x not in seen:
                    seen.add(x)
                    comp.add(x)
                    stack.append(x)
        comps.append(tuple(sorted(comp | {v})))
    return tuple(sorted(comps))


def _branch_embedding(
    h: Graph, small: tuple[int, ...], big: tuple[int, ...], root: int
) -> tuple[tuple[int, int], ...] | None:
    small_graph, small_ids = induced_subgraph(h, small)
    big_graph, big_ids = induced_subgraph(h, big)
    mapping = rooted_subgraph_contains(
        small_graph, small_ids.index(root), big_graph, big_ids.index(root)
    )
    if mapping is None:
        return None
    return tuple((small_ids[u], big_ids[mapping[u]]) for u in range(len(small_ids)))


def find_semi_symmetric_cut_vertex(p: Pattern) -> RootedDecomposition | None:
    """First cut vertex whose branch family contains a root-fixing embedding.

    Deterministic: smallest cut vertex, then smallest branch pair (i, j)
    with i != j, branches in canonical order.  Branch equality counts as
    containment.
    """
    h = p.graph
    for v in block_cut_tree(h).cut_vertices:
        branches = _branches_at(h, v)
        r = len(branches)
        assert r >= 2, "a cut vertex always splits off at least two branches"
        for i in range(r):
            for j in range(r):
                if i == j:
                    continue
                emb = _branch_embedding(h, branches[i], branches[j], v)
                if emb is not None:
                    return RootedDecomposition(v, branches, i, j, emb)
    return None


@dataclass(frozen=True)
class GoodGraph:
    """A gadget graph with weights certifying a goodness factor.

    Every hitting set of the gadget (w.r.t. the pattern) must carry at
    least total_weight / factor of the weight; ``verify_goodness`` in the
    oracle module checks this exhaustively.
    """

    graph: Graph
    weights: tuple[Fraction, ...]
    factor: Fraction

    def __post_init__(self):
        ws = tuple(as_fraction(w) for w in self.weights)
        if len(ws) != self.graph.n:
            raise ValueError("need exactly one weight per vertex")
        if any(w < 0 for w in ws):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "factor", as_fraction(self.factor))
        if self.factor <= 0:
            raise ValueError("factor must be positive")

    @property
    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))


def construct_good_graph(p: Pattern, d: RootedDecomposition) -> GoodGraph:
    """Pattern plus a fresh copy of the big branch hung on the root.

    Vertices of the small branch, the big branch and the new copy get
    weight 1/2 (the root and everything else weight 1).  The certified
    factor is k - (|small| - 1)/2, which equals the total weight.
    """
    h = p.graph
    v = d.root
    small = d.branches[d.small_index]
    big = d.branches[d.big_index]
    fresh: dict[int, int] = {}
    nxt = p.k
    for u in big:
        if u != v:
            fresh[u] = nxt
            nxt += 1
    edges = set(h.edges)
    big_set = set(big)
    for a, b in h.sorted_edges():
        if a in big_set and b in big_set:
            edges.add(normalize_edge(fresh.get(a, v), fresh.get(b, v)))
    gadget = Graph(nxt, frozenset(edges))

    halves = (set(small) | big_set | set(fresh.values())) - {v}
    weights = [Fraction(1)] * nxt
    for u in halves:
        weights[u] = Fraction(1, 2)
    factor = Fraction(p.k) - Fraction(len(small) - 1, 2)
    return GoodGraph(gadget, tuple(weights), factor)


@dataclass(frozen=True)
class PatternClass:
    """Dispatch result: which solving strategy applies to a pattern."""

    kind: str
    decomposition: RootedDecomposition | None = None


def classify_pattern(p: Pattern) -> PatternClass:
    """semi-symmetric (improved factor), two-connected, or unknown."""
    if is_two_connected(p.graph):
        return PatternClass(TWO_CONNECTED)
    d = find_semi_symmetric_cut_vertex(p)
    if d is not None:
        return PatternClass(SEMI_SYMMETRIC, d)
    return PatternClass(UNKNOWN)
