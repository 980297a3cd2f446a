"""Structural analysis of the fixed pattern graph.

A cut vertex v of the pattern splits it into branches (the components of
the pattern minus v, each with v re-attached).  When one branch embeds
into another as v-rooted graphs, the pattern admits a weighted gadget:
the pattern plus a second copy of the larger branch hung on v.  Every
gadget is normalised so that each of its hitting sets weighs at least 1,
which is what the local-ratio phase needs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .copies import embeddings
from .graphs import Graph, Pattern, WeightedGraph, induced_subgraph, unit_weights
from .graphs import _components, _glue

SEMI_SYMMETRIC = "semi-symmetric"
TWO_CONNECTED = "two-connected"
UNKNOWN = "unknown"


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


def branches_at(h: Graph, v: int) -> tuple[tuple[int, ...], ...]:
    """Components of h - v, each with v re-attached, in canonical order.

    In a connected graph, v is a cut vertex iff it has two or more branches.
    """
    return tuple(sorted(tuple(sorted(comp | {v})) for comp in _components(h, v)))


def _branch_embedding(
    h: Graph, small: tuple[int, ...], big: tuple[int, ...], root: int
) -> tuple[tuple[int, int], ...] | None:
    small_graph, small_ids = induced_subgraph(h, small)
    # inside h: the same edges among ``big``, and its ids order as the branch's own would
    rooted = embeddings(
        h, small_graph, root=small_ids.index(root), root_image=root, allowed=frozenset(big)
    )
    mapping = min(rooted, default=None)  # the lexicographically least map
    return None if mapping is None else tuple(zip(small_ids, mapping))


@functools.cache
def construct_good_graph(p: Pattern, d: RootedDecomposition | None) -> WeightedGraph:
    """A gadget whose every hitting set weighs at least 1.

    Without a decomposition it is the pattern with unit weights.  With
    one it is the pattern plus a fresh copy of the big branch hung on the
    root: vertices of the small branch, the big branch and the new copy
    get weight 1/2 (the root and everything else weight 1), for a total
    of k - (|small| - 1)/2.  Cached by value, so each pattern has one
    gadget object, and its adjacency and match plans are built once.
    """
    if d is None:
        return unit_weights(p.graph)
    v = d.root
    big = set(d.branches[d.big_index])
    piece = [e for e in p.graph.sorted_edges() if big.issuperset(e)]
    gadget, _ = _glue(p.graph, [v], lambda root: {root: root}, piece)
    halves = (set(d.branches[d.small_index]) | big | set(range(p.k, gadget.n))) - {v}
    weights = tuple(Fraction(1, 2) if u in halves else Fraction(1) for u in range(gadget.n))
    return WeightedGraph(gadget, weights)


@dataclass(frozen=True)
class PatternClass:
    """Dispatch result: which solving strategy applies to a pattern."""

    kind: str
    decomposition: RootedDecomposition | None = None


@functools.cache
def classify_pattern(p: Pattern) -> PatternClass:
    """two-connected, semi-symmetric (improved factor), or unknown.

    A pattern with three or more vertices and one branch at every vertex
    is 2-connected.  Otherwise the decomposition is at the first cut
    vertex whose branch family contains a root-fixing embedding:
    smallest cut vertex, then smallest branch pair (i, j) with i != j,
    branches in canonical order.  Branch equality counts as containment.
    Cached by value, so each distinct pattern is classified once per process.
    """
    h = p.graph
    table = [branches_at(h, v) for v in range(h.n)]
    if h.n >= 3 and all(len(branches) == 1 for branches in table):
        return PatternClass(TWO_CONNECTED)
    for v, branches in enumerate(table):
        # a vertex that is not a cut vertex has one branch and so no pair
        for i, j in itertools.permutations(range(len(branches)), 2):
            emb = _branch_embedding(h, branches[i], branches[j], v)
            if emb is not None:
                return PatternClass(SEMI_SYMMETRIC, RootedDecomposition(v, branches, i, j, emb))
    return PatternClass(UNKNOWN)
