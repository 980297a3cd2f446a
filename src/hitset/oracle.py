"""Brute-force ground truth: exact covers, hitting sets and vertex covers.

These solvers exist to validate the approximation pipeline, not to
scale.  One branch-and-bound, ``_least_cover``, does every search over
a hypergraph given as vertex bitmasks with positive integer keys:
branch on the uncovered hyperedge with the fewest undecided vertices,
bound with a greedy family of disjoint uncovered hyperedges, and start
from the bound that taking every vertex of positive key gives.  It
deliberately does not touch the LP module, so LP tests can compare
against it as an independent reference; like the LP, it reads only the
hyperedges of the ``CopyHypergraph`` it is given, already canonical.  A
vertex cover is a unit-weight ``min_weight_cover`` of the graph's edges,
its copies of K2, so its answer is decoded and checked like every other.
``verify_goodness`` reads both gadget properties, coverage and weight,
off one copy hypergraph.

Tie-breaking is deterministic, and the search runs once.  Of N
candidate vertices, vertex i has the key ``w(i)*L*2^N - 2^(N-1-i)``,
with L the lcm of the weights' denominators.  The 2^(N-1-i) terms of
any set sum below 2^N, the key of the least weight step 1/L, so key
sums order sets by weight, then prefer the set that takes the first
vertex where two sets differ; no two sets tie.  The least key sum is a
unique optimum, and the low N bits of its negation name its vertices.
For strictly positive weights it is the lexicographically least optimal
set.  Zero-weight vertices are all taken first, and the search covers
what they leave.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .copies import EnumerationBudget, build_copy_hypergraph
from .errors import VerificationError
from .graphs import CopyHypergraph, Graph, Pattern, WeightedGraph, as_fraction

DEFAULT_CAP = 20
_ZERO = Fraction(0)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _least_cover(pending: list[int], excluded: int, current: int, w: list[int], best: int) -> int:
    """The least key sum of a cover completing ``current``, or ``best`` if none is lighter.

    It branches on the undecided part of a pending edge with the fewest
    vertices, say c.  No undecided part is ever empty: at the top call
    every mask is nonzero, and the t-th vertex of the branch part is tried
    with only the t - 1 vertices before it newly excluded, so a pending
    edge left with no undecided vertex had at most t - 1 < c of them,
    against the choice of c.
    """
    if current >= best:
        return best
    if not pending:
        return current
    undecided = [em & ~excluded for em in pending]
    taken = 0
    bound = current
    for und in undecided:
        if not und & taken:
            taken |= und
            bound += min(w[i] for i in _bits(und))
    if bound >= best:
        return best
    for i in _bits(min(undecided, key=int.bit_count)):
        rest = [em for em in pending if not em >> i & 1]
        best = _least_cover(rest, excluded, current + w[i], w, best)
        excluded |= 1 << i
    return best


def min_weight_cover(hg: CopyHypergraph, weights) -> tuple[tuple[int, ...], Fraction]:
    """Exact minimum-weight set hitting every hyperedge of ``hg``.

    Only vertices occurring in some hyperedge are candidates.  Returns
    the canonical optimal set and its weight.  A vertex id outside
    ``weights`` or a negative weight is a ``ValueError``, a float weight
    a ``TypeError``.
    """
    universe = hg.covered_vertices()
    if not universe:
        return (), _ZERO
    if universe[-1] >= len(weights):
        raise ValueError(f"vertex ids must lie in 0..{len(weights) - 1}")
    idx = {v: i for i, v in enumerate(universe)}
    w = [as_fraction(weights[v]) for v in universe]
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    n = len(universe)
    scale = math.lcm(*(x.denominator for x in w)) << n
    keys = [int(x * scale) - (1 << (n - 1 - i)) for i, x in enumerate(w)]
    # every zero-weight vertex is taken; the search covers the rest with positive keys
    free = sum(1 << i for i, x in enumerate(w) if not x)
    masks = [m for m in (sum(1 << idx[v] for v in e) for e in hg.hyperedges) if not m & free]
    # every mask holds only positive keys, so taking all of those meets every
    # mask: one more than their sum bounds the search
    least = _least_cover(masks, 0, 0, keys, 1 + sum(x for x in keys if x > 0))

    perturbation = -least % (1 << n)  # the sum of 2^(n-1-i) over the optimum's vertices i
    chosen = [i for i in range(n) if perturbation >> (n - 1 - i) & 1]
    taken = free | sum(1 << i for i in chosen)
    if any(not m & taken for m in masks) or sum(keys[i] for i in chosen) != least:
        raise VerificationError("decoded cover does not match the optimal weight's key sum")
    weight = sum((w[i] for i in chosen), _ZERO)
    return tuple(universe[i] for i in range(n) if taken >> i & 1), weight


def exact_min_hitting_set(
    g: WeightedGraph,
    h: Pattern,
    *,
    cap: int = DEFAULT_CAP,
    budget: EnumerationBudget | None = None,
) -> tuple[tuple[int, ...], Fraction]:
    """Exact minimum-weight set meeting every copy of the pattern."""
    if g.n > cap:
        raise ValueError(f"instance has {g.n} vertices, oracle cap is {cap}")
    hg = build_copy_hypergraph(g, h, budget)
    return min_weight_cover(hg, g.weights)


def exact_min_vertex_cover(g: Graph, *, cap: int = DEFAULT_CAP) -> int:
    """Exact minimum vertex cover size: the least unit-weight cover of the edges."""
    if g.n > cap:
        raise ValueError(f"instance has {g.n} vertices, oracle cap is {cap}")
    return len(min_weight_cover(CopyHypergraph(g.n, g.sorted_edges()), [1] * g.n)[0])


@functools.cache
def verify_goodness(good: WeightedGraph, h: Pattern) -> bool:
    """Exhaustively certify a gadget from its copies of the pattern: they
    cover every gadget vertex, and every set hitting them weighs at least 1.

    Coverage keeps a gadget embedding on a host's positive vertices on the
    vertices of the host's copies on positive vertices, so the solve route
    searches only those.  Cached by value: each distinct gadget and pattern
    is checked once per process.
    """
    hg = build_copy_hypergraph(good, h)
    covered = len(hg.covered_vertices()) == good.n
    return covered and min_weight_cover(hg, good.weights)[1] >= 1
