"""Brute-force ground truth: exact covers, hitting sets and vertex covers.

These solvers exist to validate the approximation pipeline, not to
scale.  One branch-and-bound, ``_least_cover``, does every search over
a hypergraph given as vertex bitmasks with positive integer keys:
branch on the uncovered hyperedge with the fewest undecided vertices,
bound with a greedy family of disjoint uncovered hyperedges, and start
from the bound that taking every vertex of positive key gives.  It
deliberately does not touch the LP module, so LP tests can compare
against it as an independent reference.  A vertex cover is a
unit-weight ``min_weight_cover`` of the graph's edges, so its answer is
decoded and checked like every other.

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
from typing import Sequence

from .copies import EnumerationBudget, build_copy_hypergraph, embeddings, symmetry_pairs
from .errors import VerificationError
from .graphs import Graph, Pattern, WeightedGraph, as_fraction

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


def min_weight_cover(
    hyperedges: Sequence[Sequence[int]], weights
) -> tuple[tuple[int, ...], Fraction]:
    """Exact minimum-weight set hitting every hyperedge.

    Only vertices occurring in some hyperedge are candidates.  Returns
    the canonical optimal set and its weight.  An empty hyperedge or a
    vertex id outside ``weights`` is a ``ValueError``, a float weight a
    ``TypeError``.
    """
    canon = sorted({tuple(sorted(set(e))) for e in hyperedges})
    if not canon:
        return (), _ZERO
    if not canon[0]:  # the empty tuple sorts first
        raise ValueError("empty hyperedge")
    universe = sorted({v for e in canon for v in e})
    if universe[0] < 0 or universe[-1] >= len(weights):
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
    masks = [m for m in (sum(1 << idx[v] for v in e) for e in canon) if not m & free]
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
    return min_weight_cover(hg.hyperedges, g.weights)


def exact_min_vertex_cover(g: Graph, *, cap: int = DEFAULT_CAP) -> int:
    """Exact minimum vertex cover size: the least unit-weight cover of the edges."""
    if g.n > cap:
        raise ValueError(f"instance has {g.n} vertices, oracle cap is {cap}")
    return len(min_weight_cover(g.sorted_edges(), [1] * g.n)[0])


@functools.cache
def verify_goodness(good: WeightedGraph, h: Pattern) -> bool:
    """Exhaustively check that every hitting set of the gadget weighs at least 1.

    Cached by value: each distinct gadget and pattern is checked once per process.
    """
    _, weight = exact_min_hitting_set(good, h, cap=good.n)
    return weight >= 1


@functools.cache
def verify_copy_cover(good: WeightedGraph, h: Pattern) -> None:
    """Raise ``VerificationError`` unless the pattern's copies cover the gadget.

    Then every gadget embedding on a host's positive vertices stays on the
    vertices of the host's copies on positive vertices, which is what lets
    the solve route restrict its subtraction searches to them.  The search
    yields one embedding per copy and stops once they cover every gadget
    vertex.  Cached by value, so each distinct gadget and pattern passes
    the check once per process.
    """
    covered: set[int] = set()
    for emb in embeddings(good.graph, h.graph, pairs=symmetry_pairs(h.graph)):
        covered.update(emb)
        if len(covered) == good.n:
            return
    raise VerificationError("gadget has a vertex on no pattern copy")
