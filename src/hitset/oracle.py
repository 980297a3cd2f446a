"""Brute-force ground truth: exact covers, hitting sets and vertex covers.

These solvers exist to validate the approximation pipeline, not to
scale.  One branch-and-bound, ``_least_cover``, does every search over
a hypergraph given as vertex bitmasks: branch on the uncovered
hyperedge with the fewest undecided vertices, bound with a greedy
family of disjoint uncovered hyperedges, start from a greedy incumbent.
It deliberately does not touch the LP module, so LP tests can compare
against it as an independent reference.  A vertex cover is the same
search over the graph's edges as 2-element hyperedges with unit weights.

Tie-breaking is deterministic: after the optimal weight is known, the
returned set is rebuilt greedily vertex by vertex, keeping a vertex
exactly when some optimal completion through it exists.  For strictly
positive weights this is the lexicographically least optimal set.  Each
"does such a completion exist?" is the same search again, with the
optimum as its floor, so it stops at the first completion it finds.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .copies import EnumerationBudget, build_copy_hypergraph
from .errors import VerificationError
from .graphs import Graph, Pattern, WeightedGraph, as_fraction

DEFAULT_CAP = 20
_ZERO = Fraction(0)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bound_and_branch(
    pending: list[int], excluded: int, w: list[Fraction]
) -> tuple[Fraction, int] | None:
    """Greedy bound from disjoint undecided parts of pending edges, and the
    first undecided part with the fewest vertices; None when a pending edge
    has no undecided vertex left."""
    branch = 0
    branch_count = 1 << 30
    taken = 0
    bound = _ZERO
    for em in pending:
        und = em & ~excluded
        if und == 0:
            return None
        c = und.bit_count()
        if c < branch_count:
            branch_count = c
            branch = und
        if not und & taken:
            taken |= und
            bound += min(w[i] for i in _bits(und))
    return bound, branch


def _least_cover(
    pending: list[int],
    excluded: int,
    current: Fraction,
    w: list[Fraction],
    best: Fraction,
    floor: Fraction,
) -> Fraction:
    """The least weight of a cover completing ``current``, or ``best`` if none is
    lighter; returns as soon as ``best <= floor``."""
    if current >= best:
        return best
    if not pending:
        return current
    step = _bound_and_branch(pending, excluded, w)
    if step is None or current + step[0] >= best:
        return best
    for i in _bits(step[1]):
        rest = [em for em in pending if not em >> i & 1]
        best = _least_cover(rest, excluded, current + w[i], w, best, floor)
        if best <= floor:
            return best
        excluded |= 1 << i
    return best


def _least_weight(masks: list[int], w: list[Fraction]) -> Fraction:
    """The least weight of a set meeting every mask: a greedy incumbent, then the search."""
    incumbent = _ZERO
    pending = masks
    while pending:
        # cheapest weight per newly hit mask
        pick = None
        for i in range(len(w)):
            hits = sum(1 for em in pending if em >> i & 1)
            if hits == 0:
                continue
            key = (w[i] / hits, i)
            if pick is None or key < pick:
                pick = key
        i = pick[1]
        incumbent += w[i]
        pending = [em for em in pending if not em >> i & 1]
    return _least_cover(masks, 0, _ZERO, w, incumbent, _ZERO)  # no cover weighs below 0


def min_weight_cover(
    hyperedges: Sequence[Sequence[int]], weights
) -> tuple[tuple[int, ...], Fraction]:
    """Exact minimum-weight set hitting every hyperedge.

    Only vertices occurring in some hyperedge are candidates.  Returns
    the canonical optimal set and its weight.  An empty hyperedge is a
    ``ValueError``, a float weight a ``TypeError``.
    """
    canon = sorted({tuple(sorted(set(e))) for e in hyperedges})
    if not canon:
        return (), _ZERO
    if not canon[0]:  # the empty tuple sorts first
        raise ValueError("empty hyperedge")
    universe = sorted({v for e in canon for v in e})
    idx = {v: i for i, v in enumerate(universe)}
    w = [as_fraction(weights[v]) for v in universe]
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    masks = [sum(1 << idx[v] for v in e) for e in canon]
    target = _least_weight(masks, w)

    # every weight and bound is a multiple of 1/lcm, so a search whose incumbent
    # is target + 1/lcm prunes exactly the branches that cannot reach target
    above = target + Fraction(1, math.lcm(*(x.denominator for x in w)))
    chosen: list[int] = []
    chosen_weight = _ZERO
    pending = masks
    excluded = 0
    for i in range(len(universe)):
        trial = chosen_weight + w[i]
        remaining = [em for em in pending if not em >> i & 1]
        if _least_cover(remaining, excluded, trial, w, above, target) == target:
            chosen.append(i)
            chosen_weight = trial
            pending = remaining
        else:
            excluded |= 1 << i
    if chosen_weight != target or pending:
        raise VerificationError("rebuilt cover does not reach the optimal weight")
    return tuple(universe[i] for i in chosen), target


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
    """Exact minimum vertex cover size: the cover search over the edges, unit weights."""
    if g.n > cap:
        raise ValueError(f"instance has {g.n} vertices, oracle cap is {cap}")
    masks = [1 << u | 1 << v for u, v in g.sorted_edges()]
    return int(_least_weight(masks, [Fraction(1)] * g.n))


@functools.cache
def verify_goodness(good: WeightedGraph, h: Pattern) -> bool:
    """Exhaustively check that every hitting set of the gadget weighs at least 1.

    Cached by value: each distinct gadget and pattern is checked once per process.
    """
    _, weight = exact_min_hitting_set(good, h, cap=good.n)
    return weight >= 1
