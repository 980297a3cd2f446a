"""Brute-force ground truth: exact covers, hitting sets and vertex covers.

These solvers exist to validate the approximation pipeline, not to
scale.  The hitting-set core is a branch-and-bound over the copy
hypergraph: branch on the uncovered hyperedge with the fewest undecided
vertices, bound with a greedy family of disjoint uncovered hyperedges.
It deliberately does not touch the LP module, so LP tests can compare
against it as an independent reference.

Tie-breaking is deterministic: after the optimal weight is known, the
returned set is rebuilt greedily vertex by vertex, keeping a vertex
exactly when some optimal completion through it exists.  For strictly
positive weights this is the lexicographically least optimal set.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .copies import EnumerationBudget, build_copy_hypergraph
from .errors import VerificationError
from .graphs import Graph, Pattern, WeightedGraph

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
    pending: list[int], excluded: int, current: Fraction, w: list[Fraction], best: Fraction
) -> Fraction:
    """The least weight of a cover completing ``current``, or ``best`` if none is lighter."""
    if not pending:
        return min(current, best)
    step = _bound_and_branch(pending, excluded, w)
    if step is None or current + step[0] >= best:
        return best
    for i in _bits(step[1]):
        rest = [em for em in pending if not em >> i & 1]
        best = _least_cover(rest, excluded, current + w[i], w, best)
        excluded |= 1 << i
    return best


def _completes(
    pending: list[int], excluded: int, current: Fraction, w: list[Fraction], target: Fraction
) -> bool:
    """Whether some cover completing ``current`` weighs at most ``target``."""
    if current > target:
        return False
    if not pending:
        return True
    step = _bound_and_branch(pending, excluded, w)
    if step is None or current + step[0] > target:
        return False
    for i in _bits(step[1]):
        rest = [em for em in pending if not em >> i & 1]
        if _completes(rest, excluded, current + w[i], w, target):
            return True
        excluded |= 1 << i
    return False


def min_weight_cover(
    hyperedges: Sequence[Sequence[int]], weights
) -> tuple[tuple[int, ...], Fraction]:
    """Exact minimum-weight set hitting every hyperedge.

    Only vertices occurring in some hyperedge are candidates.  Returns
    the canonical optimal set and its weight.
    """
    canon = sorted({tuple(sorted(set(e))) for e in hyperedges})
    if not canon:
        return (), _ZERO
    universe = sorted({v for e in canon for v in e})
    idx = {v: i for i, v in enumerate(universe)}
    w = [Fraction(weights[v]) for v in universe]
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    masks = [sum(1 << idx[v] for v in e) for e in canon]

    # greedy incumbent: cheapest weight per newly hit edge
    inc_weight = _ZERO
    pending = masks
    while pending:
        best = None
        for i in range(len(universe)):
            hits = sum(1 for em in pending if em >> i & 1)
            if hits == 0:
                continue
            key = (w[i] / hits, i)
            if best is None or key < best[0]:
                best = (key, i)
        i = best[1]
        inc_weight += w[i]
        pending = [em for em in pending if not em >> i & 1]

    target = _least_cover(masks, 0, _ZERO, w, inc_weight)
    chosen: list[int] = []
    chosen_weight = _ZERO
    pending = masks
    excluded = 0
    for i in range(len(universe)):
        trial = chosen_weight + w[i]
        remaining = [em for em in pending if not em >> i & 1]
        if trial <= target and _completes(remaining, excluded, trial, w, target):
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


def _matching_bound(edges: list[tuple[int, int]]) -> int:
    used: set[int] = set()
    count = 0
    for u, v in edges:
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            count += 1
    return count


def _least_vertex_cover(edges: list[tuple[int, int]], size: int, best: int) -> int:
    if not edges:
        return min(best, size)
    if size + _matching_bound(edges) >= best:
        return best
    u, v = edges[0]
    best = _least_vertex_cover([e for e in edges if u not in e], size + 1, best)
    return _least_vertex_cover([e for e in edges if v not in e], size + 1, best)


def exact_min_vertex_cover(g: Graph, *, cap: int = DEFAULT_CAP) -> int:
    """Exact minimum vertex cover size (independent of the hitting-set core)."""
    if g.n > cap:
        raise ValueError(f"instance has {g.n} vertices, oracle cap is {cap}")
    return _least_vertex_cover(g.sorted_edges(), 0, g.n)


@functools.cache
def verify_goodness(good: WeightedGraph, h: Pattern) -> bool:
    """Exhaustively check that every hitting set of the gadget weighs at least 1.

    Cached by value: each distinct gadget and pattern is checked once per process.
    """
    _, weight = exact_min_hitting_set(good, h, cap=good.n)
    return weight >= 1
