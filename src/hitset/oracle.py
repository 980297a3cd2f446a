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
from .graphs import Graph, Pattern, WeightedGraph

DEFAULT_CAP = 20
_ZERO = Fraction(0)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    inc_mask = 0
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
        inc_mask |= 1 << i
        inc_weight += w[i]
        pending = [em for em in pending if not em >> i & 1]

    best_weight = [inc_weight]

    def bound_and_branch(pending: list[int], excluded: int) -> tuple[Fraction, int] | None:
        """Greedy bound from disjoint undecided parts of pending edges, and
        the first undecided part with the fewest vertices; None when a
        pending edge has no undecided vertex left."""
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

    def search(pending: list[int], excluded: int, current: Fraction) -> None:
        if not pending:
            if current < best_weight[0]:
                best_weight[0] = current
            return
        step = bound_and_branch(pending, excluded)
        if step is None or current + step[0] >= best_weight[0]:
            return
        exc = excluded
        for i in _bits(step[1]):
            search([em for em in pending if not em >> i & 1], exc, current + w[i])
            exc |= 1 << i

    search(masks, 0, _ZERO)
    target = best_weight[0]

    def completes(pending: list[int], excluded: int, current: Fraction) -> bool:
        if current > target:
            return False
        if not pending:
            return True
        step = bound_and_branch(pending, excluded)
        if step is None or current + step[0] > target:
            return False
        exc = excluded
        for i in _bits(step[1]):
            if completes([em for em in pending if not em >> i & 1], exc, current + w[i]):
                return True
            exc |= 1 << i
        return False

    chosen: list[int] = []
    chosen_weight = _ZERO
    pending = masks
    excluded = 0
    for i in range(len(universe)):
        trial = chosen_weight + w[i]
        remaining = [em for em in pending if not em >> i & 1]
        if trial <= target and completes(remaining, excluded, trial):
            chosen.append(i)
            chosen_weight = trial
            pending = remaining
        else:
            excluded |= 1 << i
    assert chosen_weight == target and not pending
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
    """Exact minimum vertex cover size (independent of the hitting-set core)."""
    if g.n > cap:
        raise ValueError(f"instance has {g.n} vertices, oracle cap is {cap}")
    best = [g.n]

    def matching_bound(edges: list[tuple[int, int]]) -> int:
        used: set[int] = set()
        count = 0
        for u, v in edges:
            if u not in used and v not in used:
                used.add(u)
                used.add(v)
                count += 1
        return count

    def search(edges: list[tuple[int, int]], size: int) -> None:
        if not edges:
            best[0] = min(best[0], size)
            return
        if size + matching_bound(edges) >= best[0]:
            return
        u, v = edges[0]
        search([e for e in edges if u not in e], size + 1)
        search([e for e in edges if v not in e], size + 1)

    search(g.sorted_edges(), 0)
    return best[0]


@functools.cache
def verify_goodness(good: WeightedGraph, h: Pattern) -> bool:
    """Exhaustively check that every hitting set of the gadget weighs at least 1.

    Cached by value: each distinct gadget and pattern is checked once per process.
    """
    _, weight = exact_min_hitting_set(good, h, cap=good.n)
    return weight >= 1
