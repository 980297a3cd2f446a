"""Hypergraph colouring and the colour-guided cover selection.

A digraph with out-degree at most m always has a vertex of total degree
at most 2m, so peeling and greedy re-insertion gives a proper colouring
of its underlying graph with at most 2m+1 colours.

Given a colouring with no monochromatic hyperedge and a palette of t >= k
colours (k = largest hyperedge size), the selection routine returns a
cover of weight at most k(1 - 1/t) times the fractional cover value.  It
alternates two moves driven by an exact LP solve: when the optimal cover
is positive everywhere, drop the heaviest colour class and keep the rest;
otherwise a zero-mass vertex pinpoints a hyperedge whose largest-mass
vertex can be bought at a controlled price.  All bound inequalities are
re-checked exactly at runtime on every invocation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidColoringError, VerificationError
from .graphs import CopyHypergraph
from .lp import solve_cover_lp

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Coloring:
    """Colour per vertex, drawn from the palette 0..t-1."""

    colors: tuple[int, ...]
    t: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("palette must have at least one colour")
        if any(not 0 <= c < self.t for c in self.colors):
            raise ValueError("colour out of palette range")


def color_digraph(n: int, arcs: Iterable[tuple[int, int]], m: int) -> tuple[int, ...]:
    """Proper colouring, drawn from 0..2m, of the underlying graph of the
    digraph on vertices 0..n-1 with the given distinct arcs.

    Requires every out-degree at most m; raises ``ValueError`` for an arc
    that is a self-loop or has an end outside 0..n-1.  Peels the
    smallest-id vertex of total degree at most 2m, then colours greedily
    on re-insertion.  Degrees only fall, so each vertex joins the heap at
    most once.  The palette and properness are checked before returning.
    """
    out_degree = [0] * n
    ends: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) is a self-loop or leaves the vertices 0..{n - 1}")
        out_degree[u] += 1
        ends[u].append(v)
        ends[v].append(u)

    if any(deg > m for deg in out_degree):
        raise ValueError(f"out-degree bound {m} violated")
    degree = [len(row) for row in ends]
    low = [v for v in range(n) if degree[v] <= 2 * m]
    order: list[int] = []
    while low:
        v = heapq.heappop(low)
        order.append(v)
        for u in ends[v]:
            degree[u] -= 1
            if degree[u] == 2 * m:
                heapq.heappush(low, u)
    if len(order) < n:
        raise VerificationError("no low-degree vertex; degree counting is broken")

    colors = [-1] * n
    for v in reversed(order):
        used = {colors[u] for u in ends[v]}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    if any(c > 2 * m for c in colors):
        raise VerificationError("greedy colouring exceeded its palette")
    if any(colors[u] == c for c, row in zip(colors, ends) for u in row):
        raise VerificationError("greedy colouring is not proper")
    return tuple(colors)


@dataclass
class CoverRun:
    """Outcome of one colour-guided selection."""

    selected: tuple[int, ...]
    steps: tuple[str, ...]


def cover_colored_hypergraph(
    hyperedges: Sequence[tuple[int, ...]],
    weights: Sequence[Fraction],
    coloring: Coloring,
    max_edge_size: int,
) -> CoverRun:
    """Select a cover of weight at most k(1 - 1/t) times the LP optimum.

    ``max_edge_size`` is k; every hyperedge must have size between 2 and
    k and be at least 2-coloured, and its vertices index
    ``coloring.colors``.  Weights must be positive on every covered
    vertex.  Raises InvalidColoringError on a monochromatic
    hyperedge and VerificationError if any of the exact bound checks
    fail (which would indicate a bug, not bad input).
    """
    t = coloring.t
    k = max_edge_size
    if k < 2:
        raise ValueError("hyperedges must have at least two vertices")
    if t < k:
        raise ValueError("palette must be at least the largest edge size")
    colors = coloring.colors
    edges = sorted({tuple(sorted(set(e))) for e in hyperedges})
    for e in edges:
        if len(e) > k:
            raise ValueError(f"hyperedge {e} larger than the declared bound {k}")
        if len(e) < 2:
            raise ValueError(f"hyperedge {e} has fewer than two vertices")
        if e[0] < 0 or e[-1] >= len(colors):
            raise ValueError(f"hyperedge {e} has a vertex with no colour")
        if len({colors[v] for v in e}) < 2:
            raise InvalidColoringError(f"monochromatic hyperedge {e}")

    original = list(edges)
    picked: list[int] = []
    steps: list[str] = []
    top_value: Fraction | None = None
    pending_bound: Fraction | None = None

    while edges:
        cover, matching = solve_cover_lp(CopyHypergraph(len(colors), tuple(edges)), weights)
        if top_value is None:
            top_value = cover.value
        if pending_bound is not None and cover.value > pending_bound:
            raise VerificationError("cover value did not shrink after a removal")
        pending_bound = None
        active = sorted(cover.values)
        zeros = [v for v in active if cover.values[v] == 0]
        if not zeros:
            w_active = sum((weights[v] for v in active), _ZERO)
            paid = sum((matching.values[e] * len(e) for e in edges), _ZERO)
            if w_active != paid:
                raise VerificationError("tight-capacity identity failed")
            if w_active > k * cover.value:
                raise VerificationError("active weight exceeds k times the LP value")
            class_weight: dict[int, Fraction] = {}
            for v in active:
                class_weight[colors[v]] = class_weight.get(colors[v], _ZERO) + weights[v]
            keep_color = max(class_weight, key=lambda c: (class_weight[c], -c))
            kept = class_weight[keep_color]
            if (w_active - kept) * t > (t - 1) * w_active:
                raise VerificationError("heaviest colour class is too light")
            chosen = [v for v in active if colors[v] != keep_color]
            picked.extend(chosen)
            steps.append(f"full-support: keep colour {keep_color}, select {len(chosen)} vertices")
            break
        v = zeros[0]
        edge = next(e for e in edges if v in e)
        pick = max(edge, key=lambda u: (cover.values[u], -u))
        mass = cover.values[pick]
        if mass * (k - 1) < 1:
            raise VerificationError("largest cover mass on the edge is too small")
        picked.append(pick)
        pending_bound = cover.value - weights[pick] * mass
        edges = [e for e in edges if pick not in e]
        steps.append(f"zero-support at {v}: select {pick} from edge {','.join(map(str, edge))}")

    if pending_bound is not None and pending_bound < 0:
        raise VerificationError("cover value dropped below zero")
    selected = tuple(sorted(set(picked)))
    if len(selected) != len(picked):
        raise VerificationError("a vertex was selected twice")
    total = sum((weights[v] for v in selected), _ZERO)
    if total * t > k * (t - 1) * (top_value or _ZERO):
        raise VerificationError("selection exceeded the colour bound")
    taken = set(selected)
    if any(taken.isdisjoint(e) for e in original):
        raise VerificationError("selection misses a hyperedge")
    return CoverRun(selected, tuple(steps))

