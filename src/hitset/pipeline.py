"""End-to-end solvers with per-instance certificates.

Patterns with a semi-symmetric cut vertex get the improved factor
k - 1/2: subtract the branch gadget until the residual is gadget-free,
then colour a conflict digraph built from one chosen copy per central
vertex and run the colour-guided cover with a palette of 2k.  Everything
else falls back to the plain k-factor subtraction using the pattern
itself as the gadget.

Every returned solution is verified against the full copy enumeration
before being handed back; a failure there raises VerificationError and
means a bug, never bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .coloring import Coloring, color_digraph, cover_colored_hypergraph
from .copies import (
    EnumerationBudget,
    embeddings,
    enumerate_copies,
    find_rooted_copy,
)
from .errors import VerificationError
from .graphs import CopyHypergraph, Digraph, Graph, Pattern, WeightedGraph
from .localratio import DecompositionTrace, decompose_weights
from .lp import solve_cover_lp
from .oracle import verify_goodness
from .patterns import (
    GoodGraph,
    RootedDecomposition,
    SEMI_SYMMETRIC,
    UNKNOWN,
    classify_pattern,
    construct_good_graph,
)


@dataclass
class SolveDetail:
    """Internals of a solve run, kept for explanation and verification."""

    trace: DecompositionTrace | None = None
    residual_vertices: tuple[int, ...] = ()
    coloring: Coloring | None = None
    conflict_arcs: tuple[tuple[int, int], ...] = ()
    cover_steps: tuple[str, ...] = ()


@dataclass
class Solution:
    """A verified hitting set with weight, certificate and factor."""

    hitting_set: tuple[int, ...]
    weight: Fraction
    lower_bound: Fraction
    guaranteed_factor: Fraction
    classification: str
    warning: str | None = None
    detail: SolveDetail | None = None


def solve_semi_symmetric(
    g: WeightedGraph,
    h: Pattern,
    decomposition: RootedDecomposition,
    hyperedges: Sequence[tuple[int, ...]],
    budget: EnumerationBudget | None = None,
) -> Solution:
    """The (k - 1/2)-factor route for a pattern with a usable cut vertex.

    ``hyperedges`` are the vertex sets of all copies of ``h`` in ``g``;
    the cover step uses those that survive the decomposition.
    """
    if budget is None:
        budget = EnumerationBudget()
    k = h.k
    good = construct_good_graph(h, decomposition)
    if not verify_goodness(good, h):
        raise VerificationError("constructed gadget failed its goodness certificate")

    trace = decompose_weights(g, good, budget)
    zero_set = trace.zero_set
    positive = frozenset(v for v in range(g.n) if trace.final_weights[v] > 0)

    # one chosen copy per central vertex; its other vertices become arcs
    root = decomposition.root
    arcs: set[tuple[int, int]] = set()
    for u in sorted(positive):
        emb = find_rooted_copy(g.graph, h.graph, root, u, allowed=positive)
        if emb is None:
            continue
        for w in emb:
            if w != u:
                arcs.add((u, w))
    conflict = Digraph(g.n, frozenset(arcs))
    base_coloring = color_digraph(conflict, k - 1)

    used_colors = len(set(base_coloring.colors))
    if used_colors > 2 * k - 1:
        raise VerificationError("conflict colouring used too many colours")
    for u, w in arcs:
        if base_coloring.colors[u] == base_coloring.colors[w]:
            raise VerificationError("conflict colouring is not proper")
    coloring = Coloring(base_coloring.colors, 2 * k)

    run = cover_colored_hypergraph(
        g.n,
        tuple(e for e in hyperedges if positive.issuperset(e)),
        trace.final_weights,
        coloring,
        k,
    )
    hitting = tuple(sorted(zero_set | set(run.selected)))
    detail = SolveDetail(
        trace=trace,
        residual_vertices=tuple(sorted(positive)),
        coloring=coloring,
        conflict_arcs=tuple(sorted(arcs)),
        cover_steps=run.steps,
    )
    return Solution(
        hitting_set=hitting,
        weight=g.total(hitting),
        lower_bound=trace.dual_bound(good),
        guaranteed_factor=Fraction(2 * k - 1, 2),
        classification=SEMI_SYMMETRIC,
        detail=detail,
    )


def solve_baseline(
    g: WeightedGraph, h: Pattern, budget: EnumerationBudget | None = None
) -> Solution:
    """Plain k-factor route: the pattern itself is a k-good gadget."""
    if budget is None:
        budget = EnumerationBudget()
    base_good = GoodGraph(h.graph, (Fraction(1),) * h.k, Fraction(h.k))
    if not verify_goodness(base_good, h):
        raise VerificationError("unit-weight pattern failed its goodness certificate")
    trace = decompose_weights(g, base_good, budget)
    hitting = tuple(sorted(trace.zero_set))
    return Solution(
        hitting_set=hitting,
        weight=g.total(hitting),
        lower_bound=trace.dual_bound(base_good),
        guaranteed_factor=Fraction(h.k),
        classification="baseline",
        detail=SolveDetail(trace=trace),
    )


def solve(
    g: WeightedGraph, h: Pattern, budget: EnumerationBudget | None = None
) -> Solution:
    """Dispatch on the pattern classification and certify the result.

    The reported lower bound is the larger of the fractional cover value
    of the original copy hypergraph and the bound certified by the
    subtraction trace; both are valid lower bounds on the optimum.
    """
    if budget is None:
        budget = EnumerationBudget()
    hyperedges = tuple(enumerate_copies(g.graph, h, budget))

    cls = classify_pattern(h)
    if cls.kind == SEMI_SYMMETRIC:
        sol = solve_semi_symmetric(g, h, cls.decomposition, hyperedges, budget)
    else:
        sol = solve_baseline(g, h, budget)
        sol.classification = cls.kind
        if cls.kind == UNKNOWN:
            sol.warning = (
                "pattern is neither 2-connected nor has a usable cut vertex; "
                "only the trivial factor applies"
            )

    # certificate: fractional cover value of the original instance; edges
    # touching a zero-weight vertex are covered for free
    lp_edges = tuple(
        e for e in hyperedges if all(g.weights[v] > 0 for v in e)
    )
    if lp_edges:
        cover, _ = solve_cover_lp(CopyHypergraph(g.n, lp_edges), g.weights)
        sol.lower_bound = max(sol.lower_bound, cover.value)

    chosen = set(sol.hitting_set)
    for e in hyperedges:
        if not chosen.intersection(e):
            raise VerificationError("solution misses a pattern copy")
    return sol


def verify_solution(g: Graph, h: Pattern, s: Iterable[int]) -> bool:
    """True iff removing ``s`` leaves no copy of the pattern.

    Runs a first-copy search on the residual vertices, so it exits early
    on invalid solutions and only pays full search cost on valid ones.
    """
    rest = frozenset(range(g.n)) - set(s)
    for _ in embeddings(g, h.graph, allowed=rest):
        return False
    return True
