"""End-to-end solvers with per-instance certificates.

One route serves every pattern: subtract a gadget, certified exactly to
have each vertex on a pattern copy and each hitting set weigh at least 1,
until the residual is gadget-free, then, with a semi-symmetric cut
vertex, colour a conflict digraph built from one chosen copy per central
vertex and run the colour-guided cover with a palette of 2k.  With such
a cut vertex the gadget is the branch gadget and the factor is k - 1/2;
otherwise the gadget is the pattern itself with unit weights and the
zero set of the subtraction is the whole answer.

``solve`` keeps every search after its full copy enumeration on the
vertices of the copies that can still matter, and checks its result
against that enumeration; a failure there raises VerificationError and
means a bug, never bad input.  ``solve_baseline`` enumerates no copies,
so its subtraction searches the whole host: its zero set hits every
copy because the subtraction stops only when no copy lies on positive
vertices.
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
    symmetry_pairs,
)
from .errors import VerificationError
from .graphs import CopyHypergraph, Graph, Pattern, WeightedGraph
from .localratio import DecompositionTrace, decompose_weights
from .lp import solve_cover_lp
from .oracle import verify_goodness
from .patterns import (
    PatternClass,
    RootedDecomposition,
    UNKNOWN,
    classify_pattern,
    construct_good_graph,
)


@dataclass
class SolveDetail:
    """Internals of a solve run, kept for explanation and verification.

    ``tau_star`` is the fractional cover value of the copies with no
    zero-weight vertex, 0 when there is no such copy.
    """

    trace: DecompositionTrace
    tau_star: Fraction
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
    warning: str | None
    detail: SolveDetail


def guaranteed_factor(h: Pattern, decomposition: RootedDecomposition | None) -> Fraction:
    """k - 1/2 with a semi-symmetric decomposition, k without."""
    if decomposition is None:
        return Fraction(h.k)
    return Fraction(2 * h.k - 1, 2)


def _route(
    g: WeightedGraph,
    h: Pattern,
    cls: PatternClass,
    hyperedges: Sequence[tuple[int, ...]] | None,
    budget: EnumerationBudget | None,
) -> Solution:
    """Subtract one certified gadget, cover the residual, certify.

    The cover step runs only when ``cls`` has a decomposition.
    ``hyperedges`` are the vertex sets of the copies of ``h`` in ``g``
    that the subtraction, the rooted searches, the cover step, the
    certificate LP and the final check read; ``None`` means they were
    not enumerated, and then the subtraction searches the whole host and
    the other four have nothing to do.
    """
    k, d = h.k, cls.decomposition
    good = construct_good_graph(h, d)
    if not verify_goodness(good, h):
        raise VerificationError("gadget failed its goodness certificate")

    # certificate: fractional cover value of the original instance; edges
    # touching a zero-weight vertex are covered for free
    zero = {v for v, x in enumerate(g.weights) if not x}
    lp_edges = tuple(e for e in hyperedges or () if zero.isdisjoint(e))
    # every gadget vertex lies on a pattern copy (``verify_goodness``), so a gadget
    # embedding on positive vertices stays on the vertices of the copies in ``lp_edges``
    allowed = None if hyperedges is None else {v for e in lp_edges for v in e}
    trace = decompose_weights(g, good, budget, allowed)
    tau_star = Fraction(0)
    if lp_edges:
        tau_star = solve_cover_lp(CopyHypergraph(g.n, lp_edges), g.weights)[0].value

    chosen = set(trace.zero_set)
    detail = SolveDetail(trace, tau_star)
    if d is not None:
        positive = frozenset(range(g.n)) - trace.zero_set
        residual = tuple(e for e in hyperedges if positive.issuperset(e))
        # one chosen copy per central vertex; its other vertices become arcs.
        # A rooted copy inside ``positive`` is a residual copy, so only their
        # vertices can be central, and its search need look nowhere else.
        central = frozenset(v for e in residual for v in e)
        arcs: set[tuple[int, int]] = set()
        for u in sorted(central):
            emb = find_rooted_copy(g.graph, h.graph, d.root, u, allowed=central)
            if emb is not None:
                arcs.update((u, w) for w in emb if w != u)
        coloring = Coloring(color_digraph(g.n, arcs, k - 1), 2 * k)
        run = cover_colored_hypergraph(residual, trace.final_weights, coloring, k)
        chosen.update(run.selected)
        detail = SolveDetail(
            trace, tau_star, tuple(sorted(positive)), coloring, tuple(sorted(arcs)), run.steps
        )

    if any(chosen.isdisjoint(e) for e in hyperedges or ()):
        raise VerificationError("solution misses a pattern copy")
    hitting = tuple(sorted(chosen))
    warning = None
    if cls.kind == UNKNOWN:
        warning = (
            "pattern is neither 2-connected nor has a usable cut vertex; "
            "only the trivial factor applies"
        )
    return Solution(
        hitting_set=hitting,
        weight=g.total(hitting),
        lower_bound=max(trace.dual_bound(), tau_star),
        guaranteed_factor=guaranteed_factor(h, d),
        classification=cls.kind,
        warning=warning,
        detail=detail,
    )


def solve_baseline(
    g: WeightedGraph, h: Pattern, budget: EnumerationBudget | None = None
) -> Solution:
    """Plain k-factor route: the gadget is the pattern with unit weights."""
    return _route(g, h, PatternClass("baseline"), None, budget)


def solve(
    g: WeightedGraph, h: Pattern, budget: EnumerationBudget | None = None
) -> Solution:
    """Classify the pattern, solve on its route and certify the result.

    The reported lower bound is the larger of the fractional cover value
    of the original copy hypergraph and the bound certified by the
    subtraction trace; both are valid lower bounds on the optimum.
    """
    if budget is None:
        budget = EnumerationBudget()
    hyperedges = tuple(enumerate_copies(g.graph, h, budget))
    return _route(g, h, classify_pattern(h), hyperedges, budget)


def verify_solution(g: Graph, h: Pattern, s: Iterable[int]) -> bool:
    """True iff removing ``s`` leaves no copy of the pattern.

    Runs a symmetry-broken first-copy search on the residual vertices, so
    it exits early on invalid solutions and, on valid ones, pays for one
    embedding per copy rather than one per automorphism.
    """
    rest = frozenset(range(g.n)) - set(s)
    for _ in embeddings(g, h.graph, allowed=rest, pairs=symmetry_pairs(h.graph)):
        return False
    return True
