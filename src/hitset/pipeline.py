"""End-to-end solvers with per-instance certificates.

One route serves every pattern: subtract a gadget, certified exactly to
have each vertex on a pattern copy and each hitting set weigh at least 1,
until the residual is gadget-free, then, with a semi-symmetric cut
vertex, colour a conflict digraph built from one chosen copy per central
vertex and run the colour-guided cover with a palette of 2k.  With such
a cut vertex the gadget is the branch gadget and the factor is k - 1/2;
otherwise the gadget is the pattern itself with unit weights and the
zero set of the subtraction is the whole answer.

``solve`` puts its full copy enumeration, canonical as returned, into
one ``CopyHypergraph`` through ``_canonical``, keeps every later search
on the vertices of the copies that can still matter, read off views
from ``avoiding``, and checks its result against that enumeration; a
failure there raises VerificationError and means a bug, never bad input.
Each LP reads only the hyperedges it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

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


def solve(
    g: WeightedGraph, h: Pattern, budget: EnumerationBudget | None = None
) -> Solution:
    """Classify the pattern, subtract one certified gadget, cover the residual, certify.

    The cover step runs only when the pattern has a decomposition.  The
    subtraction, the rooted searches, the cover step, the certificate LP
    and the final check read the copy hypergraph or a view from
    ``avoiding``.  The reported lower bound is the larger of the
    fractional cover value of the original copy hypergraph and the bound
    certified by the subtraction trace; both are valid lower bounds on
    the optimum.
    """
    if budget is None:
        budget = EnumerationBudget()
    hg = CopyHypergraph._canonical(g.n, enumerate_copies(g.graph, h, budget))
    cls = classify_pattern(h)
    k, d = h.k, cls.decomposition
    good = construct_good_graph(h, d)
    if not verify_goodness(good, h):
        raise VerificationError("gadget failed its goodness certificate")

    # certificate: fractional cover value of the original instance; edges
    # touching a zero-weight vertex are covered for free
    zero = {v for v, x in enumerate(g.weights) if not x}
    lp_hg = hg.avoiding(zero)
    # every gadget vertex lies on a pattern copy (``verify_goodness``), so a gadget
    # embedding on positive vertices stays on the vertices of the copies in ``lp_hg``
    trace = decompose_weights(g, good, budget, lp_hg.covered_vertices())
    tau_star = solve_cover_lp(lp_hg, g.weights)[0].value

    chosen = set(trace.zero_set)
    detail = SolveDetail(trace, tau_star)
    if d is not None:
        positive = frozenset(range(g.n)) - trace.zero_set
        residual = hg.avoiding(trace.zero_set)
        # one chosen copy per central vertex; its other vertices become arcs.
        # A rooted copy inside ``positive`` is a residual copy, so only their
        # vertices can be central, and its search need look nowhere else.
        central = frozenset(residual.covered_vertices())
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

    if any(chosen.isdisjoint(e) for e in hg.hyperedges):
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
