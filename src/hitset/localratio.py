"""Weight decomposition by repeated subtraction of good-gadget weights.

While some gadget embeds entirely on positive-weight vertices, subtract
the largest multiple of its weight map that keeps all weights
nonnegative.  Each step zeroes at least one vertex, so there are at most
|V| steps.  The zero-weight vertices collected at the end can join a
hitting set for free, and the positive residual contains no gadget copy.

The loop is one pass over the allowed vertices: the whole host by
default, or, when the caller has enumerated the pattern's copies, the
vertices of the copies on positive weights, the only ones a gadget
embedding on positive weights can use.  Embeddings come in
lexicographic order of their images along the match order, and the
positive vertices only shrink, so each search resumes at the image of
the first-matched gadget vertex in the last step: every embedding
rooted lower was rejected before and stays rejected.

The subtracted amounts certify a lower bound: every hitting set of the
gadget weighs at least 1, so any hitting set of the host carries at least
the sum of the scales.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction

from . import copies
from .copies import EnumerationBudget, embeddings
from .errors import VerificationError
from .graphs import WeightedGraph


@dataclass(frozen=True)
class TraceStep:
    embedding: tuple[int, ...]
    scale: Fraction


@dataclass
class DecompositionTrace:
    """Full record of one decomposition run.

    The conservation identity holds exactly: the original weights equal
    ``final_weights`` plus the sum over steps of scale times the gadget
    weights pushed through the embedding.
    """

    steps: tuple[TraceStep, ...]
    final_weights: tuple[Fraction, ...]
    zero_set: frozenset[int]

    def dual_bound(self) -> Fraction:
        """Lower bound on the optimum certified by the subtractions."""
        return sum((st.scale for st in self.steps), Fraction(0))


def decompose_weights(
    g: WeightedGraph,
    good: WeightedGraph,
    budget: EnumerationBudget | None = None,
    allowed: Collection[int] | None = None,
) -> DecompositionTrace:
    """Run the subtraction loop until no gadget sits on positive weights.

    Embeddings are tried in canonical order, so the trace is
    deterministic.  Each search starts at the last step's root image and
    the positive vertices are tracked as steps zero them, so the trace
    equals that of searches from vertex 0 over weights rescanned on every
    step.  ``allowed`` restricts every search to those host vertices;
    the trace is unchanged as long as every gadget embedding on positive
    weights stays inside them.  A vertex outside ``0..g.n-1`` is a
    ``ValueError``.  Callers are responsible for supplying a verified
    gadget (see ``oracle.verify_goodness``).
    """
    if budget is None:
        budget = EnumerationBudget()
    weights = list(g.weights)
    n = g.n
    root = copies._plan(good.graph, None, ())[0][0]  # the gadget vertex matched first
    if allowed is None:
        allowed = range(n)
    elif any(not 0 <= v < n for v in allowed):
        raise ValueError(f"allowed vertices must lie in 0..{n - 1}")
    positive = {v for v in allowed if weights[v] > 0}
    start = 0
    steps: list[TraceStep] = []
    while True:
        emb = next(embeddings(g.graph, good.graph, allowed=positive, start=start), None)
        if emb is None:
            break
        budget.charge("weight decomposition")
        touched = [
            (emb[x], good.weights[x])
            for x in range(good.graph.n)
            if good.weights[x] != 0
        ]
        scale = min(weights[gv] / kw for gv, kw in touched)
        if scale <= 0:
            raise VerificationError("subtraction scale must be positive")
        for gv, kw in touched:
            weights[gv] -= scale * kw
        steps.append(TraceStep(emb, scale))
        zeroed = [gv for gv, _ in touched if weights[gv] == 0]
        if not zeroed:
            raise VerificationError("a step must zero at least one vertex")
        positive.difference_update(zeroed)
        start = emb[root]
        if len(steps) > n:
            raise VerificationError("more decomposition steps than vertices")

    final = tuple(weights)
    # conservation identity, checked exactly on every run
    recon = list(final)
    for st in steps:
        for x in range(good.graph.n):
            recon[st.embedding[x]] += st.scale * good.weights[x]
    if tuple(recon) != g.weights:
        raise VerificationError("weight conservation identity violated")

    zero = frozenset(v for v in range(n) if not final[v])
    return DecompositionTrace(tuple(steps), final, zero)
