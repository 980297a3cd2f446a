"""Exact LP for the fractional cover / fractional matching pair.

The cover program minimizes sum w(v) g(v) subject to every hyperedge
collecting cover mass at least 1.  Its dual, the matching program,
maximizes sum f(e) subject to the per-vertex capacity w(v).  The matching
program has the all-slack basis feasible, so it is solved directly by the
revised simplex method; the optimal cover is read off the simplex
multipliers of the final basis.

The simplex is fraction-free (Edmonds 1967; Bareiss 1968).  Weights are
scaled to integers by the lcm of their denominators, and the basis
inverse is held as ``adj / d``: ``adj`` is the integer adjugate of the
basis matrix and ``d = det(B) > 0``.  The basic solution and the
multipliers are integer vectors over the same ``d``, so pricing and the
ratio test compare integers, and a pivot on row ``l`` with pivot
element ``p`` is the Bareiss update ``adj[i] = (adj[i] p - dir[i]
adj[l]) // d`` (an exact division), after which ``d = p``.  The
optimality certificate is checked in those same integers, scaled by
``d * scale``: nonnegativity, every capacity, every cover constraint and
equal values.  Fractions are built only for the outputs, once, from the
final basis.  Both solutions are exactly feasible, exactly optimal, and
satisfy complementary slackness; their values agree exactly.

A slack is the unit column of cost 0; row r's slack has column id
``nstruct + r``, after the hyperedges.  One integer key, ``d - d * rc``,
ranks all columns.  Pricing is greedy (least key, smallest id on ties)
and falls back to Bland's rule (smallest id with key below ``d``) after
a run of degenerate pivots, which guarantees termination.  The leaving
row is the least ratio, ties going to the smallest basic variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, itemgetter, mul
from typing import Mapping, Sequence

from .errors import VerificationError
from .graphs import CopyHypergraph

_BLAND_AFTER = 8
_ZERO = Fraction(0)


@dataclass
class FractionalCover:
    """Cover mass per covered vertex; value = sum of w(v) g(v)."""

    values: dict[int, Fraction]
    value: Fraction


@dataclass
class FractionalMatching:
    """Matching mass per hyperedge; value = sum of f(e)."""

    values: dict[tuple[int, ...], Fraction]
    value: Fraction


def solve_cover_lp(
    hg: CopyHypergraph, weights: Sequence[Fraction] | Mapping[int, Fraction]
) -> tuple[FractionalCover, FractionalMatching]:
    """Optimal fractional cover and matching with exactly equal values.

    Requires strictly positive weights on every covered vertex; the
    output is deterministic for a fixed input.
    """
    verts = list(hg.covered_vertices())
    edges = list(hg.hyperedges)
    w = {v: weights[v] for v in verts}
    for v in verts:
        if w[v] <= 0:
            raise ValueError(f"covered vertex {v} must have positive weight")
    if not edges:
        return FractionalCover({}, _ZERO), FractionalMatching({}, _ZERO)

    m = len(verts)
    row_of = {v: i for i, v in enumerate(verts)}
    cols = [tuple(row_of[v] for v in e) for e in edges]
    nstruct = len(cols)
    scale = lcm(*(w[v].denominator for v in verts))
    # slots[t][j] is the t-th row of column j, or the always-zero row m
    width = max(len(c) for c in cols)
    slots = [[c[t] if t < len(c) else m for c in cols] for t in range(width)]

    # B^-1 = adj / d, x_B = xb / d and pi = pi_int / d, all integer
    adj = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    d = 1
    basis = [nstruct + i for i in range(m)]
    wint = [w[v].numerator * (scale // w[v].denominator) for v in verts]
    xb = list(wint)
    pi_int = [0] * m
    degenerate_streak = 0

    while True:
        # key[j] = d - d * rc_j: the multiplier sum of a hyperedge, pi_int[r] + d for slack r
        get = (pi_int + [0]).__getitem__
        key = list(map(get, slots[0]))
        for rows in slots[1:]:
            key = list(map(add, key, map(get, rows)))
        key += map(d.__add__, pi_int)
        if degenerate_streak >= _BLAND_AFTER:
            entering = next((j for j, k in enumerate(key) if k < d), -1)
        else:
            least = min(key)
            entering = key.index(least) if least < d else -1
        if entering == -1:
            break

        # entering reduced cost rc / d and direction / d; direction = adj times its column
        rc = d - key[entering]
        rows = cols[entering] if entering < nstruct else (entering - nstruct,)
        if len(rows) == 1:  # itemgetter of one index returns the entry, not a 1-tuple
            direction = list(map(itemgetter(rows[0]), adj))
        else:
            direction = list(map(sum, map(itemgetter(*rows), adj)))

        # least ratio xb[i] / dir[i] over dir[i] > 0, by cross-multiplication
        leave = -1
        for i in range(m):
            if direction[i] > 0:
                if leave == -1:
                    leave = i
                    continue
                lhs = xb[i] * direction[leave]
                rhs = xb[leave] * direction[i]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave == -1:
            raise VerificationError("matching LP appears unbounded")

        degenerate_streak = degenerate_streak + 1 if xb[leave] == 0 else 0

        # Bareiss pivot; the new determinant is p, and every division is exact
        p = direction[leave]
        prow = adj[leave]
        px = xb[leave]
        for i in range(m):
            if i == leave:
                continue
            f = direction[i]
            if f:
                adj[i] = [(a * p - f * b) // d for a, b in zip(adj[i], prow)]
                xb[i] = (xb[i] * p - f * px) // d
            elif p != d:
                adj[i] = [a * p // d for a in adj[i]]
                xb[i] = xb[i] * p // d
        # dual update: pi gains rc / p times the pivot row of B^-1
        pi_int = [(a * p + rc * b) // d for a, b in zip(pi_int, prow)]
        d = p
        basis[leave] = entering

    den = d * scale
    value = Fraction(_certify(cols, basis, xb, pi_int, d, wint), den)
    basic = {edges[j]: Fraction(x, den) for j, x in zip(basis, xb) if j < nstruct}
    return (
        FractionalCover({verts[r]: Fraction(x, d) for r, x in enumerate(pi_int)}, value),
        FractionalMatching({e: basic.get(e, _ZERO) for e in edges}, value),
    )


def _certify(cols, basis, xb, pi_int, d, wint) -> int:
    """Check the final basis in the simplex's integers; return the common value times d * scale.

    Cover mass is pi_int / d, matching mass xb / (d * scale) and weight
    wint / scale, so each condition below is the exact one multiplied by
    d * scale, which is positive because every pivot element is.  A
    failure here is always a solver bug.
    """
    nstruct = len(cols)
    load = [0] * len(wint)
    flow = 0
    for j, x in zip(basis, xb):
        if j < nstruct:
            if x < 0:
                raise VerificationError("negative matching mass")
            flow += x
            for r in cols[j]:
                load[r] += x
    if min(pi_int) < 0:
        raise VerificationError("negative cover mass")
    if any(x > w * d for x, w in zip(load, wint)):
        raise VerificationError("matching capacity violated")
    get = pi_int.__getitem__
    if any(sum(map(get, c)) < d for c in cols):
        raise VerificationError("cover constraint violated")
    if flow != sum(map(mul, pi_int, wint)):
        raise VerificationError("cover and matching values differ")
    return flow
