"""Exact LP for the fractional cover / fractional matching pair.

The cover program minimizes sum w(v) g(v) subject to every hyperedge
collecting cover mass at least 1.  Its dual, the matching program,
maximizes sum f(e) subject to the per-vertex capacity w(v).  The matching
program has the all-slack basis feasible, so it is solved directly by the
revised simplex method; the optimal cover is read off the simplex
multipliers of the final basis.

The simplex is fraction-free (Edmonds 1967; Bareiss 1968).  Weights are
scaled to integers ``b = wint`` by the lcm of their denominators, and the
whole state is one integer array bordered by the cost row and the
right-hand side, ``T = d * [[B^-1, x_B, 0], [pi, z, 0]]``, with
``d = det(B) > 0``: ``d B^-1`` is the adjugate of the basis matrix, ``pi``
the multipliers, ``z`` the matching value, and the last column is zero
for the padding of short columns.  Pricing and the ratio test compare
integers.  The entering column's direction is the sum of its rows'
columns of ``T``, less ``d`` in the cost row for a hyperedge (cost 1), so
that entry is ``-d * rc``; a pivot on row ``l`` with pivot element
``p = dir[l]`` is one Bareiss update ``T[i] = (T[i] p - dir[i] T[l]) // d``
of every other row (an exact division), after which ``d = p``.  When
``p == d``, rows with ``dir[i] == 0`` keep their values and are skipped.

``T`` is held in int64 only while a bound proves that no intermediate
reaches 2^63; beyond it, the same code runs on an object array of Python
ints.  Every entry of ``T`` and ``dir`` is a determinant (Cramer): ``d``
is det B, ``d B^-1`` holds the cofactors of B, ``d x_B[i]`` is det B
with column i replaced by b, ``d pi[r]`` is det B with row r replaced by
the basic costs, and ``dir[i]`` for i < m is det B with column i replaced
by the entering column.  Each of these matrices has at most
``s = min(m, nstruct)`` hyperedge columns, and Hadamard's inequality
bounds a determinant by the product of its column norms: sqrt(k) for a
hyperedge column (k = width, its most rows), sqrt(k + 1) for one whose
row r reads 1, 1 for a unit column and ||b|| for b.  So ``d``, ``d B^-1``
and ``dir[:m]`` are at most k^(s/2), ``d x_B`` at most ||b|| k^(s/2),
``d pi`` at most (k + 1)^(s/2), ``d z`` at most s ||b|| k^(s/2), and the
cost-row entry of ``dir`` and every pricing or direction sum at most
k (k + 1)^(s/2) + k^(s/2).  All are at most
``E = max(s ||b|| k^(s/2), (k + 1)^(s/2 + 1))``.  When E^2 < 2^62, which
is checked once per LP in integers, each product of the update is below
2^62 and their difference below 2^63, so int64 holds the whole solve.
Otherwise a check before each pivot reads the actual maxima: with
``big >= |T|``, ``q = big p + max|dir| max|T[l]|`` bounds the update
before its division, the new entries are at most ``max(big, q // d)``,
and the next pricing and direction sums are at most width of those plus
``p``; once q or that sum could reach 2^63, ``T`` becomes an object
array.  The optimality certificate does not rely on that proof: it is
checked in the final integers, scaled by ``d * scale``: nonnegativity,
every capacity, every cover constraint and equal values.  Fractions are
built only for the outputs, once, from the final basis.  Both solutions
are exactly feasible, exactly optimal, and satisfy complementary
slackness; their values agree exactly.

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
from operator import mul
from typing import Mapping, Sequence

import numpy as np

from .errors import VerificationError
from .graphs import CopyHypergraph, as_fraction

_BLAND_AFTER = 8
_INT64 = 1 << 63
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

    Requires strictly positive weights on every covered vertex; a
    covered vertex with no weight is a ``ValueError``, a float weight a
    ``TypeError``.  The output is deterministic for a fixed input.
    """
    verts = list(hg.covered_vertices())
    edges = list(hg.hyperedges)
    w = {}
    for v in verts:
        try:
            x = weights[v]
        except (IndexError, KeyError):
            raise ValueError(f"covered vertex {v} has no weight") from None
        w[v] = as_fraction(x)
        if w[v] <= 0:
            raise ValueError(f"covered vertex {v} must have positive weight")
    if not edges:
        return FractionalCover({}, _ZERO), FractionalMatching({}, _ZERO)

    m = len(verts)
    row_of = {v: i for i, v in enumerate(verts)}
    cols = [tuple(row_of[v] for v in e) for e in edges]
    nstruct = len(cols)
    scale = lcm(*(w[v].denominator for v in verts))
    wint = [w[v].numerator * (scale // w[v].denominator) for v in verts]
    # slots[t, j] is the t-th row of column j, or the always-zero column m + 1
    width = max(len(c) for c in cols)
    slots = np.array([[c[t] if t < len(c) else m + 1 for c in cols] for t in range(width)])

    # T = d * [[B^-1, x_B, 0], [pi, z, 0]], all integer; pi is row m
    T = np.zeros((m + 1, m + 2), np.int64 if max(wint) < _INT64 else object)
    T[:m, m] = wint
    np.fill_diagonal(T[:m], 1)
    d = 1
    # past the once-per-LP bound, int64 needs a check before each pivot; big >= max |T|
    fits = _fits_int64(width, min(m, nstruct), sum(x * x for x in wint))
    checked = T.dtype != object and not fits
    big = max(wint)
    basis = [nstruct + i for i in range(m)]
    degenerate_streak = 0

    while True:
        # key[j] = d - d * rc_j: the multiplier sum of a hyperedge, pi_int[r] + d for slack r
        pi = T[m]
        key = np.concatenate((pi[slots].sum(0), pi[:m] + d))
        if degenerate_streak >= _BLAND_AFTER:
            below = (key < d).nonzero()[0]
            entering = int(below[0]) if below.size else -1
        else:
            entering = int(key.argmin())
            if key[entering] >= d:
                entering = -1
        if entering == -1:
            break

        # direction / d is B^-1 times the entering column; its cost-row entry is -rc
        if entering < nstruct:
            direction = T[:, cols[entering]].sum(1)
            direction[m] -= d
        else:
            direction = T[:, entering - nstruct].copy()

        # least ratio xb[i] / dir[i] over dir[i] > 0, by cross-multiplication
        rows = (direction[:m] > 0).nonzero()[0].tolist()
        if not rows:
            raise VerificationError("matching LP appears unbounded")
        xs = T[rows, m].tolist()
        fs = direction[rows].tolist()
        t = 0
        for i in range(1, len(rows)):
            lhs = xs[i] * fs[t]
            rhs = xs[t] * fs[i]
            if lhs < rhs or (lhs == rhs and basis[rows[i]] < basis[rows[t]]):
                t = i
        leave = rows[t]
        degenerate_streak = degenerate_streak + 1 if xs[t] == 0 else 0

        # Bareiss pivot on every row but the pivot row; the new determinant is p.
        # While checked, q bounds |T p - dir prow|, the new |T| is at most max(big, q // d),
        # and each next pricing or direction sum is at most width times that, plus p
        p = fs[t]
        if checked:
            q = big * p + int(abs(direction).max()) * int(abs(T[leave]).max())
            if q >= _INT64 or width * max(big, q // d) + p >= _INT64:
                T, direction = T.astype(object), direction.astype(object)
                checked = False
        prow = T[leave]
        direction[leave] = 0
        if p == d:  # rows with a zero direction entry keep their values
            changed = direction.nonzero()[0]
            T[changed] -= direction[changed, None] * prow // d
            if checked and changed.size:
                big = max(big, int(abs(T[changed]).max()))
        else:
            T = (T * p - direction[:, None] * prow) // d
            T[leave] = prow
            if checked:
                big = int(abs(T).max())
        d = p
        basis[leave] = entering

    xb = T[:m, m].tolist()
    pi_int = T[m, :m].tolist()
    den = d * scale
    value = Fraction(_certify(cols, basis, xb, pi_int, d, wint), den)
    basic = {edges[j]: Fraction(x, den) for j, x in zip(basis, xb) if j < nstruct}
    return (
        FractionalCover({verts[r]: Fraction(x, d) for r, x in enumerate(pi_int)}, value),
        FractionalMatching({e: basic.get(e, _ZERO) for e in edges}, value),
    )


def _fits_int64(width: int, s: int, b2: int) -> bool:
    """True when E^2 < 2^62 for the module docstring's Hadamard bound E.

    s bounds the basic hyperedge columns, width their rows, and b2 is
    ||wint||^2; E^2 is the larger of s^2 b2 width^s and (width + 1)^(s + 2).
    """
    return s * s * b2 * width**s < 1 << 62 and (width + 1) ** (s + 2) < 1 << 62


def _certify(cols, basis, xb, pi_int, d, wint) -> int:
    """Check the final basis in the simplex's integers; return the common value times d * scale.

    Cover mass is pi_int / d, matching mass xb / (d * scale) and weight
    wint / scale, so each condition below is the exact one multiplied by
    d * scale, which is positive because every pivot element is; a d
    that is not positive is rejected.  A failure here is always a solver
    bug.
    """
    if d <= 0:
        raise VerificationError("basis determinant is not positive")
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
