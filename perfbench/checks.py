"""Independent checks of solve and oracle outputs, run outside the timed region.

Nothing here calls into hitset: documents are parsed by a separate
reader, weights come from the benchmark's own copy of the instance,
copies are found with networkx VF2 monomorphisms and the fractional
cover value tau* comes from scipy's HiGHS.
"""

from __future__ import annotations

from fractions import Fraction

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from workloads import PATTERNS, Case

# fixed before any run: HiGHS meets its feasibility tolerances (1e-7) on
# these small LPs, so tau* is trusted to 1e-6 relative
TAU_TOL = 1e-6


def read_document(text: str) -> dict[str, str]:
    """``key: value`` lines of a document; comment lines are skipped."""
    rows = {}
    for line in text.splitlines():
        if line.startswith("#") or ":" not in line:
            continue
        key, value = line.split(":", 1)
        rows[key.strip()] = value.strip()
    return rows


def _graphs(case: Case, removed=()) -> tuple[nx.Graph, nx.Graph]:
    g = nx.Graph()
    g.add_nodes_from(range(len(case.weights)))
    g.add_edges_from(case.edges)
    g.remove_nodes_from(removed)
    k, pattern_edges = PATTERNS[case.pattern]
    h = nx.Graph()
    h.add_nodes_from(range(k))
    h.add_edges_from(pattern_edges)
    return g, h


def hits_every_copy(case: Case, vertices) -> bool:
    g, h = _graphs(case, vertices)
    return next(GraphMatcher(g, h).subgraph_monomorphisms_iter(), None) is None


def tau_star(case: Case) -> float:
    """Fractional minimum-weight cover of all copies, by HiGHS."""
    g, h = _graphs(case)
    copies = {frozenset(m) for m in GraphMatcher(g, h).subgraph_monomorphisms_iter()}
    if not copies:
        return 0.0
    rows, cols = [], []
    for r, copy in enumerate(sorted(sorted(c) for c in copies)):
        rows.extend([r] * len(copy))
        cols.extend(copy)
    a = coo_matrix(([-1.0] * len(rows), (rows, cols)), shape=(len(copies), len(case.weights)))
    res = linprog(case.weights, A_ub=a, b_ub=[-1.0] * len(copies), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def _vertex_set(case: Case, text: str, what: str, problems: list[str]) -> tuple[int, ...] | None:
    try:
        vs = tuple(int(x) for x in text.split())
    except ValueError:
        problems.append(f"{what}: vertices are not integers")
        return None
    if len(set(vs)) != len(vs) or any(not 0 <= v < len(case.weights) for v in vs):
        problems.append(f"{what}: vertices repeat or lie out of range")
        return None
    return vs


def check_exact(case: Case, text: str) -> tuple[list[str], Fraction | None]:
    """Check an oracle result; returns problems and the optimum it claims."""
    problems: list[str] = []
    rows = read_document(text)
    vs = _vertex_set(case, rows.get("vertices", ""), "oracle", problems)
    try:
        opt = Fraction(rows["weight"])
    except (KeyError, ValueError):
        return problems + ["oracle: no weight"], None
    if vs is not None:
        if sum(case.weights[v] for v in vs) != opt:
            problems.append("oracle: weight differs from the weights of its vertices")
        if not hits_every_copy(case, vs):
            problems.append("oracle: set misses a copy")
    return problems, opt


def check_solution(case: Case, text: str, *, lp_check=False, exact_text=None) -> list[str]:
    """Problems found in one solution document; empty when it is correct."""
    problems: list[str] = []
    rows = read_document(text)
    missing = {"classification", "guaranteed_factor", "lower_bound", "vertices", "weight"} - set(rows)
    if missing:
        return [f"document lacks {', '.join(sorted(missing))}"]
    vs = _vertex_set(case, rows["vertices"], "solve", problems)
    try:
        weight = Fraction(rows["weight"])
        lower = Fraction(rows["lower_bound"])
        factor = Fraction(rows["guaranteed_factor"])
    except ValueError:
        return problems + ["document numbers are not rationals"]
    if vs is not None:
        if sum(case.weights[v] for v in vs) != weight:
            problems.append("weight differs from the input weights of the vertices")
        if not hits_every_copy(case, vs):
            problems.append("hitting set misses a copy")
    if not 0 <= lower <= weight:
        problems.append("lower_bound is not within [0, weight]")
    if lp_check:
        tau = tau_star(case)
        if float(lower) < tau - TAU_TOL * max(1.0, tau):
            problems.append(f"lower_bound {lower} is below HiGHS tau* {tau}")
    if exact_text is not None:
        oracle_problems, opt = check_exact(case, exact_text)
        problems.extend(oracle_problems)
        k = PATTERNS[case.pattern][0]
        if factor != k - Fraction(1, 2):
            problems.append(f"guaranteed_factor {factor} is not k - 1/2")
        if opt is not None and not lower <= opt <= weight <= (k - Fraction(1, 2)) * opt:
            problems.append(f"lower_bound <= OPT <= weight <= (k - 1/2) OPT fails with OPT {opt}")
    return problems
