import hashlib
import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from hitset import (
    CopyHypergraph,
    FractionalCover,
    FractionalMatching,
    VerificationError,
    min_weight_cover,
    solve_cover_lp,
)
from hitset import lp
from helpers import (
    check_complementary_slackness,
    check_optimal_pair,
    list_simplex_state,
    random_hypergraph,
    random_weights,
)

UNIT3 = (Fraction(1),) * 3


def test_single_hyperedge():
    hg = CopyHypergraph(3, ((0, 1, 2),))
    cover, matching = solve_cover_lp(hg, UNIT3)
    assert cover.value == matching.value == 1
    assert matching.values[(0, 1, 2)] == 1


def test_triangle_fractional():
    hg = CopyHypergraph(3, ((0, 1), (1, 2), (0, 2)))
    cover, matching = solve_cover_lp(hg, UNIT3)
    assert cover.value == Fraction(3, 2)
    assert matching.value == Fraction(3, 2)
    assert check_complementary_slackness(cover, matching, hg, UNIT3)


def test_two_disjoint_hyperedges():
    hg = CopyHypergraph(6, ((0, 1, 2), (3, 4, 5)))
    cover, matching = solve_cover_lp(hg, (Fraction(1),) * 6)
    assert cover.value == 2


def test_empty_hypergraph():
    hg = CopyHypergraph(4, ())
    cover, matching = solve_cover_lp(hg, (Fraction(1),) * 4)
    assert cover.value == matching.value == 0
    assert check_complementary_slackness(cover, matching, hg, (Fraction(1),) * 4)


def test_nonpositive_weight_rejected():
    hg = CopyHypergraph(2, ((0, 1),))
    with pytest.raises(ValueError):
        solve_cover_lp(hg, (Fraction(0), Fraction(1)))


def test_missing_weight_rejected():
    hg = CopyHypergraph(3, ((0, 2),))
    with pytest.raises(ValueError, match="covered vertex 2 has no weight"):
        solve_cover_lp(hg, [1, 1])
    with pytest.raises(ValueError, match="covered vertex 2 has no weight"):
        solve_cover_lp(hg, {0: 1})


def test_float_weights_rejected():
    hg = CopyHypergraph(3, ((0, 1), (1, 2)))
    with pytest.raises(TypeError, match="floats"):
        solve_cover_lp(hg, [1.0, 1, 1])


@pytest.mark.parametrize("shift", range(5))
def test_first_faulty_covered_vertex_names_the_error(shift):
    # faults on covered vertices 3, 5, 6, 8 and 9, each kind first in turn; vertex 0
    # is covered by no hyperedge, so its float weight is never read
    missing = (ValueError, "covered vertex {} has no weight")
    floating = (TypeError, "weights must be exact rationals, not floats")
    nonpositive = (ValueError, "covered vertex {} must have positive weight")
    faults = [(None, missing), (1.5, floating), (0, nonpositive), (-2, nonpositive)]
    faults.append((Fraction(-1, 3), nonpositive))
    faults = faults[shift:] + faults[:shift]
    hg = CopyHypergraph(10, ((1, 2, 3), (3, 4, 5), (5, 6, 7, 8), (8, 9)))
    weights = {0: 2.5, **{v: Fraction(v, 2) for v in range(1, 10)}}
    for v, (weight, _) in zip((3, 5, 6, 8, 9), faults):
        if weight is None:
            del weights[v]
        else:
            weights[v] = weight
    kind, message = faults[0][1]
    # the mapping in descending key order: the check follows vertex order, not the mapping's
    with pytest.raises(kind, match=f"^{message.format(3)}$"):
        solve_cover_lp(hg, dict(sorted(weights.items(), reverse=True)))
    if faults[0][0] is not None:
        with pytest.raises(kind, match=f"^{message.format(3)}$"):
            solve_cover_lp(hg, [weights.get(v, 1) for v in range(9)])


def test_size_one_hyperedge():
    hg = CopyHypergraph(2, ((0,), (0, 1)))
    cover, matching = solve_cover_lp(hg, (Fraction(1), Fraction(1)))
    assert cover.value == 1 and cover.values[0] >= 1


def test_suboptimal_pair_not_slack():
    hg = CopyHypergraph(3, ((0, 1), (1, 2), (0, 2)))
    cover = FractionalCover({v: Fraction(1) for v in range(3)}, Fraction(3))
    matching = FractionalMatching({e: Fraction(0) for e in hg.hyperedges}, Fraction(0))
    assert not check_complementary_slackness(cover, matching, hg, UNIT3)


@pytest.mark.parametrize("seed", range(25))
def test_strong_duality_random(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    edges = random_hypergraph(rng, n, max_edges=16, min_size=1, max_size=5)
    weights = random_weights(rng, n)
    hg = CopyHypergraph(n, edges)
    cover, matching = solve_cover_lp(hg, weights)
    assert cover.value == matching.value
    assert check_complementary_slackness(cover, matching, hg, weights)
    # exact feasibility
    for e in hg.hyperedges:
        assert sum(cover.values[v] for v in e) >= 1
    load = {v: Fraction(0) for v in hg.covered_vertices()}
    for e in hg.hyperedges:
        for v in e:
            load[v] += matching.values[e]
    assert all(load[v] <= weights[v] for v in load)


@pytest.mark.parametrize("seed", range(12))
def test_fractional_at_most_integral(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(2, 12)
    edges = random_hypergraph(rng, n, max_edges=14)
    weights = random_weights(rng, n)
    hg = CopyHypergraph(n, edges)
    cover, _ = solve_cover_lp(hg, weights)
    _, integral = min_weight_cover(hg, weights)
    assert cover.value <= integral


@pytest.mark.parametrize("seed", range(20))
def test_full_support_weight_bound(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(2, 10)
    edges = random_hypergraph(rng, n, max_edges=12)
    weights = random_weights(rng, n)
    hg = CopyHypergraph(n, edges)
    cover, matching = solve_cover_lp(hg, weights)
    active = hg.covered_vertices()
    if all(cover.values[v] > 0 for v in active):
        k = max(len(e) for e in hg.hyperedges)
        w_active = sum(weights[v] for v in active)
        assert w_active <= k * cover.value


def test_deterministic():
    rng = random.Random(7)
    n = 10
    edges = random_hypergraph(rng, n, max_edges=20)
    weights = random_weights(rng, n)
    hg = CopyHypergraph(n, edges)
    a = solve_cover_lp(hg, weights)
    b = solve_cover_lp(hg, weights)
    assert a[0].values == b[0].values and a[1].values == b[1].values


# Golden pin of the pivot path.  The simplex's pivot rule (greedy pricing,
# smallest index on ties, Bland after a degenerate run, leaving-row
# tie-break) fixes which optimal vertex is returned; any change to the
# arithmetic that keeps the rule must reproduce these values exactly.
# Unit seeds 9014, 9026, 9032 and 9036 run 8 or more consecutive
# degenerate pivots and so switch to Bland's rule.
GOLDEN_SEEDS = {
    "unit": (9000, 9001, 9002, 9014, 9026, 9032, 9036),
    "integer": tuple(range(9100, 9108)),
    "fractional": tuple(range(9200, 9208)),
}
GOLDEN_SHA256 = "63c89ec9446095a23fb826e4a1950780073063d1423852ee502b81ef085b4ea4"


def _golden_instance(kind, seed):
    rng = random.Random(seed)
    n = rng.randint(8, 16)
    edges = random_hypergraph(rng, n, max_edges=60, min_size=2, max_size=4)
    if kind == "unit":
        weights = (Fraction(1),) * n
    elif kind == "integer":
        weights = tuple(Fraction(rng.randint(1, 9)) for _ in range(n))
    else:
        # coprime denominators, so the weights' common denominator is large
        weights = tuple(Fraction(rng.randint(1, 9), rng.choice((2, 3, 5, 7))) for _ in range(n))
    return CopyHypergraph(n, edges), weights


def test_pivot_path_golden():
    digest = hashlib.sha256()
    for kind, seeds in GOLDEN_SEEDS.items():
        for seed in seeds:
            hg, weights = _golden_instance(kind, seed)
            cover, matching = solve_cover_lp(hg, weights)
            for values in (cover.values, matching.values):
                line = ";".join(f"{k}={v}" for k, v in sorted(values.items()))
                digest.update(f"{kind} {seed} {line}\n".encode())
    assert digest.hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("kind", sorted(GOLDEN_SEEDS))
def test_pairs_pass_fraction_reference(kind):
    for seed in GOLDEN_SEEDS[kind]:
        hg, weights = _golden_instance(kind, seed)
        cover, matching = solve_cover_lp(hg, weights)
        check_optimal_pair(hg, weights, cover, matching)


def test_bland_pricing_alone_reaches_the_optimum(monkeypatch):
    instances = [_golden_instance(kind, s) for kind, seeds in GOLDEN_SEEDS.items() for s in seeds]
    greedy = [solve_cover_lp(hg, weights)[0].value for hg, weights in instances]
    monkeypatch.setattr(lp, "_BLAND_AFTER", 0)  # Bland's rule from the first pivot
    for (hg, weights), value in zip(instances, greedy):
        cover, matching = solve_cover_lp(hg, weights)
        check_optimal_pair(hg, weights, cover, matching)
        assert cover.value == value


def _final_state(monkeypatch, hg, weights):
    """The simplex's final integer state, as handed to lp._certify."""
    seen = []
    certify = lp._certify
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_certify", lambda *state: seen.append(state) or certify(*state))
        solve_cover_lp(hg, weights)
    return seen[0]


def test_integer_certificate_rejects_each_violation(monkeypatch):
    hg, weights = _golden_instance("fractional", 9201)
    cols, basis, xb, pi_int, d, wint = state = _final_state(monkeypatch, hg, weights)
    scale = lcm(*(weights[v].denominator for v in hg.covered_vertices()))
    flow = lp._certify(*state)
    assert Fraction(flow, d * scale) == solve_cover_lp(hg, weights)[0].value
    assert d > 1 and scale > 1

    # a basic structural column with positive mass; its reduced cost is 0, so
    # its rows' multipliers sum to d, and a row with a positive multiplier is tight
    i = next(i for i, j in enumerate(basis) if j < len(cols) and xb[i] > 0)
    r = next(r for r in cols[basis[i]] if pi_int[r] > 0)

    def changed(values, k, x):
        values = list(values)
        values[k] = x
        return values

    def rejects(message, bad_xb=xb, bad_pi=pi_int, bad_d=d):
        with pytest.raises(VerificationError, match=message):
            lp._certify(cols, basis, bad_xb, bad_pi, bad_d, wint)

    rejects("negative matching mass", bad_xb=changed(xb, i, -1))
    rejects("negative cover mass", bad_pi=changed(pi_int, r, -1))
    rejects("matching capacity violated", bad_xb=changed(xb, i, xb[i] + 1))
    rejects("cover constraint violated", bad_pi=changed(pi_int, r, pi_int[r] - 1))
    rejects("cover and matching values differ", bad_pi=changed(pi_int, 0, pi_int[0] + 1))
    rejects("basis determinant is not positive", bad_d=0)
    rejects("basis determinant is not positive", bad_d=-d)
    # all-zero masses over d = 0 pass every other condition
    zeros = [0] * len(xb)
    rejects("basis determinant is not positive", bad_xb=zeros, bad_pi=zeros, bad_d=0)


# Differential test of the array simplex against the list-based reference:
# the same pivot rule must reach the same final integer state.
@pytest.mark.parametrize("bland_after", (0, 2, 8))
@pytest.mark.parametrize("kind", sorted(GOLDEN_SEEDS))
def test_final_state_matches_list_reference(monkeypatch, kind, bland_after):
    monkeypatch.setattr(lp, "_BLAND_AFTER", bland_after)
    for seed in range(9300, 9340):
        hg, weights = _golden_instance(kind, seed)
        state, _ = list_simplex_state(hg, weights, bland_after)
        assert _final_state(monkeypatch, hg, weights) == state


@pytest.mark.parametrize("bits", (40, 56, 64))
def test_final_state_matches_list_reference_with_large_weights(monkeypatch, bits):
    # 2^64 and up: Python ints from the first pivot.  2^56: int64 at first, but
    # most of these solves form a Bareiss product of 2^63 or more later on.
    # 2^40: past the once-per-LP bound, so every pivot is checked.
    rng = random.Random(9400 + bits)
    overflows = 0
    for _ in range(20):
        n = rng.randint(16, 24)
        hg = CopyHypergraph(n, random_hypergraph(rng, n, max_edges=80))
        weights = tuple(Fraction(rng.randint(1 << bits, 1 << bits + 1)) for _ in range(n))
        state, peak = list_simplex_state(hg, weights, lp._BLAND_AFTER)
        cols, _, _, _, _, wint = state
        assert (max(wint) >= 1 << 63) == (bits == 64)
        width = max(map(len, cols))
        assert not lp._fits_int64(width, min(len(wint), len(cols)), sum(x * x for x in wint))
        overflows += peak >= 1 << 63
        assert _final_state(monkeypatch, hg, weights) == state
    if bits == 56:
        assert overflows >= 10


def _spread_instance(rng):
    # 12 covered vertices spread over 10 000 host ids
    ids = sorted(rng.sample(range(10_000), 12))
    edges = [tuple(rng.sample(ids, rng.randint(2, 4))) for _ in range(rng.randint(4, 16))]
    weights = {v: Fraction(rng.randint(1, 9)) for v in ids}
    return CopyHypergraph(10_000, tuple(edges)), weights


def _lcm_instance(rng):
    # pairwise coprime denominators, so the weights' lcm exceeds 2^40
    n = rng.randint(10, 13)
    dens = rng.sample((7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53), n)
    weights = tuple(Fraction(rng.randint(1, 9), den) for den in dens)
    return CopyHypergraph(n, random_hypergraph(rng, n, max_edges=30)), weights


def _mixed_width_instance(rng):
    n = rng.randint(6, 14)
    edges = random_hypergraph(rng, n, max_edges=30, min_size=1, max_size=5)
    return CopyHypergraph(n, edges), random_weights(rng, n)


@pytest.mark.parametrize("make", (_mixed_width_instance, _spread_instance, _lcm_instance))
def test_set_up_edges_match_list_reference(monkeypatch, make):
    rng = random.Random(9500)
    zeros = mixed = 0
    for _ in range(25):
        hg, weights = make(rng)
        state, _ = list_simplex_state(hg, weights, lp._BLAND_AFTER)
        assert _final_state(monkeypatch, hg, weights) == state
        cover, matching = solve_cover_lp(hg, weights)
        assert list(cover.values) == list(hg.covered_vertices())
        assert list(matching.values) == list(hg.hyperedges)
        for values in (cover.values, matching.values):
            assert all(type(x) is Fraction for x in values.values())
            zeros += sum(x == 0 for x in values.values())
        mixed += len(set(map(len, hg.hyperedges))) > 1
    assert zeros
    if make is _mixed_width_instance:
        assert mixed >= 20
    if make is _lcm_instance:
        assert lcm(*(w.denominator for w in weights)) >= 1 << 40


def _highs_tau(hg, weights):
    from scipy.optimize import linprog

    verts = hg.covered_vertices()
    row = {v: i for i, v in enumerate(verts)}
    a_ub = [[0.0] * len(verts) for _ in hg.hyperedges]
    for j, e in enumerate(hg.hyperedges):
        for v in e:
            a_ub[j][row[v]] = -1.0
    res = linprog(
        [float(weights[v]) for v in verts],
        A_ub=a_ub,
        b_ub=[-1.0] * len(hg.hyperedges),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("seed", range(30))
def test_cover_value_matches_highs(seed):
    rng = random.Random(700 + seed)
    n = rng.randint(3, 20)
    edges = random_hypergraph(rng, n, max_edges=40, min_size=1, max_size=5)
    weights = random_weights(rng, n)
    hg = CopyHypergraph(n, edges)
    cover, matching = solve_cover_lp(hg, weights)
    assert cover.value == matching.value
    assert float(cover.value) == pytest.approx(_highs_tau(hg, weights), rel=1e-9)


def test_size_one_hyperedges_force_their_vertex():
    # (0,) and (2,) force g0 = g2 = 1; (1, 3) is covered by the cheaper 1
    hg = CopyHypergraph(4, ((0,), (2,), (0, 1, 2), (1, 3)))
    weights = (Fraction(2), Fraction(1), Fraction(5), Fraction(3))
    cover, matching = solve_cover_lp(hg, weights)
    assert cover.value == matching.value == 8
    assert cover.values[0] == cover.values[2] == 1
    assert matching.values[(0,)] == 2 and matching.values[(2,)] == 5
    assert check_complementary_slackness(cover, matching, hg, weights)


def test_duplicate_hyperedges_count_once():
    hg = CopyHypergraph(4, ((0, 1), (1, 0), (0, 0, 1), (2, 3), (3, 2)))
    assert hg.hyperedges == ((0, 1), (2, 3))
    weights = (Fraction(1),) * 4
    cover, matching = solve_cover_lp(hg, weights)
    assert cover.value == matching.value == 2
    assert set(matching.values) == {(0, 1), (2, 3)}
    assert check_complementary_slackness(cover, matching, hg, weights)


def test_weights_with_large_denominator_lcm():
    primes = (97, 89, 83)
    # a triangle whose weights obey the triangle inequality: tau* is half the total
    hg = CopyHypergraph(3, ((0, 1), (1, 2), (0, 2)))
    weights = tuple(Fraction(1, p) for p in primes)
    cover, matching = solve_cover_lp(hg, weights)
    assert cover.value == matching.value == sum(weights) / 2
    assert all(g == Fraction(1, 2) for g in cover.values.values())
    assert check_complementary_slackness(cover, matching, hg, weights)
    check_optimal_pair(hg, weights, cover, matching)

    # singletons over the first 15 primes and two denominators near 2**60
    dens = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 2**61 - 1, 10**18 + 9)
    weights = tuple(Fraction(i + 1, d) for i, d in enumerate(dens))
    hg = CopyHypergraph(len(dens), tuple((v,) for v in range(len(dens))) + ((0, 15, 16),))
    cover, matching = solve_cover_lp(hg, weights)
    assert cover.value == matching.value == sum(weights)
    assert check_complementary_slackness(cover, matching, hg, weights)
    check_optimal_pair(hg, weights, cover, matching)


def test_lp_memory_does_not_grow_with_host_size():
    # the set-up sizes its index array by the largest covered id, not by n
    hg = CopyHypergraph(10**6, ((0, 1), (1, 2), (0, 2)))
    weights = (Fraction(1),) * 3
    solve_cover_lp(hg, weights)  # warm-up
    tracemalloc.start()
    try:
        cover, _ = solve_cover_lp(hg, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cover.value == Fraction(3, 2)
    assert peak < 1 << 20
