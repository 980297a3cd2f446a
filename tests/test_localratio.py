import itertools
import random
from fractions import Fraction

import pytest

from hitset import (
    BudgetExceededError,
    EnumerationBudget,
    Graph,
    Pattern,
    WeightedGraph,
    classify_pattern,
    construct_good_graph,
    decompose_weights,
    embeddings,
    enumerate_copies,
    unit_weights,
    verify_solution,
)
from hitset import copies, localratio, random_graph
from helpers import (
    DIFFERENTIAL_PATTERNS,
    complete_graph,
    path_graph,
    restarting_decomposition,
    sparse_weighted_hosts,
    star_graph,
)

P3 = Pattern(path_graph(3))


def p3_gadget() -> WeightedGraph:
    return construct_good_graph(P3, classify_pattern(P3).decomposition)


def test_no_copy_no_steps():
    g = unit_weights(complete_graph(3))  # gadget needs a degree-3 vertex
    trace = decompose_weights(g, p3_gadget())
    assert trace.steps == ()
    assert trace.final_weights == g.weights
    assert trace.zero_set == frozenset()


def test_claw_host_single_step():
    g = unit_weights(star_graph(3))
    trace = decompose_weights(g, p3_gadget())
    assert len(trace.steps) == 1
    assert trace.steps[0].scale == 1
    assert trace.final_weights == (
        Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)
    )
    assert trace.zero_set == frozenset({0})


@pytest.mark.parametrize("seed", range(6))
def test_conservation_identity(seed):
    g = unit_weights(random_graph(9, 0.5, 600 + seed))
    good = p3_gadget()
    trace = decompose_weights(g, good)
    recon = list(trace.final_weights)
    for st in trace.steps:
        for x in range(good.graph.n):
            recon[st.embedding[x]] += st.scale * good.weights[x]
    assert tuple(recon) == g.weights
    assert len(trace.steps) <= g.n


@pytest.mark.parametrize("seed", range(6))
def test_residual_is_gadget_free(seed):
    g = unit_weights(random_graph(9, 0.5, 700 + seed))
    good = p3_gadget()
    trace = decompose_weights(g, good)
    residual = WeightedGraph(g.graph, trace.final_weights)
    assert decompose_weights(residual, good).steps == ()
    positive = frozenset(v for v in range(g.n) if trace.final_weights[v] > 0)
    assert not any(True for _ in embeddings(g.graph, good.graph, allowed=positive))


def test_steps_zero_vertices_monotonically():
    g = unit_weights(random_graph(10, 0.5, 44))
    trace = decompose_weights(g, p3_gadget())
    weights = list(g.weights)
    zeroes = 0
    for st in trace.steps:
        good = p3_gadget()
        for x in range(good.graph.n):
            weights[st.embedding[x]] -= st.scale * good.weights[x]
        assert all(w >= 0 for w in weights)
        new_zeroes = sum(1 for w in weights if w == 0)
        assert new_zeroes > zeroes
        zeroes = new_zeroes


def test_goodness_transfer_bound():
    # every hitting set pays at least the scale inside each gadget copy
    g = unit_weights(star_graph(3))
    good = p3_gadget()
    trace = decompose_weights(g, good)
    assert len(trace.steps) == 1
    st = trace.steps[0]
    image = set(st.embedding)
    inverse = {st.embedding[x]: x for x in range(good.graph.n)}
    floor = st.scale
    for r in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            if not verify_solution(g.graph, P3, combo):
                continue
            paid = sum(
                (st.scale * good.weights[inverse[v]] for v in set(combo) & image),
                Fraction(0),
            )
            assert paid >= floor


def test_zero_weight_inputs_enter_zero_set():
    g = WeightedGraph(
        star_graph(3), (Fraction(1), Fraction(0), Fraction(1), Fraction(1))
    )
    trace = decompose_weights(g, p3_gadget())
    assert 1 in trace.zero_set
    # vertex 1 has weight zero, so no gadget copy can use it
    assert all(1 not in st.embedding for st in trace.steps)


def test_budget_exhaustion():
    g = unit_weights(star_graph(3))
    with pytest.raises(BudgetExceededError):
        decompose_weights(g, p3_gadget(), EnumerationBudget(max_copies=0))


def test_find_positive_copy_identity():
    # the gadget embeds in itself, so the first step covers every host vertex
    good = p3_gadget()
    host = WeightedGraph(good.graph, (Fraction(1),) * good.graph.n)
    steps = decompose_weights(host, good).steps
    assert steps
    assert sorted(steps[0].embedding) == list(range(good.graph.n))


def test_find_positive_copy_blocked_by_zero():
    tri = unit_weights(complete_graph(3))
    host = WeightedGraph(complete_graph(3), (Fraction(1), Fraction(1), Fraction(0)))
    assert decompose_weights(host, tri).steps == ()


def test_find_positive_copy_host_too_small():
    good = p3_gadget()
    host = unit_weights(Graph(2, [(0, 1)]))
    assert decompose_weights(host, good).steps == ()


def test_multiple_goods_scanned_in_order():
    # the bare pattern as the gadget: claw-free hosts still shrink
    bare = unit_weights(P3.graph)
    g = unit_weights(path_graph(4))  # no claw, but paths of three exist
    assert decompose_weights(g, p3_gadget()).steps == ()
    trace = decompose_weights(g, bare)
    assert trace.steps
    positive = frozenset(v for v in range(g.n) if trace.final_weights[v] > 0)
    assert not any(True for _ in embeddings(g.graph, P3.graph, allowed=positive))
    assert trace.dual_bound() == sum(
        (st.scale for st in trace.steps), Fraction(0)
    )


RESUME_PATTERNS = ("C4", "K1,3", "K3", "P3", "P4", "paw")
WEIGHT_RANGES = ((1, 1), (1, 9), (0, 9))  # unit, positive, and zeros from the start


def _resume_cases():
    # every weight range on the two smaller hosts; on the largest, where the
    # restarting reference is slow, each pattern takes one range in turn
    for i, name in enumerate(RESUME_PATTERNS):
        for n in (40, 160):
            for low, high in WEIGHT_RANGES:
                yield name, n, low, high
        yield (name, 640) + WEIGHT_RANGES[i % len(WEIGHT_RANGES)]


@pytest.mark.parametrize("name, n, low, high", list(_resume_cases()))
def test_resumed_decomposition_matches_restarting_reference(name, n, low, high, monkeypatch):
    p = Pattern(DIFFERENTIAL_PATTERNS[name])
    good = construct_good_graph(p, classify_pattern(p).decomposition)
    first = copies._plan(good.graph, None, ())[0][0]  # the gadget vertex matched first
    rng = random.Random(n + high)
    g = WeightedGraph(
        random_graph(n, 4 / n, n), tuple(Fraction(rng.randint(low, high)) for _ in range(n))
    )
    search = localratio.embeddings
    starts = []

    def recording(*args, **kwargs):
        starts.append(kwargs["start"])
        return search(*args, **kwargs)

    monkeypatch.setattr(localratio, "embeddings", recording)
    trace = decompose_weights(g, good)
    assert trace == restarting_decomposition(g, good)
    # the first search starts at 0 and each later one at the last step's root image
    assert starts == [0] + [st.embedding[first] for st in trace.steps]
    assert starts == sorted(starts)


@pytest.mark.parametrize("name", ("paw", "C4", "K3", "P4", "K1,3", "bowtie"))
def test_decomposition_on_positive_copies_matches_whole_host(name):
    # a gadget embedding on positive vertices lands on copies on positive
    # vertices, so searching only their vertices changes nothing
    p = Pattern(DIFFERENTIAL_PATTERNS[name])
    good = construct_good_graph(p, classify_pattern(p).decomposition)
    steps = narrowed = 0
    for g in sparse_weighted_hosts(name):
        on_copies = {
            v for e in enumerate_copies(g.graph, p) if all(g.weights[u] for u in e) for v in e
        }
        trace = decompose_weights(g, good, allowed=on_copies)
        assert trace == decompose_weights(g, good)
        steps += len(trace.steps)
        narrowed += len(on_copies) < g.n
    assert steps > 0 and narrowed > 0


@pytest.mark.parametrize("bad", [-1, 4])
def test_allowed_vertex_outside_host_is_value_error(bad):
    g = unit_weights(star_graph(3))
    with pytest.raises(ValueError, match="allowed vertices must lie in 0..3"):
        decompose_weights(g, p3_gadget(), allowed={0, bad})
