"""Shared test fixtures: small graphs, naive reference oracles, tree lists."""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from heapq import heapify, heappop, heappush

import networkx as nx
import numpy as np
import pytest

from hitset import (
    Coloring,
    CopyHypergraph,
    FractionalCover,
    FractionalMatching,
    Graph,
    Pattern,
    VerificationError,
    WeightedGraph,
    classify_pattern,
    color_digraph,
    construct_good_graph,
    cover_colored_hypergraph,
    embeddings,
    enumerate_copies,
    find_rooted_copy,
    random_graph,
)
from hitset.copies import _plan
from hitset.graphs import normalize_edge
from hitset.localratio import DecompositionTrace, TraceStep


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def with_isolated_vertex(good: WeightedGraph) -> WeightedGraph:
    """The gadget plus one vertex of weight 1 on no edge, so on no copy."""
    return WeightedGraph(Graph(good.n + 1, good.graph.edges), (*good.weights, 1))


def branch_gadget(g: Graph) -> Graph:
    """Graph of the gadget ``solve`` subtracts for pattern ``g``."""
    p = Pattern(g)
    return construct_good_graph(p, classify_pattern(p).decomposition).graph


DIFFERENTIAL_PATTERNS = {
    "P3": path_graph(3),
    "P4": path_graph(4),
    "K1,3": star_graph(3),
    "K1,5": star_graph(5),
    "K3": complete_graph(3),
    "C4": cycle_graph(4),
    "paw": Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    "K4": complete_graph(4),
    "diamond": Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    # the paw's branch gadget: two triangles sharing a vertex, plus a pendant edge there
    "paw-gadget": branch_gadget(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])),
    "bowtie": Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]),
}


def sparse_weighted_hosts(name: str):
    """Seeded sparse hosts for ``DIFFERENTIAL_PATTERNS[name]`` at unit, 1..9
    and 0..9 integer weights: ``random_graph(n, 4/n)``, n from 60 to 200, or
    mean degree 8 for the bowtie, which needs two triangles at one vertex."""
    degree = 8 if name == "bowtie" else 4
    for n in (60, 120, 200):
        for low, high in ((1, 1), (1, 9), (0, 9)):
            rng = random.Random(n * 10 + high)
            ws = tuple(Fraction(rng.randint(low, high)) for _ in range(n))
            yield WeightedGraph(random_graph(n, degree / n, n + 1), ws)


def hub_branches_pattern() -> Pattern:
    """Nine vertices around hub 2: a triangle, a chorded triangle, a square.

    Branch {0,1,2} is a triangle; branch {2,3,4,5} is a triangle on 3,4,5
    with 2 adjacent to 3 and 5; branch {2,6,7,8} is a four-cycle.  The
    triangle branch embeds into the chorded branch with the hub fixed, so
    the hub is a usable cut vertex.
    """
    edges = [
        (0, 1), (0, 2), (1, 2),
        (3, 4), (4, 5), (3, 5), (2, 3), (2, 5),
        (2, 6), (2, 7), (6, 8), (7, 8),
    ]
    return Pattern(Graph(9, edges))


def triangle_square_share_vertex() -> Pattern:
    """A triangle and a four-cycle sharing one vertex; no branch embeds
    into another, so only the trivial factor applies."""
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 5), (0, 5)]
    return Pattern(Graph(6, edges))


def connected_atlas() -> list[nx.Graph]:
    """The 995 connected graphs with 2 to 7 vertices from the networkx atlas."""
    return [
        x for x in nx.graph_atlas_g() if 2 <= x.number_of_nodes() <= 7 and nx.is_connected(x)
    ]


def _prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    edges.append((heappop(leaves), heappop(leaves)))
    return edges


def canonical_form(g: Graph):
    """Isomorphism-invariant key: minimal edge list over relabelings that
    assign label blocks per degree class."""
    degs = [0] * g.n
    for u, v in g.edges:
        degs[u] += 1
        degs[v] += 1
    by_deg: dict[int, list[int]] = {}
    for v in range(g.n):
        by_deg.setdefault(degs[v], []).append(v)
    classes = [by_deg[d] for d in sorted(by_deg)]
    offsets = []
    off = 0
    for cls in classes:
        offsets.append(off)
        off += len(cls)
    best = None
    for assignment in itertools.product(*(itertools.permutations(c) for c in classes)):
        label = {}
        for cls_idx, ordering in enumerate(assignment):
            for i, v in enumerate(ordering):
                label[v] = offsets[cls_idx] + i
        mapped = tuple(sorted(tuple(sorted((label[u], label[v]))) for u, v in g.edges))
        if best is None or mapped < best:
            best = mapped
    return (g.n, best)


def all_trees(n: int) -> list[Graph]:
    """All trees on n vertices up to isomorphism (small n only)."""
    if n == 1:
        return [Graph(1)]
    if n == 2:
        return [Graph(2, [(0, 1)])]
    seen: dict[object, Graph] = {}
    for seq in itertools.product(range(n), repeat=n - 2):
        g = Graph(n, _prufer_decode(seq, n))
        key = canonical_form(g)
        if key not in seen:
            seen[key] = g
    return list(seen.values())


def too_many_digits() -> str:
    """A digit string just over this interpreter's int-conversion limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("this interpreter converts integers of any length")
    return "7" * (limit + 1)


def has_edge(g: Graph, u: int, v: int) -> bool:
    return normalize_edge(u, v) in g.edges


def is_embedding(g: Graph, h: Graph, mapping: tuple[int, ...]) -> bool:
    """Check injectivity and edge preservation of a candidate map."""
    if len(mapping) != h.n or len(set(mapping)) != h.n:
        return False
    if any(not 0 <= x < g.n for x in mapping):
        return False
    return all(has_edge(g, mapping[u], mapping[v]) for u, v in h.edges)


def naive_has_copy(g: Graph, h: Graph, allowed=None) -> bool:
    """Copy detection by trying every injective map; the slow reference."""
    verts = [v for v in range(g.n) if allowed is None or v in allowed]
    for combo in itertools.permutations(verts, h.n):
        if all(has_edge(g, combo[u], combo[v]) for u, v in h.edges):
            return True
    return False


def naive_copy_sets(g: Graph, h: Graph) -> set[tuple[int, ...]]:
    found = set()
    for combo in itertools.permutations(range(g.n), h.n):
        if all(has_edge(g, combo[u], combo[v]) for u, v in h.edges):
            found.add(tuple(sorted(combo)))
    return found


def naive_min_hitting(wg: WeightedGraph, h: Graph) -> Fraction:
    """Minimum hitting weight by full subset enumeration."""
    n = wg.n
    best = None
    for mask in range(1 << n):
        removed = {v for v in range(n) if mask >> v & 1}
        if naive_has_copy(wg.graph, h, allowed=set(range(n)) - removed):
            continue
        w = wg.total(removed)
        if best is None or w < best:
            best = w
    return best


def naive_min_vertex_cover(g: Graph) -> int:
    best = g.n
    for mask in range(1 << g.n):
        s = {v for v in range(g.n) if mask >> v & 1}
        if all(u in s or v in s for u, v in g.edges):
            best = min(best, len(s))
    return best


def restarting_decomposition(g: WeightedGraph, good: WeightedGraph) -> DecompositionTrace:
    """Reference weight decomposition that restarts every search at vertex 0.

    Each step rebuilds the allowed set from all weights and searches for
    the first gadget embedding over the whole host.
    """
    weights = list(g.weights)
    steps = []
    while True:
        allowed = frozenset(v for v in range(g.n) if weights[v] > 0)
        emb = next(embeddings(g.graph, good.graph, allowed=allowed), None)
        if emb is None:
            break
        touched = [(emb[x], kw) for x, kw in enumerate(good.weights) if kw != 0]
        scale = min(weights[gv] / kw for gv, kw in touched)
        for gv, kw in touched:
            weights[gv] -= scale * kw
        steps.append(TraceStep(emb, scale))
    final = tuple(weights)
    zero = frozenset(v for v in range(g.n) if final[v] == 0)
    return DecompositionTrace(tuple(steps), final, zero)


def rescanning_coloring(n: int, arcs, m: int) -> tuple[int, ...]:
    """Reference digraph colouring that rescans every vertex from id 0 in
    each peeling round, with per-vertex arc lists, neighbour sets and
    alive flags."""
    out_degree = [0] * n
    arcs_at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for u, v in arcs:
        out_degree[u] += 1
        arcs_at[u].append((u, v))
        arcs_at[v].append((u, v))
        neighbors[u].add(v)
        neighbors[v].add(u)

    if any(deg > m for deg in out_degree):
        raise ValueError(f"out-degree bound {m} violated")
    degree = [len(arcs_at[v]) for v in range(n)]
    alive = [True] * n
    order: list[int] = []
    for _ in range(n):
        v = next((u for u in range(n) if alive[u] and degree[u] <= 2 * m), -1)
        if v == -1:
            raise VerificationError("no low-degree vertex; degree counting is broken")
        order.append(v)
        alive[v] = False
        for a, b in arcs_at[v]:
            other = b if a == v else a
            if alive[other]:
                degree[other] -= 1

    colors = [-1] * n
    for v in reversed(order):
        used = {colors[u] for u in neighbors[v] if colors[u] != -1}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    if any(c > 2 * m for c in colors):
        raise VerificationError("greedy colouring exceeded its palette")
    return tuple(colors)


def scalar_random_graph(n: int, p: float, seed: int) -> Graph:
    """Reference random graph that draws one scalar uniform per pair u < v,
    in row-major order, from the generator ``random_graph`` seeds."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, frozenset(edges))


def random_hypergraph(rng: random.Random, n: int, max_edges: int,
                      min_size: int = 2, max_size: int = 4):
    m = rng.randint(1, max_edges)
    edges = []
    for _ in range(m):
        size = rng.randint(min_size, min(max_size, n))
        edges.append(tuple(sorted(rng.sample(range(n), size))))
    return tuple(edges)


def random_weights(rng: random.Random, n: int, max_den: int = 8):
    return tuple(Fraction(rng.randint(1, 8), rng.randint(1, max_den)) for _ in range(n))


def base_graph_corpus() -> list[tuple[str, Graph]]:
    """Fixed family of base graphs on at most 6 vertices for gadget tests."""
    return [
        ("empty3", Graph(3)),
        ("k2", complete_graph(2)),
        ("p3", path_graph(3)),
        ("k3", complete_graph(3)),
        ("p4", path_graph(4)),
        ("paw", Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])),
        ("c4", cycle_graph(4)),
        ("k4", complete_graph(4)),
        ("star4", star_graph(4)),
        ("bull", Graph(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)])),
        ("c5", cycle_graph(5)),
        ("k23", Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])),
        ("c6", cycle_graph(6)),
        ("prism", Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                            (0, 3), (1, 4), (2, 5)])),
        ("rand6", random_graph(6, 0.5, 11)),
    ]


def check_complementary_slackness(
    cover: FractionalCover,
    matching: FractionalMatching,
    hg: CopyHypergraph,
    weights,
) -> bool:
    """True iff positive cover mass forces a tight capacity and positive
    matching mass forces a tight cover constraint (exact comparisons)."""
    zero = Fraction(0)
    load: dict[int, Fraction] = {v: zero for v in hg.covered_vertices()}
    for e in hg.hyperedges:
        f = matching.values.get(e, zero)
        for v in e:
            load[v] += f
    for v, g in cover.values.items():
        if g > 0 and load.get(v, zero) != Fraction(weights[v]):
            return False
    for e in hg.hyperedges:
        f = matching.values.get(e, zero)
        if f > 0 and sum((cover.values.get(v, zero) for v in e), zero) != 1:
            return False
    return True


def check_optimal_pair(
    hg: CopyHypergraph, weights, cover: FractionalCover, matching: FractionalMatching
) -> None:
    """Reference optimality check in Fractions, per hyperedge: equal values,
    nonnegative masses, every cover constraint and every capacity.  Raises
    VerificationError with the solver's messages."""
    zero = Fraction(0)
    if cover.value != matching.value:
        raise VerificationError("cover and matching values differ")
    if cover.value != sum((g * weights[v] for v, g in cover.values.items()), zero):
        raise VerificationError("cover value is not its weighted mass")
    if matching.value != sum(matching.values.values(), zero):
        raise VerificationError("matching value is not its total mass")
    load = {v: zero for v in hg.covered_vertices()}
    for e in hg.hyperedges:
        f = matching.values[e]
        if f < 0:
            raise VerificationError("negative matching mass")
        for v in e:
            load[v] += f
        if sum((cover.values[v] for v in e), zero) < 1:
            raise VerificationError("cover constraint violated")
    for v, g in cover.values.items():
        if g < 0:
            raise VerificationError("negative cover mass")
        if load[v] > weights[v]:
            raise VerificationError("matching capacity violated")


def list_simplex_state(hg: CopyHypergraph, weights, bland_after: int):
    """Reference fraction-free simplex on Python lists, one adjugate row at a time.

    The pivot rule of ``lp.solve_cover_lp`` with a separate Bareiss update
    for ``adj``, ``xb`` and ``pi_int``.  Returns the final state as handed to
    ``lp._certify``, ``(cols, basis, xb, pi_int, d, wint)``, and ``peak``, the
    largest magnitude of a product ``a * p`` or ``f * b`` the updates formed
    (at or above 2**63 means int64 could not have held that pivot).
    """
    verts = list(hg.covered_vertices())
    w = {v: Fraction(weights[v]) for v in verts}
    m = len(verts)
    row_of = {v: i for i, v in enumerate(verts)}
    cols = [tuple(row_of[v] for v in e) for e in hg.hyperedges]
    nstruct = len(cols)
    scale = math.lcm(*(w[v].denominator for v in verts))
    width = max(len(c) for c in cols)
    slots = [[c[t] if t < len(c) else m for c in cols] for t in range(width)]

    adj = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    d = 1
    basis = [nstruct + i for i in range(m)]
    wint = [w[v].numerator * (scale // w[v].denominator) for v in verts]
    xb = list(wint)
    pi_int = [0] * m
    degenerate_streak = 0
    peak = 0

    while True:
        get = (pi_int + [0]).__getitem__
        key = list(map(get, slots[0]))
        for rows in slots[1:]:
            key = list(map(operator.add, key, map(get, rows)))
        key += map(d.__add__, pi_int)
        if degenerate_streak >= bland_after:
            entering = next((j for j, k in enumerate(key) if k < d), -1)
        else:
            least = min(key)
            entering = key.index(least) if least < d else -1
        if entering == -1:
            break

        rc = d - key[entering]
        rows = cols[entering] if entering < nstruct else (entering - nstruct,)
        direction = [sum(a[r] for r in rows) for a in adj]

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

        p = direction[leave]
        prow = adj[leave]
        px = xb[leave]
        big = max(max(map(abs, row)) for row in adj)
        big = max(big, max(map(abs, xb)), max(map(abs, pi_int)))
        prow_big = max(max(map(abs, prow)), abs(px))
        peak = max(peak, big * p, max(max(map(abs, direction)), abs(rc)) * prow_big)
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
        pi_int = [(a * p + rc * b) // d for a, b in zip(pi_int, prow)]
        d = p
        basis[leave] = entering

    return (cols, basis, xb, pi_int, d, wint), peak


def scanning_embeddings(
    g: Graph,
    h: Graph,
    *,
    root=None,
    root_image=None,
    allowed=None,
    pairs=(),
    start: int = 0,
):
    """Reference matcher: draws every candidate from the anchor image's
    neighbour tuple and closes each cycle by ``in`` on the sorted
    neighbour tuples of the other placed neighbours, one candidate at a
    time.  Same plan, arguments and yield order as ``embeddings``."""
    if h.n == 0 or h.n > g.n:
        return
    if (root is None) != (root_image is None):
        raise ValueError("root and root_image must be given together")
    if pairs and root is not None:
        raise ValueError("ordering pairs cannot be combined with a pinned root")
    if start < 0:
        raise ValueError("start must be nonnegative")
    if start and root is not None:
        raise ValueError("start cannot be combined with a pinned root")
    g_adj = g.adjacency
    _, where, steps, _ = _plan(h, root, pairs)
    first = [root_image] if root_image is not None else range(start, g.n)  # position 0's candidates
    image = [-1] * h.n  # indexed by match position
    used: set[int] = set()

    def extend(idx: int):
        if idx == h.n:
            yield tuple([image[p] for p in where])
            return
        anchor, check, deg, above, below = steps[idx]
        base = g_adj[image[anchor]] if idx else first
        if above or below:  # candidates ascend, so the bounds cut a slice
            lo = max((image[p] for p in above), default=-1)
            hi = min((image[p] for p in below), default=g.n)
            base = base[bisect_right(base, lo) : bisect_left(base, hi)]
        for c in base:
            if c in used:
                continue
            if allowed is not None and c not in allowed:
                continue
            if len(g_adj[c]) < deg:
                continue
            if check and any(image[p] not in g_adj[c] for p in check):
                continue
            image[idx] = c
            used.add(c)
            yield from extend(idx + 1)
            used.discard(c)
        image[idx] = -1

    try:
        yield from extend(0)
    finally:
        del extend  # it refers to itself: break the cycle so the search state is freed now


def rooted_everywhere_cover(g: WeightedGraph, h: Pattern, trace: DecompositionTrace):
    """Reference colouring and cover of the improved route after ``trace``.

    Runs one rooted search at every positive vertex, with no prefilter by
    the residual copies, then colours the conflict digraph and runs the
    colour-guided cover on the copies within the positive vertices.
    Returns the positive vertices, the colouring, the sorted conflict arcs
    and the cover run.
    """
    d = classify_pattern(h).decomposition
    positive = frozenset(v for v in range(g.n) if trace.final_weights[v] > 0)
    arcs: set[tuple[int, int]] = set()
    for u in sorted(positive):
        emb = find_rooted_copy(g.graph, h.graph, d.root, u, allowed=positive)
        if emb is not None:
            arcs.update((u, w) for w in emb if w != u)
    coloring = Coloring(color_digraph(g.n, arcs, h.k - 1), 2 * h.k)
    residual = tuple(e for e in enumerate_copies(g.graph, h) if positive.issuperset(e))
    run = cover_colored_hypergraph(residual, trace.final_weights, coloring, h.k)
    return tuple(sorted(positive)), coloring, tuple(sorted(arcs)), run
