"""Seeded corpora for the three benchmark workloads.

Hosts come from ``hitset.generators.random_graph``, and every host is
typical: host seeds are drawn by rejection until the host has exactly
m = round(p * C(n, 2)) edges and each statistic its group names near its
expectation in G(n, m): the wedge count (sum of C(deg, 2), the number
of paths on three vertices) within 2%, the triangle count within 10%,
and each within at least 1.  Copy counts, and with them solve times,
then depend far less on the seed: on sparse-trees this halves the
seed-to-seed spread of the summed squared copy counts.  The rejection
screens candidates with a vectorized draw of the same numbers
``random_graph`` draws, and runs before set-up is timed; set-up then
generates each accepted host once with ``random_graph`` itself.  Every
instance is serialized to the text format; the timed operations see
only that text.  The benchmark keeps its own copy of the edges and
weights so its output checks never depend on the program's parser.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cache
from math import comb

import numpy as np

from hitset.generators import random_graph
from hitset.graphs import Graph, WeightedGraph, serialize_graph, unit_weights

PATTERNS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "P3": (3, ((0, 1), (1, 2))),
    "P4": (4, ((0, 1), (1, 2), (2, 3))),
    "K1,3": (4, ((0, 1), (0, 2), (0, 3))),
    "paw": (4, ((0, 1), (0, 2), (1, 2), (2, 3))),
    "K3": (3, ((0, 1), (0, 2), (1, 2))),
    "C4": (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "K1,5": (6, tuple((0, i) for i in range(1, 6))),
    "K1,6": (7, tuple((0, i) for i in range(1, 7))),
    "K1,7": (8, tuple((0, i) for i in range(1, 8))),
}


@dataclass(frozen=True)
class Group:
    """``count`` instances of one pattern on seeded G(n, p) hosts.

    Groups naming the same ``host`` solve on the same host graphs.
    """

    pattern: str
    n: int
    p: float
    count: int
    weights: str = "unit"  # "unit", or "int": integers 1..9 drawn from the seed
    typical: tuple[str, ...] = ("wedges",)  # statistics held near their mean, with m exact
    host: str = ""


@dataclass(frozen=True)
class Workload:
    """One corpus recipe; its one-line reason is in BENCHMARK.json."""

    name: str
    groups: tuple[Group, ...]
    passes: int = 1  # executions per instance the metrics take, the same on every commit
    exact: bool = False  # also time the exact oracle on every instance
    lp_check: bool = False  # check lower_bound against HiGHS tau*


@dataclass(frozen=True)
class Case:
    id: str
    pattern: str
    host_text: str
    pattern_text: str
    edges: tuple[tuple[int, int], ...]
    weights: tuple[int, ...]


def _trees() -> tuple[Group, ...]:
    return tuple(
        Group(pat, 20, 4 / 20, 4, weights)
        for pat in ("P3", "P4", "K1,3")
        for weights in ("unit", "int")
    )


LARGE = ("wedges", "triangles")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse-trees",
            _trees(),
            passes=6,
            lp_check=True,
        ),
        Workload(
            "large-sparse",
            (
                # every paw solve has a host of its own: paw times vary by
                # about a quarter from host to host, more than any statistic
                # held typical explains, so independent hosts average it out
                Group("paw", 640, 4 / 640, 2, "unit", LARGE),
                Group("paw", 640, 4 / 640, 2, "int", LARGE),
                Group("K3", 640, 4 / 640, 1, typical=LARGE, host="B"),
                Group("C4", 640, 4 / 640, 1, typical=LARGE, host="B"),
            ),
            passes=4,
        ),
        Workload(
            "small-dense",
            (
                Group("K1,5", 14, 0.3, 50),
                Group("K1,6", 13, 0.35, 30),
                Group("K1,7", 12, 0.3, 20),
            ),
            passes=2,
            exact=True,
        ),
    )
}


def _stream(seed: int, key: str, *more: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, zlib.crc32(key.encode()), *more])


@cache
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, 1)


def _draw_edges(n: int, p: float, host_seed: int, m: int):
    """The edges ``random_graph(n, p, host_seed)`` makes, from one vectorized draw,
    or None if they are not exactly ``m``.

    ``random_graph`` draws one uniform per pair u < v, in row-major order,
    from PCG64 seeded by ``SeedSequence(host_seed)``; drawing them all at
    once gives the same numbers without its pure Python loop.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(host_seed)))
    keep = rng.random(comb(n, 2)) < p
    if np.count_nonzero(keep) != m:
        return None
    u, v = _pairs(n)
    return u[keep], v[keep]


def _wedges(n: int, u: np.ndarray, v: np.ndarray) -> int:
    degree = np.bincount(np.concatenate([u, v]), minlength=n)
    return int((degree * (degree - 1) // 2).sum())


def _triangles(n: int, u: np.ndarray, v: np.ndarray) -> int:
    adj: list[set[int]] = [set() for _ in range(n)]
    pairs = list(zip(u.tolist(), v.tolist()))
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    return sum(len(adj[a] & adj[b]) for a, b in pairs) // 3


def _expected_wedges(n: int, m: int) -> float:
    """Mean of sum C(deg, 2) over G(n, m); each degree is hypergeometric."""
    pairs, incident = comb(n, 2), n - 1
    mean = m * incident / pairs
    var = mean * (1 - incident / pairs) * (pairs - m) / (pairs - 1)
    return n * (var + mean * mean - mean) / 2


def _expected_triangles(n: int, m: int) -> float:
    """Mean triangle count of G(n, m): each vertex triple needs 3 given edges."""
    pairs = comb(n, 2)
    return comb(n, 3) * m * (m - 1) * (m - 2) / (pairs * (pairs - 1) * (pairs - 2))


# statistic: (count on edge arrays, mean in G(n, m), relative tolerance)
STATISTICS = {
    "wedges": (_wedges, _expected_wedges, 0.02),
    "triangles": (_triangles, _expected_triangles, 0.10),
}


def _edge_count(group: Group) -> int:
    return round(group.p * comb(group.n, 2))


def _is_typical(group: Group, u: np.ndarray, v: np.ndarray) -> bool:
    m = _edge_count(group)
    if len(u) != m:
        return False
    for stat in group.typical:
        count, expected, tolerance = STATISTICS[stat]
        mean = expected(group.n, m)
        if abs(count(group.n, u, v) - mean) > max(1.0, tolerance * mean):
            return False
    return True


def _host_seed(seed: int, key: str, index: int, group: Group) -> int:
    """Seed of one host: the first typical draw of its stream."""
    for attempt in range(100_000):
        host_seed = int(_stream(seed, key, index, attempt).generate_state(1)[0])
        edges = _draw_edges(group.n, group.p, host_seed, _edge_count(group))
        if edges is not None and _is_typical(group, *edges):
            return host_seed
    raise RuntimeError(f"no typical G({group.n}, {group.p}) host")


def _host_key(gi: int, group: Group) -> str:
    return group.host or f"{gi}:{group.pattern}:{group.weights}"


def host_seeds(workload: Workload, seed: int) -> dict[str, int]:
    """The ``random_graph`` seed of every host of the corpus, keyed "<host>/<index>"."""
    seeds = {}
    for gi, group in enumerate(workload.groups):
        key = _host_key(gi, group)
        for i in range(group.count):
            if f"{key}/{i}" not in seeds:
                seeds[f"{key}/{i}"] = _host_seed(seed, key, i, group)
    return seeds


def pattern_text(name: str) -> str:
    n, edges = PATTERNS[name]
    return serialize_graph(unit_weights(Graph(n, frozenset(edges))))


def build_corpus(workload: Workload, seed: int, seeds: dict[str, int]) -> list[Case]:
    """All instances of a workload, on the hosts ``host_seeds`` chose, in a fixed order."""
    hosts: dict[str, Graph] = {}
    cases = []
    for gi, group in enumerate(workload.groups):
        key = _host_key(gi, group)
        for i in range(group.count):
            if f"{key}/{i}" not in hosts:
                g = random_graph(group.n, group.p, seeds[f"{key}/{i}"])
                edges = np.array(g.sorted_edges(), dtype=np.int64).reshape(-1, 2)
                if not _is_typical(group, edges[:, 0], edges[:, 1]):
                    raise RuntimeError("random_graph no longer draws the edges _draw_edges predicts")
                hosts[f"{key}/{i}"] = g
            g = hosts[f"{key}/{i}"]
            if group.weights == "int":
                rng = np.random.default_rng(_stream(seed, f"weights:{gi}", i))
                weights = tuple(int(x) for x in rng.integers(1, 10, g.n))
            else:
                weights = (1,) * g.n
            cases.append(
                Case(
                    id=f"{group.pattern}/{group.weights}/{i}",
                    pattern=group.pattern,
                    host_text=serialize_graph(WeightedGraph(g, weights)),
                    pattern_text=pattern_text(group.pattern),
                    edges=tuple(g.sorted_edges()),
                    weights=weights,
                )
            )
    return cases
