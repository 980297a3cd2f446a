"""Enumeration of pattern copies: embeddings, vertex sets, rooted copies.

Copies are subgraph embeddings (not necessarily induced).  An embedding
is a tuple whose entry i is the host image of pattern vertex i.
Backtracking matches pattern vertices in a connectivity-respecting order
with candidate images tried in ascending id, so enumeration order is
deterministic.  Full enumeration is symmetry-broken: ordering constraints
on the images (Grochow & Kellis, RECOMB 2007) admit one embedding per
subgraph copy instead of one per automorphism of the pattern.  Distinct
copies are deduplicated by vertex set: copies on the same vertices are
hit by the same vertices, so one hyperedge per set suffices.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator

from .errors import BudgetExceededError
from .graphs import CopyHypergraph, Graph, Pattern, WeightedGraph

DEFAULT_MAX_COPIES = 10**6


@dataclass
class EnumerationBudget:
    """Caps the units of work (distinct copies, subtraction steps) a run may charge."""

    max_copies: int = DEFAULT_MAX_COPIES
    used: int = field(default=0, repr=False)

    def charge(self, phase: str) -> None:
        """Account for one more unit; raise, naming ``phase``, once the cap is hit."""
        if self.used >= self.max_copies:
            raise BudgetExceededError(f"{phase} exceeded the budget of {self.max_copies}")
        self.used += 1


def _match_order(h: Graph, root: int | None) -> list[int]:
    """Root (or max-degree vertex) first, then most-anchored-first."""
    adj = h.adjacency
    start = root if root is not None else max(range(h.n), key=lambda v: (len(adj[v]), -v))
    order = [start]
    placed = {start}
    while len(order) < h.n:
        best = None
        for u in range(h.n):
            if u in placed:
                continue
            anchors = sum(1 for x in adj[u] if x in placed)
            if anchors == 0:
                continue
            key = (anchors, len(adj[u]), -u)
            if best is None or key > best[0]:
                best = (key, u)
        if best is None:
            raise ValueError("pattern graph must be connected")
        order.append(best[1])
        placed.add(best[1])
    return order


def embeddings(
    g: Graph,
    h: Graph,
    *,
    root: int | None = None,
    root_image: int | None = None,
    allowed: frozenset[int] | None = None,
    pairs: tuple[tuple[int, int], ...] = (),
) -> Iterator[tuple[int, ...]]:
    """Yield embeddings of ``h`` into ``g`` in deterministic order.

    ``root``/``root_image`` pin one pattern vertex to one host vertex.
    ``allowed`` restricts all images.  Each ``(a, b)`` in ``pairs``
    requires image[a] < image[b]; with ``symmetry_pairs(h)`` exactly one
    embedding per subgraph copy is yielded.
    """
    if h.n == 0 or h.n > g.n:
        return
    if (root is None) != (root_image is None):
        raise ValueError("root and root_image must be given together")
    if pairs and root is not None:
        raise ValueError("ordering pairs cannot be combined with a pinned root")
    g_adj = g.adjacency
    h_adj = h.adjacency
    order = _match_order(h, root)
    pos_of = {hv: i for i, hv in enumerate(order)}
    anchors: list[int] = []
    checks: list[tuple[int, ...]] = []
    # a pair is enforced when its later-matched vertex is placed: its image must
    # exceed the images at the ``above`` positions and undercut the ``below`` ones
    above: list[list[int]] = []
    below: list[list[int]] = []
    for idx, hv in enumerate(order):
        prior = sorted(pos_of[x] for x in h_adj[hv] if pos_of[x] < idx)
        anchors.append(prior[0] if prior else -1)
        checks.append(tuple(prior[1:]))  # the anchor is adjacent by construction
        above.append([pos_of[a] for a, b in pairs if b == hv and pos_of[a] < idx])
        below.append([pos_of[b] for a, b in pairs if a == hv and pos_of[b] < idx])

    image = [-1] * h.n
    used: set[int] = set()

    def extend(idx: int) -> Iterator[tuple[int, ...]]:
        if idx == h.n:
            mapping = [0] * h.n
            for pos, hv in enumerate(order):
                mapping[hv] = image[pos]
            yield tuple(mapping)
            return
        hv = order[idx]
        if idx == 0:
            base = [root_image] if root_image is not None else range(g.n)
        else:
            base = g_adj[image[anchors[idx]]]
        if above[idx] or below[idx]:  # candidates ascend, so the bounds cut a slice
            lo = max((image[p] for p in above[idx]), default=-1)
            hi = min((image[p] for p in below[idx]), default=g.n)
            base = base[bisect_right(base, lo) : bisect_left(base, hi)]
        deg, check = len(h_adj[hv]), checks[idx]
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


@functools.cache
def symmetry_pairs(h: Graph) -> tuple[tuple[int, int], ...]:
    """Ordering pairs ``(a, b)``, image[a] < image[b], that break Aut(``h``).

    Walks a stabiliser chain of the automorphism group (the self-embeddings
    of ``h``): take the first vertex in match order whose orbit is
    nontrivial, require its image to be the least on the orbit, fix it,
    and repeat until the group is trivial.  Every embedding of ``h`` then
    has exactly one automorphic image that satisfies all pairs.  Cached by
    value, so each distinct pattern is analysed once per process.
    """
    group = list(embeddings(h, h))
    pairs: list[tuple[int, int]] = []
    for v in _match_order(h, None):
        orbit = sorted({aut[v] for aut in group})
        if len(orbit) > 1:
            pairs.extend((v, u) for u in orbit if u != v)
            group = [aut for aut in group if aut[v] == v]
    return tuple(pairs)


def enumerate_copies(
    g: Graph, h: Pattern, budget: EnumerationBudget | None = None
) -> list[tuple[int, ...]]:
    """Distinct copy vertex sets, each a sorted tuple, sorted lexicographically.

    Each new vertex set is charged to the budget, which raises
    ``BudgetExceededError`` once it runs out.
    """
    if budget is None:
        budget = EnumerationBudget()
    seen: set[tuple[int, ...]] = set()
    for emb in embeddings(g, h.graph, pairs=symmetry_pairs(h.graph)):
        key = tuple(sorted(emb))
        if key not in seen:
            budget.charge("copy enumeration")
            seen.add(key)
    return sorted(seen)


def find_rooted_copy(
    g: Graph,
    f: Graph,
    f_root: int,
    at: int,
    allowed: frozenset[int] | None = None,
) -> tuple[int, ...] | None:
    """First embedding of ``f`` mapping its root to ``at``, images in ``allowed``."""
    if not 0 <= at < g.n:
        return None
    return next(embeddings(g, f, root=f_root, root_image=at, allowed=allowed), None)


def build_copy_hypergraph(
    g: WeightedGraph, h: Pattern, budget: EnumerationBudget | None = None
) -> CopyHypergraph:
    """Hypergraph whose hyperedges are the distinct copy vertex sets."""
    return CopyHypergraph(g.n, tuple(enumerate_copies(g.graph, h, budget)))
