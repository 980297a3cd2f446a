"""Enumeration of pattern copies: embeddings, vertex sets, rooted copies.

Copies are subgraph embeddings (not necessarily induced).  An embedding
is a tuple whose entry i is the host image of pattern vertex i.
Backtracking matches pattern vertices in a connectivity-respecting order
with candidate images tried in ascending id, so enumeration order is
deterministic.  That order and its checks are prepared once per
(pattern, root, pairs), so each search does only host work.  A vertex
with one placed neighbour takes its candidates from that neighbour's
sorted tuple (``Graph.adjacency``); one with several, which closes a
cycle, takes the sorted intersection of their neighbour sets
(``Graph.neighbor_sets``), so only common neighbours are tried.  Full
enumeration is symmetry-broken: ordering constraints on the images
(Grochow & Kellis, RECOMB 2007) admit one embedding per subgraph copy
instead of one per automorphism of the pattern.  Distinct copies are
deduplicated by vertex set: copies on the same vertices are hit by the
same vertices, so one hyperedge per set suffices.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Set
from dataclasses import dataclass, field

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


@functools.cache
def _plan(
    h: Graph, root: int | None, pairs: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple, ...]]:
    """Match plan of ``h``: the match order, the position of each pattern
    vertex in it, and per position ``(anchor, checks, degree, above, below)``.

    Root (or max-degree vertex) first, then most-anchored-first.  Candidates
    are the host neighbours of the image at the ``anchor`` position and must
    be adjacent to the images at the ``checks`` positions.  A pair is enforced
    when its later-matched vertex is placed: its image must exceed the images
    at the ``above`` positions and undercut the ``below`` ones.  Cached per
    (pattern, root, pairs), so each search order is prepared once per process.
    Raises ``ValueError`` for a root or pair vertex outside the pattern.
    """
    named = [v for pair in pairs for v in pair] + ([] if root is None else [root])
    if any(not 0 <= v < h.n for v in named):
        raise ValueError("root and pair vertices must be vertices of the pattern")
    adj = h.adjacency
    start = root if root is not None else max(range(h.n), key=lambda v: (len(adj[v]), -v))
    pos = {start: 0}  # insertion order is match order

    def rank(u: int) -> tuple[int, int, int]:
        return sum(x in pos for x in adj[u]), len(adj[u]), -u

    while len(pos) < h.n:
        best = max((u for u in range(h.n) if u not in pos), key=rank)
        if rank(best)[0] == 0:
            raise ValueError("pattern graph must be connected")
        pos[best] = len(pos)
    steps = []
    for idx, hv in enumerate(pos):
        prior = sorted(pos[x] for x in adj[hv] if pos[x] < idx)
        anchor = prior[0] if prior else -1
        checks = tuple(prior[1:])  # the anchor is adjacent by construction
        above = tuple(pos[a] for a, b in pairs if b == hv and pos[a] < idx)
        below = tuple(pos[b] for a, b in pairs if a == hv and pos[b] < idx)
        steps.append((anchor, checks, len(adj[hv]), above, below))
    return tuple(pos), tuple(pos[v] for v in range(h.n)), tuple(steps)


def embeddings(
    g: Graph,
    h: Graph,
    *,
    root: int | None = None,
    root_image: int | None = None,
    allowed: Set[int] | None = None,
    pairs: tuple[tuple[int, int], ...] = (),
    start: int = 0,
) -> Iterator[tuple[int, ...]]:
    """Yield embeddings of ``h`` into ``g`` in deterministic order.

    The order is lexicographic in the images along the match order.
    A position with checks draws its candidates from one sorted set
    intersection, the order that filtering the anchor's neighbours gives.
    ``root``/``root_image`` pin one pattern vertex to one host vertex; a
    ``root_image`` outside the host has no embedding, and a ``root``
    outside the pattern raises ``ValueError``.  ``allowed`` restricts all
    images.  Each ``(a, b)`` in ``pairs`` requires image[a] < image[b];
    with ``symmetry_pairs(h)`` exactly one embedding per subgraph copy is
    yielded.  ``start`` is a lower bound on the image of the vertex
    matched first, so a search can resume where an earlier one found its
    first embedding.
    """
    if h.n == 0:
        return
    if (root is None) != (root_image is None):
        raise ValueError("root and root_image must be given together")
    if pairs and root is not None:
        raise ValueError("ordering pairs cannot be combined with a pinned root")
    if start < 0:
        raise ValueError("start must be nonnegative")
    if start and root is not None:
        raise ValueError("start cannot be combined with a pinned root")
    _, where, steps = _plan(h, root, pairs)
    if h.n > g.n or (root_image is not None and not 0 <= root_image < g.n):
        return  # checked after the plan, so a bad root raises whatever the host
    g_adj = g.adjacency
    # only a pattern with a cycle has checks, so trees never build the sets
    g_sets = g.neighbor_sets if any(step[1] for step in steps) else ()
    first = [root_image] if root_image is not None else range(start, g.n)  # position 0's candidates
    image = [-1] * h.n  # indexed by match position; -1 until placed

    def extend(idx: int) -> Iterator[tuple[int, ...]]:
        if idx == h.n:
            yield tuple([image[p] for p in where])
            return
        anchor, check, deg, above, below = steps[idx]
        if not idx:
            base = first
        elif check:  # the common neighbours of every placed neighbour, ascending
            base = sorted(
                g_sets[image[check[0]]].intersection(
                    g_sets[image[anchor]], *[g_sets[image[p]] for p in check[1:]]
                )
            )
        else:
            base = g_adj[image[anchor]]
        if base and (above or below):  # candidates ascend, so the bounds cut a slice
            lo = max((image[p] for p in above), default=-1)
            hi = min((image[p] for p in below), default=g.n)
            base = base[bisect_right(base, lo) : bisect_left(base, hi)]
        for c in base:
            if c in image:
                continue
            if allowed is not None and c not in allowed:
                continue
            if len(g_adj[c]) < deg:
                continue
            image[idx] = c
            yield from extend(idx + 1)
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
    for v in _plan(h, None, ())[0]:
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
    """First embedding of ``f`` mapping its root to ``at``, images in ``allowed``.

    None when there is no such embedding, also when ``at`` is not a host
    vertex.
    """
    return next(embeddings(g, f, root=f_root, root_image=at, allowed=allowed), None)


def build_copy_hypergraph(
    g: WeightedGraph, h: Pattern, budget: EnumerationBudget | None = None
) -> CopyHypergraph:
    """Hypergraph whose hyperedges are the distinct copy vertex sets."""
    return CopyHypergraph(g.n, tuple(enumerate_copies(g.graph, h, budget)))
