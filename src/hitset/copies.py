"""Enumeration of pattern copies: embeddings, vertex sets, rooted copies.

Copies are subgraph embeddings (not necessarily induced).  An embedding
is a tuple whose entry i is the host image of pattern vertex i.
Backtracking matches pattern vertices in a connectivity-respecting order
with candidate images tried in ascending id, so enumeration order is
deterministic.  That order and its checks are prepared once per
(pattern, root, pairs) and compiled, once, into a generator function
with one nested ``for`` loop per pattern vertex, so each search does
only host work and pays no generator frame per matched vertex.  A
vertex with one placed neighbour takes its candidates from that
neighbour's sorted tuple (``Graph.adjacency``); one with several, which
closes a cycle, takes the sorted intersection of their neighbour sets
(``Graph.neighbor_sets``), so only common neighbours are tried.  Images
stay distinct by ``!=`` tests against the placed vertices that are
neither adjacent to the candidate's nor ordered against it by the pairs.
The generated source holds only names and the plan's integers.  Full
enumeration is symmetry-broken: ordering constraints on the images
(Grochow & Kellis, RECOMB 2007) admit one embedding per subgraph copy
instead of one per automorphism of the pattern.  Distinct copies are
deduplicated by vertex set: copies on the same vertices are hit by the
same vertices, so one hyperedge per set suffices.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Set
from dataclasses import dataclass, field

from .errors import BudgetExceededError
from .graphs import CopyHypergraph, Graph, Pattern, WeightedGraph

DEFAULT_MAX_COPIES = 10**6


@dataclass
class EnumerationBudget:
    """Caps the units of work (distinct copies, subtraction steps) a run may charge."""

    max_copies: int = DEFAULT_MAX_COPIES
    used: int = field(default=0, init=False, repr=False)

    def charge(self, phase: str) -> None:
        """Account for one more unit; raise, naming ``phase``, once the cap is hit."""
        if self.used >= self.max_copies:
            raise BudgetExceededError(f"{phase} exceeded the budget of {self.max_copies}")
        self.used += 1


@functools.cache
def _plan(
    h: Graph, root: int | None, pairs: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple, ...], tuple[Callable, Callable]]:
    """Match plan of ``h``: the match order, the position of each pattern
    vertex in it, per position ``(anchor, checks, degree, above, below)``,
    and the plan compiled into its two searches (``_compile``).

    Root (or max-degree vertex) first, then most-anchored-first.  Candidates
    are the host neighbours of the image at the ``anchor`` position and must
    be adjacent to the images at the ``checks`` positions.  A pair is enforced
    when its later-matched vertex is placed: its image must exceed the images
    at the ``above`` positions and undercut the ``below`` ones.  A bound is
    dropped when a pair puts it inside another bound of the same side (K1,7's
    last leaf keeps only the leaf before it).  No transitive closure is taken:
    ``symmetry_pairs`` output is closed already, so for it every kept bound
    binds; other pairs may keep a bound that a chain of them implies, which
    costs a redundant test.  Cached per (pattern, root, pairs), so each
    search is prepared once per process.
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
    less = {(pos[a], pos[b]) for a, b in pairs if a != b}  # p's image < q's; (v, v) binds nothing
    steps, clash = [], []
    for idx, hv in enumerate(pos):
        prior = sorted(pos[x] for x in adj[hv] if pos[x] < idx)
        above = {p for p in range(idx) if (p, idx) in less}
        below = {p for p in range(idx) if (idx, p) in less}
        # a bound below (above) another bound of the same side is implied by it
        steps.append((
            prior[0] if prior else -1,
            tuple(prior[1:]),  # the anchor is adjacent by construction
            len(adj[hv]),
            tuple(sorted(p for p in above if not any((p, q) in less for q in above))),
            tuple(sorted(p for p in below if not any((q, p) in less for q in below))),
        ))
        # an image adjacent to, or ordered against, this one differs from it already
        clash.append([p for p in range(idx) if p not in prior and p not in above | below])
    where = tuple(pos[v] for v in range(h.n))
    return tuple(pos), where, tuple(steps), _compile(steps, where, clash)


_SEGMENT = 16  # match positions per generated function: CPython nests at most 20 blocks


def _compile(
    steps: list[tuple], where: tuple[int, ...], clash: list[list[int]]
) -> tuple[Callable, Callable]:
    """The plan as two generator functions ``search(adj, sets, allowed, first)``
    with one nested ``for`` per match position; the second tests ``allowed``.

    Position i binds its image to ``c{i}``, its neighbour tuple to ``n{i}``
    when a later position is anchored there, and a cycle-closing position's
    sorted common neighbours to ``b{i}``.  Pair bounds cut one ``bisect``
    slice, and a degree floor is tested only where adjacency does not
    already imply it.  Distinctness is tested by ``!=`` against the
    ``clash`` positions only: a host has no self-loops, so a neighbour of
    an image differs from it.  A plan longer than ``_SEGMENT`` continues in
    a next function, passed by default argument.  The source holds only
    names and integers from the plan, never host data.
    """
    k = len(steps)
    anchors = {step[0] for step in steps}

    def placed(m: int) -> list[str]:  # the names bound before position m
        return [f"c{p}" for p in range(m)] + [f"n{p}" for p in sorted(anchors) if 0 <= p < m]

    lines: list[str] = []
    names: list[str] = []
    for variant, restricted in enumerate((False, True)):
        for seg in reversed(range(0, k, _SEGMENT)):
            names.append(f"search{variant}_{seg}")
            params = ["adj", "sets", "allowed", *(placed(seg) or ["first"])]
            if seg + _SEGMENT < k:
                params.append(f"following=search{variant}_{seg + _SEGMENT}")
            lines.append(f"def {names[-1]}({', '.join(params)}):")
            ind = "    "
            for idx in range(seg, min(seg + _SEGMENT, k)):
                anchor, checks, deg, above, below = steps[idx]
                if not idx:
                    base = "first"
                elif checks:  # the common neighbours of every placed neighbour, ascending
                    others = ", ".join(f"sets[c{p}]" for p in (anchor, *checks[1:]))
                    lines.append(f"{ind}b{idx} = sorted(sets[c{checks[0]}].intersection({others}))")
                    base = f"b{idx}"
                else:
                    base = f"n{anchor}"
                if above or below:  # candidates ascend, so the bounds cut a slice
                    lo = ", ".join(f"c{p}" for p in above)
                    hi = ", ".join(f"c{p}" for p in below)
                    lo = f"bisect_right({base}, {lo if len(above) == 1 else f'max({lo})'})"
                    hi = f"bisect_left({base}, {hi if len(below) == 1 else f'min({hi})'})"
                    base = f"{base}[{lo if above else ''}:{hi if below else ''}]"
                lines.append(f"{ind}for c{idx} in {base}:")
                ind += "    "
                tests = [f"c{idx} == c{p}" for p in clash[idx]]
                if restricted:
                    tests.append(f"c{idx} not in allowed")
                bind = idx in anchors
                if deg > (1 + len(checks) if idx else 0):  # more than its adjacencies imply
                    tests.append(f"len({f'n{idx} := ' if bind else ''}adj[c{idx}]) < {deg}")
                    bind = False
                if tests:
                    lines.append(f"{ind}if {' or '.join(tests)}:")
                    lines.append(f"{ind}    continue")
                if bind:
                    lines.append(f"{ind}n{idx} = adj[c{idx}]")
            if seg + _SEGMENT < k:
                handed = ", ".join(placed(seg + _SEGMENT))
                lines.append(f"{ind}yield from following(adj, sets, allowed, {handed})")
            else:
                lines.append(f"{ind}yield ({''.join(f'c{p}, ' for p in where)})")
    namespace = {"bisect_left": bisect_left, "bisect_right": bisect_right}
    exec(compile("\n".join(lines), "<match plan>", "exec"), namespace)
    found = {name: namespace.pop(name) for name in names}  # so no function reaches itself
    return found["search0_0"], found["search1_0"]


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
    The search is the plan's compiled nested loops (``_compile``), the
    variant that tests ``allowed`` only when it is given.  A position
    with checks draws its candidates from one sorted set intersection,
    the order that filtering the anchor's neighbours gives.
    ``root``/``root_image`` pin one pattern vertex to one host vertex; a
    ``root_image`` outside the host has no embedding, and a ``root``
    outside the pattern raises ``ValueError``.  ``allowed`` restricts all
    images.  Each ``(a, b)`` in ``pairs`` requires image[a] < image[b];
    with ``symmetry_pairs(h)`` exactly one embedding per subgraph copy is
    yielded.  A pair ``(v, v)``, which no embedding can meet, raises
    ``ValueError``.  ``start`` is a lower bound on the image of the vertex
    matched first, so a search can resume where an earlier one found its
    first embedding.
    """
    if (root is None) != (root_image is None):
        raise ValueError("root and root_image must be given together")
    if pairs and root is not None:
        raise ValueError("ordering pairs cannot be combined with a pinned root")
    if start < 0:
        raise ValueError("start must be nonnegative")
    if start and root is not None:
        raise ValueError("start cannot be combined with a pinned root")
    if pairs and any(a == b for a, b in pairs):  # most searches pass no pairs
        raise ValueError("an ordering pair (v, v) can never hold")
    if h.n == 0 and root is None and not pairs:
        return  # the plan rejects any root or pair vertex of the empty pattern
    _, _, steps, searches = _plan(h, root, pairs)
    if h.n > g.n or (root_image is not None and not 0 <= root_image < g.n):
        return  # checked after the plan, so a bad root raises whatever the host
    # only a pattern with a cycle has checks, so trees never build the sets
    g_sets = g.neighbor_sets if any(step[1] for step in steps) else ()
    first = [root_image] if root_image is not None else range(start, g.n)  # position 0's candidates
    yield from searches[allowed is not None](g.adjacency, g_sets, allowed, first)


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

    That is ``CopyHypergraph``'s canonical form, which ``_canonical`` trusts
    without sorting again.  Each new vertex set is charged to the budget,
    which raises ``BudgetExceededError`` once it runs out.
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
    return CopyHypergraph._canonical(g.n, enumerate_copies(g.graph, h, budget))
