"""Choosability: the search for a bad list assignment.

list_chromatic_at_least finds a bad list assignment by one iterative search
over int bitmasks (bit c stands for colour c), in the order of
oracles.canonical_list_assignments.  It skips only subtrees whose every
assignment has a colouring, so the first refuted assignment stays the
first in that order: at the last vertex, the lists not inside the colours
its neighbours get in every colouring of the prefix; below an inner prefix,
all lists once some colouring of it leaves first-fit room everywhere after.
Its brute-force reference lives in oracles.py.  The exact colouring
questions, is_colourable and list_colour, are solver.py's.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .graphs import Graph, induced_subgraph
from .solver import ListAssignment
# perfbench/tracer.py binds coloring.is_colourable, list_colour and
# greedy_list_colour by name, so they stay here until its next revision.
from .solver import is_colourable, list_colour  # noqa: F401

CHOOSABILITY_CAP = 8


def greedy_list_colour(g: Graph, lists: ListAssignment) -> dict[int, int] | None:
    """First-fit in id order: success certifies colourability, failure says nothing."""
    colour: dict[int, int] = {}
    for v in g.sorted_vertices():
        blocked = {colour[u] for u in g.adj[v] if u in colour}
        for c in sorted(lists[v]):
            if c not in blocked:
                colour[v] = c
                break
        else:
            return None
    return colour


def list_chromatic_at_least(g: Graph, t: int) -> tuple[bool, dict[int, frozenset[int]] | None]:
    """Decide chi_ell(g) >= t; on success also return a witness assignment
    of (t-1)-element lists admitting no proper list colouring.

    t = 1 and t = 2 have closed forms; for t >= 3 the graph must have at
    most CHOOSABILITY_CAP vertices and the search enumerates list
    assignments up to colour renaming, after peeling vertices whose degree
    is below the list size (they can always be coloured last, so no witness
    depends on them).
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    if t == 1:
        if g.n >= 1:
            return True, {v: frozenset() for v in g.vertices}
        return False, None
    if t == 2:
        if g.m >= 1:
            return True, {v: frozenset({0}) for v in g.vertices}
        return False, None
    if g.n > CHOOSABILITY_CAP:
        raise ValueError(f"graph has {g.n} > {CHOOSABILITY_CAP} vertices; cap exceeded for t >= 3")

    s = t - 1
    core = g
    peeled: list[int] = []
    while True:
        removable = [v for v in core.sorted_vertices() if core.degree(v) < s]
        if not removable:
            break
        peeled.extend(removable)
        core = induced_subgraph(core, core.vertices - set(removable))
    if core.n == 0:
        return False, None

    lists = _first_refuted_assignment(core, s)
    if lists is None:
        return False, None
    witness = {v: frozenset(c for c in range(m.bit_length()) if m >> c & 1)
               for v, m in zip(core.sorted_vertices(), lists)}
    for v in peeled:
        witness[v] = frozenset(range(s))
    return True, witness


@lru_cache(maxsize=256)
def _list_choices(used: int, s: int) -> tuple[tuple[int, int], ...]:
    """The next vertex's lists once colours 0..used-1 have appeared, in
    enumeration order: j old colours for j from min(s, used) down to 0, old
    subsets in combinations order, then s - j fresh colours.  Each entry is
    (list mask, colours used afterwards)."""
    return tuple((sum(1 << c for c in old) | ((1 << (s - j)) - 1) << used, used + s - j)
                 for j in range(min(s, used), -1, -1) for old in combinations(range(used), j))


def _colourings(lists: list[int], earlier: list[list[int]], size: int, jump: int) -> Iterator[list[int]]:
    """The proper colourings of positions 0..size-1 from the bitmask lists,
    by exact search in position order, each as the chosen colour bits (one
    list, reused).  After each the search resumes at position jump, so of
    the colourings that agree on positions 0..jump only the first is seen."""
    chosen = [0] * size
    untried = [lists[0]] + [0] * (size - 1)
    d = 0
    while d >= 0:
        free = untried[d]
        if not free:
            d -= 1
            continue
        chosen[d] = bit = free & -free
        untried[d] = free ^ bit
        d += 1
        if d == size:
            yield chosen
            d = jump
            continue
        blocked = 0  # _colours_on inline: this is the hot loop
        for u in earlier[d]:
            blocked |= chosen[u]
        untried[d] = lists[d] & ~blocked


def _colours_on(chosen: list[int], positions: list[int]) -> int:
    """The colour bits chosen at the positions, as one mask."""
    bits = 0
    for u in positions:
        bits |= chosen[u]
    return bits


def _first_refuted_assignment(g: Graph, s: int) -> list[int] | None:
    """The first canonical s-list assignment (bitmasks in id order) that g
    cannot be coloured from, or None when g is s-choosable.  Two cuts skip
    only assignments that have a colouring, so the answer is unchanged.

    (a) At the last position a list is refuted exactly when every colouring
    of the fixed prefix puts all its colours on the last vertex's
    neighbours, that is when it lies inside `meet`, the AND of those colours
    over the prefix colourings (all ones when there is none).  The pass
    stops once meet has fewer than s colours.  Colourings that agree up to
    the deepest neighbour put the same colours there: one stands for all.

    (b) Below inner position d, a later q has room s minus its earlier
    neighbours after d.  If some colouring of 0..d puts fewer colours than
    its room on the prefix neighbours of every q, first-fit in position
    order colours each q from any s-list, so nothing below is refuted.
    Colourings that agree up to jumps[d], the deepest prefix neighbour,
    block the same colours.  checks[d] holds (prefix neighbours, room) for
    the q with prefix neighbours, or None when some q has room 0, or room 1
    and a prefix neighbour, and the test cannot pass.  Position last - 1 is
    left to (a), which stops no later.
    """
    order = g.sorted_vertices()
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[pos[u] for u in g.adj[v] if pos[u] < i] for i, v in enumerate(order)]
    n = len(order)
    last = n - 1
    checks: list[list[tuple[list[int], int]] | None] = [None] * n
    jumps = [0] * n
    for d in range(last - 1):
        later = [([u for u in earlier[q] if u <= d], s - sum(u > d for u in earlier[q]))
                 for q in range(d + 1, n)]
        if all(room > bool(nbrs) for nbrs, room in later):
            checks[d] = [(nbrs, room) for nbrs, room in later if nbrs]
            jumps[d] = max((u for nbrs, _ in checks[d] for u in nbrs), default=0)

    lists, nxt = [0] * n, [0] * n
    options = [_list_choices(0, s)] + [()] * last
    d = 0
    while d >= 0:
        if d == last:
            meet = -1
            for chosen in _colourings(lists, earlier, last, max(earlier[last])):
                meet &= _colours_on(chosen, earlier[last])
                if meet.bit_count() < s:
                    break
            else:
                for mask, _ in options[last]:
                    if not mask & ~meet:
                        lists[last] = mask
                        return lists
            d -= 1
        elif nxt[d] == len(options[d]):
            d -= 1
        else:
            mask, used = options[d][nxt[d]]
            nxt[d] += 1
            lists[d] = mask
            if checks[d] is None or not any(
                    all(_colours_on(chosen, nbrs).bit_count() < room for nbrs, room in checks[d])
                    for chosen in _colourings(lists, earlier, d + 1, jumps[d])):
                d += 1
                options[d] = _list_choices(used, s)
                nxt[d] = 0
    return None
