"""Exact colourability and choosability oracles.

is_colourable is a DSATUR-style decision search and list_colour plain
backtracking in a static order, both on an explicit stack (no Python
recursion, so long paths and cycles do not overflow) and both separate code
paths from the template extension solver so the two can cross-check each
other.

list_chromatic_at_least finds a bad list assignment by one iterative search
over int bitmasks (bit c stands for colour c).  It walks the assignments up
to colour renaming in the order of oracles.canonical_list_assignments,
keeps a first-fit colour per prefix, so a changed list costs one first-fit
step, and runs an exact bitmask search only where first-fit fails.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Mapping

from .graphs import Graph, induced_subgraph

ListAssignment = Mapping[int, frozenset[int]]

CHOOSABILITY_CAP = 8


def is_colourable(g: Graph, t: int) -> dict[int, int] | None:
    """A proper t-colouring of g, or None when none exists.  Exact.

    Search: DSATUR vertex selection (max saturation, then max degree, then
    min id) with the usual new-colour cap, which is sound because colour
    classes of a bare colouring are interchangeable.
    """
    if t < 0:
        raise ValueError("colour count must be nonnegative")
    if g.n == 0:
        return {}
    if t == 0:
        return None
    adj = g.adj
    colour: dict[int, int] = {}
    nbr_colours: dict[int, set[int]] = {v: set() for v in g.vertices}
    degrees = {v: len(adj[v]) for v in g.vertices}
    uncoloured = set(g.vertices)
    # One frame per vertex on the search path: [vertex, next colour to
    # try, colour cap, colours used before it, neighbours its colour was
    # added to].
    stack: list[list] = []
    used = 0
    while uncoloured:
        v = min(uncoloured, key=lambda u: (-len(nbr_colours[u]), -degrees[u], u))
        stack.append([v, 0, min(used + 1, t), used, []])
        while stack:
            frame = stack[-1]
            v, c, limit, used, touched = frame
            if v in colour:
                for u in touched:
                    nbr_colours[u].discard(colour[v])
                touched.clear()
                uncoloured.add(v)
                del colour[v]
            while c < limit and c in nbr_colours[v]:
                c += 1
            if c == limit:
                stack.pop()
                continue
            frame[1] = c + 1
            colour[v] = c
            uncoloured.discard(v)
            for u in adj[v]:
                if u in uncoloured and c not in nbr_colours[u]:
                    nbr_colours[u].add(c)
                    touched.append(u)
            used = max(used, c + 1)
            break
        else:
            return None
    return dict(colour)


def _check_lists(g: Graph, lists: ListAssignment) -> None:
    for v in g.vertices:
        if v not in lists:
            raise ValueError(f"vertex {v} has no colour list")
        if not lists[v]:
            raise ValueError(f"vertex {v} has an empty colour list")


def list_colour(g: Graph, lists: ListAssignment) -> dict[int, int] | None:
    """A proper colouring drawing each vertex from its own list, or None.

    Exact; static order (shortest list, then largest degree, then id) with
    simple backtracking against already-coloured neighbours.
    """
    _check_lists(g, lists)
    adj = g.adj
    order = sorted(g.vertices, key=lambda v: (len(lists[v]), -len(adj[v]), v))
    colour: dict[int, int] = {}
    # untried[i]: the colours still to try at order[i], descending so that
    # pop() yields them in ascending order.  Every frame but the top one
    # belongs to a coloured vertex.
    untried: list[list[int]] = []
    while len(colour) < len(order):
        if len(untried) == len(colour):
            v = order[len(colour)]
            blocked = {colour[u] for u in adj[v] if u in colour}
            untried.append([c for c in sorted(lists[v], reverse=True) if c not in blocked])
        while not untried[-1]:
            untried.pop()
            if not untried:
                return None
            del colour[order[len(untried) - 1]]
        colour[order[len(untried) - 1]] = untried[-1].pop()
    return dict(colour)


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


def list_chromatic_at_least(
    g: Graph, t: int, cap: int = CHOOSABILITY_CAP
) -> tuple[bool, dict[int, frozenset[int]] | None]:
    """Decide chi_ell(g) >= t; on success also return a witness assignment
    of (t-1)-element lists admitting no proper list colouring.

    t = 1 and t = 2 have closed forms; for t >= 3 the graph must have at
    most `cap` vertices and the search enumerates list assignments up to
    colour renaming, after peeling vertices whose degree is below the list
    size (they can always be coloured last, so no witness depends on them).
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
    if g.n > cap:
        raise ValueError(f"graph has {g.n} > {cap} vertices; cap exceeded for t >= 3")

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


def _refuted(lists: list[int], earlier: list[list[int]]) -> bool:
    """True when no proper colouring from the bitmask lists exists: exact
    search in position order, untried[d] the colours left to try at d."""
    n = len(lists)
    chosen = [0] * n
    untried = [lists[0]] + [0] * (n - 1)
    d = 0
    while d >= 0:
        free = untried[d]
        if not free:
            d -= 1
            continue
        chosen[d] = bit = free & -free
        untried[d] = free ^ bit
        d += 1
        if d == n:
            return False
        blocked = 0
        for u in earlier[d]:
            blocked |= chosen[u]
        untried[d] = lists[d] & ~blocked
    return True


def _first_refuted_assignment(g: Graph, s: int) -> list[int] | None:
    """The first canonical s-list assignment (bitmasks in id order) that g
    cannot be coloured from, or None when g is s-choosable.

    fit[d] is the first-fit colour bit of position d under the lists of
    positions 0..d, or 0 once first-fit has failed at or before d.  The last
    position is scanned in one loop: a list meeting its free colours is
    first-fit colourable, and only the others get the exact test.
    """
    order = g.sorted_vertices()
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[pos[u] for u in g.adj[v] if pos[u] < i] for i, v in enumerate(order)]
    last = len(order) - 1
    lists, fit, nxt = [0] * len(order), [0] * len(order), [0] * len(order)
    options = [_list_choices(0, s)] + [()] * last
    d = 0
    while d >= 0:
        blocked = 0
        for u in earlier[d]:
            blocked |= fit[u]
        prefix_fits = d == 0 or fit[d - 1]
        if d == last:
            for mask, _ in options[d]:
                if prefix_fits and mask & ~blocked:
                    continue
                lists[d] = mask
                if _refuted(lists, earlier):
                    return lists
            d -= 1
        elif nxt[d] == len(options[d]):
            d -= 1
        else:
            mask, used = options[d][nxt[d]]
            nxt[d] += 1
            lists[d] = mask
            free = mask & ~blocked if prefix_fits else 0
            fit[d] = free & -free
            d += 1
            options[d] = _list_choices(used, s)
            nxt[d] = 0
    return None
