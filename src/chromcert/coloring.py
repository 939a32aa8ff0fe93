"""Exact colourability and choosability.

is_colourable and list_colour are the extension solver (solver.extend) on
the empty template, with a plain palette or the given lists as palette, so
chromcert has one exact colouring search.  Its brute-force references live
in oracles.py.

list_chromatic_at_least finds a bad list assignment by one iterative search
over int bitmasks (bit c stands for colour c).  It walks the assignments up
to colour renaming in the order of oracles.canonical_list_assignments,
keeps a first-fit colour per prefix, so a changed list costs one first-fit
step, and runs an exact bitmask search only where first-fit fails.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .graphs import Graph, induced_subgraph
from .solver import extend
from .templates import ListAssignment, Palette, Template

CHOOSABILITY_CAP = 8


def is_colourable(g: Graph, t: int) -> dict[int, int] | None:
    """A proper t-colouring of g, or None when none exists.  Exact: the
    extension solver on the empty template with the plain palette {0..t-1}.
    """
    return extend(g, Template.empty(g), Palette.plain(t)).colouring


def list_colour(g: Graph, lists: ListAssignment) -> dict[int, int] | None:
    """A proper colouring drawing each vertex from its own list, or None.
    Exact: the extension solver on the empty template with the lists as
    palette.  Raises ValueError when a vertex has no list or an empty one.
    """
    return extend(g, Template.empty(g), Palette.from_lists(lists)).colouring


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
