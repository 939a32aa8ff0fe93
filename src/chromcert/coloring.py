"""Choosability: the search for a bad list assignment.

list_chromatic_at_least finds a bad list assignment by one iterative search
over int bitmasks (bit c stands for colour c), in the order of
oracles.canonical_list_assignments.  It skips only subtrees whose every
assignment has a colouring, so the first refuted assignment stays the
first in that order: at the last vertex, the lists not inside the colours
its neighbours get in every colouring of the prefix; below an inner prefix,
all lists once some colouring of it leaves first-fit room everywhere after.
Both tests share the colourings of the prefix above one position among
the sibling lists there: each parent enumerates them once, lazily, and
keeps each as the few colour masks the test reads.  At the last two
positions that is a pair, the colours on the neighbours of each; below an
inner position, the colours it may take leaving room everywhere after.
Its brute-force reference lives in oracles.py.  The exact colouring
questions, is_colourable and list_colour, are solver.py's.
"""
from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations
from typing import Iterator

from .errors import ResourceLimitError
from .graphs import Graph, induced_subgraph
from .solver import ListAssignment, SolverBudget
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


def list_chromatic_at_least(g: Graph, t: int, budget: SolverBudget | None = None,
                            ) -> tuple[bool, dict[int, frozenset[int]] | None]:
    """Decide chi_ell(g) >= t; on success also return a witness assignment
    of (t-1)-element lists admitting no proper list colouring.

    t = 1 and t = 2 have closed forms; for t >= 3 the graph must have at
    most CHOOSABILITY_CAP vertices and the search enumerates list
    assignments up to colour renaming, after peeling vertices whose degree
    is below the list size (they can always be coloured last, so no witness
    depends on them).  The search raises ResourceLimitError once it has run
    past the budget's wall clock; it makes no decisions in the solver's
    sense, so max_decisions does not bound it.
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

    lists = _first_refuted_assignment(core, s, budget.wall_clock_seconds if budget else 0.0)
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


def _roomy_colours(lists: list[int], earlier: list[list[int]], d: int,
                   check: list[tuple[list[int], int, bool]], jump: int) -> Iterator[int]:
    """Test (b) below position d, shared by the sibling lists there: for
    each colouring of positions 0..d-1, the mask of the colours position d
    may take in it so that every later q of check keeps room, that is so
    that its neighbours in 0..d carry fewer colours than its room; nothing
    when there is no such colour.  A q one short of its room before d
    leaves d only the colours already on its neighbours, when d is one of
    them.  Colourings that agree up to jump give the same mask, so one
    stands for all."""
    for chosen in _colourings(lists, earlier, d, jump) if d else ([],):
        allowed = ~_colours_on(chosen, earlier[d])
        for nbrs, room, hit in check:
            on = _colours_on(chosen, nbrs)
            short = room - on.bit_count()
            if short < 1:
                break
            if hit and short == 1:
                allowed &= on
        else:
            if allowed:
                yield allowed


def _refuted_last_pair(lists: list[int], earlier: list[list[int]], s: int,
                       choices: tuple[tuple[int, int], ...]) -> tuple[int, int] | None:
    """Test (a) for all the sibling lists at last - 1 under the fixed lists
    of 0..last-2: the first (list at last - 1, list at last) it refutes, or
    None.  Each colouring of 0..last-2 is kept as a pair, its colours on
    last - 1's neighbours and on last's (one colouring stands for all that
    agree up to the deepest of them).  Under a sibling list L a pair extends
    by each colour c of L its first part leaves free, putting its second
    part, plus c when last - 1 is a neighbour of last, on last's
    neighbours; meet is the AND of these.  The pairs are enumerated once,
    and only as far as some sibling's meet keeps s colours.
    """
    last = len(lists) - 1
    near = [u for u in earlier[last] if u < last - 1]
    back = earlier[last - 1]
    adjacent = len(near) < len(earlier[last])
    prefix = _colourings(lists, earlier, last - 1, max(near + back))
    pairs: list[tuple[int, int]] = []
    for mask, used in choices:
        meet, i = -1, 0
        while True:
            if i == len(pairs):
                chosen = next(prefix, None)
                if chosen is None:
                    for after, _ in _list_choices(used, s):
                        if not after & ~meet:
                            return mask, after
                    break
                pairs.append((_colours_on(chosen, back), _colours_on(chosen, near)))
            blocked, on = pairs[i]
            i += 1
            free = mask & ~blocked
            if free:  # the AND of on | c over the free c is on, unless only one c is free
                meet &= on | free if adjacent and not free & free - 1 else on
                if meet.bit_count() < s:
                    break
    return None


def _first_refuted_assignment(g: Graph, s: int, seconds: float) -> list[int] | None:
    """The first canonical s-list assignment (bitmasks in id order) that g
    cannot be coloured from, or None when g is s-choosable.  Two cuts skip
    only assignments that have a colouring, so the answer is unchanged.
    Each visit to position last - 1 raises ResourceLimitError once
    `seconds` of wall clock (0: unlimited) have passed.

    (a) At the last position a list is refuted exactly when every colouring
    of the fixed prefix puts all its colours on the last vertex's
    neighbours, that is when it lies inside `meet`, the AND of those colours
    over the prefix colourings (all ones when there is none).  The pass
    stops once meet has fewer than s colours.  It runs for the siblings at
    last - 1 together (_refuted_last_pair).

    (b) Below inner position d, a later q has room s minus its earlier
    neighbours after d.  If some colouring of 0..d puts fewer colours than
    its room on the prefix neighbours of every q, first-fit in position
    order colours each q from any s-list, so nothing below is refuted.
    skip[d] is the union of the colours position d may take for that over
    the colourings of 0..d-1 enumerated so far (_roomy_colours), and a
    sibling list at d is skipped once it meets skip[d].  checks[d] holds
    (prefix neighbours before d, room, whether d is one) for the q with
    prefix neighbours, or None when some q has room 0, or room 1 and a
    prefix neighbour, and the test cannot pass.  Position last - 1 is left
    to (a), which stops no later.
    """
    order = g.sorted_vertices()
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[pos[u] for u in g.adj[v] if pos[u] < i] for i, v in enumerate(order)]
    n = len(order)
    last = n - 1
    checks: list[list[tuple[list[int], int, bool]] | None] = [None] * n
    jumps = [0] * n
    for d in range(last - 1):
        later = [([u for u in earlier[q] if u <= d], s - sum(u > d for u in earlier[q]))
                 for q in range(d + 1, n)]
        if all(room > bool(nbrs) for nbrs, room in later):
            checks[d] = [([u for u in nbrs if u < d], room, d in nbrs) for nbrs, room in later if nbrs]
            jumps[d] = max(earlier[d] + [u for nbrs, _, _ in checks[d] for u in nbrs], default=0)

    lists, nxt, skip = [0] * n, [0] * n, [0] * n
    options = [_list_choices(0, s)] + [()] * last
    roomy: list[Iterator[int]] = [iter(())] * n
    start = time.perf_counter()
    d = 0
    while d >= 0:
        if d == last - 1:
            if seconds and time.perf_counter() - start > seconds:
                raise ResourceLimitError(f"choosability witness search ran past its {seconds} s budget")
            pair = _refuted_last_pair(lists, earlier, s, options[d])
            if pair is not None:
                lists[d:] = pair
                return lists
            d -= 1
        elif nxt[d] == len(options[d]):
            d -= 1
        else:
            mask, used = options[d][nxt[d]]
            nxt[d] += 1
            lists[d] = mask
            if checks[d] is not None:
                if nxt[d] == 1:
                    roomy[d], skip[d] = _roomy_colours(lists, earlier, d, checks[d], jumps[d]), 0
                while not mask & skip[d] and (more := next(roomy[d], 0)):
                    skip[d] |= more
                if mask & skip[d]:
                    continue
            d += 1
            options[d] = _list_choices(used, s)
            nxt[d] = 0
    return None
