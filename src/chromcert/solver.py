"""The extensibility oracle, chromcert's one exact colouring search: decide
whether a proper palette (or list) colouring respecting a template exists,
returning either a colouring or a definite UNSAT.  A budget exhaustion is a
third, loudly distinct outcome.  coloring.is_colourable and list_colour are
this search on the empty template; oracles.brute_force_extend is its
brute-force reference.

extend keeps an explicit stack of frames, one per coloured vertex, over int
candidate masks (bit i: the i-th smallest colour in g's lists).  Vertices
are ranked once by (-degree, id), so "fewest candidates, then larger
degree, then smaller id" is the least score popcount * n + rank.  Small
and shallow calls are dominated by the setup, so it reads edges only at
pre-coloured vertices: one mask per distinct list, pre-coloured
neighbours' colours taken from the pre-coloured side, the anonymity
classes found by inverting the distinct lists, and a vertex's neighbour
ranks listed when it is first coloured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from .errors import ResourceLimitError
from .graphs import Graph
from .templates import Palette, Template, respects, validate_template

_TIME_CHECK_EVERY = 512


@dataclass(frozen=True)
class SolverBudget:
    """Limits for one solver run; zero means unlimited."""

    max_decisions: int = 0
    wall_clock_seconds: float = 0.0

    def __post_init__(self):
        if self.max_decisions < 0 or self.wall_clock_seconds < 0:
            raise ValueError("budget limits must be nonnegative")


@dataclass
class SolverStats:
    decisions: int = 0
    backtracks: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    outcome: str  # "sat" | "unsat" | "resource_limit"
    colouring: dict[int, int] | None
    stats: SolverStats = field(default_factory=SolverStats)

    def raise_if_limited(self) -> None:
        if self.outcome == "resource_limit":
            raise ResourceLimitError(
                f"solver budget exhausted after {self.stats.decisions} decisions"
            )


_UNLIMITED = SolverBudget()


class _BudgetExceeded(Exception):
    pass


def _anonymity_classes(t: Template, lists: Iterable[frozenset[int]]) -> dict[int, int | None]:
    """Group the colours of g's distinct lists (one list in plain mode)
    that the template cannot tell apart.

    A colour is anonymous when it is mentioned nowhere in the template
    (pre-colouring or forbidden lists); two anonymous colours belong to the
    same class when exactly the same vertices carry them in their lists.
    Vertices with equal lists carry the same colours, so comparing which
    distinct lists hold each colour suffices, found by inverting them.
    While searching, at most one *unused* colour per class needs to be tried
    at any node: swapping two unused same-class colours maps respecting
    colourings to respecting colourings.  Mentioned colours map to None and
    are never skipped.
    """
    mentioned = set(t.precolour.values()).union(*t.forbidden.values())
    carriers: dict[int, list[int]] = {}
    for i, cs in enumerate(lists):
        for c in cs:
            carriers.setdefault(c, []).append(i)
    classes: dict[int, int | None] = {}
    keys: dict[tuple[int, ...], int] = {}
    for c in sorted(carriers):
        if c in mentioned:
            classes[c] = None
            continue
        key = tuple(carriers[c])
        if key not in keys:
            keys[key] = len(keys)
        classes[c] = keys[key]
    return classes


def extend(g: Graph, t: Template, palette: Palette, budget: SolverBudget | None = None) -> SolveResult:
    """Complete backtracking search for a colouring respecting t.

    Variable order: smallest candidate set first, then larger degree, then
    smaller id.  Candidate sets shrink by forward checking; candidate
    colours are tried in increasing order with interchangeable unused
    colours collapsed to their smallest representative.  A Sat answer is
    re-verified against the respects predicate before being returned;
    Unsat means the (pruned but exhaustive) search space is empty.
    """
    validate_template(g, t, palette)
    budget = budget or _UNLIMITED
    stats = SolverStats()
    start = time.perf_counter()

    adj = g.adj
    verts = sorted(t.forbidden, key=lambda v: (-len(adj[v]), v))
    n = len(verts)
    rank = {v: r for r, v in enumerate(verts)}
    nbrs: list[list[int] | None] = [None] * n  # uncoloured neighbour ranks, lazily
    # g's distinct lists (one in plain mode), each with the vertices carrying it.
    holders: dict[frozenset[int], list[int]] = {}
    for v in g.vertices:
        holders.setdefault(palette.colours_of(v), []).append(v)
    classes = _anonymity_classes(t, holders)
    colours = sorted(classes)
    bit_of = {c: 1 << i for i, c in enumerate(colours)}
    cls_of = [classes[c] for c in colours]
    usage = [0] * len(colours)
    remaining = [0] * n
    for cs, vs in holders.items():
        mask = sum(map(bit_of.__getitem__, cs))
        for v in vs:
            if v in rank:
                remaining[rank[v]] = mask & ~sum(map(bit_of.__getitem__, t.forbidden[v]))
    for u, c in t.precolour.items():
        for w in adj[u]:
            if w in rank:
                remaining[rank[w]] &= ~bit_of[c]
    # A coloured vertex's score is lifted by `done`, above every uncoloured one.
    done = (len(colours) + 1) * n
    score = [m.bit_count() * n + r for r, m in enumerate(remaining)]

    # One frame per vertex on the current path: [rank, colours left to try,
    # classes seen, colour bit in use (0 for none), ranks it pruned].
    stack: list[list] = []
    if n:
        v = score.index(min(score))
        stack.append([v, remaining[v], set(), 0, None])
    try:
        while stack:
            v, todo, seen, bit, pruned = frame = stack[-1]
            if bit:  # take back the colour tried last
                for u in pruned:
                    remaining[u] |= bit
                    score[u] += n
                score[v] -= done
                usage[bit.bit_length() - 1] -= 1
            while todo:
                bit = todo & -todo
                todo ^= bit
                ci = bit.bit_length() - 1
                cls = cls_of[ci]
                if cls is None or usage[ci]:
                    break
                if cls not in seen:
                    seen.add(cls)
                    break
            else:
                stats.backtracks += 1
                stack.pop()
                continue
            stats.decisions += 1
            if budget.max_decisions and stats.decisions > budget.max_decisions:
                raise _BudgetExceeded
            if budget.wall_clock_seconds and stats.decisions % _TIME_CHECK_EVERY == 0:
                if time.perf_counter() - start > budget.wall_clock_seconds:
                    raise _BudgetExceeded
            usage[ci] += 1
            score[v] += done
            if nbrs[v] is None:
                nbrs[v] = [rank[u] for u in adj[verts[v]] if u in rank]
            pruned = [u for u in nbrs[v] if score[u] < done and remaining[u] & bit]
            for u in pruned:
                remaining[u] ^= bit
                score[u] -= n
            frame[1], frame[3], frame[4] = todo, bit, pruned
            if not all(map(remaining.__getitem__, pruned)):
                continue  # wipeout: the next pass takes the colour back
            best = min(score)
            if best >= done:
                break
            v = score.index(best)
            stack.append([v, remaining[v], set(), 0, None])
    except _BudgetExceeded:
        stats.elapsed = time.perf_counter() - start
        return SolveResult("resource_limit", None, stats)
    stats.elapsed = time.perf_counter() - start
    if n and not stack:
        return SolveResult("unsat", None, stats)
    colour = dict(t.precolour)
    for frame in stack:
        colour[verts[frame[0]]] = colours[frame[3].bit_length() - 1]
    if not respects(g, t, colour, palette):
        raise RuntimeError("solver produced a colouring that fails the respects check")
    return SolveResult("sat", colour, stats)
