"""The extensibility oracle, chromcert's one exact colouring search: decide
whether a proper palette (or list) colouring respecting a template exists,
returning either a colouring or a definite UNSAT.  An exhausted budget is
never an answer: extend raises ResourceLimitError.  coloring.is_colourable
and list_colour are this search on the empty template;
oracles.brute_force_extend is its brute-force reference.

extend keeps an explicit stack of frames, one per coloured vertex, over int
bitsets, after San Segundo's bitboard DSATUR (2012): per rank its candidate
colours (bit i: the i-th smallest colour in g's lists), per colour the ranks
whose candidates hold it, and per count p the uncoloured ranks with p
candidates.  Ranks order vertices by (-degree, id), so Brelaz's rule "fewest
candidates, then larger degree, then smaller id" picks the lowest rank of
the lowest non-empty bucket.  Colouring v with i prunes neighbours(v) &
uncoloured & holders(i), a wipeout when one of them is in bucket 1, so a
decision costs O(pruned ranks).  Small calls are dominated by the setup, so
it reads edges only at pre-coloured vertices: the masks come from g's
distinct lists less the template's forbidden colours and pre-coloured
neighbours' colours, and a vertex's neighbour mask is built when it is
first coloured.

Within one call, each subtree proven UNSAT in at least
_REPLAY_MIN_DECISIONS decisions is kept by the exact search state at its
push and replayed by count when that state recurs (state caching, after
B. M. Smith, CP 2005).  So SolverStats count the nodes of the DSATUR tree,
replayed ones included, and a budget stops at the decision it would stop
at without replay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from .errors import ResourceLimitError
from .graphs import Graph
from .templates import Palette, Template, respects, validate_template

_TIME_CHECK_EVERY = 512
_REPLAY_MIN_DECISIONS = 64  # smallest UNSAT subtree the state table keeps


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
    """Deterministic search-work counters: of one run, or summed with add."""

    decisions: int = 0
    backtracks: int = 0

    def add(self, other: "SolverStats") -> None:
        self.decisions += other.decisions
        self.backtracks += other.backtracks


@dataclass(frozen=True)
class SolveResult:
    outcome: str  # "sat" | "unsat"; an exhausted budget raises instead
    colouring: dict[int, int] | None
    stats: SolverStats = field(default_factory=SolverStats)


_UNLIMITED = SolverBudget()


def _anonymity_classes(t: Template, lists: Iterable[frozenset[int]]) -> tuple[list[int], list[int]]:
    """Group the colours of g's distinct lists (one list in plain mode)
    that the template cannot tell apart.

    A colour is anonymous when it is mentioned nowhere in the template
    (pre-colouring or forbidden lists); two anonymous colours belong to the
    same class when exactly the same vertices carry them in their lists.
    Vertices with equal lists carry the same colours, so comparing which
    distinct lists hold each colour suffices, found by inverting them.
    While searching, at most one *unused* colour per class needs to be tried
    at any node: swapping two unused same-class colours maps respecting
    colourings to respecting colourings.

    Returns the colours in increasing order and per colour the mask of its
    class (bit i: the i-th colour), 0 for a mentioned one: it is never skipped.
    """
    mentioned = set(t.precolour.values()).union(*t.forbidden.values())
    carriers: dict[int, int] = {}  # colour -> mask of the lists holding it
    for i, cs in enumerate(lists):
        for c in cs:
            carriers[c] = carriers.get(c, 0) | 1 << i
    colours = sorted(carriers)
    masks: dict[int, int] = {}
    for i, c in enumerate(colours):
        if c not in mentioned:
            masks[carriers[c]] = masks.get(carriers[c], 0) | 1 << i
    return colours, [0 if c in mentioned else masks[carriers[c]] for c in colours]


def extend(g: Graph, t: Template, palette: Palette, budget: SolverBudget | None = None) -> SolveResult:
    """Complete backtracking search for a colouring respecting t.

    Variable order: smallest candidate set first, then larger degree, then
    smaller id.  Candidate sets shrink by forward checking; candidate
    colours are tried in increasing order with interchangeable unused
    colours collapsed to their smallest representative.  A Sat answer is
    re-verified against the respects predicate before being returned;
    Unsat means the (pruned but exhaustive) search space is empty.  Raises
    ResourceLimitError once the budget is exhausted.
    """
    validate_template(g, t, palette)
    budget = budget or _UNLIMITED
    cap, seconds = budget.max_decisions, budget.wall_clock_seconds
    decisions = backtracks = 0
    start = time.perf_counter()

    adj = g.adj
    verts = sorted(sorted(t.forbidden), key=lambda v: len(adj[v]), reverse=True)  # (-degree, id)
    n = len(verts)
    rank = {v: r for r, v in enumerate(verts)}
    nbm: list[int | None] = [None] * n  # neighbour-rank masks, lazily
    # g's distinct lists (one in plain mode), each with the vertices carrying it.
    holders: dict[frozenset[int], list[int]] = {}
    for v in g.vertices:
        holders.setdefault(palette.colours_of(v), []).append(v)
    colours, peers = _anonymity_classes(t, holders)
    index = {c: i for i, c in enumerate(colours)}
    anon = sum(set(peers))  # the anonymous colours; distinct classes are disjoint
    remaining = [0] * n  # per rank, its candidate colour mask
    has = [0] * len(colours)  # per colour, the ranks holding it as a candidate
    for cs, vs in holders.items():
        mask = held = 0
        for c in cs:
            mask |= 1 << index[c]
        for v in vs:
            if v in rank:
                remaining[rank[v]] = mask
                held |= 1 << rank[v]
        for c in cs:
            has[index[c]] |= held
    for v, fs in t.forbidden.items():
        for c in fs:
            remaining[rank[v]] &= ~(1 << index[c])
            has[index[c]] &= ~(1 << rank[v])
    for u, c in t.precolour.items():
        for w in adj[u]:
            if w in rank:
                remaining[rank[w]] &= ~(1 << index[c])
                has[index[c]] &= ~(1 << rank[w])
    unc = (1 << n) - 1  # uncoloured ranks
    bucket = [0] * (len(colours) + 1)  # uncoloured ranks by candidate count
    for r, m in enumerate(remaining):
        bucket[m.bit_count()] |= 1 << r

    # One frame per vertex on the current path: [rank, colours left to try,
    # colour bit in use (0 for none), the ranks it pruned as a mask and as a
    # list, colours used below, decisions and backtracks before its push].
    # The colours used below a frame are fixed while it is on the stack, and
    # so are its colours to try: each candidate mentioned or used below, and
    # the least unused one of each class.
    stack: list[list] = []
    used = 0
    # Proven-UNSAT subtrees by the state at their push: table[unc][(used &
    # anon, *(has[i] & unc))] = (decisions, backtracks).  The subtree below
    # a push reads nothing else that varies: the rank it picks and every
    # candidate mask and bucket follow from has[i] & unc, the colours it may
    # try from used & anon, and it only ever changes bits of unc, all of
    # them restored when its root pops.  So a recurring state is replayed by
    # count, and the counters stay those of the whole DSATUR tree.
    table: dict[int, dict[tuple, tuple[int, int]]] = {}
    while unc:
        known = table.get(unc)
        hit = known and known.get((used & anon, *map(unc.__and__, has)))
        if hit:  # replay: the budget checks its decisions would have made
            last = decisions + hit[0]
            stop = cap + 1 if cap and last > cap else last + 1
            tick = (decisions // _TIME_CHECK_EVERY + 1) * _TIME_CHECK_EVERY
            if seconds and tick < stop and time.perf_counter() - start > seconds:
                stop = tick
            if stop <= last:
                raise ResourceLimitError(f"solver budget exhausted after {stop} decisions")
            decisions = last
            backtracks += hit[1]
        else:  # push the lowest rank of the lowest non-empty bucket
            b = next(filter(None, bucket))
            vb = b & -b
            bucket[bucket.index(b)] = b ^ vb
            unc ^= vb
            v = vb.bit_length() - 1
            todo = remaining[v]
            free = todo & anon & ~used
            todo ^= free
            while free:
                b = free & -free
                todo |= b
                free &= ~peers[b.bit_length() - 1]
            stack.append([v, todo, 0, 0, None, used, decisions, backtracks])
        while stack:
            v, todo, bit, pruned, pruned_ranks, below, d0, b0 = frame = stack[-1]
            if bit:  # take back the colour tried last
                has[bit.bit_length() - 1] |= pruned
                for u in pruned_ranks:
                    p = remaining[u].bit_count()
                    remaining[u] |= bit
                    bucket[p] ^= 1 << u
                    bucket[p + 1] |= 1 << u
            if not todo:
                backtracks += 1
                stack.pop()
                unc |= 1 << v
                bucket[remaining[v].bit_count()] |= 1 << v
                if decisions - d0 >= _REPLAY_MIN_DECISIONS:  # the state is back to the push's
                    table.setdefault(unc, {})[(below & anon, *map(unc.__and__, has))] = (
                        decisions - d0, backtracks - b0)
                continue
            bit = todo & -todo
            todo ^= bit
            decisions += 1
            if (cap and decisions > cap) or (seconds and decisions % _TIME_CHECK_EVERY == 0
                                             and time.perf_counter() - start > seconds):
                raise ResourceLimitError(f"solver budget exhausted after {decisions} decisions")
            ci = bit.bit_length() - 1
            m = nbm[v]
            if m is None:
                m = 0
                for u in adj[verts[v]]:
                    if u in rank:
                        m |= 1 << rank[u]
                nbm[v] = m
            pruned = m & unc & has[ci]
            if pruned & bucket[1]:  # wipeout: a pruned vertex had no other candidate
                frame[1], frame[2] = todo, 0
                continue
            has[ci] ^= pruned
            pruned_ranks = []
            frame[1], frame[2], frame[3], frame[4] = todo, bit, pruned, pruned_ranks
            while pruned:
                ub = pruned & -pruned
                pruned ^= ub
                u = ub.bit_length() - 1
                pruned_ranks.append(u)
                p = remaining[u].bit_count()
                remaining[u] ^= bit
                bucket[p] ^= ub
                bucket[p - 1] |= ub
            used = below | bit
            break
        else:
            return SolveResult("unsat", None, SolverStats(decisions, backtracks))
    colour = dict(t.precolour)
    for frame in stack:
        colour[verts[frame[0]]] = colours[frame[2].bit_length() - 1]
    if not respects(g, t, colour, palette):
        raise RuntimeError("solver produced a colouring that fails the respects check")
    return SolveResult("sat", colour, SolverStats(decisions, backtracks))
