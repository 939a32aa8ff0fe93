"""The colouring problem and its one exact search.

The problem is a palette (colours {0..size-1}, or one list per vertex) and
a template (S, c, F): a proper pre-colouring c of S and a forbidden set
F(v) at every other vertex.  A colouring respects it when it is proper,
inside the palette, extends c and avoids every F(v).  extend, the
extensibility oracle, returns a respecting colouring or a definite UNSAT;
an exhausted budget is never an answer: it raises ResourceLimitError.
is_colourable and list_colour, the colouring questions the checker asks,
are extend on the empty template.  oracles.brute_force_extend is its
brute-force reference, and templates.py builds the proof constructions on
top.

extend keeps an explicit stack of frames, one per coloured vertex, over int
bitsets, after San Segundo's bitboard DSATUR (2012).  One int holds the
colour-by-rank holder matrix (bit i*w + r: rank r still holds colour i, the
i-th smallest of the C colours in g's lists), and the candidate counts are
bit-sliced over the ranks into about log2(C) planes.  The rows lie w >= n
bits apart, with w - 1 a multiple of d = C + 1, so 2**(i*w) = 2**i modulo
2**d - 1; a rank's C-bit candidate mask, below 2**C <= 2**d - 1, is then one
remainder of its bits i*w by 2**d - 1, one int digit while C < 30.  A wider
d could bring w nearer n, but a push would pay a long division; so w is the
least such stride, below n + d, and the replay keys (rows of the matrix)
grow by at most C bits.  Ranks order vertices by (-degree, id), so Brelaz's
rule "fewest candidates, then larger degree, then smaller id" picks the
lowest uncoloured rank of least count, found by scanning the planes from the
top.  Colouring v with i prunes neighbours(v) & uncoloured & holders(i), a
wipeout when one of them had one candidate; one ripple borrow over the
planes counts them down and one ripple carry counts them up on the undo, so
a decision costs O(log C) mask operations.  Small calls are dominated by the
setup, so it reads edges only at pre-coloured vertices: the matrix and the
counts come from g's distinct lists (in plain mode one list, read once) less
the template's forbidden colours and pre-coloured neighbours' colours, a
vertex's neighbour mask is one sum over its adjacency of a per-call map from
vertex to rank bit (0 when pre-coloured), built at its first push, and the
empty template skips validate_template, which has nothing to check there.

Within one call, subtrees proven UNSAT are kept by the exact search state
at their push, one int, and replayed by count when that state recurs
(state caching, after B. M. Smith, CP 2005).  Every subtree of at least
_REPLAY_MIN_DECISIONS decisions is kept.  Smaller ones of at least
_REPLAY_SMALL_DECISIONS are kept once the call has made
_REPLAY_MIN_DECISIONS decisions, so that the many short calls pay nothing
for them, and until the call has kept _REPLAY_SMALL_ENTRIES of them.  That
budget bounds the memory of the small subtrees, by far the most numerous;
the large ones are bounded by the work they took, at least
_REPLAY_MIN_DECISIONS decisions each.  So SolverStats count the nodes of
the DSATUR tree, replayed ones included, and a budget stops at the decision
it would stop at without replay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Mapping

from .errors import ResourceLimitError, TemplateError
from .graphs import Graph

PLAIN = "plain"
LIST = "list"

ListAssignment = Mapping[int, frozenset[int]]


@dataclass(frozen=True)
class Palette:
    """Fixed colour supply: a colour set {0..size-1} in plain mode, or a
    per-vertex list assignment in list mode.  A list may be empty: its
    vertex has no colour, so no colouring from the palette exists."""

    mode: str
    size: int | None = None
    lists: Mapping[int, frozenset[int]] | None = None

    def __post_init__(self):
        if self.mode == PLAIN:
            if self.size is None or self.size < 0:
                raise ValueError("plain palette needs a nonnegative size")
        elif self.mode == LIST:
            if self.lists is None:
                raise ValueError("list palette needs per-vertex lists")
        else:
            raise ValueError(f"unknown palette mode {self.mode!r}")

    @staticmethod
    def plain(size: int) -> "Palette":
        return Palette(PLAIN, size=size)

    @staticmethod
    def from_lists(lists: Mapping[int, Iterable[int]]) -> "Palette":
        frozen = {v: frozenset(cs) for v, cs in lists.items()}
        return Palette(LIST, lists=frozen)

    @cached_property
    def _plain_colours(self) -> frozenset[int]:
        return frozenset(range(self.size)) if self.mode == PLAIN else frozenset()

    def colours_of(self, v: int) -> frozenset[int]:
        if self.mode == PLAIN:
            return self._plain_colours
        if v not in self.lists:
            raise ValueError(f"vertex {v} missing from the list assignment")
        return self.lists[v]

    def universe(self) -> frozenset[int]:
        if self.mode == PLAIN:
            return self._plain_colours
        return frozenset().union(*self.lists.values()) if self.lists else frozenset()


@dataclass(frozen=True)
class Template:
    """(S, c, F): pre-coloured set with colouring plus forbidden lists.

    precolour maps each vertex of S to its colour; forbidden maps every
    remaining vertex of the host graph to its (possibly empty) forbidden
    set.  Instances are never mutated; derivations build fresh ones.
    """

    precolour: dict[int, int] = field(default_factory=dict)
    forbidden: dict[int, frozenset[int]] = field(default_factory=dict)

    @staticmethod
    def empty(g: Graph) -> "Template":
        return Template({}, {v: frozenset() for v in g.vertices})


def validate_template(g: Graph, t: Template, palette: Palette) -> None:
    """Raise TemplateError unless t is a well-formed template on g."""
    pre = set(t.precolour)
    forb = set(t.forbidden)
    if pre & forb:
        raise TemplateError(f"vertices {sorted(pre & forb)} both pre-coloured and forbidden")
    if pre | forb != g.vertices:
        raise TemplateError("template domains do not cover the vertex set exactly")
    for u, c in t.precolour.items():
        for v in g.adj[u]:
            if t.precolour.get(v) == c:
                raise TemplateError(f"pre-colouring improper on edge {(min(u, v), max(u, v))}")
    for v, c in t.precolour.items():
        if c not in palette.colours_of(v):
            raise TemplateError(f"pre-colour {c} at vertex {v} outside its palette")
    for v, fs in t.forbidden.items():
        extra = fs - palette.colours_of(v)
        if extra:
            raise TemplateError(f"forbidden colours {sorted(extra)} at vertex {v} outside its palette")


def is_proper(g: Graph, col: Mapping[int, int]) -> bool:
    """Properness of a (possibly partial) colouring: no coloured vertex of g has a neighbour of its colour."""
    classes: dict[int, set[int]] = {}
    for v, c in col.items():
        classes.setdefault(c, set()).add(v)
    return all(g.adj[v].isdisjoint(classes[c]) for v, c in col.items() if v in g.adj)


def respects(g: Graph, t: Template, col: Mapping[int, int], palette: Palette) -> bool:
    """True iff col is a total proper colouring of g from the palette that
    extends the pre-colouring and avoids every forbidden list."""
    if set(col) != set(g.vertices):
        return False
    for v, c in col.items():
        if c not in palette.colours_of(v):
            return False
    if not is_proper(g, col):
        return False
    for v, c in t.precolour.items():
        if col[v] != c:
            return False
    for v, fs in t.forbidden.items():
        if col[v] in fs:
            return False
    return True


_TIME_CHECK_EVERY = 512
# extend's state table keeps every UNSAT subtree of _REPLAY_MIN_DECISIONS
# decisions or more; once the call has made that many decisions, it also keeps
# up to _REPLAY_SMALL_ENTRIES smaller ones of _REPLAY_SMALL_DECISIONS or more.
_REPLAY_MIN_DECISIONS = 64
_REPLAY_SMALL_DECISIONS = 4
_REPLAY_SMALL_ENTRIES = 4096


@dataclass(frozen=True)
class SolverBudget:
    """Limits for one solver run; zero means unlimited."""

    max_decisions: int = 0
    wall_clock_seconds: float = 0.0

    def __post_init__(self):
        if not (self.max_decisions >= 0 and self.wall_clock_seconds >= 0):  # NaN too
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


def _anonymity_classes(t: Template, lists: Collection[frozenset[int]]) -> tuple[list[int], list[int]]:
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
    A template that mentions no colour over a single list (the plain-mode
    empty template) has one class holding every colour.
    """
    if len(lists) == 1 and not t.precolour and not any(t.forbidden.values()):
        colours = sorted(next(iter(lists)))
        return colours, [(1 << len(colours)) - 1] * len(colours)
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


def _stride(n: int, nc: int) -> tuple[int, int]:
    """(w, d): fold width d = nc + 1 and the least row stride w >= n with d | w - 1."""
    d = nc + 1
    return n + (1 - n) % d, d


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
    empty = not t.precolour and not any(t.forbidden.values()) and t.forbidden.keys() == g.vertices
    if not empty:  # the empty template leaves validate_template nothing to check
        validate_template(g, t, palette)
    budget = budget or _UNLIMITED
    cap, seconds = budget.max_decisions, budget.wall_clock_seconds
    decisions = backtracks = 0
    start = time.perf_counter()

    adj = g.adj
    verts = sorted(sorted(t.forbidden), key=lambda v: len(adj[v]), reverse=True)  # (-degree, id)
    n = len(verts)
    # Each vertex's rank bit, 0 at the pre-coloured ones, so that a neighbour
    # mask is one sum over the adjacency.
    rank_bit = {v: 1 << r for r, v in enumerate(verts)}
    rank_bit.update(dict.fromkeys(t.precolour, 0))
    nbm: list[int | None] = [None] * n  # neighbour-rank masks, lazily
    # g's distinct lists (one in plain mode), each with the ranks carrying it;
    # a missing list raises in validate_template's order.
    if palette.mode == PLAIN:
        holders = {palette.universe(): (1 << n) - 1} if g.vertices else {}
    else:
        holders = {}
        for v in t.forbidden:
            cs = palette.colours_of(v)
            holders[cs] = holders.get(cs, 0) | rank_bit[v]
        for v in t.precolour:
            holders.setdefault(palette.colours_of(v), 0)
    colours, peers = _anonymity_classes(t, holders)
    nc = len(colours)
    w, d = _stride(n, nc)
    fold = (1 << d) - 1
    index = {c: i for i, c in enumerate(colours)}
    anon = sum(set(peers))  # the anonymous colours; distinct classes are disjoint
    held = rep = 0  # bit i*w + r of held: rank r holds colour i; of rep: i's slot
    # Rank r's candidate count: bit r of odd is its bit 0, of planes[j] its bit j + 1.
    odd, planes = 0, [0] * max(0, nc.bit_length() - 1)
    for cs, ranks in holders.items():
        row = 0
        for c in cs:
            row |= 1 << index[c] * w
        rep |= row
        held |= ranks * row
        odd |= ranks if len(cs) & 1 else 0
        for j in range(len(planes)):
            planes[j] |= ranks if len(cs) >> j + 1 & 1 else 0
    if not empty:  # the ranks in mask r lose colour c (none at a pre-coloured vertex): count them down
        for r, c in [(rank_bit[v], c) for v, fs in t.forbidden.items() for c in fs] + [
                (rank_bit[u], c) for z, c in t.precolour.items() for u in adj[z]]:
            bit = r << index[c] * w
            if held & bit:
                held ^= bit
                b, odd = r & ~odd, odd ^ r
                for j, p in enumerate(planes):
                    planes[j], b = p ^ b, b & ~p
    unc = (1 << n) - 1  # uncoloured ranks

    # One frame per vertex on the current path, no int in it wider than n or
    # C bits: [rank, colours left to try, shift i*w of the colour i in use,
    # ranks it pruned, its uncoloured neighbours, those with at most one
    # candidate, colours used below, decisions and backtracks before its
    # push].  Each try starts from the state at the push, so the neighbour
    # masks and colours used below stay fixed, and so do its colours to try:
    # each candidate mentioned or used below, and the least unused per class.
    stack: list[list] = []
    used = 0
    # Proven-UNSAT subtrees by the state at their push: table[unc][(held &
    # unc * rep) << nc | used & anon] = (decisions, backtracks), one int key
    # since used & anon < 2**nc.  The subtree below a push reads nothing else
    # that varies: the rank it picks, every candidate set and count follow
    # from the holder matrix on unc, the colours it may try from used & anon,
    # and it only ever changes bits of unc, all of them restored when its root
    # pops.  So a recurring state is replayed by count, and the counters stay
    # those of the whole tree.
    table: dict[int, dict[int, tuple[int, int]]] = {}
    small = _REPLAY_SMALL_ENTRIES  # small subtrees it may still keep
    while unc:
        known = table.get(unc)
        hit = known and known.get((held & unc * rep) << nc | used & anon)
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
        else:  # push the lowest uncoloured rank with the fewest candidates
            hi = 0
            for p in planes:
                hi |= p
            low = unc & ~hi  # the uncoloured ranks with at most one candidate
            if not low:  # the least count, from its top bit down
                low = unc
                for p in reversed(planes):
                    low = low & ~p or low
            low = low & ~odd or low
            vb = low & -low
            unc ^= vb
            v = vb.bit_length() - 1
            todo = (held >> v & rep) % fold  # v's candidates i, folded from bits i*w to bits i
            free = todo & anon & ~used
            todo ^= free
            while free:
                b = free & -free
                todo |= b
                free &= ~peers[b.bit_length() - 1]
            nb = nbm[v]
            if nb is None:
                nb = nbm[v] = sum(map(rank_bit.__getitem__, adj[verts[v]]))
            nb &= unc
            stack.append([v, todo, 0, 0, nb, nb & ~hi, used, decisions, backtracks])
        while stack:
            v, todo, sh, pruned, nb, crit, below, d0, b0 = frame = stack[-1]
            if pruned:  # take back the colour tried last and count its ranks up
                held |= pruned << sh
                c, odd, j = pruned & odd, odd ^ pruned, 0
                while c:
                    p = planes[j]
                    planes[j], c, j = p ^ c, c & p, j + 1
            if not todo:
                backtracks += 1
                stack.pop()
                unc |= 1 << v
                d = decisions - d0  # the state is back to the push's
                if d >= _REPLAY_SMALL_DECISIONS and (d >= _REPLAY_MIN_DECISIONS or (
                        small and decisions >= _REPLAY_MIN_DECISIONS)):
                    if d < _REPLAY_MIN_DECISIONS:
                        small -= 1
                    table.setdefault(unc, {})[(held & unc * rep) << nc | below & anon] = (
                        d, backtracks - b0)
                continue
            bit = todo & -todo
            todo ^= bit
            decisions += 1
            if (cap and decisions > cap) or (seconds and decisions % _TIME_CHECK_EVERY == 0
                                             and time.perf_counter() - start > seconds):
                raise ResourceLimitError(f"solver budget exhausted after {decisions} decisions")
            sh = (bit.bit_length() - 1) * w
            pruned = nb & held >> sh
            if pruned & crit:  # wipeout: a pruned vertex, holding i, had no other candidate
                frame[1], frame[3] = todo, 0
                continue
            held ^= pruned << sh
            frame[1], frame[2], frame[3] = todo, sh, pruned
            b, odd, j = pruned & ~odd, odd ^ pruned, 0  # count the pruned ranks down
            while b:
                p = planes[j]
                planes[j], b, j = p ^ b, b & ~p, j + 1
            used = below | bit
            break
        else:
            return SolveResult("unsat", None, SolverStats(decisions, backtracks))
    colour = dict(t.precolour)
    for frame in stack:
        colour[verts[frame[0]]] = colours[frame[2] // w]
    if not respects(g, t, colour, palette):
        raise RuntimeError("solver produced a colouring that fails the respects check")
    return SolveResult("sat", colour, SolverStats(decisions, backtracks))


def is_colourable(g: Graph, t: int, budget: SolverBudget | None = None) -> dict[int, int] | None:
    """A proper t-colouring of g, or None when none exists: extend on the
    empty template with the plain palette {0..t-1}, under the budget."""
    return extend(g, Template.empty(g), Palette.plain(t), budget).colouring


def list_colour(g: Graph, lists: ListAssignment) -> dict[int, int] | None:
    """A proper colouring drawing each vertex from its own list, or None:
    extend on the empty template with the lists as palette.  An empty list
    answers None; a vertex with no list raises ValueError."""
    return extend(g, Template.empty(g), Palette.from_lists(lists)).colouring
