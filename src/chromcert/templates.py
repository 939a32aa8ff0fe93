"""Templates: partial pre-colourings with forbidden lists, and every
template-level construction the descent relies on.

A template on a graph pre-colours a vertex set S properly and attaches a
set of forbidden colours F(v) to each remaining vertex.  A colouring
"respects" the template when it extends the pre-colouring, avoids every
forbidden list, and stays inside the palette (or the per-vertex lists, in
list mode).  The degree k|S| + sum |F(v)| is the potential that all the
derivation bookkeeping is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InternalContradiction, TemplateError
from .graphs import Graph, induced_subgraph

PLAIN = "plain"
LIST = "list"

ListAssignment = Mapping[int, frozenset[int]]


@dataclass(frozen=True)
class Palette:
    """Fixed colour supply: a colour set {0..size-1} in plain mode, or a
    per-vertex list assignment in list mode."""

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
            for v, colours in self.lists.items():
                if not colours:
                    raise ValueError(f"vertex {v} has an empty list")
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

    @property
    def s(self) -> frozenset[int]:
        return frozenset(self.precolour)


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


def degree(t: Template, k: int) -> int:
    """k|S| + sum of forbidden-list sizes."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return k * len(t.precolour) + sum(len(fs) for fs in t.forbidden.values())


def restrict(t: Template, x: Iterable[int]) -> Template:
    """Restriction to the induced subgraph on x: keep pre-colours of S & x
    and forbidden lists of x - S."""
    xs = frozenset(x)
    pre = {v: c for v, c in t.precolour.items() if v in xs}
    forb = {v: fs for v, fs in t.forbidden.items() if v in xs}
    return Template(pre, forb)


def is_proper(g: Graph, col: Mapping[int, int]) -> bool:
    """Properness of a (possibly partial) colouring on the edges it covers."""
    for u, v in g.edges:
        if u in col and v in col and col[u] == col[v]:
            return False
    return True


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


def _extend(g, t, palette, budget):
    # Imported lazily: the solver validates templates through this module.
    from .solver import extend

    return extend(g, t, palette, budget)


def is_valid_witness(g: Graph, t: Template, k: int, palette: Palette, budget=None) -> bool:
    """The three witness conditions: degree at most 2k^2, every forbidden
    list of size at most 2k, and no respecting colouring (checked by the
    extension solver).  Raises ResourceLimitError if the solver budget runs
    out: an exhausted budget is never reported as an answer."""
    validate_template(g, t, palette)
    if degree(t, k) > 2 * k * k:
        return False
    if any(len(fs) > 2 * k for fs in t.forbidden.values()):
        return False
    result = _extend(g, t, palette, budget)
    result.raise_if_limited()
    return result.outcome == "unsat"


def _strengthen_candidate(g: Graph, t: Template, v: int, palette: Palette) -> int | None:
    """Smallest colour that can pre-colour v without touching the template's
    other guarantees.  Plain mode avoids every colour used on S; list mode
    only needs to dodge pre-coloured neighbours, since properness is a
    purely local constraint."""
    if palette.mode == PLAIN:
        blocked = set(t.precolour.values()) | t.forbidden[v]
    else:
        blocked = {t.precolour[u] for u in g.adj[v] if u in t.precolour} | t.forbidden[v]
    eligible = palette.colours_of(v) - blocked
    return min(eligible) if eligible else None


def strengthen_witness(g: Graph, t: Template, k: int, palette: Palette, budget=None) -> Template:
    """Shrink every forbidden list below k by pre-colouring heavy vertices.

    While some vertex v outside S has |F(v)| >= k, the smallest such v is
    pre-coloured with the smallest eligible colour and its list dropped;
    the degree cannot increase (the |S| term grows by k, the list term
    shrinks by at least k).  If anything changed, the result is re-checked
    UNSAT; a respecting colouring at that point disproves the input witness
    and is raised as an InternalContradiction.
    """
    pre = dict(t.precolour)
    forb = dict(t.forbidden)
    changed = False
    while True:
        heavy = sorted(v for v, fs in forb.items() if len(fs) >= k)
        if not heavy:
            break
        v = heavy[0]
        work = Template(pre, forb)
        colour = _strengthen_candidate(g, work, v, palette)
        if colour is None:
            raise RuntimeError(
                f"no eligible colour to pre-colour vertex {v}; "
                "palette too small for the witness shape"
            )
        pre[v] = colour
        del forb[v]
        changed = True
    out = Template(pre, forb)
    if changed:
        if degree(out, k) > degree(t, k):
            raise RuntimeError("strengthening increased the template degree")
        result = _extend(g, out, palette, budget)
        result.raise_if_limited()
        if result.outcome == "sat":
            raise InternalContradiction(
                "strengthened template admits a respecting colouring; "
                "the input was not a witness",
                result.colouring,
            )
    return out


def _check_partition(h: Graph, x: frozenset[int], y: frozenset[int], z: frozenset[int]) -> None:
    if x | y | z != h.vertices or (x & y) or (x & z) or (y & z):
        raise ValueError("x, y, z must partition the vertex set")
    if not y or not z:
        raise ValueError("both cut sides must be nonempty")
    for u, v in h.edges:
        if (u in y and v in z) or (u in z and v in y):
            raise ValueError(f"edge {(u, v)} crosses the cut sides")


def derive_separation_template(
    h: Graph, t: Template, x: frozenset[int], y: frozenset[int], z: frozenset[int], k: int
) -> Template:
    """Template on H[X u Y] that makes a colouring of that side safely
    gluable: the colour of every pre-coloured Z-vertex is forbidden at its
    uncoloured neighbours in X.

    Requires every forbidden list of t to have size at most k-1 and the
    restriction to Z to have degree at most k^2 (the caller orients the
    sides to ensure this).  The derived lists then stay at most 2k-1 on X
    and k-1 on Y.
    """
    _check_partition(h, x, y, z)
    if any(len(fs) > k - 1 for fs in t.forbidden.values()):
        raise ValueError("derivation requires forbidden lists of size at most k-1")
    dz = degree(restrict(t, z), k)
    if dz > k * k:
        raise ValueError(f"restriction to z has degree {dz} > k^2")
    base = restrict(t, x | y)
    forb = dict(base.forbidden)
    s_in_z = sorted(v for v in z if v in t.precolour)
    for zv in s_in_z:
        colour = t.precolour[zv]
        for nb in sorted(h.adj[zv]):
            if nb in x and nb in forb:
                forb[nb] = forb[nb] | {colour}
    out = Template(base.precolour, forb)
    for v, fs in out.forbidden.items():
        bound = 2 * k - 1 if v in x else k - 1
        if len(fs) > bound:
            raise RuntimeError(f"derived list at {v} has size {len(fs)} > {bound}")
    return out


def derive_completion_template(
    h: Graph, t: Template, x: frozenset[int], z: frozenset[int], cprime: Mapping[int, int], k: int
) -> Template:
    """Template on H[X u Z]: the restriction of t with every uncoloured
    X-vertex additionally pre-coloured according to cprime.

    Its degree is at most k|X| + deg(t restricted to Z) <= 2k^2 as long as
    |X| <= k-1 and the Z-restriction has degree at most k^2.
    """
    if len(x) > k - 1:
        raise ValueError(f"|x| = {len(x)} exceeds k-1 = {k - 1}")
    dz = degree(restrict(t, z), k)
    if dz > k * k:
        raise ValueError(f"restriction to z has degree {dz} > k^2")
    missing = x - set(cprime)
    if missing:
        raise ValueError(f"cprime does not colour the cut vertices {sorted(missing)}")
    if not is_proper(induced_subgraph(h, set(cprime) & h.vertices), cprime):
        raise ValueError("cprime is not a proper colouring")
    for v, c in t.precolour.items():
        if v in cprime and cprime[v] != c:
            raise ValueError(f"cprime disagrees with the pre-colouring at vertex {v}")
    base = restrict(t, x | z)
    pre = dict(base.precolour)
    forb = dict(base.forbidden)
    for v in sorted(x):
        if v not in pre:
            pre[v] = cprime[v]
            del forb[v]
    out = Template(pre, forb)
    if degree(out, k) > 2 * k * k:
        raise RuntimeError("completion template exceeded the 2k^2 degree bound")
    return out


def glue(cprime: Mapping[int, int], cdouble: Mapping[int, int]) -> dict[int, int]:
    """Union of two colourings that agree on their overlap."""
    overlap = set(cprime) & set(cdouble)
    for v in overlap:
        if cprime[v] != cdouble[v]:
            raise ValueError(f"colourings disagree at vertex {v}")
    merged = dict(cprime)
    merged.update(cdouble)
    return merged


def rainbow_small_case(h: Graph, t: Template, k: int, palette: Palette) -> dict[int, int]:
    """Respecting colouring of a graph on at most k vertices, giving the
    uncoloured vertices pairwise distinct colours from their available
    lists (greedy by vertex id, smallest colour first).  Room is guaranteed
    for any witness-shaped template, complete host or not, because the
    construction never relies on a non-edge."""
    if h.n > k:
        raise ValueError(f"small case needs at most k = {k} vertices, got {h.n}")
    if any(len(fs) > k - 1 for fs in t.forbidden.values()):
        raise ValueError("small case requires forbidden lists of size at most k-1")
    col = dict(t.precolour)
    used: set[int] = set()
    for v in sorted(t.forbidden):
        if palette.mode == PLAIN:
            avail = palette.colours_of(v) - set(t.precolour.values()) - t.forbidden[v]
        else:
            nbr_pre = {t.precolour[u] for u in h.adj[v] if u in t.precolour}
            avail = palette.colours_of(v) - nbr_pre - t.forbidden[v]
        choices = sorted(avail - used)
        if not choices:
            raise RuntimeError(f"no rainbow colour left for vertex {v}")
        col[v] = choices[0]
        used.add(choices[0])
    if not respects(h, t, col, palette):
        raise RuntimeError("rainbow construction produced a non-respecting colouring")
    return col


@dataclass(frozen=True)
class IntervalPartition:
    """Ordered intervals of the uncoloured vertices, each inside a single
    independent set, produced by the two stopping rules."""

    intervals: tuple[tuple[int, ...], ...]
    indep_sets: tuple[frozenset[int], ...]


def interval_partition(
    h: Graph, t: Template, k: int, indep: Iterable[Iterable[int]]
) -> IntervalPartition:
    """Split the uncoloured vertices into intervals along the independent
    sets.  Processing order is the given sets in order, ids ascending
    inside each; the current interval is closed either just before a vertex
    from a different set, or just after the vertex that pushes its
    forbidden-size sum past k.  With lists of size at most k-1 and a
    witness-degree template this yields at most 3k intervals, each with
    forbidden-size sum at most 2k."""
    sets = [frozenset(js) for js in indep]
    uncoloured = frozenset(t.forbidden)
    union = frozenset().union(*sets) if sets else frozenset()
    if union != uncoloured or sum(len(js) for js in sets) != len(uncoloured):
        raise ValueError("independent sets must partition the uncoloured vertices")
    for js in sets:
        for u in js:
            for v in js:
                if u < v and h.has_edge(u, v):
                    raise ValueError(f"set containing {u} and {v} is not independent")
    # |F| <= k keeps the per-interval sum at 2k: it was at most k before the
    # closing vertex was added.  (Strengthened templates satisfy k-1.)
    if any(len(fs) > k for fs in t.forbidden.values()):
        raise ValueError("interval partition requires forbidden lists of size at most k")

    home = {v: i for i, js in enumerate(sets) for v in js}
    order = [v for i, js in enumerate(sets) for v in sorted(js)]
    intervals: list[tuple[int, ...]] = []
    current: list[int] = []
    current_home = -1
    current_sum = 0
    for v in order:
        if current and home[v] != current_home:
            intervals.append(tuple(current))  # rule 1: close without v
            current, current_sum = [], 0
        if not current:
            current_home = home[v]
        current.append(v)
        current_sum += len(t.forbidden[v])
        if current_sum > k:
            intervals.append(tuple(current))  # rule 2: close by adding v
            current, current_sum = [], 0
    if current:
        intervals.append(tuple(current))
    return IntervalPartition(tuple(intervals), tuple(sets))


def colour_from_intervals(
    h: Graph, t: Template, parts: IntervalPartition, palette: Palette
) -> dict[int, int]:
    """Give each interval one colour unseen on S and on its members'
    forbidden lists, all intervals pairwise distinct (greedy smallest);
    together with the pre-colouring this respects the template."""
    if palette.mode != PLAIN:
        raise ValueError("interval colouring is a plain-mode construction")
    col = dict(t.precolour)
    used: set[int] = set()
    s_colours = set(t.precolour.values())
    for interval in parts.intervals:
        banned = s_colours.union(*(t.forbidden[v] for v in interval))
        choices = sorted(palette.universe() - banned - used)
        if not choices:
            raise RuntimeError("ran out of interval colours; palette too small")
        for v in interval:
            col[v] = choices[0]
        used.add(choices[0])
    if not respects(h, t, col, palette):
        raise RuntimeError("interval colouring produced a non-respecting colouring")
    return col


def list_direct_completion(
    h: Graph, t: Template, k: int, palette: Palette, budget=None
) -> dict[int, int] | None:
    """List-mode completion: per-vertex available lists (own list minus
    forbidden colours minus pre-coloured neighbours' colours) are handed to
    the solver on the uncoloured part.  Returns the full colouring or None.
    """
    if palette.mode != LIST:
        raise ValueError("direct completion is a list-mode construction")
    if any(len(fs) > k - 1 for fs in t.forbidden.values()):
        raise ValueError("direct completion requires a strengthened template")
    rest = sorted(t.forbidden)
    if not rest:
        return dict(t.precolour)
    avail: dict[int, frozenset[int]] = {}
    for v in rest:
        nbr_pre = {t.precolour[u] for u in h.adj[v] if u in t.precolour}
        avail[v] = palette.colours_of(v) - t.forbidden[v] - nbr_pre
        if not avail[v]:
            return None
    sub = induced_subgraph(h, rest)
    result = _extend(sub, Template.empty(sub), Palette.from_lists(avail), budget)
    result.raise_if_limited()
    if result.outcome == "unsat":
        return None
    col = dict(t.precolour)
    col.update(result.colouring)
    if not respects(h, t, col, palette):
        raise RuntimeError("direct completion produced a non-respecting colouring")
    return col


# ---------------------------------------------------------------------------
# Text serialization: `k`, `mode`, plain palette size, then one line per
# vertex (`precolour v c` or `forbid v c...`), plus `list v c...` lines in
# list mode.  Round-trip stable.
# ---------------------------------------------------------------------------

def format_lists(lists: ListAssignment) -> str:
    lines = [f"list {v} " + " ".join(str(c) for c in sorted(lists[v])) for v in sorted(lists)]
    return "\n".join(line.rstrip() for line in lines) + "\n"


def parse_lists(text: str) -> dict[int, frozenset[int]]:
    lists: dict[int, frozenset[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "list" or len(parts) < 2:
            raise ValueError(f"line {lineno}: expected 'list <v> <colours...>'")
        lists[int(parts[1])] = frozenset(int(c) for c in parts[2:])
    return lists


def format_template(k: int, palette: Palette, t: Template) -> str:
    lines = [f"k {k}", f"mode {palette.mode}"]
    if palette.mode == PLAIN:
        lines.append(f"palette {palette.size}")
    else:
        for v in sorted(palette.lists):
            lines.append(("list " + str(v) + " " + " ".join(str(c) for c in sorted(palette.lists[v]))).rstrip())
    for v in sorted(t.precolour):
        lines.append(f"precolour {v} {t.precolour[v]}")
    for v in sorted(t.forbidden):
        lines.append(("forbid " + str(v) + " " + " ".join(str(c) for c in sorted(t.forbidden[v]))).rstrip())
    return "\n".join(lines) + "\n"


def parse_template(text: str) -> tuple[int, Palette, Template]:
    k = None
    mode = None
    size = None
    lists: dict[int, frozenset[int]] = {}
    pre: dict[int, int] = {}
    forb: dict[int, frozenset[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c ") or line == "c":
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "k":
                k = int(parts[1])
            elif key == "mode":
                mode = parts[1]
            elif key == "palette":
                size = int(parts[1])
            elif key == "list":
                lists[int(parts[1])] = frozenset(int(c) for c in parts[2:])
            elif key == "precolour":
                pre[int(parts[1])] = int(parts[2])
            elif key == "forbid":
                forb[int(parts[1])] = frozenset(int(c) for c in parts[2:])
            else:
                raise ValueError(f"unknown record {key!r}")
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if k is None or mode is None:
        raise ValueError("template text must carry 'k' and 'mode' lines")
    if mode == PLAIN:
        if size is None:
            raise ValueError("plain-mode template text must carry a 'palette' line")
        palette = Palette.plain(size)
    else:
        palette = Palette(LIST, lists=lists)
    return k, palette, Template(pre, forb)
