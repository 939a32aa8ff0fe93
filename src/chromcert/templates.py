"""The construction lemmas the descent relies on, and nothing else:
strengthening, the separation and completion templates, gluing, and the
rainbow, interval and list-mode completions, built on the colouring problem
of solver.py and the separation rule of connectivity.py.  The degree
k|S| + sum |F(v)| is the potential that all the derivation bookkeeping is
measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .connectivity import separation_fault
from .errors import InternalContradiction
from .graphs import Graph, induced_subgraph
from .solver import LIST, PLAIN, Palette, Template, extend, is_proper, respects
# perfbench/tracer.py binds templates.validate_template by name, so it stays
# here until its next revision.
from .solver import validate_template  # noqa: F401


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


def _free_colours(g: Graph, t: Template, v: int, palette: Palette) -> frozenset[int]:
    """The colours a construction may give the uncoloured vertex v without
    touching the template's other guarantees: v's palette colours minus
    F(v), minus every colour used on S in plain mode, or in list mode only
    the colours of v's pre-coloured neighbours, since properness is a
    purely local constraint."""
    if palette.mode == PLAIN:
        blocked = set(t.precolour.values())
    else:
        blocked = {t.precolour[u] for u in g.adj[v] if u in t.precolour}
    return palette.colours_of(v) - t.forbidden[v] - blocked


def _palette_too_small(what: str, v: int, k: int, palette: Palette) -> ValueError:
    kind, size = ("palette", palette.size) if palette.mode == PLAIN else ("list", len(palette.colours_of(v)))
    return ValueError(f"{what} for vertex {v}: {kind} size {size} is too small for k = {k}")


def strengthen_witness(g: Graph, t: Template, k: int, palette: Palette, budget=None) -> Template:
    """Shrink every forbidden list below k by pre-colouring heavy vertices.

    While some vertex v outside S has |F(v)| >= k, the smallest such v is
    pre-coloured with the smallest eligible colour and its list dropped;
    the degree cannot increase (the |S| term grows by k, the list term
    shrinks by at least k).  If anything changed, the result is re-checked
    UNSAT; a respecting colouring at that point disproves the input witness
    and is raised as an InternalContradiction.  No eligible colour means the
    palette is too small for k: ValueError.
    """
    pre = dict(t.precolour)
    forb = dict(t.forbidden)
    changed = False
    while True:
        heavy = sorted(v for v, fs in forb.items() if len(fs) >= k)
        if not heavy:
            break
        v = heavy[0]
        eligible = _free_colours(g, Template(pre, forb), v, palette)
        if not eligible:
            raise _palette_too_small("no eligible colour", v, k, palette)
        pre[v] = min(eligible)
        del forb[v]
        changed = True
    out = Template(pre, forb)
    if changed:
        if degree(out, k) > degree(t, k):
            raise RuntimeError("strengthening increased the template degree")
        result = extend(g, out, palette, budget)
        if result.outcome == "sat":
            raise InternalContradiction(
                "strengthened template admits a respecting colouring; "
                "the input was not a witness",
                result.colouring,
            )
    return out


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
    fault = separation_fault(h, h.vertices, x, y, z)
    if fault:
        raise ValueError(fault)
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
    if not is_proper(h, cprime):
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
    for any witness-shaped template from a palette of the theorem's size,
    complete host or not, because the construction never relies on a
    non-edge; a smaller palette can run out (ValueError)."""
    if h.n > k:
        raise ValueError(f"small case needs at most k = {k} vertices, got {h.n}")
    if any(len(fs) > k - 1 for fs in t.forbidden.values()):
        raise ValueError("small case requires forbidden lists of size at most k-1")
    col = dict(t.precolour)
    used: set[int] = set()
    for v in sorted(t.forbidden):
        choices = _free_colours(h, t, v, palette) - used
        if not choices:
            raise _palette_too_small("no rainbow colour left", v, k, palette)
        col[v] = min(choices)
        used.add(col[v])
    if not respects(h, t, col, palette):
        raise RuntimeError("rainbow construction produced a non-respecting colouring")
    return col


@dataclass(frozen=True)
class IntervalPartition:
    """Ordered intervals of the uncoloured vertices, each inside a single
    independent set, produced by the two stopping rules."""

    intervals: tuple[tuple[int, ...], ...]


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
    return IntervalPartition(tuple(intervals))


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
            raise ValueError(f"ran out of interval colours for vertex {interval[0]}: "
                             f"palette size {palette.size} is too small")
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
    avail = {v: _free_colours(h, t, v, palette) for v in rest}
    if not all(avail.values()):
        return None
    sub = induced_subgraph(h, rest)
    result = extend(sub, Template.empty(sub), Palette.from_lists(avail), budget)
    if result.outcome == "unsat":
        return None
    col = dict(t.precolour)
    col.update(result.colouring)
    if not respects(h, t, col, palette):
        raise RuntimeError("direct completion produced a non-respecting colouring")
    return col
