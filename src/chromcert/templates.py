"""The construction lemmas the descent relies on, and nothing else:
strengthening, the separation and completion templates, gluing, and the
rainbow, interval and list-mode completions, built on the colouring problem
of solver.py and the separation rule of connectivity.py.  The degree
k|S| + sum |F(v)| is the potential that all the derivation bookkeeping is
measured against.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .connectivity import separation_fault
from .errors import InternalContradiction
from .graphs import Graph
from .solver import LIST, PLAIN, Palette, Template, extend, is_proper, respects
# perfbench/tracer.py binds templates.validate_template by name, so it stays
# here until its next revision.
from .solver import validate_template  # noqa: F401


def degree(t: Template, k: int) -> int:
    """k|S| + sum of forbidden-list sizes."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return k * len(t.precolour) + sum(map(len, t.forbidden.values()))


def restrict(t: Template, x: Iterable[int]) -> Template:
    """Restriction to the induced subgraph on x: keep pre-colours of S & x
    and forbidden lists of x - S.  It reads S, at most 2k vertices in a
    witness, and the lists of x alone."""
    xs, forb = frozenset(x), t.forbidden
    return Template({v: c for v, c in t.precolour.items() if v in xs}, {v: forb[v] for v in xs if v in forb})


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

    The heavy vertices v outside S have |F(v)| >= k, and are gathered only
    when the longest list shows there are some: each pre-colouring drops
    only its own vertex's list.  In id order each is pre-coloured with its
    smallest eligible colour and its list dropped; the degree cannot
    increase (k|S| grows by k, the lists lose at least k).
    With none, t itself is returned; else the result is re-checked UNSAT,
    and a respecting colouring disproves the input witness
    (InternalContradiction).  No eligible colour means the palette is too
    small for k: ValueError.
    """
    if max(map(len, t.forbidden.values()), default=0) < k:
        return t
    heavy = sorted(v for v, fs in t.forbidden.items() if len(fs) >= k)
    pre, forb = dict(t.precolour), dict(t.forbidden)
    for v in heavy:
        eligible = _free_colours(g, Template(pre, forb), v, palette)
        if not eligible:
            raise _palette_too_small("no eligible colour", v, k, palette)
        pre[v] = min(eligible)
        del forb[v]
    out = Template(pre, forb)
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
    and, untouched, k-1 on Y, so only X's are checked.
    """
    fault = separation_fault(h, h.vertices, x, y, z)
    if fault:
        raise ValueError(fault)
    if max(map(len, t.forbidden.values()), default=0) > k - 1:
        raise ValueError("derivation requires forbidden lists of size at most k-1")
    dz = degree(restrict(t, z), k)
    if dz > k * k:
        raise ValueError(f"restriction to z has degree {dz} > k^2")
    base = restrict(t, x | y)
    forb = dict(base.forbidden)
    for zv, colour in t.precolour.items():
        if zv in z:
            for nb in h.adj[zv] & x & forb.keys():
                forb[nb] = forb[nb] | {colour}
    for v in x & forb.keys():
        if len(forb[v]) > 2 * k - 1:
            raise RuntimeError(f"derived list at {v} has size {len(forb[v])} > {2 * k - 1}")
    return Template(base.precolour, forb)


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


def interval_partition(
    h: Graph, t: Template, k: int, indep: Iterable[Iterable[int]]
) -> tuple[tuple[int, ...], ...]:
    """Split the uncoloured vertices into ordered intervals, each inside a
    single independent set.  Processing order is the given sets in order,
    ids ascending inside each; the current interval is closed either just
    before a vertex from a different set, or just after the vertex that
    pushes its forbidden-size sum past k.  With lists of size at most k-1 and a
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
    return tuple(intervals)


def colour_from_intervals(
    h: Graph, t: Template, intervals: Iterable[tuple[int, ...]], palette: Palette
) -> dict[int, int]:
    """Give each interval one colour unseen on S and on its members'
    forbidden lists, all intervals pairwise distinct (greedy smallest);
    together with the pre-colouring this respects the template."""
    if palette.mode != PLAIN:
        raise ValueError("interval colouring is a plain-mode construction")
    col = dict(t.precolour)
    used: set[int] = set()
    s_colours = set(t.precolour.values())
    for interval in intervals:
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
    """List-mode completion: a colouring of h that respects t, or None.  As
    c is proper on S, that is a colouring of H - S from the lists
    L(v) - F(v) - c(S & N(v)) joined to c; extend decides it on h."""
    if palette.mode != LIST:
        raise ValueError("direct completion is a list-mode construction")
    if any(len(fs) > k - 1 for fs in t.forbidden.values()):
        raise ValueError("direct completion requires a strengthened template")
    return extend(h, t, palette, budget).colouring
