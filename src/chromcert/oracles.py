"""Independent brute-force reference oracles: all of chromcert's brute
force lives here.

Everything here answers straight from the definitions: colourability by
plain backtracking in vertex id order, the other oracles by exhaustive
enumeration, and brute_force_extend by testing every assignment against
the problem model of solver.py (validate_template, respects).  None of
them uses the ordering heuristics, propagation or symmetry breaking of the
exact engine (solver.extend, which also answers solver.is_colourable and
list_colour) or the max-flow connectivity layer.  The verification suites
and the tests run both routes and demand exact agreement.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator, Mapping

from .graphs import Graph, induced_subgraph, is_connected
from .solver import Palette, SolveResult, SolverStats, Template, respects, validate_template

BRUTE_FORCE_VERTEX_CAP = 8
BRUTE_FORCE_SPACE_CAP = 2_000_000


def brute_colourable(g: Graph, t: int) -> bool:
    """Is there a proper t-colouring?"""
    return brute_first_colouring(g, t) is not None


def brute_chromatic_number(g: Graph, upper: int) -> int | None:
    """Smallest t <= upper admitting a proper colouring, else None."""
    for t in range(0, upper + 1):
        if brute_colourable(g, t):
            return t
    return None


def brute_first_colouring(g: Graph, t: int) -> dict[int, int] | None:
    """Lexicographically first proper t-colouring by plain recursion in
    vertex id order (no ordering heuristics, no symmetry breaking)."""
    order = g.sorted_vertices()
    col: dict[int, int] = {}

    def rec(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for c in range(t):
            if all(col.get(u) != c for u in g.adj[v]):
                col[v] = c
                if rec(i + 1):
                    return True
                del col[v]
        return False

    if rec(0):
        return dict(col)
    return None


def brute_list_colour(g: Graph, lists: Mapping[int, frozenset[int]]) -> dict[int, int] | None:
    """First proper colouring in the product of the lists, or None."""
    order = g.sorted_vertices()
    domains = [sorted(lists[v]) for v in order]
    for assignment in product(*domains):
        col = dict(zip(order, assignment))
        if all(col[u] != col[v] for u, v in g.edges):
            return col
    return None


def brute_min_cut(g: Graph) -> tuple[int, frozenset[int]] | None:
    """Smallest disconnecting vertex set by subset enumeration in
    lexicographic order; None when the graph is complete."""
    if not is_connected(g):
        return 0, frozenset()
    if g.is_complete():
        return None
    vs = g.sorted_vertices()
    for size in range(0, g.n - 1):
        for cut in combinations(vs, size):
            rest = g.vertices - set(cut)
            if len(rest) > 1 and not is_connected(induced_subgraph(g, rest)):
                return size, frozenset(cut)
    return None


def brute_is_k_connected(g: Graph, k: int) -> bool:
    """Definition check: more than k vertices and no disconnecting set of
    fewer than k vertices."""
    if g.n <= k:
        return False
    vs = g.sorted_vertices()
    for size in range(0, k):
        for cut in combinations(vs, size):
            rest = g.vertices - set(cut)
            if len(rest) > 1 and not is_connected(induced_subgraph(g, rest)):
                return False
    return True


def canonical_list_assignments(g: Graph, s: int) -> Iterator[dict[int, frozenset[int]]]:
    """All s-element list assignments up to renaming of colours, by plain
    recursion: the reference order of the choosability witness search.

    Vertices go in id order.  Each list mixes j already-seen colours (j from
    min(s, used) down to 0, subsets in combinations order) with s - j fresh
    ones, the next unused integers; at most n*s colours thus appear, which
    suffices for a complete witness search.
    """
    order = g.sorted_vertices()
    assignment: dict[int, frozenset[int]] = {}

    def rec(i: int, used: int) -> Iterator[dict[int, frozenset[int]]]:
        if i == len(order):
            yield dict(assignment)
            return
        v = order[i]
        for j in range(min(s, used), -1, -1):
            fresh = tuple(range(used, used + s - j))
            for old in combinations(range(used), j):
                assignment[v] = frozenset(old + fresh)
                yield from rec(i + 1, used + s - j)
        assignment.pop(v, None)

    yield from rec(0, 0)


def brute_force_extend(g: Graph, t: Template, palette: Palette) -> SolveResult:
    """Enumerate every assignment of non-forbidden palette colours to the
    uncoloured vertices, in lexicographic order, and test each against the
    respects predicate: the reference for solver.extend."""
    validate_template(g, t, palette)
    if g.n > BRUTE_FORCE_VERTEX_CAP:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_VERTEX_CAP} vertices")
    order = sorted(t.forbidden)
    domains = [sorted(palette.colours_of(v) - t.forbidden[v]) for v in order]
    space = 1
    for d in domains:
        space *= len(d)
        if space > BRUTE_FORCE_SPACE_CAP:
            raise ValueError("brute force candidate space exceeds the cap")
    stats = SolverStats()
    for assignment in product(*domains):
        stats.decisions += 1
        col = dict(t.precolour)
        col.update(zip(order, assignment))
        if respects(g, t, col, palette):
            return SolveResult("sat", col, stats)
    return SolveResult("unsat", None, stats)
