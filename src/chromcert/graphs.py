"""Immutable undirected simple graphs with stable vertex identities.

Vertices of a freshly built graph are 0..n-1; induced subgraphs keep the
original identifiers so pre-colourings and forbidden lists restrict without
any renaming.  An induced subgraph inherits its parent's adjacency: its
neighbour sets are the parent's intersected with the kept vertices, and its
edges are read off them, so it costs the subgraph's size, not the parent's.
Its edges still pass the constructor's validation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


Edge = tuple[int, int]


def _normalise_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph.  Immutable after construction."""

    vertices: frozenset[int]
    edges: frozenset[Edge]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge {(u, v)} not normalised; use Graph.build")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError(f"edge {(u, v)} has endpoint outside vertex set")

    @staticmethod
    def build(n_or_vertices: int | Iterable[int], edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        """Build a graph from a vertex count (vertices 0..n-1) or an explicit
        vertex collection, plus an edge iterable.  Edges are normalised and
        de-duplicated; self-loops are rejected."""
        if isinstance(n_or_vertices, int):
            vertices = frozenset(range(n_or_vertices))
        else:
            vertices = frozenset(n_or_vertices)
        edge_set = frozenset(_normalise_edge(u, v) for u, v in edges)
        return Graph(vertices, edge_set)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    @cached_property
    def digest(self) -> str:
        """sha256 of the canonical (comment-free, sorted) DIMACS form."""
        return "sha256:" + hashlib.sha256(to_dimacs(self).encode("utf-8")).hexdigest()

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return _normalise_edge(u, v) in self.edges

    def is_complete(self) -> bool:
        n = self.n
        return self.m == n * (n - 1) // 2

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)


def induced_subgraph(g: Graph, x: Iterable[int]) -> Graph:
    """Subgraph induced by the vertex set x, identities preserved."""
    xs = frozenset(x)
    stray = xs - g.vertices
    if stray:
        raise ValueError(f"vertices {sorted(stray)} are not in the graph")
    adj = {v: g.adj[v] & xs for v in xs}
    h = Graph(xs, frozenset((u, w) for u, nbrs in adj.items() for w in nbrs if u < w))
    h.__dict__["adj"] = adj  # the slot the cached_property fills
    return h


def reach(g: Graph, start: int, blocked: frozenset[int] = frozenset()) -> set[int]:
    """The vertex set of the component of g - blocked that holds start,
    grown one whole neighbourhood frontier at a time."""
    adj = g.adj
    comp, frontier = {start}, {start}
    while frontier:
        new = set()
        for v in frontier:
            new |= adj[v]
        new -= comp
        new -= blocked
        comp |= new
        frontier = new
    return comp


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Connected components, ordered by their smallest vertex id."""
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for start in g.sorted_vertices():
        if start in seen:
            continue
        comp = reach(g, start)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return len(connected_components(g)) == 1


# ---------------------------------------------------------------------------
# DIMACS-style files: `c` comments, `p edge <n> <m>`, then m `e <u> <v>`
# lines (1-based).  A malformed record raises ValueError naming its line.
# ---------------------------------------------------------------------------

def to_dimacs(g: Graph, comments: Iterable[str] = ()) -> str:
    ranks = {v: i + 1 for i, v in enumerate(g.sorted_vertices())}
    lines = [f"c {c}" for c in comments]
    lines.append(f"p edge {g.n} {g.m}")
    for u, v in sorted((ranks[a], ranks[b]) for a, b in g.edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def int_fields(lineno: int, fields: list[str]) -> list[int]:
    """A record's fields as integers, or ValueError naming its line."""
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ValueError(f"line {lineno}: expected integers, got {' '.join(fields)!r}") from None


def from_dimacs(text: str) -> Graph:
    n = None
    edges: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"line {lineno}: expected 'p edge <n> <m>', got {line!r}")
            if n is not None:
                raise ValueError(f"line {lineno}: second problem line {line!r}")
            n, m = int_fields(lineno, parts[2:4])
            if n < 0 or m < 0:
                raise ValueError(f"line {lineno}: negative count in {line!r}")
            p_lineno = lineno
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: malformed edge line {line!r}")
            if n is None:
                raise ValueError(f"line {lineno}: edge line before problem line")
            u, v = (x - 1 for x in int_fields(lineno, parts[1:]))
            if u == v:
                raise ValueError(f"line {lineno}: self-loop at vertex {u + 1}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"line {lineno}: vertex out of range in {line!r}")
            edge = _normalise_edge(u, v)
            if edge in edges:
                raise ValueError(f"line {lineno}: repeated edge {line!r}")
            edges.add(edge)
        else:
            raise ValueError(f"line {lineno}: unknown record {line!r}")
    if n is None:
        raise ValueError("missing 'p edge <n> <m>' line")
    if len(edges) != m:
        raise ValueError(f"line {p_lineno}: {m} edges declared, {len(edges)} 'e' lines found")
    return Graph.build(n, edges)


def read_dimacs(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_dimacs(fh.read())


def write_dimacs(g: Graph, path: str, comments: Iterable[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_dimacs(g, comments))


def graph_hash(g: Graph) -> str:
    """sha256 of the canonical (comment-free, sorted) DIMACS form, computed
    once per graph."""
    return g.digest
