"""Immutable undirected simple graphs with stable vertex identities.

A graph stores only its adjacency, one neighbour set per vertex; its edges
are derived on demand, and Graph.build is the one validating entry point.
A graph built from a count has vertices 0..n-1; induced subgraphs keep ids,
so pre-colourings and forbidden lists restrict without renaming.  Each of
their neighbour sets is the parent's intersected with the kept vertices: it
costs the subgraph's size and inherits the parent's validity.  The two
input formats, DIMACS graphs and list-mode lists files, are read here too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph.  Immutable after construction."""

    vertices: frozenset[int]
    adj: dict[int, frozenset[int]] = field(hash=False)

    @staticmethod
    def build(n_or_vertices: int | Iterable[int], edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        """Build a graph from a vertex count (vertices 0..n-1) or an explicit
        vertex collection, plus an edge iterable.  Edges are normalised and
        de-duplicated; self-loops and endpoints outside the vertices raise."""
        if isinstance(n_or_vertices, int):
            vertices = frozenset(range(n_or_vertices))
        else:
            vertices = frozenset(n_or_vertices)
        nbrs: dict[int, set[int]] = {v: set() for v in vertices}
        for u, v in frozenset((u, v) if u < v else (v, u) for u, v in edges):
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge {(u, v)} has endpoint outside vertex set")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return Graph(vertices, {v: frozenset(s) for v, s in nbrs.items()})

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def m(self) -> int:
        return sum(map(len, self.adj.values())) // 2

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Each edge once, as (smaller id, larger id)."""
        return frozenset((u, w) for u, nbrs in self.adj.items() for w in nbrs if u < w)

    @cached_property
    def digest(self) -> str:
        """sha256 of the canonical (comment-free, sorted) DIMACS form."""
        return "sha256:" + hashlib.sha256(to_dimacs(self).encode("utf-8")).hexdigest()

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj.get(u, ())

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
    return Graph(xs, {v: g.adj[v] & xs for v in xs})


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


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(reach(g, next(iter(g.vertices)))) == g.n


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
    edges: set[tuple[int, int]] = set()
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
            edge = (min(u, v), max(u, v))
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


# ---------------------------------------------------------------------------
# Lists files: one `list <v> <colours...>` line per vertex, `c` comments.
# ---------------------------------------------------------------------------

def parse_lists(text: str) -> dict[int, frozenset[int]]:
    lists: dict[int, frozenset[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "list" or len(parts) < 2:
            raise ValueError(f"line {lineno}: expected 'list <v> <colours...>'")
        v, *colours = int_fields(lineno, parts[1:])
        if v in lists:
            raise ValueError(f"line {lineno}: second list for vertex {v}")
        lists[v] = frozenset(colours)
    return lists


def graph_hash(g: Graph) -> str:
    """sha256 of the canonical (comment-free, sorted) DIMACS form, computed
    once per graph."""
    return g.digest
