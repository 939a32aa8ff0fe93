"""Immutable undirected simple graphs with stable vertex identities.

A graph stores its adjacency, one neighbour set per vertex; its edges and
its View as bitsets are derived on demand, and Graph.build is the one
validating entry point.  A graph built from a count has vertices 0..n-1;
induced subgraphs keep ids, so pre-colourings and forbidden lists restrict
without renaming.  Each of their neighbour sets is the parent's intersected
with the kept vertices, at the subgraph's size and with the parent's
validity.  A subgraph that keeps at least half of the ranks of its parent's
built view shares those masks under its own `alive` mask; any other graph
builds its own view, as a fresh root, at its first connectivity read.
The two input formats, DIMACS graphs and list-mode lists files, are read here.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple


class View(NamedTuple):
    """Masks over the ranks of a root graph, the graph whose own adjacency
    they were built from at its first connectivity read: ids[i] is its i-th
    id in sorted order, rank[ids[i]] is i, nbm[i] the mask of ids[i]'s root
    neighbours, and `alive` that of this graph's vertices.  A view holds
    masks only, no per-query state."""

    ids: list[int]
    rank: dict[int, int]
    nbm: list[int]
    alive: int


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
        """sha256 of the canonical (comment-free, sorted) DIMACS form, computed once."""
        return "sha256:" + hashlib.sha256(to_dimacs(self).encode("utf-8")).hexdigest()

    @cached_property
    def view(self) -> View:
        """This graph's masks as a fresh root, built at the first read unless
        induced_subgraph passed its parent's down."""
        ids = sorted(self.vertices)
        rank = dict(zip(ids, range(len(ids))))
        nbm = [sum(map((1).__lshift__, map(rank.__getitem__, self.adj[v]))) for v in ids]
        return View(ids, rank, nbm, (1 << len(ids)) - 1)

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
    """Subgraph induced by the vertex set x, identities preserved, or g itself.
    When g has built its view and x keeps at least half of that view's
    ranks, the subgraph shares its masks, with an alive mask summed over x
    or its complement in g, whichever is smaller; otherwise it builds its
    own view if it is read, so no mask is wider than twice its graph."""
    xs = frozenset(x)
    stray = xs - g.vertices
    if stray:
        raise ValueError(f"vertices {sorted(stray)} are not in the graph")
    if len(xs) == g.n:
        return g
    sub = Graph(xs, {v: g.adj[v] & xs for v in xs})
    view = g.__dict__.get("view")
    if view is not None and 2 * len(xs) >= len(view.ids):
        def bits(vs):
            return sum(map((1).__lshift__, map(view.rank.__getitem__, vs)))
        alive = bits(xs) if 2 * len(xs) <= g.n else view.alive - bits(g.vertices - xs)
        # Stored where cached_property keeps its value, so sub.view reads it.
        sub.__dict__["view"] = view._replace(alive=alive)
    return sub


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
    """g as DIMACS text; each comment must stay one line by the readers'
    line rule, so it may hold no line boundary at all."""
    ranks = {v: i + 1 for i, v in enumerate(g.sorted_vertices())}
    lines = [f"c {c}" for c in comments]
    for line in lines:
        if line.splitlines() != [line]:
            raise ValueError(f"comment {line[2:]!r} is not one line")
    lines.append(f"p edge {g.n} {g.m}")
    for u, v in sorted((ranks[a], ranks[b]) for a, b in g.edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


_INTEGER = re.compile(r"-?[0-9]+")  # one spelling per id: no sign "+", "_" or non-ASCII digit


def int_fields(lineno: int, fields: list[str]) -> list[int]:
    """A record's fields as integers, or ValueError naming its line."""
    if not all(_INTEGER.fullmatch(f) for f in fields):
        raise ValueError(f"line {lineno}: expected integers, got {' '.join(fields)!r}")
    return [int(f) for f in fields]


_NEWLINE = re.compile(r"\r\n?|\n")
# The other line boundaries of str.splitlines; a line holding one has two
# readings, and its line number differs between editors.
_OTHER_BREAK = re.compile("[\v\f\x1c-\x1e\x85\u2028\u2029]")


def _records(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line number, stripped line, its fields) for each line of text that
    is neither blank nor a comment, whose first field is exactly `c`; both
    input formats read these.  A line ends at LF, CR LF or CR, and a line
    that holds any other boundary of str.splitlines is refused."""
    for lineno, raw in enumerate(_NEWLINE.split(text), start=1):
        if bad := _OTHER_BREAK.search(raw):
            raise ValueError(f"line {lineno}: line break {bad[0]!r} inside a line")
        line = raw.strip()
        fields = line.split()
        if fields and fields[0] != "c":
            yield lineno, line, fields


def from_dimacs(text: str) -> Graph:
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, line, parts in _records(text):
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
    text = to_dimacs(g, comments)  # a refused comment leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Lists files: one `list <v> <colours...>` line per vertex, `c` comments.
# ---------------------------------------------------------------------------

def parse_lists(text: str) -> dict[int, frozenset[int]]:
    lists: dict[int, frozenset[int]] = {}
    for lineno, _, parts in _records(text):
        if parts[0] != "list" or len(parts) < 2:
            raise ValueError(f"line {lineno}: expected 'list <v> <colours...>'")
        v, *colours = int_fields(lineno, parts[1:])
        if v in lists:
            raise ValueError(f"line {lineno}: second list for vertex {v}")
        lists[v] = frozenset(colours)
        if len(lists[v]) != len(colours):
            raise ValueError(f"line {lineno}: repeated colour in the list of vertex {v}")
    return lists
