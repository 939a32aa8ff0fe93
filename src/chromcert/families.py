"""Deterministic graph-family generators used as test inputs."""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph


@dataclass(frozen=True)
class FamilySpec:
    """A recipe for a generated graph: a family tag and the arguments of its
    generator (join's are the part specs); equal specs generate equal graphs."""

    tag: str
    args: tuple = ()

    # -- constructors ------------------------------------------------------
    @staticmethod
    def complete(n: int) -> "FamilySpec":
        return FamilySpec("complete", (n,))

    @staticmethod
    def cycle(n: int) -> "FamilySpec":
        return FamilySpec("cycle", (n,))

    @staticmethod
    def kneser(n: int, r: int) -> "FamilySpec":
        return FamilySpec("kneser", (n, r))

    @staticmethod
    def mycielski(rounds: int) -> "FamilySpec":
        return FamilySpec("mycielski", (rounds,))

    @staticmethod
    def glued_cliques(sizes: tuple[int, ...], shared: int) -> "FamilySpec":
        return FamilySpec("glued_cliques", (tuple(sizes), shared))

    @staticmethod
    def join(*parts: "FamilySpec") -> "FamilySpec":
        return FamilySpec("join", parts)

    @staticmethod
    def random(n: int, p: float, seed: int = 0) -> "FamilySpec":
        return FamilySpec("random", (n, p, seed))

    def label(self) -> str:
        if self.tag == "glued_cliques":
            sizes, shared = self.args
            return f"glued_cliques([{','.join(map(str, sizes))}],s={shared})"
        if self.tag == "random":
            return "random({},p={},seed={})".format(*self.args)
        inner = ",".join(a.label() if isinstance(a, FamilySpec) else str(a) for a in self.args)
        return f"{self.tag}({inner})"


def _complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.build(n, combinations(range(n), 2))


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def _kneser(n: int, r: int) -> Graph:
    if r < 1 or n < 2 * r:
        raise ValueError("kneser(n, r) needs r >= 1 and n >= 2r")
    subsets = [frozenset(c) for c in combinations(range(n), r)]
    edges = [
        (i, j)
        for i, j in combinations(range(len(subsets)), 2)
        if not (subsets[i] & subsets[j])
    ]
    return Graph.build(len(subsets), edges)


def _mycielskian(g: Graph) -> Graph:
    """One Mycielski step: raises chromatic number by one, adds no triangle."""
    n = g.n
    ranks = {v: i for i, v in enumerate(g.sorted_vertices())}
    edges: list[tuple[int, int]] = []
    for u, v in g.edges:
        a, b = ranks[u], ranks[v]
        edges.append((a, b))
        edges.append((a, n + b))
        edges.append((b, n + a))
    apex = 2 * n
    edges.extend((n + i, apex) for i in range(n))
    return Graph.build(2 * n + 1, edges)


def _mycielski(rounds: int) -> Graph:
    if rounds < 2:
        raise ValueError("mycielski family starts at rounds = 2 (a single edge)")
    g = _complete(2)
    for _ in range(rounds - 2):
        g = _mycielskian(g)
    return g


def _glued_cliques(sizes: tuple[int, ...], shared: int) -> Graph:
    if not sizes:
        raise ValueError("glued_cliques needs at least one clique")
    if shared < 0:
        raise ValueError("shared vertex count must be nonnegative")
    for s in sizes:
        if s < max(shared, 1):
            raise ValueError(f"clique size {s} below shared set size {shared}")
    edges: set[tuple[int, int]] = set()
    next_id = shared
    core = list(range(shared))
    for size in sizes:
        own = list(range(next_id, next_id + size - shared))
        next_id += size - shared
        members = core + own
        edges.update((u, v) for u, v in combinations(members, 2))
    return Graph.build(next_id, edges)


def _join(*parts: FamilySpec) -> Graph:
    if not parts:
        raise ValueError("join needs at least one part")
    graphs = [generate(p) for p in parts]
    offset = 0
    vertices: list[int] = []
    edges: list[tuple[int, int]] = []
    blocks: list[list[int]] = []
    for g in graphs:
        ranks = {v: offset + i for i, v in enumerate(g.sorted_vertices())}
        blocks.append(sorted(ranks.values()))
        vertices.extend(ranks.values())
        edges.extend((ranks[u], ranks[v]) for u, v in g.edges)
        offset += g.n
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            edges.extend((u, v) for u in blocks[i] for v in blocks[j])
    return Graph.build(len(vertices), edges)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p) drawn from rng.  Pairs are visited in lexicographic order, so
    the edge set is a pure function of (n, p) and the rng's state."""
    return Graph.build(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def _random(n: int, p: float, seed: int) -> Graph:
    if n < 0:
        raise ValueError("random graph needs n >= 0")
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    return random_graph(n, p, random.Random(seed))


_GENERATORS = {
    "complete": _complete,
    "cycle": _cycle,
    "kneser": _kneser,
    "mycielski": _mycielski,
    "glued_cliques": _glued_cliques,
    "join": _join,
    "random": _random,
}

# Families whose parameters are a fixed number of integers, spelled on the
# command line as the spec's tag; these are also the families a join atom
# may name.
_INTEGER_ARITY = {"complete": 1, "cycle": 1, "kneser": 2, "mycielski": 1}


def generate(spec: FamilySpec) -> Graph:
    """Generate the graph described by spec.  Deterministic."""
    if spec.tag not in _GENERATORS:
        raise ValueError(f"unknown family tag {spec.tag!r}")
    return _GENERATORS[spec.tag](*spec.args)


def parse_family(name: str, params: list[str], shared: int | None = None,
                 seed: int | None = None) -> FamilySpec:
    """The spec that `gen <name> <params...>` names; `shared` (default 1)
    applies only to glued cliques, `seed` (default 0) only to random graphs,
    and join parts are atoms.  An option the family does not use is an error."""
    if shared is not None and name != "glued":
        raise ValueError("--shared applies only to glued")
    if seed is not None and name != "random":
        raise ValueError("--seed applies only to random")
    if name == "glued":
        return FamilySpec.glued_cliques(tuple(int(x) for x in params), 1 if shared is None else shared)
    if name == "join":
        return FamilySpec.join(*(parse_atom(a) for a in params))
    arity = 2 if name == "random" else _INTEGER_ARITY.get(name)
    if arity is None:
        raise ValueError(f"unknown family {name!r}")
    if len(params) != arity:
        raise ValueError(f"takes {arity} parameter(s), got {len(params)}")
    if name == "random":
        return FamilySpec.random(int(params[0]), float(params[1]), 0 if seed is None else seed)
    return FamilySpec(name, tuple(int(x) for x in params))


def parse_atom(atom: str) -> FamilySpec:
    """Parse compact family atoms like 'complete:5', 'cycle:5' or
    'kneser:5:2' (used for the parts of a join on the command line)."""
    name, *params = atom.split(":")
    if name not in _INTEGER_ARITY:
        raise ValueError(f"bad family atom {atom!r}")
    try:
        return parse_family(name, params)
    except ValueError as exc:
        raise ValueError(f"bad family atom {atom!r}: {exc}") from exc
