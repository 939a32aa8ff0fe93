"""Workload definitions for the chromcert benchmark.

Every instance carries the outcome that theory predicts for it, together
with the reason, so the benchmark never takes the program's own answer as
the expectation:

* ``CERT``: the graph is not colourable from its palette or lists, so
  ``extract`` must return a certificate that ``verify_certificate``
  accepts;
* ``COLOURABLE``: the graph is colourable from its palette, so ``extract``
  must raise ``NotInextensibleError``.

The seed draws the random graph of the ``search`` workload, the colour
names of the bad list assignments, and the order in which each pass visits
the instances.  Structured families keep their generator's vertex labels:
chromcert's cost depends on labels (the lexicographic cut scan and the id
tie-breaks of both searches), and a seed-drawn relabelling moved a pass's
wall time by up to 50% between seeds, which is more than any bound this
benchmark could hold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from chromcert import ExtractConfig, Graph, generate
from chromcert.families import FamilySpec as F

CERT = "cert"
COLOURABLE = "colourable"


@dataclass(frozen=True)
class Instance:
    name: str
    graph: Graph
    cfg: ExtractConfig
    expected: str
    why: str
    # Instances that fail today for a reason ROADMAP names; they run
    # once per run, outside the timed passes, under a short deadline.
    known_defect: str | None = None
    # True when the inputs depend on the seed, so references are per seed.
    seeded: bool = False


# -- independent evidence (no chromcert search code) -------------------------

def _is_clique(g: Graph, vs) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(vs, 2))


def greedy_clique(g: Graph) -> list[int]:
    """A clique grown greedily from each vertex; the largest one found."""
    best: list[int] = []
    for start in sorted(g.vertices, key=lambda v: (-len(g.adj[v]), v)):
        clique = [start]
        cand = set(g.adj[start])
        while cand:
            v = max(cand, key=lambda u: (len(g.adj[u] & cand), -u))
            clique.append(v)
            cand &= g.adj[v]
        if len(clique) > len(best):
            best = clique
    return best


def dsatur_greedy(g: Graph) -> dict[int, int]:
    """A proper colouring by DSATUR without backtracking."""
    colour: dict[int, int] = {}
    while len(colour) < g.n:
        v = max(
            (u for u in g.vertices if u not in colour),
            key=lambda u: (len({colour[w] for w in g.adj[u] if w in colour}), len(g.adj[u]), -u),
        )
        used = {colour[w] for w in g.adj[v] if w in colour}
        colour[v] = next(c for c in range(g.n) if c not in used)
    return colour


# -- building blocks ---------------------------------------------------------

def _plain(name, spec, k, palette, expected, why, **kw) -> Instance:
    cfg = ExtractConfig(k=k, palette_size=palette)
    return Instance(name, generate(spec), cfg, expected, why, **kw)


def _by_clique(name: str, g: Graph, cfg: ExtractConfig, **kw) -> Instance:
    """An instance whose certificate is forced by a clique with more
    vertices than there are colours; the clique is found and checked here."""
    colours = len(cfg.palette_for(g).universe())
    clique = greedy_clique(g)
    if len(clique) <= colours or not _is_clique(g, clique):
        raise ValueError(f"{name}: no clique above {colours} colours")
    return Instance(name, g, cfg, CERT, f"contains K{len(clique)}, {colours} colours", **kw)


def _glued(name, sizes, shared, k, mode="plain") -> Instance:
    return _by_clique(name, generate(F.glued_cliques(sizes, shared)), ExtractConfig(k=k, mode=mode))


def _bipartite_bad_lists(a: int, b: int, rng: random.Random) -> tuple[Graph, dict[int, frozenset[int]]]:
    """K_{a,b} with a 2-list assignment admitting no colouring.

    The first three vertices of each side get {0,1}, {0,2}, {1,2}: any
    choice on one side uses two colours, which is a list on the other side.
    The rest get {0,1}.  Colour names are a seed-drawn injection into 0..7.
    """
    g = Graph.build(a + b, [(u, a + v) for u in range(a) for v in range(b)])
    names = rng.sample(range(8), 3)
    base = [(0, 1), (0, 2), (1, 2)]
    lists = {}
    for side, size in ((0, a), (a, b)):
        for i in range(size):
            pair = base[i] if i < 3 else (0, 1)
            lists[side + i] = frozenset(names[c] for c in pair)
    return g, lists


def _list_instance(name, g, k, lists, why, **kw) -> Instance:
    cfg = ExtractConfig(k=k, mode="list", lists=lists)
    return Instance(name, g, cfg, CERT, why, **kw)


def _random_sat(name: str, n: int, p: float, rng: random.Random) -> Instance:
    """A seed-drawn G(n, p) at the palette a DSATUR greedy colours it with,
    so the precondition must fail."""
    g = generate(F.random(n, p, rng.randrange(1 << 30)))
    palette = len(set(dsatur_greedy(g).values()))
    cfg = ExtractConfig(k=1, palette_size=palette)
    why = f"DSATUR colours it with {palette} colours"
    return Instance(name, g, cfg, COLOURABLE, why, seeded=True)


def _first_dense_random(name: str, n: int, p: float, palette: int) -> Instance:
    """G(n, p) with the smallest generator seed whose greedy clique
    exceeds the palette; fixed, so the cut scan it costs is fixed too."""
    cfg = ExtractConfig(k=1, palette_size=palette)
    for graph_seed in range(1000):
        g = generate(F.random(n, p, graph_seed))
        if len(greedy_clique(g)) > palette:
            return _by_clique(name, g, cfg)
    raise ValueError(f"{name}: no G({n}, {p}) with a clique above {palette}")


def _completion() -> Instance:
    """K5 sharing one vertex with a 7-cycle, palette 4, k=2.  The cycle side
    is the larger, so the descent first tries it, finds it colourable and
    recurses through the completion template into the clique."""
    clique, cycle = 5, 7
    edges = list(combinations(range(clique), 2))
    ring = [clique - 1] + list(range(clique, clique + cycle - 1))
    edges += [(ring[i], ring[(i + 1) % cycle]) for i in range(cycle)]
    g = Graph.build(clique + cycle - 1, edges)
    return _by_clique("k5_cycle7_p4_k2", g, ExtractConfig(k=2, palette_size=4))


# Every workload also holds a small instance of each path it does not
# stress (a list-mode finalize, a plain finalize, a descent through the
# completion template), so that every traced layer runs, and reports a
# measured time, on every workload.  Together they cost about 2% of a pass.
C5 = F.cycle(5)
C7 = F.cycle(7)


def _cuts(rng: random.Random) -> list[Instance]:
    g_k33, lists = _bipartite_bad_lists(3, 3, rng)
    return [
        _glued("glued30x2s1_k2", (30, 30), 1, 2),
        _glued("glued29x2s3_k4", (29, 29), 3, 4),
        _glued("glued22x3s2_k3", (22, 22, 22), 2, 3),
        _glued("glued15x3s1_k2", (15, 15, 15), 1, 2),
        _plain("kneser7_2_p4_k2", F.kneser(7, 2), 2, 4, CERT, "chi(K(7,2)) = 5 > 4 (Lovasz)"),
        _first_dense_random("random20_p5_k1", 20, 0.5, 5),
        _list_instance("k33_badlists_k3", g_k33, 3, lists, "K3,3 is not 2-choosable", seeded=True),
        _completion(),
        _by_clique("random30_085_k1", generate(F.random(30, 0.85, 1)), ExtractConfig(k=1),
                   known_defect="C(30,21) lexicographic cut scan runs past the deadline"),
    ]


def _search(rng: random.Random) -> list[Instance]:
    g_k33, lists = _bipartite_bad_lists(3, 3, rng)
    return [
        _plain("join_c5x10_p29_k1", F.join(*[C5] * 10), 1, 29, CERT, "chi = 3*10 = 30 > 29"),
        _plain("join_c5x9_p26_k3", F.join(*[C5] * 9), 3, 26, CERT, "chi = 3*9 = 27 > 26"),
        _plain("join_c7x6_p17_k1", F.join(*[C7] * 6), 1, 17, CERT, "chi = 3*6 = 18 > 17"),
        _plain("join_c5x10_p30_k1", F.join(*[C5] * 10), 1, 30, COLOURABLE, "chi = 3*10 = 30 <= 30"),
        _random_sat("random50_sat_k1", 50, 0.5, rng),
        _glued("glued15x2s1_k2", (15, 15), 1, 2),
        _list_instance("k33_badlists_k3", g_k33, 3, lists, "K3,3 is not 2-choosable", seeded=True),
        _completion(),
        _plain("cycle1500_k1", F.cycle(1500), 1, None, COLOURABLE, "chi(C_1500) = 2 <= 7",
               known_defect="recursive search raises RecursionError"),
    ]


def _lists(rng: random.Random) -> list[Instance]:
    out = []
    for a, b in ((3, 3), (3, 4), (4, 4)):
        g, lists = _bipartite_bad_lists(a, b, rng)
        out.append(_list_instance(f"k{a}{b}_badlists_k3", g, 3, lists,
                                  "contains K3,3 with a bad 2-list assignment", seeded=True))
    out += [
        _glued("glued9x2s1_list_k2", (9, 9), 1, 2, mode="list"),
        _glued("glued13x2s2_list_k3", (13, 13), 2, 3, mode="list"),
        _list_instance("join_c5x3_list_k2", generate(F.join(C5, C5, C5)), 2, None,
                       "chi = 9 > 8 = list size"),
        _completion(),
    ]
    return out


WORKLOADS = {"cuts": _cuts, "search": _search, "lists": _lists}


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's instances; a pure function of (workload, seed)."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
