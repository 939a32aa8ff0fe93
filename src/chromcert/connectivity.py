"""Vertex connectivity oracles.

Local connectivity of non-adjacent s, t is a unit-capacity max flow on the
vertex-split digraph, held implicitly as one int neighbour mask per vertex
rank.  A deleted vertex is a cleared bit of an `alive` mask, and a search
claims every unreached neighbour of a node in one mask operation, so it
costs O(n) steps however dense the graph is.  Each flow starts from the
s-w-t paths and stops at the cap its caller needs.  kappa uses Even's pair
reduction (SIAM J. Comput. 1975): in id order, the first vertex outside a
minimum cut S has index at most |S| and precedes every vertex of another
component of G - S, so a cut smaller than b shows up in a flow from one of
the first b vertices.  The lexicographically smallest minimum cut is built
greedily in id order, keeping v when kappa(G - C - v) < kappa - |C| for
the chosen set C, which holds exactly when some minimum cut contains
C + {v}.

Two kinds of query run on the network.  is_k_connected, connectivity and
the first step of min_vertex_cut compute min(cap, kappa) exactly.  The
greedy steps of min_vertex_cut only ask whether kappa(G - C - v) is below
a limit; those threshold queries return at the first witness below it (the
minimum degree or one capped flow, both upper bounds on kappa), so a
candidate is usually accepted after a single flow or none.
"""

from __future__ import annotations

from .graphs import Graph, is_connected, reach


class _SplitNetwork:
    """The vertex-split digraph of g over vertex ranks (id order): rank i
    has an in-node and an out-node joined by a unit arc in(i) -> out(i),
    and each edge uw gives uncapacitated arcs out(u) -> in(w) and
    out(w) -> in(u).  Only nbm[i], the mask of i's neighbour ranks, is kept."""

    def __init__(self, g: Graph):
        self.ids = g.sorted_vertices()
        bit = {v: 1 << i for i, v in enumerate(self.ids)}
        self.nbm = [sum(map(bit.__getitem__, g.adj[v])) for v in self.ids]

    def flow(self, alive: int, s: int, t: int, limit: int) -> int:
        """min(limit, number of internally disjoint s-t paths) through the
        vertices of the mask `alive`; s, t non-adjacent.

        The common neighbours carry s-w-t paths that no augmenting path can
        reroute, so the search runs on the rest.  pred[w] is the rank whose
        out-arc carries w's unit, and w itself when w is free.  The search
        is breadth-first: out(u) claims its unreached in-nodes in one mask
        operation, in(w) leads to out(pred[w]), and out(v) of a used v
        also leads back to in(v)."""
        nbm = self.nbm
        common = nbm[s] & nbm[t] & alive
        flow = common.bit_count()
        if flow >= limit:
            return limit
        # parent[w]: the out-node that claimed in(w), w itself for the
        # reversed internal arc; came[v]: the in-node that led to out(v).
        pred, parent, came = list(range(len(nbm))), [0] * len(nbm), [0] * len(nbm)
        start = alive & ~common & ~(1 << s)
        while flow < limit:
            queue, unreached = [(s, nbm[s] & start)], start & ~nbm[s]
            for u, m in queue:
                while m:
                    low = m & -m
                    m ^= low
                    w = low.bit_length() - 1
                    parent[w] = u
                    v = pred[w]
                    if v == s:
                        continue
                    came[v] = w
                    new = nbm[v] & unreached
                    if v != w:
                        new |= 1 << v & unreached
                    if new >> t & 1:
                        break
                    unreached ^= new
                    queue.append((v, new))
                else:
                    continue
                break
            else:
                return flow
            # Walk back from in(t): each in-node w on the path now takes its
            # unit from parent[w], and none when it was entered from out(w).
            while v != s:
                w = came[v]
                v = pred[w] = parent[w]
            flow += 1
        return flow

    def kappa(self, dead: set[int], limit: int, exact: bool = True) -> int:
        """min(limit, kappa(G - dead)) with kappa(K_m) = m - 1; G itself
        must be connected.

        exact=False makes it the threshold query "kappa(G - dead) < limit?":
        it returns the first bound below limit that it meets (the minimum
        degree or one capped flow, both upper bounds on kappa) and limit
        when there is none, so only the comparison with limit is exact."""
        nbm = self.nbm
        alive = (1 << len(nbm)) - 1 - sum(1 << v for v in dead)
        live = [v for v in range(len(nbm)) if alive >> v & 1]
        if len(live) <= 1:
            return 0
        if dead:
            seen = frontier = alive & -alive
            while frontier:
                low = frontier & -frontier
                new = nbm[low.bit_length() - 1] & alive & ~seen
                seen |= new
                frontier ^= low | new
            if seen != alive:
                return 0
        best = min(limit, min((nbm[v] & alive).bit_count() for v in live))
        # Connected, so kappa >= 1 and a bound of 1 is already exact; a
        # threshold query is settled by any bound below its limit.
        stop = 1 if exact else max(1, limit - 1)
        if best <= stop:
            return best
        for i, s in enumerate(live):
            for t in live[i + 1:]:
                if not nbm[s] >> t & 1:
                    best = self.flow(alive, s, t, best)
                    if best <= stop:
                        return best
            # Sources 0..best-1 are done, which rules out a cut below best.
            if i + 1 >= best:
                break
        return best


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff g has more than k vertices and no vertex cut of size < k."""
    if k <= 0:
        raise ValueError("k must be a positive integer")
    if g.n <= k or not is_connected(g):
        return False
    return _SplitNetwork(g).kappa(set(), k) >= k


def connectivity(g: Graph) -> int:
    """kappa(g): n-1 for complete graphs, 0 when disconnected."""
    if not is_connected(g):
        return 0
    return _SplitNetwork(g).kappa(set(), g.n - 1)


def min_vertex_cut(g: Graph, below: int | None = None):
    """A minimum vertex cut of g, or None when g has none (g is complete).

    Disconnected graphs return the empty cut.  Among all minimum cuts the
    lexicographically smallest (as a sorted vertex tuple) is returned, so
    the answer is deterministic.  With `below`, flows stop at that cap and
    None is returned when g has no vertex cut smaller than `below`.
    """
    if not is_connected(g):
        return frozenset()
    if g.is_complete():
        return None
    net = _SplitNetwork(g)
    kappa = net.kappa(set(), g.n - 1 if below is None else below)
    if below is not None and kappa >= below:
        return None
    chosen: set[int] = set()
    for v in range(g.n):
        if len(chosen) == kappa:
            break
        chosen.add(v)
        rest = kappa - len(chosen) + 1
        if net.kappa(chosen, rest, exact=False) >= rest:
            chosen.remove(v)
    if len(chosen) != kappa:
        raise RuntimeError("max-flow connectivity and the greedy cut disagree")
    return frozenset(net.ids[i] for i in chosen)


def split_by_cut(g: Graph, x: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    """Split V - x into (Y, Z) with no Y-Z edges.

    Y is the connected component of g - x containing the smallest vertex
    id, grown over g's adjacency with x blocked; Z is everything else.
    Raises if x does not disconnect g.
    """
    stray = set(x) - g.vertices
    if stray:
        raise ValueError(f"cut contains non-vertices {sorted(stray)}")
    rest = g.vertices - x
    if not rest:
        raise ValueError("removing x leaves no vertices")
    y = frozenset(reach(g, min(rest), frozenset(x)))
    if len(y) == len(rest):
        raise ValueError(f"{sorted(x)} is not a vertex cut")
    return y, rest - y
