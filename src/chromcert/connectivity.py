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
the first b vertices.

min_vertex_cut returns the lexicographically smallest minimum cut S*, in
two parts.  S* has the largest possible first vertex s outside it, so it
holds C = {0..s-1}.  The prefix C is found with threshold queries, "is
kappa(G - C - v) below kappa - |C|?", which return at the first witness
below the limit (the minimum degree or one capped flow); the first vertex
refused is s.  S* - C is then the smallest minimum cut of G - C, in which
no minimum cut holds s: it is a minimum s-t separator for each t on its
far side.  So one flow from s to each non-neighbour t settles the tail,
and each flow of value kappa - |C| yields its smallest separator with no
further flow.  All minimum s-t separators are read off one max flow's
residual graph as its closed node sets (Picard-Queyranne 1980), so the
smallest one is built greedily in id order by closure steps.
"""

from __future__ import annotations

from itertools import islice

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
        also leads back to in(v).  A flow that stops below `limit` leaves
        its residual to the caller: self.pred, and self.reached, the mask
        of in-nodes that its last search reached from out(s)."""
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
                self.pred, self.reached = pred, start & ~unreached
                return flow
            # Walk back from in(t): each in-node w on the path now takes its
            # unit from parent[w], and none when it was entered from out(w).
            while v != s:
                w = came[v]
                v = pred[w] = parent[w]
            flow += 1
        return flow

    def connected(self, alive: int) -> bool:
        """Whether the vertices of the nonempty mask `alive` span a
        connected subgraph."""
        nbm = self.nbm
        seen = frontier = alive & -alive
        while frontier:
            low = frontier & -frontier
            new = nbm[low.bit_length() - 1] & alive & ~seen
            seen |= new
            frontier ^= low | new
        return seen == alive

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
        # A threshold query is settled by any bound below its limit, so the
        # minimum degree goes first; a limit of 1 asks only for connectivity.
        best = limit
        if exact or limit > 1:
            best = min(limit, min((nbm[v] & alive).bit_count() for v in live))
            if not exact and best < limit:
                return best
        if dead and not self.connected(alive):
            return 0
        # Connected, so kappa >= 1 and a bound of 1 is already exact.
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

    def tail_cut(self, s: int, need: int) -> tuple[int, ...]:
        """The lexicographically smallest minimum cut of G - {0..s-1},
        whose connectivity is `need`, given that no such cut holds s.

        s lies on one side of every minimum cut, so each one is a minimum
        s-t separator for every t on another side: the answer is the
        smallest separator over the non-neighbours t of s whose flow is
        exactly `need`.  Each vertex of such a cut has a neighbour on a
        side without s, so outside N[s]; no cut is smaller than `least`, the
        first `need` ids after s with one.  So it is the answer when it is
        a cut, and the scan stops if it meets it."""
        nbm = self.nbm
        alive = (1 << len(nbm)) - (1 << s)
        rest = alive & ~nbm[s] & ~(1 << s)
        least = tuple(islice((v for v in range(s + 1, len(nbm)) if nbm[v] & rest), need))
        if len(least) == need and not self.connected(alive - sum(1 << v for v in least)):
            return least
        best = None
        while rest and best != least:
            low = rest & -rest
            rest ^= low
            t = low.bit_length() - 1
            if self.flow(alive, s, t, need + 1) == need:
                sep = self._separator(alive, s, t, need)
                if best is None or sep < best:
                    best = sep
        if best is None:
            raise RuntimeError("max-flow connectivity and the canonical cut disagree")
        return best

    def _separator(self, alive: int, s: int, t: int, size: int) -> tuple[int, ...]:
        """The lexicographically smallest minimum s-t separator, of `size`
        vertices, read off the residual that the last flow(alive, s, t, _)
        left when it stopped below its cap (Picard-Queyranne 1980).

        The minimum separators are the sets {v : in(v) in X, out(v) not in
        X} over the residual-closed node sets X holding out(s) and not
        in(t), and self.reached is the smallest such X.  Common neighbours
        are in every separator.  The other vertices go in greedily in id
        order: forcing v adds in(v) to X and closes it, which refuses v
        when it reaches in(t) or the out-node of v or of an earlier forced
        vertex.  Only a vertex that carries a unit (pred[w] != w) can be in
        a separator, and its out-node has one entry, the in-node its unit
        feeds."""
        pred = self.pred
        common = self.nbm[s] & self.nbm[t] & alive
        avail = alive & ~common & ~(1 << s)
        used = [w for w in range(len(pred)) if pred[w] != w]
        feeds = {pred[w]: 1 << w for w in used}
        inside, guard, picked = self.reached, 1 << t, common
        left = size - common.bit_count()
        for v in used if left else ():
            forced = guard | feeds.get(v, 0)
            grown = self._close(inside, 1 << v & ~inside, avail, s, forced)
            if not grown & forced:
                inside, guard = grown, forced
                picked |= 1 << v
                left -= 1
                if not left:
                    break
        return tuple(i for i in range(len(self.nbm)) if picked >> i & 1)

    def _close(self, inside: int, new: int, avail: int, s: int, guard: int) -> int:
        """The in-node mask inside | new closed under the residual of the
        last flow from s, or a mask meeting guard once the closure reaches
        a node of guard.  in(w) leads to out(pred[w]), and out(p) to the
        in-nodes of p's neighbours and, when p carries a unit, to in(p)."""
        nbm, pred = self.nbm, self.pred
        grown = inside | new
        while new and not grown & guard:
            low = new & -new
            new ^= low
            w = low.bit_length() - 1
            p = pred[w]
            if p != s:
                more = (nbm[p] & avail | (1 << p if p != w else 0)) & ~grown
                grown |= more
                new |= more
        return grown


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff g has more than k vertices and no vertex cut of size < k:
    the kappa query alone, without building a cut."""
    if k <= 0:
        raise ValueError("k must be a positive integer")
    return g.n > k and is_connected(g) and _SplitNetwork(g).kappa(set(), k) >= k


def connectivity(g: Graph) -> int:
    """kappa(g): n-1 for complete graphs, 0 when disconnected."""
    return _SplitNetwork(g).kappa(set(), g.n - 1) if is_connected(g) else 0


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
    # The prefix {0..s-1} of the canonical cut: accept ids while some
    # minimum cut still holds them all; s is the first one refused.
    chosen: set[int] = set()
    for s in range(kappa):
        chosen.add(s)
        if net.kappa(chosen, kappa - s, exact=False) >= kappa - s:
            break
    else:
        return frozenset(net.ids[:kappa])
    tail = net.tail_cut(s, kappa - s)
    return frozenset(net.ids[:s] + [net.ids[i] for i in tail])


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


def separation_fault(g: Graph, whole: frozenset[int], x: frozenset[int], y: frozenset[int],
                     z: frozenset[int]) -> str | None:
    """Why (x, y, z) is not a separation of g[whole], or None when it is:
    x, y and z partition whole, y and z are nonempty, and no edge of g
    joins y and z, so that x disconnects g[whole]."""
    if x | y | z != whole or len(x) + len(y) + len(z) != len(whole):
        return "x, y, z must partition the vertex set"
    if not y or not z:
        return "both cut sides must be nonempty"
    adj = g.adj
    if all(z.isdisjoint(adj[u]) for u in y):
        return None
    return f"edge {min((min(u, w), max(u, w)) for u in y for w in adj[u] & z)} crosses the cut sides"
