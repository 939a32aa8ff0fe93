"""Vertex connectivity oracles.

Local connectivity of non-adjacent s, t is a unit-capacity max flow on the
vertex-split digraph, built once per graph in flat int arrays.  Each flow
starts from a copy of the base capacities (a deleted vertex has its
internal arc zeroed), is seeded with the s-w-t paths, and stops at the cap
its caller needs.  kappa uses Even's pair reduction (SIAM J. Comput. 1975):
in id order, the first vertex outside a minimum cut S has index at most
|S| and precedes every vertex of another component of G - S, so a cut
smaller than b shows up in a flow from one of the first b vertices.  The
lexicographically smallest minimum cut is built greedily in id order,
keeping v when kappa(G - C - v) < kappa - |C| for the chosen set C, which
holds exactly when some minimum cut contains C + {v}.

Two kinds of query run on the network.  is_k_connected, connectivity and
the first step of min_vertex_cut compute min(cap, kappa) exactly.  The
greedy steps of min_vertex_cut only ask whether kappa(G - C - v) is below
a limit; those threshold queries return at the first witness below it (the
minimum degree or one capped flow, both upper bounds on kappa), so a
candidate is usually accepted after a single flow or none.
"""

from __future__ import annotations

from .graphs import Graph, connected_components, induced_subgraph, is_connected


class _SplitNetwork:
    """The vertex-split digraph of g over vertex ranks (id order): rank i
    has in-node 2i and out-node 2i+1 joined by the unit arc 2i, and arc
    arc[u][w] = u_out -> w_in has capacity n.  Arc a ^ 1 reverses arc a."""

    def __init__(self, g: Graph):
        self.ids = g.sorted_vertices()
        rank = {v: i for i, v in enumerate(self.ids)}
        n = len(self.ids)
        self.nbrs = [frozenset(rank[u] for u in g.adj[v]) for v in self.ids]
        head = [a ^ 1 for a in range(2 * n)]
        cap = [1, 0] * n
        self.out = [[a] for a in range(2 * n)]
        self.arc: list[dict[int, int]] = [{} for _ in range(n)]
        for u in range(n):
            for w in sorted(self.nbrs[u]):
                a = len(head)
                head += [2 * w, 2 * u + 1]
                cap += [n, 0]
                self.out[2 * u + 1].append(a)
                self.out[2 * w].append(a + 1)
                self.arc[u][w] = a
        self.head = head
        self.base = cap

    def flow(self, base: list[int], s: int, t: int, limit: int) -> int:
        """min(limit, number of internally disjoint s-t paths) through the
        vertices whose internal arc is open in `base`; s, t non-adjacent."""
        cap = base[:]
        head, out = self.head, self.out
        flow = 0
        arc_s = self.arc[s]
        for w in self.nbrs[s] & self.nbrs[t]:
            if flow == limit:
                return flow
            if cap[2 * w]:
                for a in (arc_s[w], 2 * w, self.arc[w][t]):
                    cap[a] -= 1
                    cap[a ^ 1] += 1
                flow += 1
        source, sink = 2 * s + 1, 2 * t
        while flow < limit:
            via = [-1] * len(out)
            via[source] = source
            queue = [source]
            for x in queue:
                for a in out[x]:
                    if cap[a]:
                        y = head[a]
                        if via[y] < 0:
                            via[y] = a
                            queue.append(y)
                if via[sink] >= 0:
                    break
            else:
                return flow
            y = sink
            while y != source:
                a = via[y]
                cap[a] -= 1
                cap[a ^ 1] += 1
                y = head[a ^ 1]
            flow += 1
        return flow

    def kappa(self, dead: set[int], limit: int, exact: bool = True) -> int:
        """min(limit, kappa(G - dead)) with kappa(K_m) = m - 1; G itself
        must be connected.

        exact=False makes it the threshold query "kappa(G - dead) < limit?":
        it returns the first bound below limit that it meets (the minimum
        degree or one capped flow, both upper bounds on kappa) and limit
        when there is none, so only the comparison with limit is exact."""
        live = [i for i in range(len(self.ids)) if i not in dead]
        if len(live) <= 1:
            return 0
        if dead:
            seen, stack = {live[0]}, [live[0]]
            while stack:
                new = self.nbrs[stack.pop()] - dead - seen
                seen |= new
                stack += new
            if len(seen) < len(live):
                return 0
        best = min(limit, min(len(self.nbrs[v] - dead) for v in live))
        # Connected, so kappa >= 1 and a bound of 1 is already exact; a
        # threshold query is settled by any bound below its limit.
        stop = 1 if exact else max(1, limit - 1)
        if best <= stop:
            return best
        base = self.base[:]
        for v in dead:
            base[2 * v] = 0
        for i, s in enumerate(live):
            for t in live[i + 1:]:
                if t not in self.nbrs[s]:
                    best = self.flow(base, s, t, best)
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
    id; Z is everything else.  Raises if x does not disconnect g.
    """
    stray = set(x) - g.vertices
    if stray:
        raise ValueError(f"cut contains non-vertices {sorted(stray)}")
    rest = g.vertices - x
    if not rest:
        raise ValueError("removing x leaves no vertices")
    comps = connected_components(induced_subgraph(g, rest))
    if len(comps) < 2:
        raise ValueError(f"{sorted(x)} is not a vertex cut")
    y = comps[0]
    z = frozenset().union(*comps[1:])
    return y, z
