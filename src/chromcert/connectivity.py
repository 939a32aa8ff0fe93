"""Vertex connectivity oracles.

Local connectivity of non-adjacent s, t is a unit-capacity max flow on the
vertex-split digraph, held implicitly as the graph's View: one int neighbour
mask per rank of a root graph, built at the graph's first connectivity read,
which a graph induced from it shares while it keeps at least half of the
root's ranks; a smaller one is re-rooted, so no mask is wider than 2n.
A vertex outside the graph or deleted is a cleared bit of an `alive` mask;
ranks keep id order, so every scan meets the vertices in the same order.
A search claims every unreached neighbour of a node in one mask operation,
so it costs O(n) steps however dense the graph is.  Each flow stops at the cap
its caller needs, and first counts the disjoint paths that the two
neighbourhoods show (Menger 1927): s-w-t over the common neighbours w,
then s-a-b-t over private neighbours a of s and b of t, matched first-fit
in id order.  When they meet the cap no search runs.  When they leave the
flow exactly one short, one mask reachability walk from the private
neighbours of s that the first fit left unmatched, through the vertices on
no path so far, looks for an unmatched private neighbour of t: a hit is
one more internally disjoint path, so the flow meets its cap.  Otherwise
the augmenting search starts from the s-w-t paths alone.  A descent keeps
PathRecords across its capped cuts: the paths of each search that met its
cap, so that a later flow of the same pair, at no higher cap and with
those paths still alive, meets its cap with no search.  A flow below its
cap never comes from a record, so every residual, flow value and cut is
the one a fresh network gives.  kappa uses Even's pair reduction (SIAM
J. Comput. 1975): in id order, the first vertex outside a minimum cut S
has index at most |S| and precedes every vertex of another component of
G - S, so a cut smaller than b shows up in a flow from one of the first b
vertices.

min_vertex_cut returns the lexicographically smallest minimum cut S*.  It
holds {0..f-1} for the largest f that any minimum cut's prefix reaches, so
it is found top down: for s = kappa, kappa - 1, ..., the tail scan asks for
the smallest set of kappa - s vertices of G - {0..s-1} whose removal leaves
s out and disconnects the rest, and the first answer, joined to {0..s-1},
is S*.  For s > f there is none, since it would extend to a minimum cut
whose first vertex outside is s; at s = f the answer is S* - {0..f-1}.
Such a set is a minimum s-t separator for each t on its far side, so one
flow from s to each non-neighbour t, capped at kappa - s + 1, settles a
prefix, and each flow of value kappa - s yields its smallest separator with
no further flow.  At high s the cap is small and the s-w-t paths settle
most flows at once.  All minimum s-t separators are read off one max
flow's residual graph as its closed node sets (Picard-Queyranne 1980), so
the smallest one is built greedily in id order by closure steps.
"""

from __future__ import annotations

from bisect import bisect_left

from .graphs import Graph, is_connected, reach  # noqa: F401  (perfbench's tracer test asserts the binding)


def _ranks(mask: int, count: int | None = None) -> list[int]:
    """The lowest `count` set bits of mask, every one by default, lowest first."""
    ranks = []
    while mask and len(ranks) != count:
        low = mask & -mask
        mask ^= low
        ranks.append(low.bit_length() - 1)
    return ranks


class PathRecords:
    """The flows of one descent that an augmenting search took to their cap:
    per (s, t) ranks, the cap and the mask of its paths' internal vertices.
    Those paths are internally disjoint, so while every vertex of the mask
    is alive the flow is at least the cap (Menger 1927).  Ranks are those of
    one view; a network over another view starts with no records."""

    def __init__(self):
        self.nbm, self.paths = None, {}

    def for_view(self, nbm: list[int]) -> dict[tuple[int, int], tuple[int, int]]:
        if nbm is not self.nbm:
            self.nbm, self.paths = nbm, {}
        return self.paths


class _SplitNetwork:
    """The vertex-split digraph of g over its root's ranks (id order): rank i
    has an in-node and an out-node joined by a unit arc in(i) -> out(i), and
    each edge uw gives uncapacitated arcs out(u) -> in(w) and out(w) -> in(u).
    Read from g's view: nbm[i], i's root neighbours, cut down to `alive`.
    With records, a flow that would search answers from them when it can,
    and a search that meets its cap is recorded."""

    def __init__(self, g: Graph, records: PathRecords | None = None):
        self.g = g
        self.ids, _, self.nbm, self.alive = g.view
        self.paths = None if records is None else records.for_view(self.nbm)

    def flow(self, alive: int, s: int, t: int, limit: int) -> int:
        """min(limit, number of internally disjoint s-t paths) through the
        vertices of the mask `alive`; s, t non-adjacent.

        The common neighbours carry s-w-t paths that no augmenting path can
        reroute.  First-fit s-a-b-t paths over the private neighbours of s
        and t, in id order, settle the flow when they reach the limit.  When
        they leave it one short, a path from an unmatched private neighbour
        of s to one of t through the vertices off every path so far is the
        last one (`_detour`).  Otherwise a record whose paths are all alive
        settles a limit up to its cap, or the augmenting search runs on the
        rest from the s-w-t paths alone (`_augment`), so its residual does
        not depend on them.  A flow that stops below `limit` leaves its
        residual to the caller: self.pred, and self.reached, the mask of
        in-nodes that its last search reached from out(s)."""
        nbm = self.nbm
        common = nbm[s] & nbm[t] & alive
        flow = common.bit_count()
        if flow >= limit:
            return limit
        starts, ends = nbm[s] & alive & ~nbm[t], nbm[t] & alive & ~nbm[s]
        need = limit - flow
        if min(starts.bit_count(), ends.bit_count()) >= need:
            free = starts
            while starts:
                low = starts & -starts
                starts ^= low
                hit = nbm[low.bit_length() - 1] & ends
                if hit:
                    ends ^= hit & -hit
                    free ^= low
                    need -= 1
                    if not need:
                        return limit
            if need == 1 and self._detour(alive, s, t, free, ends):
                return limit
        known = self.paths and self.paths.get((s, t))
        if known and limit <= known[0] and not known[1] & ~alive:
            return limit
        return self._augment(alive, s, t, limit, common)

    def _detour(self, alive: int, s: int, t: int, free: int, ends: int) -> bool:
        """Whether some path s-a-...-b-t avoids the s-w-t paths and the
        first-fit s-a-b-t paths of flow(alive, s, t, _): a is in `free` and
        b in `ends`, the private neighbours of s and t that the first fit
        left unmatched, and the vertices between them lie off N(s) and
        N(t).  One mask walk, as in `connected`, grows from the free a's
        through the free ends and the rest of `alive`."""
        nbm = self.nbm
        room = alive & ~(nbm[s] | nbm[t] | 1 << s | 1 << t) | ends
        seen = frontier = free
        while frontier:
            low = frontier & -frontier
            new = nbm[low.bit_length() - 1] & room & ~seen
            if new & ends:
                return True
            seen |= new
            frontier ^= low | new
        return False

    def _augment(self, alive: int, s: int, t: int, limit: int, common: int) -> int:
        """min(limit, the flow) by augmenting searches from the s-w-t paths
        over the common neighbours `common` alone.  pred[w] is the rank
        whose out-arc carries w's unit, and w itself when w is free.  The
        search is breadth-first: out(u) claims its unreached in-nodes in one
        mask operation, in(w) leads to out(pred[w]), and out(v) of a used v
        also leads back to in(v).  At the cap, the paths' internal vertices
        (common, and every w with pred[w] != w) go to the records."""
        nbm, flow = self.nbm, common.bit_count()
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
        if self.paths is not None:
            self.paths[s, t] = limit, common | sum(1 << w for w, v in enumerate(pred) if v != w)
        return flow

    def connected(self, alive: int) -> bool:
        """Whether the vertices of the nonempty mask `alive` span a
        connected subgraph."""
        nbm = self.nbm
        frontier, unseen = alive & -alive, alive & (alive - 1)
        while frontier and unseen:
            low = frontier & -frontier
            new = nbm[low.bit_length() - 1] & unseen
            unseen ^= new
            frontier ^= low | new
        return not unseen

    def kappa(self, limit: int) -> int:
        """min(limit, kappa(G)): kappa(K_m) = m - 1, and 0 when G is disconnected."""
        nbm, alive = self.nbm, self.alive
        if self.g.n <= 1 or not self.connected(alive):
            return 0
        best = min(limit, min(map(len, self.g.adj.values())))
        # Connected, so kappa >= 1 and a bound of 1 is already exact.
        if best <= 1:
            return best
        for done, s in enumerate(_ranks(alive, best), 1):
            # The later non-neighbours of s, in id order.
            later = alive & ~nbm[s] & -(2 << s)
            while later:
                low = later & -later
                later ^= low
                best = self.flow(alive, s, low.bit_length() - 1, best)
                if best <= 1:
                    return best
            # The first best sources are done, which rules out a cut below best.
            if done >= best:
                break
        return best

    def tail_cut(self, s: int, need: int) -> tuple[int, ...] | None:
        """The lexicographically smallest set of `need` vertices of
        G - {0..s-1}, the ranks of G from s on, that leaves s out and
        disconnects the rest, or None; `need` is at most its connectivity.

        Such a set is a minimum cut, and s lies on one side of it, so it is
        a minimum s-t separator for every t on another side: the answer is
        the smallest separator over the non-neighbours t of s whose flow is
        exactly `need`.  Each vertex of such a cut has a neighbour on a
        side without s, which lies in `rest`, outside N[s]; so it is in
        `touch`, the vertices with a neighbour in rest.  No cut is smaller
        than `least`, the first `need` vertices of touch, so it is the
        answer when it is a cut, and there is none when touch is smaller
        than `need`.  Past that check, one vertex is a cut exactly when it is
        a cut vertex of G - {0..s-1} other than s, so at need = 1 one
        depth-first search replaces the flows."""
        nbm = self.nbm
        alive = self.alive & -(1 << s)
        rest = alive & ~nbm[s] & ~(1 << s)
        touch = 0
        for r in _ranks(rest):
            touch |= nbm[r]
        touch &= alive
        if touch.bit_count() < need:
            return None
        # `least` is touch up to `end`, the rank of its need-th vertex.
        end = s + bisect_left(range(s, touch.bit_length()), need,
                              key=lambda r: (touch & ((2 << r) - 1)).bit_count())
        least = touch & ((2 << end) - 1)
        if not self.connected(alive & ~least):
            return tuple(_ranks(least))
        if need == 1:
            cuts = self._cut_vertices(alive, s)
            return ((cuts & -cuts).bit_length() - 1,) if cuts else None
        # With need = 0 the empty `least` was the only candidate.
        best = None
        for t in _ranks(rest) if need else ():
            if self.flow(alive, s, t, need + 1) == need:
                sep = self._separator(alive, s, t, need)
                if best is None or sep < best:
                    best = sep
        return best

    def _cut_vertices(self, alive: int, s: int) -> int:
        """The mask of the cut vertices other than s of the connected
        subgraph on `alive`, by one depth-first search from s with low
        points (Hopcroft-Tarjan 1973), kept as depths on the current path.
        A neighbour of w seen before w is an ancestor of w, so w's own low
        point is the depth of its shallowest neighbour on the path, which a
        bisection over the path's prefix masks finds.  A vertex other than
        s is a cut vertex when the subtree of one of its children has no
        edge to a vertex above it."""
        nbm = self.nbm
        path, prefix, low = [s], [1 << s], [0]
        unseen, cuts = alive & ~(1 << s), 0
        while path:
            m = nbm[path[-1]] & unseen
            if m:
                bit = m & -m
                unseen ^= bit
                w = bit.bit_length() - 1
                # The first depth whose prefix meets N(w); the parent's at the latest.
                low.append(bisect_left(prefix, 1, 0, len(path) - 1, key=nbm[w].__and__))
                path.append(w)
                prefix.append(prefix[-1] | bit)
                continue
            path.pop()
            prefix.pop()
            below = low.pop()
            # The parent is path[-1], at depth len(path) - 1; s is depth 0.
            if len(path) > 1:
                if below < low[-1]:
                    low[-1] = below
                elif below >= len(path) - 1:
                    cuts |= 1 << path[-1]
        return cuts

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
        return tuple(_ranks(picked))

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
    return g.n > k and _SplitNetwork(g).kappa(k) >= k


def connectivity(g: Graph) -> int:
    """kappa(g): n-1 for complete graphs, 0 when disconnected."""
    return _SplitNetwork(g).kappa(g.n - 1)


def min_vertex_cut(g: Graph, below: int | None = None, records: PathRecords | None = None):
    """A minimum vertex cut of g, or None when g has none (g is complete).

    A disconnected g (kappa = 0) has the empty cut.  Among all minimum cuts
    the lexicographically smallest (as a sorted vertex tuple) is returned,
    so the answer is deterministic.  With `below`, flows stop at that cap and
    None is returned when g has no vertex cut smaller than `below`.
    `records`, kept by the caller across the cuts of graphs induced from one
    another, lets a flow answer from an earlier search's paths.
    """
    if g.is_complete():
        return None
    net = _SplitNetwork(g, records)
    kappa = net.kappa(g.n - 1 if below is None else below)
    if below is not None and kappa >= below:
        return None
    # The canonical cut holds the longest prefix of any minimum cut, so the
    # first s from kappa down whose tail from sources[s] answers is its size.
    sources = _ranks(net.alive, kappa + 1)
    for s in range(kappa, -1, -1):
        tail = net.tail_cut(sources[s], kappa - s)
        if tail is not None:
            return frozenset(net.ids[r] for r in (*sources[:s], *tail))
    raise RuntimeError("max-flow connectivity and the canonical cut disagree")


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
    joins y and z, so that x disconnects g[whole].  The edges are read from
    the smaller side; the message names the smallest crossing edge."""
    if x | y | z != whole or len(x) + len(y) + len(z) != len(whole):
        return "x, y, z must partition the vertex set"
    if not y or not z:
        return "both cut sides must be nonempty"
    adj, (small, large) = g.adj, (y, z) if len(y) <= len(z) else (z, y)
    if all(large.isdisjoint(adj[u]) for u in small):
        return None
    return f"edge {min((min(u, w), max(u, w)) for u in small for w in adj[u] & large)} crosses the cut sides"
