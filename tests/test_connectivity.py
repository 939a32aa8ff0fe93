import hashlib
import random
from itertools import combinations

import pytest

from chromcert import connectivity as conn
from chromcert.connectivity import (
    connectivity,
    is_k_connected,
    min_vertex_cut,
    separation_fault,
    split_by_cut,
)
from chromcert.families import FamilySpec, generate
from chromcert.graphs import Graph, induced_subgraph, is_connected, reach
from chromcert.oracles import brute_is_k_connected, brute_min_cut


def glued(sizes, s=1):
    return generate(FamilySpec.glued_cliques(sizes, s))


def test_min_cut_glued_k5s_is_the_shared_vertex():
    cut = min_vertex_cut(glued((5, 5)))
    assert cut == frozenset({0})


def test_min_cut_complete_marker():
    assert min_vertex_cut(generate(FamilySpec.complete(6))) is None


def test_min_cut_disconnected_is_empty():
    assert min_vertex_cut(glued((4, 4), 0)) == frozenset()


def test_min_cut_petersen_matches_brute_force():
    # kneser(5,2) is the Petersen graph; the oracle enumerates all subsets.
    pet = generate(FamilySpec.kneser(5, 2))
    size, cut = brute_min_cut(pet)
    assert size == 3
    got = min_vertex_cut(pet)
    assert len(got) == 3
    assert got == cut  # identical lexicographic tie-break


def test_min_cut_lexicographic_tie_break():
    path = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
    assert min_vertex_cut(path) == frozenset({1})  # {2} also works, {1} is smaller


def test_is_k_connected_examples():
    assert is_k_connected(generate(FamilySpec.complete(15)), 2)
    assert not is_k_connected(glued((15, 15)), 2)
    assert is_k_connected(generate(FamilySpec.cycle(5)), 2)
    # C_5, k=2 against the single-removal oracle
    assert brute_is_k_connected(generate(FamilySpec.cycle(5)), 2)


def test_is_k_connected_rejects_k_zero():
    with pytest.raises(ValueError):
        is_k_connected(generate(FamilySpec.complete(3)), 0)


def test_is_k_connected_small_and_disconnected():
    for k in (1, 2):
        assert not is_k_connected(Graph.build(0, []), k)
        assert not is_k_connected(Graph.build(1, []), k)
    assert is_k_connected(Graph.build(2, [(0, 1)]), 1)
    assert not is_k_connected(Graph.build(4, [(0, 1), (2, 3)]), 1)


def test_connectivity_values():
    assert connectivity(generate(FamilySpec.complete(7))) == 6
    assert connectivity(generate(FamilySpec.cycle(6))) == 2
    assert connectivity(glued((5, 5))) == 1
    assert connectivity(Graph.build(3, [])) == 0
    assert connectivity(Graph.build(1, [])) == 0
    assert connectivity(Graph.build(0, [])) == 0


def test_split_glued_k5s():
    g = glued((5, 5))
    y, z = split_by_cut(g, frozenset({0}))
    assert y == frozenset(range(1, 5))
    assert z == frozenset(range(5, 9))


def test_split_path():
    y, z = split_by_cut(Graph.build(3, [(0, 1), (1, 2)]), frozenset({1}))
    assert (y, z) == (frozenset({0}), frozenset({2}))


def test_split_three_triangles_tie_break():
    g = glued((3, 3, 3))  # triangles sharing apex 0
    y, z = split_by_cut(g, frozenset({0}))
    assert y == frozenset({1, 2})
    assert z == frozenset({3, 4, 5, 6})


def test_split_rejects_non_cut():
    with pytest.raises(ValueError):
        split_by_cut(generate(FamilySpec.complete(4)), frozenset({0}))
    with pytest.raises(ValueError):
        split_by_cut(generate(FamilySpec.cycle(5)), frozenset({9}))
    g = generate(FamilySpec.cycle(5))
    with pytest.raises(ValueError, match=r"cut contains non-vertices \[7, 9\]"):
        split_by_cut(g, frozenset({0, 9, 7}))
    with pytest.raises(ValueError, match="removing x leaves no vertices"):
        split_by_cut(g, g.vertices)
    with pytest.raises(ValueError, match=r"\[0\] is not a vertex cut"):
        split_by_cut(g, frozenset({0}))


def test_separation_fault_names_the_broken_rule():
    g = generate(FamilySpec.cycle(6))
    x, y, z = frozenset({0, 3}), frozenset({1, 2}), frozenset({4, 5})
    assert separation_fault(g, g.vertices, x, y, z) is None
    assert separation_fault(g, g.vertices, x, y, z - {5}) == "x, y, z must partition the vertex set"
    assert separation_fault(g, g.vertices, x | {1}, y, z) == "x, y, z must partition the vertex set"
    assert separation_fault(g, g.vertices, x | y, frozenset(), z) == "both cut sides must be nonempty"
    # The smallest crossing edge is named.
    assert separation_fault(g, g.vertices, x - {3}, y | {3}, z) == "edge (3, 4) crosses the cut sides"
    assert separation_fault(g, g.vertices, frozenset(), y | {0, 3}, z) == "edge (0, 5) crosses the cut sides"
    # Only the vertices of `whole` are partitioned.
    assert separation_fault(g, frozenset({1, 2, 4, 5}), frozenset(), y, z) is None


def test_split_properties_random():
    rng = random.Random(7)
    done = 0
    while done < 60:
        n = rng.randint(3, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        g = Graph.build(n, edges)
        cut = min_vertex_cut(g)
        if cut is None or len(cut) >= n - 1:
            continue
        y, z = split_by_cut(g, cut)
        assert y | z == g.vertices - cut
        assert not (y & z)
        assert y and z
        for u, v in g.edges:
            assert not ((u in y and v in z) or (u in z and v in y))
        done += 1


def test_split_matches_the_components_of_g_minus_x():
    # Reference: the components of the induced subgraph on V - x, Y the one
    # holding the smallest id.  Random x on labelled graphs, cuts or not.
    rng = random.Random(15)
    splits = 0
    for _ in range(300):
        ids = rng.sample(range(1000), rng.randint(1, 12))
        g = Graph.build(ids, [(u, v) for u, v in combinations(ids, 2) if rng.random() < 0.4])
        x = frozenset(rng.sample(ids, rng.randint(0, len(ids))))
        rest, comps = induced_subgraph(g, g.vertices - x), []
        for v in rest.sorted_vertices():
            if all(v not in comp for comp in comps):
                comps.append(frozenset(reach(rest, v)))
        if len(comps) < 2:
            with pytest.raises(ValueError):
                split_by_cut(g, x)
            continue
        assert split_by_cut(g, x) == (comps[0], frozenset().union(*comps[1:]))
        splits += 1
    assert splits > 50


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.uniform(0.2, 0.9)]
        g = Graph.build(n, edges)
        expected = brute_min_cut(g)
        got = min_vertex_cut(g)
        if expected is None:
            assert got is None
        else:
            assert (len(got), got) == expected
        for k in range(1, 5):
            assert is_k_connected(g, k) == brute_is_k_connected(g, k)


def _non_contiguous_graphs(rng):
    """Graphs on n <= 11 vertices whose ids are not 0..n-1: random graphs
    on shuffled labels, and induced subgraphs of a larger random graph."""
    for _ in range(45):
        n = rng.randint(2, 11)
        labels = rng.sample(range(40), n)
        p = rng.uniform(0.2, 0.95)
        yield Graph.build(labels, [(labels[a], labels[b]) for a, b in combinations(range(n), 2) if rng.random() < p])
    for _ in range(45):
        big = generate(FamilySpec.random(16, rng.uniform(0.3, 0.95), rng.randrange(1000)))
        yield induced_subgraph(big, rng.sample(sorted(big.vertices), rng.randint(2, 11)))


def _assert_matches_oracles(g):
    expected = brute_min_cut(g)
    got = min_vertex_cut(g)
    if expected is None:
        assert got is None
        assert connectivity(g) == g.n - 1
    else:
        assert (len(got), got) == expected
        assert connectivity(g) == expected[0]
    for k in range(1, 6):
        assert is_k_connected(g, k) == brute_is_k_connected(g, k)
        # The capped call answers "is there a cut below k?" with the same cut.
        capped = min_vertex_cut(g, below=k)
        if expected is not None and expected[0] < k:
            assert capped == expected[1]
        else:
            assert capped is None


def test_matches_brute_force_on_non_contiguous_labels():
    for g in _non_contiguous_graphs(random.Random(2004)):
        _assert_matches_oracles(g)


def test_min_cut_lexicographic_when_flows_meet_another_cut_first():
    # {1,5} cuts off 8 and {2,3} cuts off {6,7}.  The flows from vertex 0
    # reach 6 before 8, so the first minimum s-t cut they meet is {2,3};
    # {1,5} is the lexicographically smaller one.
    g = Graph.build(9, [(0, 4), (0, 1), (0, 5), (4, 1), (4, 5), (0, 2), (0, 3), (4, 2), (4, 3),
                        (1, 2), (8, 1), (8, 5), (6, 7), (6, 2), (6, 3), (7, 2), (7, 3)])
    assert not is_connected(induced_subgraph(g, g.vertices - {2, 3}))
    assert min_vertex_cut(g) == frozenset({1, 5})
    _assert_matches_oracles(g)


def test_min_cut_avoiding_the_lowest_ids():
    # Two K5s glued at 9 (no vertex 8), and two K6s glued at {20, 30}: no
    # minimum cut contains any of the low ids.
    g = Graph.build([0, 1, 2, 3, 4, 5, 6, 7, 9],
                    list(combinations([0, 1, 2, 3, 9], 2)) + list(combinations([4, 5, 6, 7, 9], 2)))
    assert min_vertex_cut(g) == frozenset({9})
    h = Graph.build([0, 1, 2, 3, 4, 5, 6, 7, 20, 30],
                    list(combinations([0, 1, 2, 3, 20, 30], 2)) + list(combinations([4, 5, 6, 7, 20, 30], 2)))
    assert min_vertex_cut(h) == frozenset({20, 30})
    for graph in (g, h):
        _assert_matches_oracles(graph)


def _dense_graphs(rng):
    """Near-complete graphs on n <= 11 non-contiguous labels, small joins
    of cycles (the shape of the final subgraphs of `search`), and two K6s
    sharing {0, 1}, whose prefix is accepted on flows: every vertex of
    G - 0 has degree at least 4."""
    for _ in range(60):
        n = rng.randint(3, 11)
        labels = rng.sample(range(50), n)
        p = rng.uniform(0.8, 0.97)
        yield Graph.build(labels, [(labels[a], labels[b]) for a, b in combinations(range(n), 2) if rng.random() < p])
    for sizes in ((4, 5), (3, 5), (5, 5), (4, 4, 3), (6, 4)):
        yield generate(FamilySpec.join(*[FamilySpec.cycle(c) for c in sizes]))
    yield glued((6, 6), 2)


def _count_flows(monkeypatch):
    """A one-item list counting the calls of _SplitNetwork.flow from now on."""
    flow, calls = conn._SplitNetwork.flow, [0]

    def counting_flow(self, *args):
        calls[0] += 1
        return flow(self, *args)

    monkeypatch.setattr(conn._SplitNetwork, "flow", counting_flow)
    return calls


def test_matches_brute_force_on_dense_graphs(monkeypatch):
    # Record how each step of min_vertex_cut ends.  The prefix: a threshold
    # query accepts with no flow (on the minimum degree or a disconnected
    # rest) or on a flow, or refuses s.
    # The tail: forcing a vertex into an s-t separator is accepted, or
    # refused when the closure reaches in(t) or a forced vertex's out-node.
    outcomes = set()
    kappa, separator, close = conn._SplitNetwork.kappa, conn._SplitNetwork._separator, conn._SplitNetwork._close
    flows = _count_flows(monkeypatch)
    sink = [None]

    def recording_kappa(self, dead, limit, exact=True):
        before = flows[0]
        got = kappa(self, dead, limit, exact)
        if not exact:
            outcomes.add("prefix refused" if got >= limit else
                         "prefix flow" if flows[0] > before else "prefix degree")
        return got

    def recording_separator(self, alive, s, t, size):
        sink[0] = t
        return separator(self, alive, s, t, size)

    def recording_close(self, inside, new, avail, s, guard):
        grown = close(self, inside, new, avail, s, guard)
        outcomes.add("tail accepted" if not grown & guard else
                     "tail reached t" if grown >> sink[0] & 1 else "tail reached an out-node")
        return grown

    monkeypatch.setattr(conn._SplitNetwork, "kappa", recording_kappa)
    monkeypatch.setattr(conn._SplitNetwork, "_separator", recording_separator)
    monkeypatch.setattr(conn._SplitNetwork, "_close", recording_close)
    for g in _dense_graphs(random.Random(4242)):
        _assert_matches_oracles(g)
    assert outcomes == {"prefix degree", "prefix flow", "prefix refused",
                        "tail accepted", "tail reached t", "tail reached an out-node"}


# Flow counts of min_vertex_cut.  They depend only on Even's pair scan, the
# prefix queries and the tail's flows above the kernel; on these joins the
# tail's smallest candidate is already a cut, so it runs no flow.
CYCLE_JOIN_FLOWS = {(5, 10): 49, (5, 9): 44, (7, 6): 78}


@pytest.mark.parametrize("cycle, copies", [(5, 10), (5, 9), (7, 6)])
def test_min_cut_of_cycle_joins_takes_linearly_many_flows(monkeypatch, cycle, copies):
    # A cut of a join holds every part but one, plus a cut of that part's
    # cycle.  The lexicographically smallest minimum cut is every vertex
    # before the last cycle plus that cycle's vertices 0 and 2.
    g = generate(FamilySpec.join(*[FamilySpec.cycle(cycle)] * copies))
    calls = _count_flows(monkeypatch)
    last = cycle * (copies - 1)
    assert min_vertex_cut(g) == frozenset(range(last + 1)) | {last + 2}
    assert calls[0] <= 2 * g.n
    assert calls[0] == CYCLE_JOIN_FLOWS[cycle, copies]


def test_min_cut_of_a_dense_random_graph_is_pinned(monkeypatch):
    # kappa = 81: the uncapped cut that finalize and verify run on a dense H.
    # The greedy that ran one threshold query per vertex took 4488 flows.
    g = generate(FamilySpec.random(100, 0.9, 3))
    calls = _count_flows(monkeypatch)
    outside = {2, 4, 10, 11, 13, 24, 29, 35, 38, 39, 40, 43, 59, 62, 68, 75, 90, 91, 95}
    assert min_vertex_cut(g) == frozenset(range(100)) - outside
    assert calls[0] == 886


def test_is_k_connected_answers_from_the_kappa_query(monkeypatch):
    # kappa = 22 < 30.  The threshold query alone says so; building the
    # canonical cut as well took 1,104 flows.
    g = generate(FamilySpec.random(60, 0.5, 1))
    calls = _count_flows(monkeypatch)
    assert not is_k_connected(g, 30)
    assert calls[0] <= 555
    calls[0] = 0
    assert connectivity(g) == len(min_vertex_cut(g)) == 22
    assert calls[0] == 555 + 1104


def test_min_vertex_cut_seeded_differential_digest():
    # 300 seeded labelled graphs on up to 30 vertices, sparse to near
    # complete, each cut uncapped and below 1, 2, 3 and 5.  The digest was
    # recorded with the greedy that ran one threshold query per vertex.
    rng = random.Random(1980)
    lines = []
    for _ in range(300):
        n = rng.randint(1, 30)
        labels = rng.sample(range(100), n)
        p = rng.choice((rng.uniform(0.1, 0.5), rng.uniform(0.5, 0.9), rng.uniform(0.9, 1.0)))
        g = Graph.build(labels, [(a, b) for a, b in combinations(labels, 2) if rng.random() < p])
        for below in (None, 1, 2, 3, 5):
            cut = min_vertex_cut(g, below)
            lines.append(repr(cut if cut is None else sorted(cut)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "eaf67dcf75e4f70c85eb6f0e4069ae11535b1d7cd04bdacdeec1532d94d0cd88"


def _brute_kappa(g):
    """kappa(g) by subset enumeration, with kappa(K_m) = m - 1."""
    if g.n <= 1:
        return 0
    found = brute_min_cut(g)
    return g.n - 1 if found is None else found[0]


def test_kernel_kappa_matches_brute_force_with_dead_vertices():
    rng = random.Random(1975)
    checked = 0
    while checked < 120:
        n = rng.randint(2, 9)
        labels = rng.sample(range(30), n)
        p = rng.uniform(0.3, 0.95)
        g = Graph.build(labels, [(labels[a], labels[b]) for a, b in combinations(range(n), 2) if rng.random() < p])
        if not is_connected(g):
            continue
        net = conn._SplitNetwork(g)
        for _ in range(4):
            dead = set(rng.sample(range(n), rng.randint(0, n - 1)))
            kappa = _brute_kappa(induced_subgraph(g, [net.ids[i] for i in range(n) if i not in dead]))
            for limit in range(1, n + 1):
                assert net.kappa(dead, limit) == min(limit, kappa)
                # A threshold answer is an upper bound on kappa, below the
                # limit exactly when kappa is.
                got = net.kappa(dead, limit, exact=False)
                assert min(limit, kappa) <= got <= limit
                assert (got < limit) == (kappa < limit)
        checked += 1


def test_flow_undoes_a_path_through_a_reverse_arc():
    # s = 0, t = 5.  The search visits in-nodes in id order, so the first
    # augmenting path is 0-1-3-5, after which no path avoids 1 and 3.  The
    # second must enter out(1) backwards from in(3), cancelling the arc
    # 1 -> 3, to reach 0-1-4-5 and 0-2-3-5.
    g = Graph.build(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5)])
    assert not is_connected(induced_subgraph(g, {0, 2, 4, 5}))
    net = conn._SplitNetwork(g)
    alive = (1 << 6) - 1
    assert net.flow(alive, 0, 5, 1) == 1
    assert net.flow(alive, 0, 5, 3) == 2
    assert net.flow(alive & ~(1 << 4), 0, 5, 3) == 1


def test_flow_reroutes_through_a_reversed_internal_arc():
    # s = 1, t = 3.  The first path is 1-4-2-7-3.  The second, 1-8-6-7, can
    # only go on backwards: from in(7) to out(2), from out(2) to in(2)
    # against 2's own unit, and from in(2) to out(4), which reaches 9-0-3.
    # The result is 1-8-6-7-3 and 1-4-9-0-3.
    g = Graph.build([0, 1, 2, 3, 4, 6, 7, 8, 9],
                    [(0, 3), (0, 9), (1, 4), (1, 8), (2, 4), (2, 7), (3, 7), (4, 9), (6, 7), (6, 8)])
    net = conn._SplitNetwork(g)
    rank = {v: i for i, v in enumerate(net.ids)}
    assert net.flow((1 << 9) - 1, rank[1], rank[3], 3) == 2
    assert min_vertex_cut(g) == brute_min_cut(g)[1]
