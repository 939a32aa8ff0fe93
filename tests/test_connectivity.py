import hashlib
import random
from collections import Counter
from itertools import combinations, islice

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
    # kappa = 0: the empty cut is smaller than any positive bound, and no
    # cut is smaller than 0.
    two_triangles = glued((3, 3), 0)
    assert min_vertex_cut(two_triangles, below=1) == frozenset()
    assert min_vertex_cut(two_triangles, below=0) is None


@pytest.mark.parametrize(
    "g, cut, k_connected",
    [
        (Graph.build(0), None, (False, False, False, False)),
        (Graph.build(1), None, (False, False, False, False)),
        (Graph.build(2), (0, frozenset()), (False, False, False, False)),
        (Graph.build(2, [(0, 1)]), None, (True, False, False, False)),
        (generate(FamilySpec.complete(4)), None, (True, True, True, False)),
        (Graph.build(4, [(0, 1), (1, 2), (2, 3)]), (1, frozenset({1})), (True, False, False, False)),
        (generate(FamilySpec.cycle(5)), (2, frozenset({0, 2})), (True, True, False, False)),
    ],
    ids=["K0", "K1", "two-isolated", "K2", "K4", "P4", "C5"],
)
def test_cut_references_answer_corner_cases_by_definition(g, cut, k_connected):
    assert brute_min_cut(g) == cut
    assert tuple(brute_is_k_connected(g, k) for k in range(1, 5)) == k_connected


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


def test_separation_fault_matches_its_definition_from_either_side():
    # The rule read from the smaller side gives the definition's answer and
    # names the same smallest crossing edge, with y and z either way round.
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randint(2, 12)
        g = Graph.build(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < rng.random()])
        part = [rng.choice("xyyzzz") for _ in range(n)]
        x, y, z = (frozenset(v for v in range(n) if part[v] == side) for side in "xyz")
        if not y or not z:
            continue
        crossing = sorted((min(u, w), max(u, w)) for u in y for w in g.adj[u] & z)
        want = f"edge {crossing[0]} crosses the cut sides" if crossing else None
        assert separation_fault(g, g.vertices, x, y, z) == want
        assert separation_fault(g, g.vertices, x, z, y) == want


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
    sharing {0, 1}, whose canonical cut is the prefix {0, 1} itself."""
    for _ in range(60):
        n = rng.randint(3, 11)
        labels = rng.sample(range(50), n)
        p = rng.uniform(0.8, 0.97)
        yield Graph.build(labels, [(labels[a], labels[b]) for a, b in combinations(range(n), 2) if rng.random() < p])
    for sizes in ((4, 5), (3, 5), (5, 5), (4, 4, 3), (6, 4)):
        yield generate(FamilySpec.join(*[FamilySpec.cycle(c) for c in sizes]))
    yield glued((6, 6), 2)


def test_matches_brute_force_on_dense_graphs(monkeypatch, count_flows):
    # Record how each tail scan of min_vertex_cut ends.  It has no answer,
    # or s = kappa and the prefix {0..s-1} is itself the cut, or `least` is
    # the cut and no flow runs, or the cut is a separator read off a flow.
    # Forcing a vertex into an s-t separator is accepted, or refused when
    # the closure reaches in(t) or a forced vertex's out-node.
    outcomes = set()
    tail_cut, separator, close = conn._SplitNetwork.tail_cut, conn._SplitNetwork._separator, conn._SplitNetwork._close
    sink = [None]

    def recording_tail_cut(self, s, need):
        before = count_flows[0]
        got = tail_cut(self, s, need)
        outcomes.add("no answer" if got is None else "prefix is the cut" if not need else
                     "least is the cut" if count_flows[0] == before else "separator")
        return got

    def recording_separator(self, alive, s, t, size):
        sink[0] = t
        return separator(self, alive, s, t, size)

    def recording_close(self, inside, new, avail, s, guard):
        grown = close(self, inside, new, avail, s, guard)
        outcomes.add("tail accepted" if not grown & guard else
                     "tail reached t" if grown >> sink[0] & 1 else "tail reached an out-node")
        return grown

    monkeypatch.setattr(conn._SplitNetwork, "tail_cut", recording_tail_cut)
    monkeypatch.setattr(conn._SplitNetwork, "_separator", recording_separator)
    monkeypatch.setattr(conn._SplitNetwork, "_close", recording_close)
    for g in _dense_graphs(random.Random(4242)):
        _assert_matches_oracles(g)
    assert outcomes == {"no answer", "prefix is the cut", "least is the cut", "separator",
                        "tail accepted", "tail reached t", "tail reached an out-node"}


# Flow counts of min_vertex_cut.  They depend only on Even's pair scan and
# the tail scans' flows above the kernel; on these joins each prefix above
# the cut's is refused by flows that its s-w-t paths settle, and at the
# cut's prefix the tail's smallest candidate is already a cut.  No flow runs
# an augmenting search: on the C7 joins each of Even's flows is one path
# short after its s-a-b-t paths, and the path around its own cycle is the
# detour (78 searches when every such flow searched).
CYCLE_JOIN_FLOWS = {(5, 10): 49, (5, 9): 44, (7, 6): 78}


@pytest.mark.parametrize("cycle, copies", [(5, 10), (5, 9), (7, 6)])
def test_min_cut_of_cycle_joins_takes_linearly_many_flows(count_flows, count_searches, cycle, copies):
    # A cut of a join holds every part but one, plus a cut of that part's
    # cycle.  The lexicographically smallest minimum cut is every vertex
    # before the last cycle plus that cycle's vertices 0 and 2.
    g = generate(FamilySpec.join(*[FamilySpec.cycle(cycle)] * copies))
    last = cycle * (copies - 1)
    assert min_vertex_cut(g) == frozenset(range(last + 1)) | {last + 2}
    assert count_flows[0] <= 2 * g.n
    assert count_flows[0] == CYCLE_JOIN_FLOWS[cycle, copies]
    assert count_searches[0] == 0


def test_min_cut_of_a_dense_random_graph_is_pinned(count_flows):
    # kappa = 81: the uncapped cut that finalize and verify run on a dense H.
    # The greedy that ran one threshold query per vertex took 4488 flows.
    g = generate(FamilySpec.random(100, 0.9, 3))
    outside = {2, 4, 10, 11, 13, 24, 29, 35, 38, 39, 40, 43, 59, 62, 68, 75, 90, 91, 95}
    assert min_vertex_cut(g) == frozenset(range(100)) - outside
    assert count_flows[0] == 883


def test_is_k_connected_answers_from_the_kappa_query(count_flows):
    # kappa = 22 < 30.  The kappa query capped at 30 alone says so;
    # building the canonical cut as well takes 1,069 flows.
    g = generate(FamilySpec.random(60, 0.5, 1))
    assert not is_k_connected(g, 30)
    assert count_flows[0] <= 555
    count_flows[0] = 0
    assert connectivity(g) == len(min_vertex_cut(g)) == 22
    assert count_flows[0] == 555 + 1069


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


def _graphs(rng):
    """Graphs on 2..9 random labels, without end."""
    while True:
        n = rng.randint(2, 9)
        labels = rng.sample(range(30), n)
        p = rng.uniform(0.3, 0.95)
        yield Graph.build(labels, [(labels[a], labels[b]) for a, b in combinations(range(n), 2) if rng.random() < p])


def _connected_graphs(rng):
    """Connected graphs on 2..9 random labels, without end."""
    return filter(is_connected, _graphs(rng))


def _two_component_graphs(rng):
    """Disjoint unions of two connected graphs, their labels interleaved (even
    and odd), so every vertex has a neighbour and the minimum degree is >= 1."""
    parts = _connected_graphs(rng)
    for a, b in zip(parts, parts):
        yield Graph.build(
            [2 * v for v in a.vertices] + [2 * v + 1 for v in b.vertices],
            [(2 * u, 2 * v) for u, v in a.edges] + [(2 * u + 1, 2 * v + 1) for u, v in b.edges],
        )


def test_kernel_kappa_matches_brute_force_at_every_limit():
    # The first 120 connected graphs of the stream, and the disconnected
    # ones drawn between them, on which kappa is 0 at every limit.
    connected = disconnected = 0
    for g in _graphs(random.Random(1975)):
        net, kappa = conn._SplitNetwork(g), _brute_kappa(g)
        if is_connected(g):
            connected += 1
        else:
            assert kappa == 0
            disconnected += 1
        for limit in range(g.n + 1):
            assert net.kappa(limit) == min(limit, kappa)
        if connected == 120:
            break
    assert disconnected >= 10
    # Two components with no isolated vertex: the minimum-degree bound is >= 1,
    # so only kappa's connectedness walk gives 0.
    for g in islice(_two_component_graphs(random.Random(1976)), 60):
        assert not is_connected(g) and min(map(len, g.adj.values())) >= 1
        net = conn._SplitNetwork(g)
        for limit in range(g.n + 1):
            assert net.kappa(limit) == 0
        assert connectivity(g) == 0 and not is_k_connected(g, 1)
        assert min_vertex_cut(g) == min_vertex_cut(g, below=1) == frozenset()


def test_tail_cut_matches_brute_force_at_every_prefix():
    # For every s <= kappa, tail_cut(s, kappa - s) is the first set of
    # kappa - s ranks after s, in combinations order, whose removal
    # disconnects G - {0..s-1}, and None when there is none.
    answers = 0
    incomplete = (g for g in _connected_graphs(random.Random(1956)) if not g.is_complete())
    for g in islice(incomplete, 400):
        net, kappa = conn._SplitNetwork(g), _brute_kappa(g)
        for s in range(kappa + 1):
            expected = next((cut for cut in combinations(range(s + 1, g.n), kappa - s)
                             if not is_connected(induced_subgraph(
                                 g, [net.ids[i] for i in range(s, g.n) if i not in cut]))), None)
            assert net.tail_cut(s, kappa - s) == expected, (g.adj, s)
            answers += expected is not None
    assert answers > 400


def test_cut_vertices_of_long_sparse_tails_match_removal():
    # Random trees with a few chords: deep search paths, which the prefix
    # test's graphs on at most 9 vertices do not reach.  Each tail from s
    # on its connected part is compared with removing each vertex in turn.
    rng = random.Random(1973)
    for n in (20, 40, 80) * 5:
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(n // 4))]
        g = Graph.build(n, edges)
        net = conn._SplitNetwork(g)
        for s in sorted(rng.sample(range(n), 4)):
            alive = sum(1 << v for v in reach(induced_subgraph(g, range(s, n)), s))
            expected = sum(1 << v for v in range(n) if alive >> v & 1 and v != s
                           and not net.connected(alive & ~(1 << v)))
            assert net._cut_vertices(alive, s) == expected, (edges, s)


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


def _brute_separator(g, alive, s, t):
    """(lambda(s, t), the lexicographically smallest minimum s-t separator)
    in g[alive], g on the vertices 0..n-1, by subset enumeration: the
    smallest set of other alive vertices whose removal leaves no s-t path.
    s and t must be non-adjacent, so removing every other vertex separates
    them."""
    inner = [v for v in range(g.n) if alive >> v & 1 and v not in (s, t)]
    for size in range(len(inner) + 1):
        for sep in combinations(inner, size):
            rest = {v for v in range(g.n) if alive >> v & 1 and v not in sep}
            if t not in reach(induced_subgraph(g, rest), s):
                return size, sep
    raise AssertionError("non-adjacent s, t stay joined")


def _assert_flows_match_brute_force(g, alive, net=None):
    """Every non-adjacent alive pair at every limit 1..n: the flow of net,
    a fresh network of g by default, is min(limit, lambda), and a flow
    below its limit leaves the residual from which _separator reads the
    smallest minimum separator."""
    net = net or conn._SplitNetwork(g)
    live = [i for i in range(g.n) if alive >> i & 1]
    for s, t in combinations(live, 2):
        if net.nbm[s] >> t & 1:
            continue
        size, sep = _brute_separator(g, alive, s, t)
        for limit in range(1, g.n + 1):
            got = net.flow(alive, s, t, limit)
            assert got == min(limit, size), (s, t, limit)
            if got < limit:
                assert net._separator(alive, s, t, got) == sep, (s, t, limit)


def test_flow_kernel_matches_brute_force_with_dead_vertices():
    rng = random.Random(1927)
    for _ in range(40):
        n = rng.randint(2, 9)
        p = rng.uniform(0.2, 0.9)
        g = Graph.build(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        for _ in range(3):
            dead = rng.sample(range(n), rng.randint(0, n - 2))
            _assert_flows_match_brute_force(g, (1 << n) - 1 - sum(1 << v for v in dead))


def test_flow_from_private_neighbour_matchings(count_searches):
    # s = 0, t = 6, common neighbour 1; private neighbours 2, 3 of s and
    # 4, 5 of t, matched by the edges 2-4 and 3-5.  The s-w-t path and the
    # two s-a-b-t paths settle the flow at 3.
    settled = Graph.build(7, [(0, 1), (1, 6), (0, 2), (0, 3), (4, 6), (5, 6), (2, 4), (3, 5)])
    net = conn._SplitNetwork(settled)
    assert net.flow((1 << 7) - 1, 0, 6, 3) == 3
    # Only 2-4 matches, one short of the limit 3.  The walk from the free 3
    # through 7, off both neighbourhoods, reaches the free 5: the third path
    # 0-3-7-5-6 settles the flow with no search.  Without 7 the walk misses
    # and the search finds the flow is 2.
    short = Graph.build(8, [(0, 1), (1, 6), (0, 2), (0, 3), (4, 6), (5, 6), (2, 4), (3, 7), (7, 5)])
    net = conn._SplitNetwork(short)
    assert net.flow((1 << 8) - 1, 0, 6, 3) == 3
    assert count_searches[0] == 0
    assert net.flow((1 << 8) - 1 & ~(1 << 7), 0, 6, 3) == 2
    assert count_searches[0] == 1
    # a1, a2 = 1, 2 and b1, b2 = 3, 4 with the edges a1b1, a1b2 and a2b1:
    # first-fit takes a1-b1 and leaves a2 unmatched, and the free a2's only
    # way on is the matched b1, so the walk misses; a1-b2 and a2-b1 match
    # both, so the search must still find 2.
    missed = Graph.build(6, [(0, 1), (0, 2), (3, 5), (4, 5), (1, 3), (1, 4), (2, 3)])
    net = conn._SplitNetwork(missed)
    count_searches[0] = 0
    assert net.flow((1 << 6) - 1, 0, 5, 2) == 2
    assert count_searches[0] == 1
    for g in (settled, short, missed):
        _assert_flows_match_brute_force(g, (1 << g.n) - 1)


@pytest.mark.parametrize("parts", [(FamilySpec.cycle(7), FamilySpec.complete(2)),
                                   (FamilySpec.cycle(5), FamilySpec.cycle(4)),
                                   (FamilySpec.cycle(7), FamilySpec.cycle(3)),
                                   (FamilySpec.cycle(6), FamilySpec.complete(1), FamilySpec.complete(1))])
def test_flow_kernel_matches_brute_force_on_small_cycle_joins(parts):
    # Flows one detour short of their limit, the shape of the final H of a
    # join of cycles, with every vertex alive and with one, two and three
    # seeded vertices dead.
    g = generate(FamilySpec.join(*parts))
    rng = random.Random(g.n)
    for size in range(4):
        dead = rng.sample(range(g.n), size)
        _assert_flows_match_brute_force(g, (1 << g.n) - 1 - sum(1 << v for v in dead))


def test_induced_subgraphs_answer_as_their_rebuilt_graphs(count_flows):
    # Three levels of induced subgraphs of seeded graphs on shuffled labels.
    # Each parent builds its view before inducing, or does not, so that a
    # subgraph shares its parent's masks under an alive mask with gaps (its
    # parent built a view and it keeps at least half of the view's ranks),
    # is re-rooted (it keeps fewer), or builds its own view (its parent
    # built none).  Each must answer every cut and connectivity query as
    # the graph rebuilt from its vertices and edges does, with the same
    # number of flows, and read no mask wider than twice its order.
    rng = random.Random(35)
    kinds = Counter()
    for _ in range(160):
        n = rng.randint(2, 12)
        labels = rng.sample(range(60), n)
        p = rng.uniform(0.3, 0.95)
        g = Graph.build(labels, [(labels[a], labels[b]) for a, b in combinations(range(n), 2) if rng.random() < p])
        subs = []
        for _ in range(3):
            built = rng.random() < 0.7
            if built:
                g.view
            sub = induced_subgraph(g, rng.sample(sorted(g.vertices), rng.randint(1, g.n)))
            if sub is not g:
                subs.append((sub, "shared" if "view" in sub.__dict__ else "re-rooted" if built else "own"))
            g = sub
        for sub, kind in subs:
            answers = []
            for g in (sub, Graph.build(sub.vertices, sub.edges)):
                count_flows[0] = 0
                got = [min_vertex_cut(g, below) for below in (None, *range(g.n + 1))]
                got += [connectivity(g), *(is_k_connected(g, k) for k in range(1, g.n + 1))]
                answers.append((got, count_flows[0]))
            assert answers[0] == answers[1], (sorted(sub.edges), sorted(sub.vertices), kind)
            assert sub.view.alive.bit_length() <= 2 * sub.n
            kinds[kind] += 1
            kinds["gapped"] += sub.view.alive.bit_length() > sub.n
    assert kinds["gapped"] > 80 and kinds["shared"] > 90 and kinds["re-rooted"] > 80 and kinds["own"] > 45, kinds


def test_subgraph_networks_match_brute_force_under_gapped_alive_masks():
    # Networks of induced subgraphs of graphs on 0..n-1 that built their
    # view first.  One that keeps at least half of g shares g's masks, so a
    # rank is an id and the alive ranks have gaps; a smaller one is
    # re-rooted on its own ranks, which net.ids maps back to ids.  tail_cut
    # from each source is the first disconnecting set in combinations
    # order, and every flow and separator is the one subset enumeration
    # finds.
    rng = random.Random(1935)
    tails, kinds = Counter(), Counter()
    for _ in range(120):
        n = rng.randint(3, 10)
        p = rng.uniform(0.3, 0.95)
        g = Graph.build(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        g.view
        sub = induced_subgraph(g, rng.sample(range(n), rng.randint(2, n - 1)))
        net, ids = conn._SplitNetwork(sub), sorted(sub.vertices)
        shared = net.nbm is g.view.nbm
        assert net.ids == (list(range(n)) if shared else ids)
        rank = sub.view.rank
        assert net.alive == sum(1 << rank[v] for v in ids)
        kinds[shared] += 1

        def to_ids(ranks):
            return ranks if ranks is None else tuple(net.ids[r] for r in ranks)

        for s, t in combinations(ids, 2):
            if not g.has_edge(s, t):
                size, sep = _brute_separator(g, sum(1 << v for v in ids), s, t)
                for limit in range(1, sub.n + 1):
                    got = net.flow(net.alive, rank[s], rank[t], limit)
                    assert got == min(limit, size), (sorted(g.edges), ids, s, t, limit)
                    if got < limit:
                        assert to_ids(net._separator(net.alive, rank[s], rank[t], got)) == sep
        if not is_connected(sub) or sub.is_complete():
            continue
        kappa = _brute_kappa(sub)
        for i in range(kappa + 1):
            expected = next((cut for cut in combinations(ids[i + 1:], kappa - i)
                             if not is_connected(induced_subgraph(g, set(ids[i:]) - set(cut)))), None)
            assert to_ids(net.tail_cut(rank[ids[i]], kappa - i)) == expected, (sorted(g.edges), ids, i)
            tails[shared] += expected is not None
    # Keys: True for shared networks, False for re-rooted ones.
    assert tails[True] > 30 and kinds[True] > 75 and tails[False] > 5 and kinds[False] > 20, (tails, kinds)


def _ladder(k, twist):
    """The prism C_k x K_2, or with twist the Moebius ladder on 2k vertices:
    3-regular and 3-connected, so most flows at cap 3 need a search."""
    n = 2 * k
    rungs = [(i, i + k) for i in range(k)]
    if twist:
        return Graph.build(n, [(i, (i + 1) % n) for i in range(n)] + rungs)
    return Graph.build(n, [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)] + rungs)


def test_path_records_answer_as_a_fresh_network_under_shrinking_alive_masks(monkeypatch):
    # A descent keeps its records across steps whose graphs share one view
    # under shrinking alive masks, and asks most of its flows more than
    # once.  Here a network with records per step, over nested masks that
    # each drop one seeded vertex, asks every flow at limits 1..3 twice, in
    # a seeded order: each equals a fresh network's flow, a flow below its
    # limit leaves the same separator, and every flow and separator at every
    # limit is subset enumeration's.  Graphs: the Petersen graph, a prism,
    # a Moebius ladder and K4 with every edge subdivided, on shuffled ids.
    augment, at_cap = conn._SplitNetwork._augment, Counter()

    def counting_augment(self, alive, s, t, limit, common):
        flow = augment(self, alive, s, t, limit, common)
        at_cap["records" if self.paths is not None else "fresh"] += flow == limit
        return flow

    monkeypatch.setattr(conn._SplitNetwork, "_augment", counting_augment)
    subdivided_k4 = Graph.build(10, [(x, 4 + i) for i, pair in enumerate(combinations(range(4), 2)) for x in pair])
    rng = random.Random(1927 + 20)
    bases = [generate(FamilySpec.kneser(5, 2)), _ladder(5, False), _ladder(5, True), subdivided_k4]
    for base in bases * 2:
        perm = rng.sample(range(base.n), base.n)
        g = Graph.build(base.n, [(perm[u], perm[v]) for u, v in base.edges])
        records, alive = conn.PathRecords(), (1 << g.n) - 1
        while alive.bit_count() >= 3:
            net, fresh = conn._SplitNetwork(g, records), conn._SplitNetwork(g)
            live = [v for v in range(g.n) if alive >> v & 1]
            asks = [(s, t, limit) for s, t in combinations(live, 2) if not g.has_edge(s, t)
                    for limit in range(1, 4)] * 2
            rng.shuffle(asks)
            for s, t, limit in asks:
                got = net.flow(alive, s, t, limit)
                assert got == fresh.flow(alive, s, t, limit), (sorted(g.edges), alive, s, t, limit)
                if got < limit:
                    assert net._separator(alive, s, t, got) == fresh._separator(alive, s, t, got)
            _assert_flows_match_brute_force(g, alive, net)
            alive &= ~(1 << rng.choice(live))
    # Searches that met their cap; those of the records network include
    # the brute-force pass's.
    assert 2 * at_cap["records"] < at_cap["fresh"], at_cap


def test_min_vertex_cut_with_path_records_answers_as_without(count_flows, count_searches):
    # Capped cuts of nested induced subgraphs, as a descent asks them, with
    # one PathRecords throughout: each answers as the graph rebuilt from its
    # vertices and edges does, with the same flows.  A subgraph that keeps
    # at least half of its view shares it with the records; a smaller one is
    # re-rooted, and its network starts with none.
    rng = random.Random(1927 + 21)
    kinds, searches = Counter(), Counter()
    for _ in range(80):
        n = rng.randint(4, 14)
        labels = rng.sample(range(60), n)
        p = rng.uniform(0.3, 0.9)
        g = Graph.build(labels, [(labels[a], labels[b]) for a, b in combinations(range(n), 2) if rng.random() < p])
        records = conn.PathRecords()
        while True:
            if records.nbm is not None:
                kept = records.nbm is g.view.nbm
                kinds["shared" if kept else "re-rooted"] += 1
                assert kept or conn._SplitNetwork(g, records).paths == {}
            for below in range(1, g.n + 1):
                answers = []
                for graph, rec in ((g, records), (Graph.build(g.vertices, g.edges), None)):
                    count_flows[0] = count_searches[0] = 0
                    answers.append((min_vertex_cut(graph, below, rec), count_flows[0]))
                    searches["fresh" if rec is None else "records"] += count_searches[0]
                assert answers[0] == answers[1], (sorted(g.edges), below)
            if g.n <= 2:
                break
            g = induced_subgraph(g, rng.sample(sorted(g.vertices), rng.randint(2, g.n - 1)))
    assert kinds["shared"] > 50 and kinds["re-rooted"] > 20, kinds
    assert searches["records"] < searches["fresh"], searches
