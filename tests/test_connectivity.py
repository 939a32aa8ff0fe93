import random
from itertools import combinations

import pytest

from chromcert import connectivity as conn
from chromcert.connectivity import (
    connectivity,
    is_k_connected,
    min_vertex_cut,
    split_by_cut,
)
from chromcert.families import FamilySpec, generate
from chromcert.graphs import Graph, induced_subgraph, is_connected
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
    assert not is_k_connected(Graph.build(1, []), 1)
    assert is_k_connected(Graph.build(2, [(0, 1)]), 1)
    assert not is_k_connected(Graph.build(4, [(0, 1), (2, 3)]), 1)


def test_connectivity_values():
    assert connectivity(generate(FamilySpec.complete(7))) == 6
    assert connectivity(generate(FamilySpec.cycle(6))) == 2
    assert connectivity(glued((5, 5))) == 1
    assert connectivity(Graph.build(3, [])) == 0


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
    """Near-complete graphs on n <= 11 non-contiguous labels, and small
    joins of cycles (the shape of the final subgraphs of `search`)."""
    for _ in range(60):
        n = rng.randint(3, 11)
        labels = rng.sample(range(50), n)
        p = rng.uniform(0.8, 0.97)
        yield Graph.build(labels, [(labels[a], labels[b]) for a, b in combinations(range(n), 2) if rng.random() < p])
    for sizes in ((4, 5), (3, 5), (5, 5), (4, 4, 3), (6, 4)):
        yield generate(FamilySpec.join(*[FamilySpec.cycle(c) for c in sizes]))


def test_matches_brute_force_on_dense_graphs(monkeypatch):
    # Record how each greedy step of min_vertex_cut ends: accepted on the
    # minimum degree alone, accepted on a flow, or rejected after the scan.
    outcomes = set()
    kappa, flow = conn._SplitNetwork.kappa, conn._SplitNetwork.flow
    flows = [0]

    def counting_flow(self, *args):
        flows[0] += 1
        return flow(self, *args)

    def recording_kappa(self, dead, limit, exact=True):
        before = flows[0]
        got = kappa(self, dead, limit, exact)
        if not exact:
            outcomes.add("rejected" if got >= limit else "flow" if flows[0] > before else "degree")
        return got

    monkeypatch.setattr(conn._SplitNetwork, "flow", counting_flow)
    monkeypatch.setattr(conn._SplitNetwork, "kappa", recording_kappa)
    for g in _dense_graphs(random.Random(4242)):
        _assert_matches_oracles(g)
    assert outcomes == {"degree", "flow", "rejected"}


@pytest.mark.parametrize("cycle, copies", [(5, 10), (5, 9), (7, 6)])
def test_min_cut_of_cycle_joins_takes_linearly_many_flows(monkeypatch, cycle, copies):
    # A cut of a join holds every part but one, plus a cut of that part's
    # cycle.  The lexicographically smallest minimum cut is every vertex
    # before the last cycle plus that cycle's vertices 0 and 2.
    g = generate(FamilySpec.join(*[FamilySpec.cycle(cycle)] * copies))
    flow, calls = conn._SplitNetwork.flow, [0]

    def counting_flow(self, *args):
        calls[0] += 1
        return flow(self, *args)

    monkeypatch.setattr(conn._SplitNetwork, "flow", counting_flow)
    last = cycle * (copies - 1)
    assert min_vertex_cut(g) == frozenset(range(last + 1)) | {last + 2}
    assert calls[0] <= 2 * g.n
