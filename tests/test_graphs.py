import random

import pytest

from chromcert.graphs import (
    Graph,
    from_dimacs,
    graph_hash,
    induced_subgraph,
    is_connected,
    parse_lists,
    reach,
    to_dimacs,
)
from chromcert.families import FamilySpec, generate


def k4():
    return generate(FamilySpec.complete(4))


def c5():
    return generate(FamilySpec.cycle(5))


def test_build_rejects_self_loops():
    with pytest.raises(ValueError):
        Graph.build(3, [(0, 0)])


def test_build_deduplicates_and_normalises():
    g = Graph.build(3, [(0, 1), (1, 0), (2, 1)])
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.adj[1] == frozenset({0, 2})


def test_build_rejects_edge_outside_vertex_set():
    with pytest.raises(ValueError):
        Graph.build(2, [(0, 5)])


def test_induced_identity():
    g = k4()
    assert induced_subgraph(g, g.vertices) == g


def test_induced_pair_is_single_edge():
    sub = induced_subgraph(k4(), {0, 1})
    assert sub.vertices == frozenset({0, 1})
    assert sub.edges == frozenset({(0, 1)})


def test_induced_keeps_identities():
    # C_5 restricted to {0, 1, 3}: the edge {0,1} plus isolated vertex 3.
    sub = induced_subgraph(c5(), {0, 1, 3})
    assert sub.vertices == frozenset({0, 1, 3})
    assert sub.edges == frozenset({(0, 1)})
    assert sub.degree(3) == 0


def random_labelled_graph(rng):
    # Some edges come reversed and some twice; Graph.build collapses both.
    ids = rng.sample(range(1000), rng.randint(0, 14))
    p = rng.random()
    edges = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < p]
    edges += [(v, u) for u, v in edges if rng.random() < 0.3]
    edges += [e for e in edges if rng.random() < 0.2]
    rng.shuffle(edges)
    return Graph.build(ids, edges)


def test_induced_matches_filtered_parent_edges():
    # The inherited adjacency against a graph built from the parent's edges
    # with both ends kept, over random subsets, the empty and the full set.
    rng = random.Random(15)
    for _ in range(200):
        g = random_labelled_graph(rng)
        for xs in (frozenset(), g.vertices, frozenset(rng.sample(sorted(g.vertices), rng.randint(0, g.n)))):
            ref = Graph.build(xs, (e for e in g.edges if e[0] in xs and e[1] in xs))
            sub = induced_subgraph(g, xs)
            assert (sub.vertices, sub.edges, sub.adj, sub.m) == (ref.vertices, ref.edges, ref.adj, ref.m)
            assert sub == ref and hash(sub) == hash(ref)
            assert all(sub.degree(v) == ref.degree(v) for v in xs)
            outside = max(g.vertices, default=0) + 1
            for u in list(xs) + [outside]:
                for v in list(xs) + [outside]:
                    assert sub.has_edge(u, v) == ((min(u, v), max(u, v)) in ref.edges)
            # Restricting in two steps gives the direct restriction.
            inner = frozenset(rng.sample(sorted(xs), rng.randint(0, len(xs))))
            assert induced_subgraph(sub, inner) == induced_subgraph(g, inner)


def test_components_match_a_breadth_first_search():
    rng = random.Random(16)
    for _ in range(200):
        g = random_labelled_graph(rng)
        ref, seen = [], set()
        for start in sorted(g.vertices):
            if start not in seen:
                comp, queue = {start}, [start]
                for v in queue:
                    for e in g.edges:
                        if v in e and (w := e[0] + e[1] - v) not in comp:
                            comp.add(w)
                            queue.append(w)
                seen |= comp
                ref.append(frozenset(comp))
        assert [frozenset(reach(g, min(comp))) for comp in ref] == ref
        assert is_connected(g) == (len(ref) <= 1)


def test_induced_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        induced_subgraph(k4(), {0, 9})


def test_dimacs_round_trip():
    g = generate(FamilySpec.glued_cliques((4, 4), 1))
    text = to_dimacs(g, comments=["example"])
    assert text.splitlines()[0] == "c example"
    assert from_dimacs(text) == g


def test_dimacs_parses_one_based_ids():
    g = from_dimacs("c hello\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.vertices == frozenset({0, 1, 2})
    assert g.edges == frozenset({(0, 1), (1, 2)})


@pytest.mark.parametrize(
    "text",
    [
        "e 1 2\n",  # edge before header
        "p edge 2 1\ne 1 1\n",  # self loop
        "p edge 2 1\ne 1 5\n",  # out of range
        "p edge\n",  # malformed header
        "p edge 2 0\nq 1 2\n",  # unknown record
        "p edge 3 1\ne 1 2\np edge 6 0\n",  # second header
        "p edge x 0\n",  # vertex count not an integer
        "p edge 3 1\ne 1 b\n",  # edge endpoint not an integer
        "p edge -2 0\n",  # negative vertex count
        "p edge 3 5\ne 1 2\n",  # fewer edge lines than declared
        "p edge 3 2\ne 1 2\ne 2 1\n",  # one edge given twice
        "p col 3 0\n",  # format word other than edge
        "p edge 3 0 9\n",  # extra field on the problem line
    ],
)
def test_dimacs_rejects_malformed(text):
    with pytest.raises(ValueError, match=r"^line \d+: "):
        from_dimacs(text)


def test_lists_round_trip():
    text = "c two lists\nlist 0 2 1\n\nlist 5 0\nlist 7\n"
    assert parse_lists(text) == {0: frozenset({1, 2}), 5: frozenset({0}), 7: frozenset()}
    with pytest.raises(ValueError):
        parse_lists("forbid 0 1\n")
    with pytest.raises(ValueError, match="line 2: second list for vertex 0"):
        parse_lists("list 0 1 2\nlist 0 3 4\n")
    with pytest.raises(ValueError, match="^line 1: "):
        parse_lists("list a 1\n")
    with pytest.raises(ValueError, match="^line 2: "):
        parse_lists("c vertex ok, colour not\nlist 1 x\n")


def test_graph_hash_ignores_comments_but_not_structure():
    g = k4()
    h = Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert graph_hash(g) == graph_hash(from_dimacs(to_dimacs(g, comments=["x"])))
    assert graph_hash(g) != graph_hash(h)
    assert graph_hash(g) is graph_hash(g)  # computed once per graph
