import pytest

from chromcert.graphs import (
    Graph,
    connected_components,
    from_dimacs,
    graph_hash,
    induced_subgraph,
    is_connected,
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


def test_induced_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        induced_subgraph(k4(), {0, 9})


def test_components_ordered_by_smallest_vertex():
    g = Graph.build(6, [(3, 4), (0, 1)])
    comps = connected_components(g)
    assert comps[0] == frozenset({0, 1})
    assert frozenset({3, 4}) in comps
    assert not is_connected(g)


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


def test_graph_hash_ignores_comments_but_not_structure():
    g = k4()
    h = Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert graph_hash(g) == graph_hash(from_dimacs(to_dimacs(g, comments=["x"])))
    assert graph_hash(g) != graph_hash(h)
    assert graph_hash(g) is graph_hash(g)  # computed once per graph
