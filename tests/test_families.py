from dataclasses import fields

import pytest

from chromcert.solver import is_colourable
from chromcert.connectivity import min_vertex_cut
from chromcert.families import FamilySpec, generate, parse_atom, parse_family
from chromcert.graphs import graph_hash, induced_subgraph


def test_complete():
    g = generate(FamilySpec.complete(8))
    assert g.n == 8 and g.m == 28


def test_cycle():
    g = generate(FamilySpec.cycle(5))
    assert g.n == 5 and g.m == 5
    assert all(g.degree(v) == 2 for v in g.vertices)


def test_join_chromatic_numbers_add():
    g = generate(FamilySpec.join(FamilySpec.cycle(5), FamilySpec.complete(5)))
    assert g.n == 10
    assert is_colourable(g, 7) is None
    assert is_colourable(g, 8) is not None


def test_join_adds_all_cross_edges():
    g = generate(FamilySpec.join(FamilySpec.cycle(4), FamilySpec.cycle(4)))
    for u in range(4):
        for v in range(4, 8):
            assert g.has_edge(u, v)


def test_glued_cliques():
    g = generate(FamilySpec.glued_cliques((15, 15), 1))
    assert g.n == 29
    assert min_vertex_cut(g) == frozenset({0})
    assert is_colourable(g, 14) is None
    assert is_colourable(g, 15) is not None


def test_glued_cliques_share_one_fixed_set():
    g = generate(FamilySpec.glued_cliques((4, 4, 4), 2))
    assert g.n == 2 + 3 * 2
    # every clique contains the shared pair {0, 1}
    assert g.has_edge(0, 1)
    first = induced_subgraph(g, {0, 1, 2, 3})
    assert first.is_complete()


def test_glued_disjoint_when_no_shared():
    g = generate(FamilySpec.glued_cliques((8, 8), 0))
    assert g.n == 16
    assert not any(g.has_edge(u, v) for u in range(8) for v in range(8, 16))


def test_kneser_petersen():
    g = generate(FamilySpec.kneser(5, 2))
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in g.vertices)


def test_mycielski_grotzsch():
    g = generate(FamilySpec.mycielski(4))
    assert g.n == 11 and g.m == 20
    # triangle-free by construction
    for u, v in g.edges:
        assert not (g.adj[u] & g.adj[v])
    assert is_colourable(g, 3) is None
    assert is_colourable(g, 4) is not None


def test_mycielski_tower_of_chromatic_numbers():
    for rounds in (2, 3, 4):
        g = generate(FamilySpec.mycielski(rounds))
        assert is_colourable(g, rounds - 1) is None
        assert is_colourable(g, rounds) is not None


def test_random_reproducible():
    spec = FamilySpec.random(20, 0.5, seed=7)
    assert generate(spec) == generate(spec)
    other = generate(FamilySpec.random(20, 0.5, seed=8))
    assert generate(spec) != other


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec.kneser(3, 2),
        FamilySpec.cycle(2),
        FamilySpec.complete(0),
        FamilySpec.glued_cliques((2,), 3),
        FamilySpec.random(5, 1.5),
        FamilySpec.mycielski(1),
        FamilySpec("nosuch"),
    ],
)
def test_invalid_specs_rejected(spec):
    with pytest.raises(ValueError):
        generate(spec)


def test_labels_round_trip_meaningfully():
    spec = FamilySpec.join(FamilySpec.cycle(5), FamilySpec.complete(5))
    assert spec.label() == "join(cycle(5),complete(5))"
    assert FamilySpec.glued_cliques((15, 15), 1).label() == "glued_cliques([15,15],s=1)"


def test_parse_atom():
    assert parse_atom("complete:5") == FamilySpec.complete(5)
    assert parse_atom("cycle:7") == FamilySpec.cycle(7)
    assert parse_atom("kneser:5:2") == FamilySpec.kneser(5, 2)
    with pytest.raises(ValueError):
        parse_atom("complete")
    with pytest.raises(ValueError):
        parse_atom("glued:3")
    with pytest.raises(ValueError, match="takes 2 parameter"):
        parse_atom("kneser:5:2:1")


def test_parse_family_matches_the_constructors():
    assert parse_family("glued", ["15", "15"], shared=1) == FamilySpec.glued_cliques((15, 15), 1)
    assert parse_family("random", ["20", "0.5"], seed=7) == FamilySpec.random(20, 0.5, seed=7)
    assert parse_family("join", ["cycle:5", "complete:5"]) == FamilySpec.join(
        FamilySpec.cycle(5), FamilySpec.complete(5))
    assert [f.name for f in fields(FamilySpec)] == ["tag", "args"]


# One spec of each family, with the label and graph hash the generators
# gave before the family table held its generators' arguments.
@pytest.mark.parametrize("spec, label, digest", [
    (FamilySpec.complete(5), "complete(5)", "8f4c604b43ffa7d1b516bef5f880230a97da39b16ae08b8e036140caa42c8fce"),
    (FamilySpec.cycle(7), "cycle(7)", "c54f81957d34f47c49e9ad9a31703f38338723700e754bae0fefb63cb99196b5"),
    (FamilySpec.kneser(5, 2), "kneser(5,2)", "1b02cd626b9319abfdcd928d5db8e1d9c67c0e0550c643ce433c0540a0cd5842"),
    (FamilySpec.mycielski(4), "mycielski(4)", "b617a3edc5a894eacaea9cd1b7c9e641b8058308b5a83ffc79d2a9f90efd145f"),
    (FamilySpec.glued_cliques((4, 5), 2), "glued_cliques([4,5],s=2)",
     "8febadb43157440d81132f440e2344bf97b4d50cccc90ea6bd8eed167f2db771"),
    (FamilySpec.join(FamilySpec.cycle(5), FamilySpec.complete(3)), "join(cycle(5),complete(3))",
     "76ad7534597c828100351529932e84e1f741778810cf6e8bb96ab9cc421a0ec8"),
    (FamilySpec.random(20, 0.5, seed=7), "random(20,p=0.5,seed=7)",
     "e2ab8cf5f8e13f22d942a9328128af6e42eadeae3afcd7b896c8ca3b7ce15a10"),
])
def test_family_labels_and_graphs_pinned(spec, label, digest):
    assert spec.label() == label
    assert graph_hash(generate(spec)) == "sha256:" + digest
