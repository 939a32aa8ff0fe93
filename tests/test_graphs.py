import random
import tracemalloc

import pytest

from chromcert.connectivity import is_k_connected
from chromcert.graphs import (
    Graph,
    from_dimacs,
    induced_subgraph,
    is_connected,
    parse_lists,
    reach,
    to_dimacs,
    write_dimacs,
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


def test_induced_subgraph_equals_its_rebuilt_graph_apart_from_the_view():
    # A subgraph of a graph that has built its view shares those masks when
    # it keeps at least half of the view's ranks, under its own alive mask
    # summed from the rank dict.  A smaller one, or one whose parent built
    # no view, builds its own as a fresh root when read: the view of the
    # graph rebuilt from its vertices and edges.  The view is no field, so
    # eq, hash and repr leave it out.  Keeping every vertex returns g itself.
    rng = random.Random(35)
    shared = fresh = 0
    for i in range(200):
        g = random_labelled_graph(rng)
        assert induced_subgraph(g, g.vertices) is g
        built = i % 2 == 0
        if built:
            g.view
        sub = induced_subgraph(g, rng.sample(sorted(g.vertices), rng.randint(0, g.n)))
        ref = Graph.build(sub.vertices, sub.edges)
        assert (sub, hash(sub), sub.digest) == (ref, hash(ref), ref.digest)
        # Equal frozensets may print in different orders, so repr is
        # compared with the fields it must show, and only those.
        assert repr(sub) == f"Graph(vertices={sub.vertices!r}, adj={sub.adj!r})"
        if built and 2 * sub.n >= g.n:
            assert "view" in sub.__dict__
            assert sub.view.nbm is g.view.nbm and sub.view.alive == sum(1 << g.view.rank[v] for v in sub.vertices)
            shared += 1
        else:
            assert "view" not in sub.__dict__
            assert sub.view == ref.view and sub.view.alive == (1 << sub.n) - 1
            fresh += 1
    assert shared > 40 and fresh > 120


def test_no_view_is_built_before_a_connectivity_query():
    # Building, reading and generating a graph, and inducing from one that
    # has not built its view, build no masks; the first query does.
    for g in (Graph.build(6, [(0, 1), (1, 2), (3, 4)]), from_dimacs("p edge 4 2\ne 1 2\ne 3 4\n"),
              generate(FamilySpec.cycle(6))):
        sub = induced_subgraph(g, range(3))
        assert "view" not in g.__dict__ and "view" not in sub.__dict__
        is_k_connected(g, 1)
        assert "view" in g.__dict__ and "view" not in sub.__dict__


def _held_mb(make):
    """(MB that tracemalloc counts as held by make()'s result, the result)."""
    tracemalloc.start()
    try:
        g = make()
        return tracemalloc.get_traced_memory()[0] / 1e6, g
    finally:
        tracemalloc.stop()


def test_graph_memory_stays_linear_in_the_order():
    # A graph holds its adjacency alone until a connectivity query reads
    # it.  Graphs that built every vertex's neighbour mask at Graph.build
    # held 64.5 MB for this path and grew as n^2 even with no edge: 35.8 MB
    # for the empty graph on 20,000 vertices, 710.7 MB for the one below.
    # The bound is twice the 7.6 MB recorded for this path before graphs
    # had views at all (9.0 MB by this measure on CPython 3.11, as now).
    held, g = _held_mb(lambda: Graph.build(20000, [(i, i + 1) for i in range(19999)]))
    assert held <= 2 * 7.6 and "view" not in g.__dict__
    held, g = _held_mb(lambda: from_dimacs("p edge 100000 0\n"))
    assert held < 50 and g.n == 100000 and "view" not in g.__dict__


def test_a_built_view_leaves_equality_hash_repr_and_digest_alone():
    rng = random.Random(36)
    for _ in range(50):
        state = rng.getstate()
        g = random_labelled_graph(rng)
        rng.setstate(state)
        bare = random_labelled_graph(rng)
        g.view
        assert "view" in g.__dict__ and "view" not in bare.__dict__
        assert (g, hash(g), repr(g), g.digest) == (bare, hash(bare), repr(bare), bare.digest)


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
        "p edge 10 1\ne 1_0 +2\n",  # digit separator, plus sign
        "p edge 3 1\ne \uff11 3\n",  # fullwidth digit
        "p edge \u0663 0\n",  # Arabic-Indic digit
        "p edge 3 1\ne 1 2\ncedge 2 3\n",  # a record that starts with c, not a comment
        "cp edge 3 0\n",  # a problem line that starts with c
    ],
)
def test_dimacs_rejects_malformed(text):
    with pytest.raises(ValueError, match=r"^line \d+: "):
        from_dimacs(text)


# Every line boundary of str.splitlines.  The readers end a line at the first
# three and refuse a line that holds any other, so a comment may hold none.
LINE_BOUNDARIES = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def test_a_line_ends_only_at_a_newline_or_carriage_return():
    crlf = "c made elsewhere\r\np edge 3 2\r\ne 1 2\r\n\r\ne 2 3\r\n"
    path_graph = Graph.build(3, [(0, 1), (1, 2)])
    assert from_dimacs(crlf) == from_dimacs(crlf.replace("\r\n", "\r")) == path_graph
    assert parse_lists("list 0 1 2\r\nlist 1 0\rlist 2\r\n") == {0: frozenset({1, 2}), 1: frozenset({0}),
                                                                 2: frozenset()}
    # A line number counts "\r\n" once, as an editor does.
    with pytest.raises(ValueError, match="^line 4: unknown record"):
        from_dimacs("p edge 3 1\r\ne 1 2\r\n\r\nx\r\n")


def test_a_line_holding_another_line_boundary_is_refused():
    # Read by str.splitlines, the first gave the edges (0, 1) and (1, 2) and
    # the second failed at line 3 of a two-line file.
    with pytest.raises(ValueError, match=r"^line 1: line break '\\x85' inside a line$"):
        from_dimacs("p edge 3 2\x85e 1 2\x0be 2 3\n")
    with pytest.raises(ValueError, match=r"^line 2: line break '\\x1c' inside a line$"):
        from_dimacs("p edge 3 1\ne 1 2\x1cx\n")
    for boundary in LINE_BOUNDARIES[3:]:
        for text in (f"c a{boundary}b\np edge 2 0\n", f"p edge 2 1\r\ne 1 2{boundary}\r\n"):
            with pytest.raises(ValueError, match="^line [12]: line break"):
                from_dimacs(text)
        with pytest.raises(ValueError, match="^line 2: line break"):
            parse_lists(f"list 0 1\nlist 1{boundary}2\n")


@pytest.mark.parametrize("boundary", LINE_BOUNDARIES)
def test_a_comment_that_is_not_one_line_is_refused(tmp_path, boundary):
    # Written as is, "hello<boundary>e 2 3" would put an edge line before the header.
    comment = f"hello{boundary}e 2 3"
    g = Graph.build(3, [(0, 1)])
    with pytest.raises(ValueError, match="is not one line"):
        to_dimacs(g, comments=[comment])
    with pytest.raises(ValueError, match="is not one line"):
        to_dimacs(g, comments=["fine", "hello" + boundary])
    path = tmp_path / "g.col"
    with pytest.raises(ValueError, match="is not one line"):
        write_dimacs(g, str(path), comments=[comment])
    assert not path.exists()


def test_a_one_line_comment_round_trips():
    g = k4()
    text = to_dimacs(g, comments=["a plain comment\tand a tab", ""])
    assert text.startswith("c a plain comment\tand a tab\nc \np edge 4 6\n")
    assert from_dimacs(text).digest == g.digest


def test_lists_round_trip():
    text = "c two lists\nlist 0 2 1\n\nlist 5 0\nlist 7\n"
    assert parse_lists(text) == {0: frozenset({1, 2}), 5: frozenset({0}), 7: frozenset()}
    with pytest.raises(ValueError):
        parse_lists("forbid 0 1\n")
    with pytest.raises(ValueError, match="line 2: second list for vertex 0"):
        parse_lists("list 0 1 2\nlist 0 3 4\n")
    # as a repeated edge is refused: a typo must not shrink a list silently
    with pytest.raises(ValueError, match="^line 2: repeated colour in the list of vertex 0$"):
        parse_lists("list 1 0 1\nlist 0 1 1\n")
    with pytest.raises(ValueError, match="^line 1: "):
        parse_lists("list a 1\n")
    with pytest.raises(ValueError, match="^line 2: "):
        parse_lists("c vertex ok, colour not\nlist 1 x\n")
    for text in ("list 0_0 1\n", "list 0 1_2\n", "list +0 1\n", "list 0 \u0663\n"):
        with pytest.raises(ValueError, match="^line 1: expected integers"):
            parse_lists(text)
    assert parse_lists("list -0 -1 007\n") == {0: frozenset({-1, 7})}


def test_a_comment_is_a_line_whose_first_field_is_c():
    assert from_dimacs("c\n  c  indented\nc\ttab\np edge 2 1\ne 1 2\n") == Graph.build(2, [(0, 1)])
    assert parse_lists("c\n  c  indented\nc\ttab\nlist 0 1\n") == {0: frozenset({1})}
    with pytest.raises(ValueError, match=r"^line 2: unknown record 'cedge 1 2'"):
        from_dimacs("p edge 2 1\ncedge 1 2\ne 1 2\n")
    with pytest.raises(ValueError, match="^line 1: expected 'list <v> <colours...>'"):
        parse_lists("clist 0 1\n")


def test_graph_hash_ignores_comments_but_not_structure():
    g = k4()
    h = Graph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert g.digest == from_dimacs(to_dimacs(g, comments=["x"])).digest
    assert g.digest != h.digest
    assert g.digest is g.digest  # computed once per graph
