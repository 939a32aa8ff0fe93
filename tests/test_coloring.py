import random
from itertools import combinations, product

import pytest

from chromcert.coloring import greedy_list_colour, list_chromatic_at_least
from chromcert.errors import ResourceLimitError
from chromcert.families import FamilySpec, generate
from chromcert.graphs import Graph
from chromcert.oracles import (
    brute_colourable,
    brute_first_colouring,
    brute_list_colour,
    canonical_list_assignments,
)
from chromcert import solver
from chromcert.solver import Palette, SolverBudget, Template, extend, is_colourable, list_colour


def proper(g, col):
    return all(col[u] != col[v] for u, v in g.edges)


def k24():
    return Graph.build(6, [(i, j) for i in (0, 1) for j in (2, 3, 4, 5)])


def test_odd_cycle():
    c5 = generate(FamilySpec.cycle(5))
    assert is_colourable(c5, 2) is None
    col = is_colourable(c5, 3)
    assert col is not None and proper(c5, col)


def test_petersen_against_brute_force():
    pet = generate(FamilySpec.kneser(5, 2))
    assert not brute_colourable(pet, 2)
    assert brute_colourable(pet, 3)
    assert is_colourable(pet, 2) is None
    col = is_colourable(pet, 3)
    assert col is not None and proper(pet, col)


def test_grotzsch_against_brute_force():
    # Twice-iterated Mycielskian of an edge: 11 vertices, triangle-free.
    g = generate(FamilySpec.mycielski(4))
    assert g.n == 11
    assert brute_first_colouring(g, 3) is None
    oracle = brute_first_colouring(g, 4)
    assert oracle is not None and proper(g, oracle)
    assert is_colourable(g, 3) is None
    col = is_colourable(g, 4)
    assert col is not None and proper(g, col)


def test_edge_cases():
    empty = Graph.build(0, [])
    assert is_colourable(empty, 0) == {}
    one = Graph.build(1, [])
    assert is_colourable(one, 0) is None
    assert is_colourable(one, 1) == {0: 0}
    with pytest.raises(ValueError):
        is_colourable(one, -1)


def test_is_colourable_matches_enumeration_on_random_graphs():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(1, 7)
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < rng.uniform(0.1, 0.9)]
        g = Graph.build(n, edges)
        for t in range(1, 5):
            assert (is_colourable(g, t) is not None) == brute_colourable(g, t)


def test_brute_colourable_matches_the_definition():
    # Every labelled graph on at most 5 vertices, against all t^n assignments.
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.build(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            for t in range(4):
                expected = any(proper(g, c) for c in product(range(t), repeat=n))
                assert brute_colourable(g, t) == expected, (sorted(g.edges), t)


def test_brute_list_colour_is_the_first_proper_assignment_in_product_order():
    # Every labelled graph on at most 5 vertices, under seeded list families,
    # against the product of the sorted lists in vertex id order; key order
    # included.
    rng = random.Random(75)
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        families = [{v: frozenset(rng.sample(range(4), rng.randint(1, 3))) for v in range(n)} for _ in range(3)]
        for mask in range(1 << len(pairs)):
            g = Graph.build(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            for lists in families:
                first = next((c for c in product(*(sorted(lists[v]) for v in range(n))) if proper(g, c)), None)
                got = brute_list_colour(g, lists)
                assert (None if got is None else tuple(got.items())) == (
                    None if first is None else tuple(enumerate(first))), (sorted(g.edges), lists)


def test_is_colourable_choices_pinned():
    # DSATUR order and colour choices, dict key order included.
    pet = generate(FamilySpec.kneser(5, 2))
    assert list(is_colourable(pet, 3).items()) == [
        (0, 0), (7, 1), (3, 0), (4, 1), (9, 2), (1, 0), (6, 2), (2, 0), (5, 1), (8, 2)]
    grotzsch = generate(FamilySpec.mycielski(4))
    assert is_colourable(grotzsch, 3) is None
    assert list(is_colourable(grotzsch, 4).items()) == [
        (10, 0), (5, 1), (1, 0), (0, 1), (6, 2), (2, 1), (8, 2), (4, 0), (3, 2), (9, 3), (7, 1)]


def test_deep_cycles_need_no_recursion():
    even, odd = generate(FamilySpec.cycle(1500)), generate(FamilySpec.cycle(1501))
    alternating = [(v, v % 2) for v in range(1500)]
    assert list(is_colourable(even, 2).items()) == alternating
    assert list(list_colour(even, {v: frozenset({0, 1}) for v in even.vertices}).items()) == alternating
    # The odd cycle backtracks through the whole path before giving up.
    assert is_colourable(odd, 2) is None
    assert list_colour(odd, {v: frozenset({0, 1}) for v in odd.vertices}) is None


def test_list_colour_forced_unsat():
    g = Graph.build(2, [(0, 1)])
    assert list_colour(g, {0: frozenset({1}), 1: frozenset({1})}) is None


def test_list_colour_forced_choice():
    g = Graph.build(2, [(0, 1)])
    assert list_colour(g, {0: frozenset({1}), 1: frozenset({1, 2})}) == {0: 1, 1: 2}


def test_list_colour_k24_spec_lists():
    # The classic non-2-choosability lists for K_{2,4}.
    lists = {
        0: frozenset({1, 2}),
        1: frozenset({3, 4}),
        2: frozenset({1, 3}),
        3: frozenset({1, 4}),
        4: frozenset({2, 3}),
        5: frozenset({2, 4}),
    }
    g = k24()
    assert brute_list_colour(g, lists) is None  # 2^6 product enumeration
    assert list_colour(g, lists) is None


def test_list_colour_choices_pinned_on_k24():
    # The engine's choices, dict key order included: 0 takes 1, which
    # leaves 2 only colour 3, and forward checking then forces 1 to 4.
    g = k24()
    lists = {0: frozenset({1, 2}), 1: frozenset({3, 4}), 2: frozenset({1, 3}),
             3: frozenset({1, 2, 4}), 4: frozenset({2, 3}), 5: frozenset({2, 4})}
    col = list_colour(g, lists)
    assert list(col.items()) == [(0, 1), (2, 3), (1, 4), (3, 2), (5, 2), (4, 2)]
    assert proper(g, col) and all(col[v] in lists[v] for v in g.vertices)
    assert brute_list_colour(g, lists) is not None


def test_list_colour_rejects_a_missing_list_and_answers_an_empty_one():
    g = Graph.build(2, [(0, 1)])
    with pytest.raises(ValueError, match="vertex 1 missing from the list assignment"):
        list_colour(g, {0: frozenset({1})})
    assert list_colour(g, {0: frozenset({1}), 1: frozenset()}) is None


def _no_search(*args):
    raise AssertionError("a forced colouring question called extend")


def test_forced_questions_agree_with_the_oracles_without_a_search(monkeypatch):
    # Every labelled graph on at most 5 vertices.  At t <= 1, and under
    # seeded lists of at most one colour, some of them empty, each vertex
    # has at most one colour: the answer is the oracles', and the one
    # forced colouring when there is one, found without extend.
    monkeypatch.setattr(solver, "extend", _no_search)
    rng = random.Random(37)
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        families = [{v: frozenset(rng.sample(range(3), rng.randint(0, 1))) for v in range(n)} for _ in range(4)]
        for mask in range(1 << len(pairs)):
            g = Graph.build(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            for t in (0, 1):
                col = is_colourable(g, t)
                assert (col is not None) == brute_colourable(g, t), (sorted(g.edges), t)
                assert col is None or col == dict.fromkeys(range(n), 0) and proper(g, col)
            for lists in families:
                assert list_colour(g, lists) == brute_list_colour(g, lists), (sorted(g.edges), lists)
    # No budget stops a forced answer: it makes no decision.
    edgeless = Graph.build(5, [])
    assert is_colourable(edgeless, 1, SolverBudget(max_decisions=1)) == dict.fromkeys(range(5), 0)
    assert is_colourable(edgeless, 0, SolverBudget(max_decisions=1)) is None


def test_forced_questions_raise_as_the_search_does(monkeypatch):
    # A vertex with no list raises extend's ValueError for the first such
    # vertex in extend's order, with or without an empty list beside it;
    # a negative colour count raises too.
    g = Graph.build([9, 2, 7, 4], [(2, 9), (4, 7)])
    for missing in range(1, 1 << g.n):
        for empty in g.vertices:
            lists = {v: frozenset() if v == empty else frozenset({v % 3})
                     for i, v in enumerate(sorted(g.vertices)) if not missing >> i & 1}
            with pytest.raises(ValueError) as searched:
                extend(g, Template.empty(g), Palette.from_lists(lists))
            with monkeypatch.context() as patched:
                patched.setattr(solver, "extend", _no_search)
                with pytest.raises(ValueError) as forced:
                    list_colour(g, lists)
            assert str(forced.value) == str(searched.value)
    with pytest.raises(ValueError, match="^plain palette needs a nonnegative size$"):
        is_colourable(g, -1)


def test_list_colour_agrees_with_brute_force_on_every_small_instance():
    # Every labelled graph on at most 4 vertices under every assignment of
    # lists from {}, {0}, {1}, {0, 1}: 16,933 cases, empty lists included.
    domains = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    cases = 0
    for n in range(5):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.build(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            for choice in product(domains, repeat=n):
                lists = dict(enumerate(choice))
                col = list_colour(g, lists)
                assert (col is None) == (brute_list_colour(g, lists) is None), (g.edges, lists)
                assert col is None or (proper(g, col) and all(col[v] in lists[v] for v in g.vertices))
                cases += 1
    assert cases == 16_933


def test_list_colour_matches_product_enumeration():
    rng = random.Random(37)
    for _ in range(120):
        n = rng.randint(1, 7)
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph.build(n, edges)
        lists = {
            v: frozenset(rng.sample(range(5), rng.randint(1, 3))) for v in range(n)
        }
        mine = list_colour(g, lists)
        oracle = brute_list_colour(g, lists)
        assert (mine is None) == (oracle is None)
        if mine is not None:
            assert proper(g, mine) and all(mine[v] in lists[v] for v in g.vertices)
        fast = greedy_list_colour(g, lists)
        if fast is not None:
            assert proper(g, fast)


def test_choosability_t1_and_t2():
    edge = Graph.build(2, [(0, 1)])
    ok, witness = list_chromatic_at_least(edge, 2)
    assert ok and witness == {0: frozenset({0}), 1: frozenset({0})}
    ok, witness = list_chromatic_at_least(edge, 1)
    assert ok and all(not cs for cs in witness.values())
    assert list_chromatic_at_least(Graph.build(0, []), 1) == (False, None)
    assert list_chromatic_at_least(Graph.build(3, []), 2) == (False, None)


def test_choosability_c4_is_two():
    c4 = generate(FamilySpec.cycle(4))
    assert list_chromatic_at_least(c4, 2)[0]
    assert not list_chromatic_at_least(c4, 3)[0]


def test_choosability_c4_full_enumeration_cross_check():
    # Independent route: every assignment of 2-element lists over the
    # sufficient universe {0..7} admits a proper colouring.
    c4 = generate(FamilySpec.cycle(4))
    pairs = list(combinations(range(8), 2))
    for ls in product(pairs, repeat=4):
        lists = {v: frozenset(ls[v]) for v in range(4)}
        if greedy_list_colour(c4, lists) is not None:
            continue
        assert brute_list_colour(c4, lists) is not None


def test_choosability_k4_is_four():
    k4 = generate(FamilySpec.complete(4))
    ok, witness = list_chromatic_at_least(k4, 4)
    assert ok
    assert all(len(cs) == 3 for cs in witness.values())
    assert brute_list_colour(k4, witness) is None
    assert not list_chromatic_at_least(k4, 5)[0]


def test_choosability_k24_witness_found_and_refuted():
    ok, witness = list_chromatic_at_least(k24(), 3)
    assert ok
    assert all(len(cs) == 2 for cs in witness.values())
    assert brute_list_colour(k24(), witness) is None


def test_choosability_peels_a_vertex_of_low_degree():
    # The pendant vertex has degree 1 < t - 1, so the search runs on the K4
    # alone and the pendant vertex gets t - 1 colours of its own.
    k4 = generate(FamilySpec.complete(4))
    g = Graph.build(5, list(k4.edges) + [(0, 4)])
    holds, witness = list_chromatic_at_least(g, 4)
    assert holds and set(witness) == set(g.vertices)
    assert witness[4] == frozenset({0, 1, 2})
    assert {v: witness[v] for v in k4.vertices} == list_chromatic_at_least(k4, 4)[1]
    assert brute_list_colour(g, witness) is None


@pytest.mark.parametrize("t", [3, 4])
def test_choosability_of_graphs_on_at_most_two_vertices(t):
    # Every vertex has degree below t - 1, so peeling leaves no core, and
    # the witness search, which assumes three vertices or more, never runs.
    for g in (Graph.build(0, []), Graph.build(1, []), Graph.build(2, []), Graph.build(2, [(0, 1)])):
        assert list_chromatic_at_least(g, t) == (False, None)


def test_choosability_cap():
    big = generate(FamilySpec.cycle(9))
    with pytest.raises(ValueError):
        list_chromatic_at_least(big, 3)
    # the cap only applies from t = 3 up
    assert list_chromatic_at_least(big, 2)[0]


def test_choosability_canonical_search_matches_full_enumeration_tiny():
    # K_3 and P_3 at t = 3, where unrenamed enumeration is affordable.
    for g, expected in ((generate(FamilySpec.complete(3)), True),
                        (Graph.build(3, [(0, 1), (1, 2)]), False)):
        got, witness = list_chromatic_at_least(g, 3)
        assert got == expected
        pairs = list(combinations(range(6), 2))
        found = False
        for ls in product(pairs, repeat=3):
            lists = {v: frozenset(ls[v]) for v in range(3)}
            if brute_list_colour(g, lists) is None:
                found = True
                break
        assert found == expected
        if got:
            assert brute_list_colour(g, witness) is None


def first_refuted_by_reference(g, t):
    for lists in canonical_list_assignments(g, t - 1):
        if brute_list_colour(g, lists) is None:
            return lists
    return None


def complete_bipartite(a, b):
    return Graph.build(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def k5_minus(*missing):
    return Graph.build(5, [e for e in combinations(range(5), 2) if e not in missing])


@pytest.mark.parametrize("g, t", [
    (complete_bipartite(3, 3), 3),  # the last two positions are not adjacent
    (complete_bipartite(3, 4), 3),
    (k24(), 3),
    (generate(FamilySpec.complete(4)), 4),
    (generate(FamilySpec.cycle(4)), 3),  # 2-choosable: the whole enumeration; the last two adjacent
    (Graph.build(6, [(u, v) for u in (0, 2, 4) for v in (1, 3, 5)]), 3),  # K3,3, the last two adjacent
    (Graph.build(4, [(0, 2), (1, 2), (1, 3), (0, 3)]), 3),  # C4, the last two not adjacent
    # The triangle 0, 1, 2 has no colouring from the first lists, {0, 1}:
    # under them the prefix gives no pair, meet stays all ones, and the
    # first list at the last position is refuted.
    (Graph.build(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]), 3),
    # At t = 4 every graph on at most 5 vertices with minimum degree >= 3
    # that the reference settles quickly: it takes 8-11 s on the choosable
    # wheel K1 + C4, K5 minus two disjoint edges.
    (k5_minus(), 4),
    (k5_minus((0, 1)), 4),
    (k5_minus((0, 4)), 4),
    (k5_minus((2, 3)), 4),
    (k5_minus((3, 4)), 4),
])
def test_choosability_witness_is_first_refuted_canonical_assignment(g, t):
    # Minimum degree >= t - 1, so nothing is peeled and the witness is the
    # search's own: the first canonical assignment with no list colouring.
    assert min(g.degree(v) for v in g.vertices) >= t - 1
    expected = first_refuted_by_reference(g, t)
    ok, witness = list_chromatic_at_least(g, t)
    assert ok == (expected is not None)
    assert witness == expected
    if witness is not None:
        assert list(witness) == list(expected)


def test_choosability_witness_matches_reference_on_random_dense_graphs():
    rng = random.Random(53)
    checked = 0
    while checked < 100:
        n = rng.randint(3, 7)
        labels = sorted(rng.sample(range(3, 40), n))
        g = Graph.build(labels, [(u, v) for u, v in combinations(labels, 2) if rng.random() < 0.7])
        if min(g.degree(v) for v in g.vertices) < 2:
            continue
        checked += 1
        expected = first_refuted_by_reference(g, 3)
        ok, witness = list_chromatic_at_least(g, 3)
        assert ok == (expected is not None)
        assert witness == expected


def test_choosability_witness_matches_reference_on_random_sparse_graphs():
    # Sparse and bipartite graphs with minimum degree >= 2, so nothing is
    # peeled.  Most sparse ones hold an odd cycle, which the first assignment
    # refutes; on the bipartite ones the first refuted assignment lies deep
    # in the enumeration, past subtrees that both cuts skip.
    rng = random.Random(61)
    checked = 0
    while checked < 34:
        n = rng.randint(4, 7)
        labels = sorted(rng.sample(range(3, 60), n))
        if checked % 2:
            edges = [(u, v) for u, v in combinations(labels, 2) if rng.random() < 0.45]
        else:
            side = {v: rng.random() < 0.5 for v in labels}
            edges = [(u, v) for u, v in combinations(labels, 2)
                     if side[u] != side[v] and rng.random() < 0.75]
        g = Graph.build(labels, edges)
        if min(g.degree(v) for v in g.vertices) < 2:
            continue
        checked += 1
        expected = first_refuted_by_reference(g, 3)
        ok, witness = list_chromatic_at_least(g, 3)
        assert ok == (expected is not None)
        assert witness == expected
        if witness is not None:
            assert list(witness) == list(expected)


@pytest.mark.parametrize("a, b, expected", [
    (2, 6, [{0, 1}, {2, 3}, {0, 1}, {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}]),
    (3, 5, [{0, 1}, {0, 1}, {2, 3}, {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}]),
])
def test_choosability_witness_of_larger_bipartite_graphs_pinned(a, b, expected):
    # Recorded from an exhaustive search without subtree cuts (K2,6 took
    # about 20 s); the reference enumeration is too slow at eight vertices.
    g = complete_bipartite(a, b)
    ok, witness = list_chromatic_at_least(g, 3)
    assert ok
    assert list(witness.items()) == [(v, frozenset(cs)) for v, cs in enumerate(expected)]
    assert brute_list_colour(g, witness) is None


@pytest.mark.parametrize("g", [k5_minus((0, 1), (2, 3)), k5_minus((1, 2), (3, 4)), k5_minus((0, 1), (3, 4))])
def test_choosability_of_the_wheel_k1_c4_is_three(g):
    # C4 is 2-choosable and a vertex joined to all of it needs one colour
    # more, so K1 + C4 is 3-choosable: the whole t = 4 enumeration, with the
    # hub at each place in the vertex order.
    assert list_chromatic_at_least(g, 4) == (False, None)
    assert list_chromatic_at_least(g, 3)[0]


def test_witness_search_stops_at_its_wall_clock_budget():
    # 3-choosable, so the search runs the whole t = 4 enumeration (about 0.3 s).
    g = Graph.build(6, [(0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 4), (3, 4), (3, 5), (4, 5)])
    with pytest.raises(ResourceLimitError, match="choosability witness search"):
        list_chromatic_at_least(g, 4, SolverBudget(wall_clock_seconds=0.01))
    # It makes no solver decisions, so a decision budget does not bound it.
    assert list_chromatic_at_least(g, 4, SolverBudget(max_decisions=1)) == (False, None)
