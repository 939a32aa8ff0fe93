import random
from itertools import product

import pytest

from chromcert.errors import InternalContradiction, TemplateError
from chromcert.families import FamilySpec, generate
from chromcert.graphs import Graph
from chromcert.solver import Palette, Template, extend, respects, validate_template
from chromcert.templates import (
    colour_from_intervals,
    degree,
    derive_completion_template,
    derive_separation_template,
    glue,
    interval_partition,
    list_direct_completion,
    rainbow_small_case,
    restrict,
    strengthen_witness,
)


def k15():
    return generate(FamilySpec.complete(15))


def glued15():
    return generate(FamilySpec.glued_cliques((15, 15), 1))


# -- degree and restriction --------------------------------------------------

def test_degree_empty_template():
    g = generate(FamilySpec.cycle(5))
    assert degree(Template.empty(g), 3) == 0


def test_degree_formula():
    t = Template({0: 1, 1: 0, 2: 2}, {3: frozenset({0}), 4: frozenset({1, 2})})
    assert degree(t, 2) == 2 * 3 + 3


def test_degree_forbidden_only():
    t = Template({}, {v: frozenset({0, 1}) for v in range(5)})
    assert degree(t, 1) == 10


def test_restrict_full_is_identity():
    g = generate(FamilySpec.cycle(5))
    t = Template({0: 3}, {v: frozenset({v}) for v in range(1, 5)})
    assert restrict(t, g.vertices) == t


def test_restrict_disjoint_from_s():
    t = Template({0: 3}, {1: frozenset({1}), 2: frozenset(), 3: frozenset({0, 2})})
    r = restrict(t, {1, 3})
    assert r.precolour == {} and set(r.forbidden) == {1, 3}


def test_degree_additive_over_partitions():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        pre = {v: v for v in range(n) if rng.random() < 0.3}
        forb = {v: frozenset(rng.sample(range(6), rng.randint(0, 3))) for v in range(n) if v not in pre}
        t = Template(pre, forb)
        k = rng.randint(1, 4)
        xs = frozenset(v for v in range(n) if rng.random() < 0.5)
        assert degree(restrict(t, xs), k) + degree(restrict(t, g.vertices - xs), k) == degree(t, k)


# -- respects ----------------------------------------------------------------

def test_respects_empty_template_any_proper_colouring():
    g = generate(FamilySpec.cycle(4))
    pal = Palette.plain(3)
    assert respects(g, Template.empty(g), {0: 0, 1: 1, 2: 0, 3: 1}, pal)


def test_respects_rejects_precolour_mismatch():
    g = Graph.build(2, [(0, 1)])
    t = Template({0: 3}, {1: frozenset()})
    pal = Palette.plain(5)
    assert not respects(g, t, {0: 2, 1: 0}, pal)
    assert respects(g, t, {0: 3, 1: 0}, pal)


def test_respects_rejects_forbidden_colour():
    g = Graph.build(2, [(0, 1)])
    t = Template({}, {0: frozenset({5}), 1: frozenset()})
    pal = Palette.plain(7)
    assert not respects(g, t, {0: 5, 1: 0}, pal)


def test_respects_requires_totality_properness_and_palette():
    g = Graph.build(2, [(0, 1)])
    t = Template.empty(g)
    pal = Palette.plain(2)
    assert not respects(g, t, {0: 0}, pal)
    assert not respects(g, t, {0: 1, 1: 1}, pal)
    assert not respects(g, t, {0: 0, 1: 5}, pal)


def test_validate_template_errors():
    g = Graph.build(2, [(0, 1)])
    pal = Palette.plain(3)
    with pytest.raises(TemplateError):
        validate_template(g, Template({0: 1, 1: 1}, {}), pal)  # improper on S
    with pytest.raises(TemplateError):
        validate_template(g, Template({0: 0}, {}), pal)  # vertex 1 uncovered
    with pytest.raises(TemplateError):
        validate_template(g, Template({0: 7}, {1: frozenset()}), pal)  # colour outside palette
    lists = Palette.from_lists({0: {0, 1}, 1: {2}})
    with pytest.raises(TemplateError):
        validate_template(g, Template({0: 0}, {1: frozenset({0})}), lists)  # F outside L_v


# -- witness checks ----------------------------------------------------------

def test_witness_empty_template_on_uncolourable_graph(is_valid_witness):
    g = generate(FamilySpec.complete(8))
    pal = Palette.plain(7)
    assert is_valid_witness(g, Template.empty(g), 1, pal)


def test_witness_degree_gate_precedes_solver(is_valid_witness):
    g = generate(FamilySpec.complete(8))
    pal = Palette.plain(7)
    k = 1
    forb = {v: frozenset({0, 1}) for v in range(2)} | {v: frozenset() for v in range(2, 8)}
    t = Template({}, forb)
    assert degree(t, k) == 4 > 2 * k * k
    assert not is_valid_witness(g, t, k, pal)


def test_witness_list_size_gate(is_valid_witness):
    g = generate(FamilySpec.complete(8))
    pal = Palette.plain(14)
    k = 1
    forb = {0: frozenset({0, 1, 2})} | {v: frozenset() for v in range(1, 8)}
    assert not is_valid_witness(g, Template({}, forb), k, pal)  # |F| = 3 > 2k


def test_witness_requires_unsat(is_valid_witness):
    g = generate(FamilySpec.cycle(5))
    pal = Palette.plain(7)
    assert not is_valid_witness(g, Template.empty(g), 1, pal)


# -- strengthening -----------------------------------------------------------

def test_strengthen_no_op_below_threshold():
    g = generate(FamilySpec.complete(8))
    pal = Palette.plain(7)
    t = Template.empty(g)
    assert strengthen_witness(g, t, 1, pal) == t


def test_strengthen_degree_balance():
    # k = 2: moving a vertex with |F| = 2 into S leaves the degree unchanged.
    g = k15()
    pal = Palette.plain(14)
    forb = {v: frozenset() for v in range(1, 15)}
    forb[1] = frozenset({0, 1})
    t = Template({}, {0: frozenset()} | forb)
    before = degree(t, 2)
    out = strengthen_witness(g, t, 2, pal)
    assert out.precolour == {1: 2}  # smallest eligible colour
    assert degree(out, 2) == before
    assert all(len(fs) <= 1 for fs in out.forbidden.values())


def test_strengthen_palette_too_small_is_a_value_error():
    g = generate(FamilySpec.complete(2))
    t = Template({}, {0: frozenset({0, 1}), 1: frozenset()})
    with pytest.raises(ValueError, match="^no eligible colour for vertex 0: palette size 2 is too small for k = 2$"):
        strengthen_witness(g, t, 2, Palette.plain(2))


def test_strengthen_reverifies_unsat():
    g = generate(FamilySpec.complete(8))
    pal = Palette.plain(7)
    forb = {v: frozenset() for v in range(8)}
    forb[3] = frozenset({2})
    out = strengthen_witness(g, Template({}, forb), 1, pal)
    assert 3 in out.precolour
    assert extend(g, out, pal).outcome == "unsat"


def test_strengthen_detects_fake_witness():
    # A satisfiable template with a heavy list: the re-verification must
    # surface a respecting colouring.
    g = generate(FamilySpec.cycle(5))
    pal = Palette.plain(7)
    forb = {v: frozenset() for v in range(1, 5)}
    t = Template({}, {0: frozenset({0})} | forb)
    with pytest.raises(InternalContradiction) as exc:
        strengthen_witness(g, t, 1, pal)
    assert respects(g, t, exc.value.colouring, pal)


def test_strengthen_list_mode_avoids_neighbour_colours_only(is_valid_witness):
    # K_10 core keeps the template a witness (lists of size 9 = 4k+1 for
    # k = 2); vertex 11 is adjacent to the pre-coloured vertex 10, vertex 12
    # is not and may reuse its colour.
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)] + [(10, 11)]
    g = Graph.build(13, edges)
    pal = Palette.from_lists({v: range(9) for v in range(13)})
    forb = {v: frozenset() for v in range(10)}
    forb[11] = frozenset({1, 2})
    forb[12] = frozenset({1, 2})
    t = Template({10: 0}, forb)
    assert is_valid_witness(g, t, 2, pal)
    out = strengthen_witness(g, t, 2, pal)
    assert out.precolour[11] == 3  # avoids F = {1,2} and the neighbour's 0
    assert out.precolour[12] == 0  # not adjacent to S: reuses 0


# -- separation / completion templates ----------------------------------------

def test_separation_nothing_pushed_without_precoloured_z():
    g = glued15()
    t = Template.empty(g)
    x = frozenset({0})
    y = frozenset(range(1, 15))
    z = frozenset(range(15, 29))
    out = derive_separation_template(g, t, x, y, z, 2)
    assert out == restrict(t, x | y)


def test_separation_pushes_neighbour_colours():
    g = glued15()
    x = frozenset({0})
    y = frozenset(range(1, 15))
    z = frozenset(range(15, 29))
    forb = {v: frozenset() for v in g.vertices if v != 15}
    t = Template({15: 5}, forb)
    out = derive_separation_template(g, t, x, y, z, 2)
    assert out.forbidden[0] == frozenset({5})
    assert all(not out.forbidden[v] for v in y)


def test_separation_rejects_bad_shapes():
    g = glued15()
    x = frozenset({0})
    y = frozenset(range(1, 15))
    z = frozenset(range(15, 29))
    heavy = {v: (frozenset({0, 1}) if v == 1 else frozenset()) for v in g.vertices}
    with pytest.raises(ValueError):
        derive_separation_template(g, Template({}, heavy), x, y, z, 2)  # |F| > k-1
    # Cross edges: the error names the smallest one.
    with pytest.raises(ValueError, match=r"edge \(1, 2\) crosses the cut sides"):
        derive_separation_template(g, Template.empty(g), x, y - {1}, z | {1}, 2)
    with pytest.raises(ValueError, match=r"edge \(1, 3\) crosses the cut sides"):
        derive_separation_template(g, Template.empty(g), x, y - {3, 5, 9}, z | {3, 5, 9}, 2)


def test_completion_restriction_when_x_precoloured():
    g = Graph.build(3, [(0, 1), (1, 2)])
    t = Template({1: 4}, {0: frozenset(), 2: frozenset()})
    out = derive_completion_template(g, t, frozenset({1}), frozenset({2}), {0: 0, 1: 4}, 2)
    assert out == restrict(t, {1, 2})


def test_completion_path_example():
    g = Graph.build(3, [(0, 1), (1, 2)])
    t = Template.empty(g)
    out = derive_completion_template(g, t, frozenset({1}), frozenset({2}), {0: 0, 1: 4}, 2)
    assert out.precolour == {1: 4}
    assert set(out.forbidden) == {2}


def test_completion_rejects_improper_or_disagreeing_cprime():
    g = Graph.build(3, [(0, 1), (1, 2)])
    t = Template({0: 3}, {1: frozenset(), 2: frozenset()})
    with pytest.raises(ValueError):
        derive_completion_template(g, t, frozenset({1}), frozenset({2}), {0: 4, 1: 4}, 2)
    with pytest.raises(ValueError):
        derive_completion_template(g, t, frozenset({1}), frozenset({2}), {0: 0, 1: 4}, 2)


# -- glue ---------------------------------------------------------------------

def test_glue_empty_side():
    assert glue({}, {0: 1}) == {0: 1}


def test_glue_path_example():
    assert glue({0: 0, 1: 1}, {1: 1, 2: 0}) == {0: 0, 1: 1, 2: 0}


def test_glue_rejects_disagreement():
    with pytest.raises(ValueError):
        glue({1: 1}, {1: 2})


# -- rainbow small case --------------------------------------------------------

def test_rainbow_everything_precoloured():
    g = Graph.build(2, [(0, 1)])
    t = Template({0: 0, 1: 1}, {})
    pal = Palette.plain(14)
    assert rainbow_small_case(g, t, 2, pal) == {0: 0, 1: 1}


def test_rainbow_k2():
    g = generate(FamilySpec.complete(2))
    col = rainbow_small_case(g, Template.empty(g), 2, Palette.plain(14))
    assert col == {0: 0, 1: 1}


def test_rainbow_k3_matches_brute_force():
    g = generate(FamilySpec.complete(3))
    pal = Palette.plain(21)
    t = Template({0: 5}, {1: frozenset({0, 1}), 2: frozenset({2, 6})})
    col = rainbow_small_case(g, t, 3, pal)
    assert respects(g, t, col, pal)
    # oracle: enumerate all completions and keep the respecting rainbows
    valid = []
    for c1, c2 in product(range(21), repeat=2):
        cand = {0: 5, 1: c1, 2: c2}
        if c1 != c2 and respects(g, t, cand, pal):
            valid.append(cand)
    assert valid and col in valid


def test_rainbow_palette_too_small_is_a_value_error():
    g = generate(FamilySpec.complete(3))
    with pytest.raises(ValueError, match="^no rainbow colour left for vertex 2: palette size 2 is too small for k = 3$"):
        rainbow_small_case(g, Template.empty(g), 3, Palette.plain(2))
    pal = Palette.from_lists({v: range(2) for v in g.vertices})
    with pytest.raises(ValueError, match="^no rainbow colour left for vertex 2: list size 2 is too small for k = 3$"):
        rainbow_small_case(g, Template.empty(g), 3, pal)


def test_rainbow_rejects_oversized_graph():
    g = generate(FamilySpec.complete(4))
    with pytest.raises(ValueError):
        rainbow_small_case(g, Template.empty(g), 3, Palette.plain(21))


# -- interval partition ---------------------------------------------------------

def test_intervals_one_per_set_when_no_forbidden():
    g = Graph.build(6, [])
    t = Template.empty(g)
    parts = interval_partition(g, t, 3, [[0, 1], [2, 3], [4, 5]])
    assert parts.intervals == ((0, 1), (2, 3), (4, 5))


def test_intervals_spec_trace():
    # k = 2, |F| = (1,1,1) on the first set and (2,1,0) on the second.
    g = Graph.build(range(1, 7), [])
    forb = {
        1: frozenset({0}),
        2: frozenset({1}),
        3: frozenset({2}),
        4: frozenset({0, 1}),
        5: frozenset({3}),
        6: frozenset(),
    }
    t = Template({}, forb)
    parts = interval_partition(g, t, 2, [[1, 2, 3], [4, 5, 6]])
    assert parts.intervals == ((1, 2, 3), (4, 5), (6,))


def test_intervals_reject_non_independent_sets():
    g = Graph.build(2, [(0, 1)])
    t = Template.empty(g)
    with pytest.raises(ValueError):
        interval_partition(g, t, 3, [[0, 1]])


def test_colour_from_intervals_greedy_distinct():
    g = Graph.build(6, [])
    t = Template.empty(g)
    pal = Palette.plain(21)
    parts = interval_partition(g, t, 3, [[0, 1], [2, 3], [4, 5]])
    col = colour_from_intervals(g, t, parts, pal)
    assert col == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}
    assert respects(g, t, col, pal)


def test_colour_from_intervals_single_interval():
    g = Graph.build(2, [])
    t = Template.empty(g)
    parts = interval_partition(g, t, 2, [[0, 1]])
    col = colour_from_intervals(g, t, parts, Palette.plain(14))
    assert col == {0: 0, 1: 0}


def test_colour_from_intervals_palette_too_small_is_a_value_error():
    g = Graph.build(6, [])
    t = Template.empty(g)
    parts = interval_partition(g, t, 3, [[0, 1], [2, 3], [4, 5]])
    with pytest.raises(ValueError, match="^ran out of interval colours for vertex 4: palette size 2 is too small$"):
        colour_from_intervals(g, t, parts, Palette.plain(2))


# -- list-mode direct completion -------------------------------------------------

def test_list_completion_everything_precoloured():
    g = Graph.build(2, [(0, 1)])
    pal = Palette.from_lists({0: range(9), 1: range(9)})
    t = Template({0: 0, 1: 1}, {})
    assert list_direct_completion(g, t, 2, pal) == {0: 0, 1: 1}


def test_list_completion_edge():
    g = Graph.build(2, [(0, 1)])
    pal = Palette.from_lists({0: range(5), 1: range(5)})
    col = list_direct_completion(g, Template.empty(g), 1, pal)
    assert col is not None
    assert col[0] != col[1] and all(col[v] in range(5) for v in g.vertices)


def test_list_completion_unsat_on_short_lists():
    g = generate(FamilySpec.complete(5))
    pal = Palette.from_lists({v: range(4) for v in g.vertices})
    assert list_direct_completion(g, Template.empty(g), 1, pal) is None


def test_list_completion_never_unsat_below_choosability():
    from chromcert.coloring import list_chromatic_at_least

    g = generate(FamilySpec.cycle(6))
    assert not list_chromatic_at_least(g, 3)[0]  # chi_ell(C_6) = 2 <= k-1
    pal = Palette.from_lists({v: range(13) for v in g.vertices})
    rng = random.Random(3)
    for _ in range(20):
        forb = {v: frozenset(rng.sample(range(13), rng.randint(0, 2))) for v in g.vertices}
        col = list_direct_completion(g, Template({}, forb), 3, pal)
        assert col is not None and respects(g, Template({}, forb), col, pal)
