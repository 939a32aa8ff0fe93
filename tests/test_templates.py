import random
import re
from itertools import combinations, product

import pytest

from chromcert.coloring import list_chromatic_at_least
from chromcert.errors import InternalContradiction, TemplateError
from chromcert.families import FamilySpec, generate
from chromcert.graphs import Graph
from chromcert.oracles import brute_force_extend
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
from chromcert.templates import _free_colours, _palette_too_small


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


def test_restrict_matches_filtering_every_entry():
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randint(1, 12)
        pre = {v: rng.randrange(6) for v in range(n) if rng.random() < 0.3}
        t = Template(pre, {v: frozenset(rng.sample(range(6), rng.randint(0, 3))) for v in range(n) if v not in pre})
        xs = frozenset(v for v in range(n) if rng.random() < 0.5)
        r = restrict(t, xs)
        assert r.precolour == {v: c for v, c in t.precolour.items() if v in xs}
        assert r.forbidden == {v: fs for v, fs in t.forbidden.items() if v in xs}


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
    with pytest.raises(TemplateError, match=r"vertices \[0\] both pre-coloured and forbidden"):
        validate_template(g, Template({0: 0}, {0: frozenset(), 1: frozenset()}), pal)


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
    assert strengthen_witness(g, t, 1, pal) is t


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


def _strengthen_by_rescan(g, t, k, palette, budget=None):
    # Kept as the reference: the loop that rescanned for the smallest heavy
    # vertex after every pre-colouring, before strengthen_witness scanned once.
    pre = dict(t.precolour)
    forb = dict(t.forbidden)
    changed = False
    while True:
        heavy = sorted(v for v, fs in forb.items() if len(fs) >= k)
        if not heavy:
            break
        v = heavy[0]
        eligible = _free_colours(g, Template(pre, forb), v, palette)
        if not eligible:
            raise _palette_too_small("no eligible colour", v, k, palette)
        pre[v] = min(eligible)
        del forb[v]
        changed = True
    out = Template(pre, forb)
    if changed:
        if degree(out, k) > degree(t, k):
            raise RuntimeError("strengthening increased the template degree")
        result = extend(g, out, palette, budget)
        if result.outcome == "sat":
            raise InternalContradiction(
                "strengthened template admits a respecting colouring; "
                "the input was not a witness",
                result.colouring,
            )
    return out


def _strengthen_cases(rng, count):
    """Dense graphs with a plain palette of k + 1..k + 4 colours, or lists
    of that size or one less from one more colour, and templates whose
    forbidden lists reach k at about half the uncoloured vertices.  Half of
    the graphs hold a clique of size + 2 vertices, too many to colour, so
    that their strengthened templates are UNSAT."""
    for i in range(count):
        n = rng.randint(3, 10)
        labels = rng.sample(range(40), n)
        k = rng.randint(1, 3)
        size = rng.randint(k + 1, k + 4)
        clique = labels[:size + 2] if rng.random() < 0.5 else []
        p = rng.uniform(0.4, 1.0)
        g = Graph.build(labels, [(u, v) for u, v in combinations(labels, 2)
                                 if rng.random() < p or u in clique and v in clique])
        if i % 2:
            palette = Palette.from_lists({v: rng.sample(range(size + 1), size - rng.randint(0, 1)) for v in labels})
        else:
            palette = Palette.plain(size)
        pre, forb = {}, {}
        for v in sorted(labels):
            options = sorted(palette.colours_of(v) - {pre[u] for u in g.adj[v] if u in pre})
            if options and rng.random() < 0.2:
                pre[v] = rng.choice(options)
            else:
                pool = sorted(palette.colours_of(v))
                length = rng.choice((k, k + 1)) if rng.random() < 0.5 else rng.randint(0, k - 1)
                forb[v] = frozenset(rng.sample(pool, min(length, len(pool))))
        yield g, Template(pre, forb), k, palette


def _strengthen_outcome(fn, g, t, k, palette):
    try:
        out = fn(g, t, k, palette)
    except InternalContradiction as exc:
        return "contradiction", str(exc), list(exc.colouring.items())
    except ValueError as exc:
        return "palette", str(exc)
    return "template", list(out.precolour.items()), list(out.forbidden.items())


def test_strengthen_scans_as_the_rescanning_loop_did():
    kinds, taken = {}, 0
    for g, t, k, palette in _strengthen_cases(random.Random(2012), 300):
        got = _strengthen_outcome(strengthen_witness, g, t, k, palette)
        assert got == _strengthen_outcome(_strengthen_by_rescan, g, t, k, palette)
        heavy = sorted(v for v, fs in t.forbidden.items() if len(fs) >= k)
        if len(heavy) >= 2:
            kinds[got[0]] = kinds.get(got[0], 0) + 1
        if palette.mode == "list" and got[0] != "palette":
            # A later heavy vertex lost an eligible colour to an earlier one;
            # a contradiction's colouring keeps every pre-colour.
            col = dict(got[1] if got[0] == "template" else got[2])
            taken += any(col[u] in palette.colours_of(v) - t.forbidden[v]
                         for u, v in combinations(heavy, 2) if u in g.adj[v])
    assert min(kinds.get(kind, 0) for kind in ("contradiction", "palette", "template")) >= 20, kinds
    assert taken >= 10, taken


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
    assert parts == ((0, 1), (2, 3), (4, 5))


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
    assert parts == ((1, 2, 3), (4, 5), (6,))


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
    g = generate(FamilySpec.cycle(6))
    assert not list_chromatic_at_least(g, 3)[0]  # chi_ell(C_6) = 2 <= k-1
    pal = Palette.from_lists({v: range(13) for v in g.vertices})
    rng = random.Random(3)
    for _ in range(20):
        forb = {v: frozenset(rng.sample(range(13), rng.randint(0, 2))) for v in g.vertices}
        col = list_direct_completion(g, Template({}, forb), 3, pal)
        assert col is not None and respects(g, Template({}, forb), col, pal)


def test_list_completion_with_precoloured_neighbours_matches_brute_force():
    # A pre-coloured neighbour takes its colour out of an uncoloured
    # vertex's list.  The completion is None exactly when brute force finds
    # no colouring that respects T, and any colouring it returns respects T.
    rng, k, outcomes = random.Random(26), 3, set()
    for _ in range(400):
        n = rng.randint(1, 7)
        g = Graph.build(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5])
        pal = Palette.from_lists({v: rng.sample(range(6), rng.randint(1, 3)) for v in g.vertices})
        pre = {}
        for v in rng.sample(range(n), rng.randint(0, n)):
            options = sorted(pal.colours_of(v) - {pre[u] for u in g.adj[v] if u in pre})
            if options:
                pre[v] = rng.choice(options)
        forb = {}
        for v in g.sorted_vertices():
            if v not in pre:
                pool = sorted(pal.colours_of(v))
                forb[v] = frozenset(rng.sample(pool, min(rng.randint(0, k - 1), len(pool))))
        t = Template(pre, forb)
        col = list_direct_completion(g, t, k, pal)
        assert (col is None) == (brute_force_extend(g, t, pal).outcome == "unsat")
        assert col is None or respects(g, t, col, pal)
        if any(pre[u] in pal.colours_of(v) - fs for v, fs in forb.items() for u in g.adj[v] if u in pre):
            outcomes.add(col is None)
    assert outcomes == {True, False}


# -- input refusals -----------------------------------------------------------------

def path(n):
    return Graph.build(n, [(v, v + 1) for v in range(n - 1)])


def precoloured(g, pre):
    """The template on g with pre-colouring pre and no forbidden colour."""
    return Template(pre, {v: frozenset() for v in g.vertices - pre.keys()})


LISTS = Palette.from_lists({0: {0, 1, 2}, 1: {0, 1, 2}})
HEAVY = Template({}, {0: frozenset({0, 1}), 1: frozenset()})  # |F(0)| = 2 = k at k = 2


# Each construction lemma and the palette model refuse an input outside
# their preconditions with a ValueError that names the reason.
@pytest.mark.parametrize("refused, message", [
    (lambda: derive_separation_template(glued15(), precoloured(glued15(), {15: 0, 16: 1, 17: 2}), frozenset({0}),
                                        frozenset(range(1, 15)), frozenset(range(15, 29)), 2),
     "restriction to z has degree 6 > k^2"),
    (lambda: derive_completion_template(path(3), Template.empty(path(3)), frozenset({0, 1}), frozenset({2}),
                                        {0: 0, 1: 1}, 2), "|x| = 2 exceeds k-1 = 1"),
    (lambda: derive_completion_template(path(5), precoloured(path(5), {2: 0, 3: 1, 4: 0}), frozenset({1}),
                                        frozenset({2, 3, 4}), {1: 1}, 2), "restriction to z has degree 6 > k^2"),
    (lambda: derive_completion_template(path(3), Template.empty(path(3)), frozenset({1}), frozenset({2}),
                                        {0: 0}, 2), "cprime does not colour the cut vertices [1]"),
    (lambda: rainbow_small_case(path(2), HEAVY, 2, Palette.plain(14)),
     "small case requires forbidden lists of size at most k-1"),
    (lambda: interval_partition(Graph.build(2, []), Template.empty(Graph.build(2, [])), 2, [[0]]),
     "independent sets must partition the uncoloured vertices"),
    (lambda: interval_partition(Graph.build(2, []), Template({}, {0: frozenset({0, 1, 2}), 1: frozenset()}), 2,
                                [[0], [1]]), "interval partition requires forbidden lists of size at most k"),
    (lambda: colour_from_intervals(path(2), Template.empty(path(2)), [(0,), (1,)], LISTS),
     "interval colouring is a plain-mode construction"),
    (lambda: list_direct_completion(path(2), Template.empty(path(2)), 2, Palette.plain(3)),
     "direct completion is a list-mode construction"),
    (lambda: list_direct_completion(path(2), HEAVY, 2, LISTS), "direct completion requires a strengthened template"),
    (lambda: degree(Template.empty(path(2)), 0), "k must be a positive integer"),
    (lambda: list_chromatic_at_least(path(2), 0), "t must be a positive integer"),
    (lambda: Palette("list"), "list palette needs per-vertex lists"),
    (lambda: Palette("banana"), "unknown palette mode 'banana'"),
    (lambda: LISTS.colours_of(2), "vertex 2 missing from the list assignment"),
])
def test_refusals_name_their_reason(refused, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        refused()
