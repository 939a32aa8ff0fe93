import dataclasses
import hashlib
import random
from itertools import combinations
from types import SimpleNamespace

import pytest

from chromcert import solver
from chromcert.cli import EXIT_NOT_INEXTENSIBLE, main
from chromcert.errors import NotInextensibleError, ResourceLimitError, TemplateError
from chromcert.extractor import ExtractConfig, extract
from chromcert.families import FamilySpec, generate
from chromcert.graphs import Graph
from chromcert.oracles import brute_colourable, brute_force_extend
from chromcert.solver import Palette, SolverBudget, Template, extend, is_colourable, respects


def random_template(g, palette, rng, f_limit=2):
    pre = {}
    for v in g.sorted_vertices():
        if rng.random() < 0.3:
            options = sorted(palette.colours_of(v) - {pre[u] for u in g.adj[v] if u in pre})
            if options:
                pre[v] = rng.choice(options)
    forb = {}
    for v in g.sorted_vertices():
        if v not in pre:
            pool = sorted(palette.colours_of(v))
            forb[v] = frozenset(rng.sample(pool, min(rng.randint(0, f_limit), len(pool))))
    return Template(pre, forb)


def test_sat_on_triangle():
    g = generate(FamilySpec.complete(3))
    pal = Palette.plain(7)
    res = extend(g, Template.empty(g), pal)
    assert res.outcome == "sat"
    assert len(set(res.colouring.values())) == 3
    assert respects(g, Template.empty(g), res.colouring, pal)


def test_unsat_when_candidates_empty():
    g = Graph.build(2, [(0, 1)])
    pal = Palette.plain(2)
    t = Template({0: 0}, {1: frozenset({1})})
    assert extend(g, t, pal).outcome == "unsat"


def test_k8_with_seven_colours_unsat_cross_checked():
    g = generate(FamilySpec.complete(8))
    # is_colourable runs extend too, so only the brute-force route on K6
    # (5^6 assignments) is independent of the engine.
    assert is_colourable(g, 7) is None
    assert extend(g, Template.empty(g), Palette.plain(7)).outcome == "unsat"
    k6 = generate(FamilySpec.complete(6))
    assert is_colourable(k6, 5) is None
    assert not brute_colourable(k6, 5)
    assert brute_colourable(k6, 6) and is_colourable(k6, 6) is not None


def test_empty_graph():
    g = Graph.build(0, [])
    res = brute_force_extend(g, Template.empty(g), Palette.plain(3))
    assert res.outcome == "sat" and res.colouring == {}
    assert extend(g, Template.empty(g), Palette.plain(3)).outcome == "sat"


def test_malformed_template_rejected_before_search():
    g = Graph.build(2, [(0, 1)])
    t = Template({0: 1, 1: 1}, {})
    with pytest.raises(TemplateError):
        brute_force_extend(g, t, Palette.plain(3))
    with pytest.raises(TemplateError):
        extend(g, t, Palette.plain(3))


def test_brute_force_caps():
    with pytest.raises(ValueError):
        brute_force_extend(generate(FamilySpec.cycle(9)), Template.empty(generate(FamilySpec.cycle(9))), Palette.plain(3))


def test_agreement_on_random_instances():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(1, 7)
        g = Graph.build(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5])
        pal = Palette.plain(rng.randint(2, 4))
        t = random_template(g, pal, rng)
        fast = extend(g, t, pal)
        slow = brute_force_extend(g, t, pal)
        assert fast.outcome == slow.outcome
        if fast.outcome == "sat":
            assert respects(g, t, fast.colouring, pal)


def test_agreement_in_list_mode():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 6)
        g = Graph.build(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5])
        pal = Palette.from_lists(
            {v: frozenset(rng.sample(range(5), rng.randint(1, 3))) for v in range(n)}
        )
        t = random_template(g, pal, rng, f_limit=1)
        fast = extend(g, t, pal)
        slow = brute_force_extend(g, t, pal)
        assert fast.outcome == slow.outcome


def test_agreement_on_an_empty_list():
    # Vertex 1 has no colour: uncoloured, both searches answer UNSAT on the
    # empty template and on nonempty ones; pre-coloured, or with a forbidden
    # colour, it lies outside its palette and both raise TemplateError.
    g = Graph.build(4, [(0, 1), (1, 2)])
    pal = Palette.from_lists({0: {0, 1}, 1: set(), 2: {1}, 3: {0}})
    none = frozenset()
    for t in (Template.empty(g), Template({2: 1}, {0: frozenset({0}), 1: none, 3: none}),
              Template({0: 0, 3: 0}, {1: none, 2: none})):
        assert extend(g, t, pal).outcome == brute_force_extend(g, t, pal).outcome == "unsat"
    assert extend(g, Template.empty(g), Palette.from_lists(dict.fromkeys(range(4), ()))).outcome == "unsat"
    for t, message in [(Template({1: 0}, {0: none, 2: none, 3: none}), "pre-colour 0 at vertex 1 outside"),
                       (Template({}, {0: none, 1: frozenset({1}), 2: none, 3: none}),
                        r"forbidden colours \[1\] at vertex 1")]:
        for search in (extend, brute_force_extend):
            with pytest.raises(TemplateError, match=message):
                search(g, t, pal)


def test_monotone_in_forbidden_lists():
    # Adding a forbidden colour can never turn UNSAT into SAT.
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(2, 6)
        g = Graph.build(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.6])
        pal = Palette.plain(rng.randint(2, 3))
        t = random_template(g, pal, rng, f_limit=1)
        base = extend(g, t, pal).outcome
        if not t.forbidden:
            continue
        v = rng.choice(sorted(t.forbidden))
        extra = sorted(pal.colours_of(v) - t.forbidden[v])
        if not extra:
            continue
        harder = Template(dict(t.precolour), {**t.forbidden, v: t.forbidden[v] | {extra[0]}})
        if base == "unsat":
            assert extend(g, harder, pal).outcome == "unsat"


def test_deterministic_colourings():
    g = generate(FamilySpec.kneser(5, 2))
    pal = Palette.plain(4)
    t = Template.empty(g)
    assert extend(g, t, pal).colouring == extend(g, t, pal).colouring


def test_budget_exhaustion_is_distinct():
    g = generate(FamilySpec.glued_cliques((15, 15), 1))
    with pytest.raises(ResourceLimitError, match="^solver budget exhausted after 4 decisions$"):
        extend(g, Template.empty(g), Palette.plain(14), SolverBudget(max_decisions=3))
    # same instance, unconstrained: a definite answer, not a limit
    assert extend(g, Template.empty(g), Palette.plain(14)).outcome == "unsat"


def test_wall_clock_budget():
    # this instance needs a few more than 512 decisions, and the clock is
    # polled every 512, so a tiny cap reliably trips mid-search
    from chromcert.families import generate as gen

    g = gen(FamilySpec.join(*[FamilySpec.cycle(5)] * 5))
    with pytest.raises(ResourceLimitError, match="after 512 decisions"):
        extend(g, Template.empty(g), Palette.plain(14), SolverBudget(wall_clock_seconds=1e-9))


def test_budget_refuses_a_nan_limit():
    with pytest.raises(ValueError, match="^budget limits must be nonnegative$"):
        SolverBudget(wall_clock_seconds=float("nan"))
    with pytest.raises(ValueError, match="^budget limits must be nonnegative$"):
        SolverBudget(wall_clock_seconds=-1.0)


def test_stats_populated():
    g = generate(FamilySpec.complete(5))
    res = extend(g, Template.empty(g), Palette.plain(5))
    assert res.outcome == "sat"
    assert res.stats.decisions >= 5


def test_stats_are_immutable():
    g = generate(FamilySpec.complete(5))
    stats = extend(g, Template.empty(g), Palette.plain(5)).stats
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.decisions = 0
    assert not hasattr(stats, "add")


@pytest.mark.parametrize("spec, size, outcome, decisions, backtracks", [
    (FamilySpec.join(*[FamilySpec.cycle(5)] * 3), 8, "unsat", 51, 42),
    (FamilySpec.join(*[FamilySpec.cycle(5)] * 4), 11, "unsat", 162, 130),
    (FamilySpec.join(*[FamilySpec.cycle(7)] * 3), 8, "unsat", 171, 146),
    (FamilySpec.kneser(7, 2), 4, "unsat", 32, 28),
    (FamilySpec.mycielski(4), 3, "unsat", 26, 23),
    (FamilySpec.join(*[FamilySpec.cycle(5)] * 4), 12, "sat", 20, 0),
])
def test_search_counts_pinned(spec, size, outcome, decisions, backtracks):
    # Certificates record these counts, so the decision sequence is pinned.
    g = generate(spec)
    res = extend(g, Template.empty(g), Palette.plain(size))
    assert (res.outcome, res.stats.decisions, res.stats.backtracks) == (outcome, decisions, backtracks)


def _join3c5_template():
    # colours 0-5 are mentioned, so they have no anonymity class
    g = generate(FamilySpec.join(*[FamilySpec.cycle(5)] * 3))
    pre = {0: 0, 5: 3}
    forb = {v: frozenset() for v in g.vertices if v not in pre}
    forb.update({1: frozenset({1}), 11: frozenset({2, 4}), 12: frozenset({5})})
    return g, Template(pre, forb)


def _kernel_case(name):
    c5 = generate(FamilySpec.cycle(5))
    if name == "template_p7":
        return (*_join3c5_template(), Palette.plain(7))
    if name == "template_p9":
        return (*_join3c5_template(), Palette.plain(9))
    if name == "kneser_three_lists":
        g = generate(FamilySpec.kneser(6, 2))
        lists = {v: frozenset({v % 3, v % 3 + 1, 4}) for v in g.vertices}
        return g, Template.empty(g), Palette.from_lists(lists)
    if name == "join_four_lists":
        g = generate(FamilySpec.join(FamilySpec.cycle(5), FamilySpec.cycle(5)))
        lists = {v: frozenset({0, 1, 2, 3, 4} - {v % 4}) for v in g.vertices}
        return g, Template.empty(g), Palette.from_lists(lists)
    if name == "no_candidates":
        # vertex 1 loses colour 0 to its pre-coloured neighbour, 1 and 2 to F
        forb = {1: frozenset({1, 2}), 2: frozenset(), 3: frozenset(), 4: frozenset()}
        return c5, Template({0: 0}, forb), Palette.plain(3)
    if name == "all_precoloured":
        return c5, Template({0: 0, 1: 1, 2: 0, 3: 1, 4: 2}, {}), Palette.plain(3)
    joins = {"join_c5x10_p29": (5, 10, 29), "join_c5x9_p26": (5, 9, 26), "join_c7x6_p17": (7, 6, 17)}
    length, parts, size = joins[name]  # the search workload's UNSAT joins
    g = generate(FamilySpec.join(*[FamilySpec.cycle(length)] * parts))
    return g, Template.empty(g), Palette.plain(size)


@pytest.mark.parametrize("name, outcome, colouring, decisions, backtracks", [
    ("template_p7", "unsat", None, 687, 538),
    ("template_p9", "sat", {0: 0, 5: 3, 11: 1, 12: 2, 1: 4, 6: 5, 2: 0, 3: 4, 4: 6, 7: 3,
                            8: 5, 9: 7, 10: 2, 13: 1, 14: 8}, 13, 0),
    ("kneser_three_lists", "sat", {0: 0, 9: 1, 3: 0, 4: 2, 7: 4, 1: 2, 13: 1, 10: 4, 6: 1,
                                   8: 3, 2: 2, 11: 3, 5: 3, 14: 4, 12: 1}, 21, 5),
    ("join_four_lists", "unsat", None, 237, 191),
    ("no_candidates", "unsat", None, 0, 1),
    ("all_precoloured", "sat", {0: 0, 1: 1, 2: 0, 3: 1, 4: 2}, 0, 0),
    ("join_c5x10_p29", "unsat", None, 202938, 160102),
    ("join_c5x9_p26", "unsat", None, 61455, 48486),
    ("join_c7x6_p17", "unsat", None, 23419, 19780),
])
def test_kernel_pinned(name, outcome, colouring, decisions, backtracks):
    # Templates, lists and edge cases the benchmark's certificates do not
    # reach; the answer and the search work must not depend on the kernel.
    res = extend(*_kernel_case(name))
    assert (res.outcome, res.colouring, res.stats.decisions, res.stats.backtracks) == (
        outcome, colouring, decisions, backtracks)


def _replay_case(name):
    # Each needs more decisions than the smallest subtree the state table
    # keeps, and each recurs to a kept state, so part of it is replayed.
    c5 = FamilySpec.cycle(5)
    if name == "template_join5":
        # colours 0, 1 and 3 are mentioned, so they have no anonymity class
        g = generate(FamilySpec.join(*[c5] * 5))
        forb = {v: frozenset() for v in g.vertices if v not in (0, 5)}
        forb[1] = frozenset({1})
        return g, Template({0: 0, 5: 3}, forb), Palette.plain(14)
    if name == "three_lists_join4":
        g = generate(FamilySpec.join(*[c5] * 4))
        lists = {v: frozenset(range(11)) - {v % 3} for v in g.vertices}
        return g, Template.empty(g), Palette.from_lists(lists)
    if name == "two_isolated_first":
        # Two isolated vertices with a shorter list go first, with one colour
        # or two, so join(C5, C5) is searched from equal states that differ
        # only in the anonymous colours used.
        h = generate(FamilySpec.join(c5, c5))
        g = Graph.build(12, list(h.edges))
        lists = {v: frozenset(range(5 if v < 10 else 4)) for v in g.vertices}
        return g, Template.empty(g), Palette.from_lists(lists)
    assert name == "apex_two_lists"  # colour 0 at the apex leaves join(C5 x 5) 14 colours
    g = generate(FamilySpec.join(FamilySpec.complete(1), *[c5] * 5))
    lists = {v: frozenset(range(15)) for v in g.vertices}
    lists[0] = frozenset({0, 15})
    return g, Template.empty(g), Palette.from_lists(lists)


@pytest.mark.parametrize("name, outcome, items, decisions, backtracks", [
    ("template_join5", "unsat", None, 5631, 4433),
    ("three_lists_join4", "unsat", None, 34561, 26959),
    ("two_isolated_first", "unsat", None, 1116, 877),
    ("apex_two_lists", "sat", [(0, 15), (1, 0), (2, 1), (6, 2), (7, 3), (11, 4), (12, 5), (16, 6),
                               (17, 7), (21, 8), (22, 9), (3, 0), (4, 1), (5, 10), (8, 2), (9, 3),
                               (10, 11), (13, 4), (14, 5), (15, 12), (18, 6), (19, 7), (20, 13),
                               (23, 8), (24, 9), (25, 14)], 551, 416),
])
def test_replay_pinned(name, outcome, items, decisions, backtracks):
    # Replaying a proven-UNSAT subtree by count keeps the answer, the
    # colouring in its dict order and the counters of the whole tree.
    res = extend(*_replay_case(name))
    assert (res.outcome, res.colouring and list(res.colouring.items()),
            res.stats.decisions, res.stats.backtracks) == (outcome, items, decisions, backtracks)


@pytest.mark.parametrize("cap", [571, 857, 1714])  # 1/3, 1/2 and all but one of 1715 decisions
def test_replayed_decisions_count_against_the_cap(cap):
    g = generate(FamilySpec.join(*[FamilySpec.cycle(5)] * 6))
    with pytest.raises(ResourceLimitError, match=f"^solver budget exhausted after {cap + 1} decisions$"):
        extend(g, Template.empty(g), Palette.plain(17), SolverBudget(max_decisions=cap))


def test_replayed_decisions_poll_the_clock(monkeypatch):
    # The clock runs out after the poll at decision 512; the next poll due
    # is at 1024, and on join(C7 x 5) that decision falls in a replayed subtree.
    calls = iter([0.0, 0.0])  # the start, the poll at 512
    monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: next(calls, 1.0)))
    g = generate(FamilySpec.join(*[FamilySpec.cycle(7)] * 5))
    with pytest.raises(ResourceLimitError, match="^solver budget exhausted after 1024 decisions$"):
        extend(g, Template.empty(g), Palette.plain(14), SolverBudget(wall_clock_seconds=0.5))


def test_deep_instance_needs_no_recursion():
    g = generate(FamilySpec.cycle(1500))
    res = extend(g, Template.empty(g), Palette.plain(3))
    assert res.outcome == "sat"
    assert respects(g, Template.empty(g), res.colouring, Palette.plain(3))


def test_extract_on_deep_colourable_instance():
    with pytest.raises(NotInextensibleError):
        extract(generate(FamilySpec.cycle(1500)), ExtractConfig(k=1))


def test_cli_extract_on_deep_colourable_instance(tmp_path):
    graph = tmp_path / "c1500.col"
    main(["gen", "cycle", "1500", "--out", str(graph)])
    assert main(["extract", str(graph), "--k", "1"]) == EXIT_NOT_INEXTENSIBLE


def _plane_case(name):
    if name == "mycielski5_p4":  # needs no replay: the kernel alone
        g = generate(FamilySpec.mycielski(5))
        return g, Template.empty(g), Palette.plain(4)
    if name == "c5_p20":  # more colours than ranks
        g = generate(FamilySpec.cycle(5))
        return g, Template.empty(g), Palette.plain(20)
    if name == "k36_forty_lists":  # counts fall from 38 past 32: borrows cross all six count bits
        g = generate(FamilySpec.complete(36))
        lists = {v: frozenset(range(40)) - {v % 5, v % 7 + 5} for v in g.vertices}
        return g, Template.empty(g), Palette.from_lists(lists)
    if name == "join_k26_c5x3_lists":  # 35 colours, backtracking over counts above 32
        c5 = FamilySpec.cycle(5)
        g = generate(FamilySpec.join(FamilySpec.complete(26), c5, c5, c5))
        lists = {v: frozenset(range(34)) if v >= 26 else frozenset(range(35)) - {v % 4} for v in g.vertices}
        return g, Template.empty(g), Palette.from_lists(lists)
    g = Graph.build([7], [])
    assert name in ("one_vertex_p1", "one_vertex_p0")
    return g, Template.empty(g), Palette.plain(int(name[-1]))


@pytest.mark.parametrize("name, outcome, items, decisions, backtracks", [
    ("mycielski5_p4", "unsat", None, 895, 767),
    ("c5_p20", "sat", [(0, 0), (1, 1), (2, 0), (3, 1), (4, 2)], 5, 0),
    ("k36_forty_lists", "sat", [(0, 1), (2, 0), (3, 2), (4, 3), (9, 5), (19, 6), (24, 7), (34, 8),
                                (5, 4), (6, 9), (12, 11), (26, 12), (33, 13), (1, 10), (7, 14),
                                (8, 15), (10, 16), (11, 17), (13, 18), (14, 19), (15, 20),
                                (16, 21), (17, 22), (18, 23), (20, 24), (21, 25), (22, 26),
                                (23, 27), (25, 28), (27, 29), (28, 30), (29, 31), (30, 32),
                                (31, 33), (32, 34), (35, 35)], 36, 0),
    ("join_k26_c5x3_lists", "sat", [(0, 1), (2, 0), (3, 2), (7, 4), (11, 5), (15, 6), (19, 7),
                                    (23, 8), (26, 3), (27, 9), (31, 10), (32, 11), (36, 12),
                                    (37, 13), (1, 14), (4, 15), (5, 16), (6, 17), (8, 18), (9, 19),
                                    (10, 20), (12, 21), (13, 22), (14, 23), (16, 24), (17, 25),
                                    (18, 26), (20, 27), (21, 28), (22, 29), (24, 30), (25, 34),
                                    (28, 3), (29, 9), (30, 31), (33, 10), (34, 11), (35, 32),
                                    (38, 12), (39, 13), (40, 33)], 87, 36),
    ("one_vertex_p1", "sat", [(7, 0)], 1, 0),
    ("one_vertex_p0", "unsat", None, 0, 1),
])
def test_candidate_counts_pinned(name, outcome, items, decisions, backtracks):
    # The edges of the bit-sliced candidate counts: more colours than ranks,
    # counts above 32, a single rank; certificates record these counters.
    res = extend(*_plane_case(name))
    assert (res.outcome, res.colouring and list(res.colouring.items()),
            res.stats.decisions, res.stats.backtracks) == (outcome, items, decisions, backtracks)


def _replay_policy_case(rng):
    # Joins of odd cycles one colour short of chi or at chi, with the plain
    # palette, a template on it, lists each missing one colour of it, or two
    # isolated vertices added whose shorter lists make them go first, so the
    # join is searched from states that differ only in the colours used.
    parts = [FamilySpec.cycle(rng.choice((5, 7))) for _ in range(rng.randint(3, 4))]
    g = generate(FamilySpec.join(*parts))
    size = 3 * len(parts) - rng.choice((1, 0))
    kind = rng.choice(("plain", "lists", "template", "isolated"))
    if kind == "lists":
        m = rng.choice((3, 4))
        palette = Palette.from_lists({v: frozenset(range(size)) - {v % m} for v in g.vertices})
    elif kind == "isolated":
        n = len(g.vertices)
        g = Graph.build(n + 2, list(g.edges))
        palette = Palette.from_lists({v: range(size - (v >= n)) for v in g.vertices})
    else:
        palette = Palette.plain(size)
    t = random_template(g, palette, rng, 1) if kind == "template" else Template.empty(g)
    return g, t, palette, SolverBudget(rng.choice((300, 3000, 100_000, 100_000)))


def _solve_or_stop(case):
    try:
        res = extend(*case)
    except ResourceLimitError as exc:
        return str(exc)
    return res.outcome, list((res.colouring or {}).items()), res.stats.decisions, res.stats.backtracks


def test_replay_policy_never_changes_results(monkeypatch):
    # Replaying kept subtrees only skips executing them: with the state
    # table off, every outcome, colouring in dict order, counter and budget
    # stop is the same.
    rng = random.Random(20)
    cases = [_replay_policy_case(rng) for _ in range(30)]
    shipped = [_solve_or_stop(case) for case in cases]
    monkeypatch.setattr(solver, "_REPLAY_MIN_DECISIONS", float("inf"))
    monkeypatch.setattr(solver, "_REPLAY_SMALL_ENTRIES", 0)
    assert [_solve_or_stop(case) for case in cases] == shipped
    assert {r[0] for r in shipped if isinstance(r, tuple)} == {"sat", "unsat"}
    assert any(isinstance(r, str) for r in shipped)


def _differential_case(rng):
    caps = (0, 0, 0, 5, 50, 500)
    if rng.random() < 0.3:  # joins of odd cycles one colour short, deep enough to replay
        parts = [FamilySpec.cycle(rng.choice((5, 7))) for _ in range(rng.randint(3, 5))]
        g = generate(FamilySpec.join(*parts))
        return g, Template.empty(g), Palette.plain(3 * len(parts) - 1), SolverBudget(rng.choice(caps))
    labels = rng.sample(range(40), rng.randint(1, 12))
    p = rng.choice((0.3, 0.5, 0.7, 0.9))
    g = Graph.build(labels, [(u, v) for u, v in combinations(labels, 2) if rng.random() < p])
    size = rng.randint(1, 3 * len(labels) // 4 + 2)
    if rng.random() < 0.5:
        palette = Palette.plain(rng.randint(0, 45) if rng.random() < 0.2 else size)
    else:
        k = rng.randint(size, 45)
        palette = Palette.from_lists({v: rng.sample(range(k), rng.randint(1, size)) for v in labels})
    t = random_template(g, palette, rng, rng.choice((0, 1, 2, 4))) if rng.random() < 0.6 else Template.empty(g)
    return g, t, palette, SolverBudget(rng.choice(caps))


def test_seeded_differential_digest():
    # 300 seeded cases over plain and list palettes up to 45 colours, random
    # templates and decision caps; one digest pins every outcome, colouring
    # in dict order, counter and budget message.
    rng = random.Random(2014)
    lines = []
    for _ in range(300):
        try:
            res = extend(*_differential_case(rng))
            lines.append(repr((res.outcome, res.colouring and list(res.colouring.items()),
                               res.stats.decisions, res.stats.backtracks)))
        except ResourceLimitError as exc:
            lines.append(str(exc))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "47d18d3b806232701141a5c4ea486cef622f1bdd764c750c8ecb9dc7865edc5a"


def _classes_by_definition(t, lists):
    # The docstring's definition, colour by colour: a mentioned colour has
    # mask 0; an anonymous one, the colours carried by exactly its lists.
    mentioned = set(t.precolour.values()).union(*t.forbidden.values())
    colours = sorted(set().union(*lists))
    carriers = {c: {i for i, cs in enumerate(lists) if c in cs} for c in colours}
    return colours, [0 if c in mentioned else sum(
        1 << j for j, d in enumerate(colours) if d not in mentioned and carriers[d] == carriers[c])
        for c in colours]


def test_anonymity_classes_single_list_shortcut_matches_the_definition():
    # One list and a template mentioning no colour take the early return;
    # the other cases take the general inversion.  Both match the definition.
    g = generate(FamilySpec.cycle(5))
    one_list = Palette.from_lists({v: (2, 5, 9) for v in g.vertices})
    two_lists = Palette.from_lists({v: (2, 5, 9) if v % 2 else (2, 5, 7) for v in g.vertices})
    templates = [
        Template.empty(g),
        Template({}, {v: frozenset() for v in range(3)}),
        Template({}, {**Template.empty(g).forbidden, 1: frozenset({2})}),
        Template({0: 5}, {v: frozenset() for v in range(1, 5)}),
    ]
    shortcut = 0
    for palette in (Palette.plain(1), Palette.plain(3), Palette.plain(7), one_list, two_lists):
        lists = list(dict.fromkeys(palette.colours_of(v) for v in g.sorted_vertices()))
        for t in templates:
            got = solver._anonymity_classes(t, lists)
            assert got == _classes_by_definition(t, lists)
            if len(lists) == 1 and not t.precolour and not any(t.forbidden.values()):
                # The same list twice takes the general path to the same classes.
                assert got == solver._anonymity_classes(t, lists * 2)
                shortcut += 1
    assert shortcut == 8


def _fold_edge_cases():
    # Every row stride and fold modulus edge: n <= 2, colour counts around n,
    # and C = 29/30/31, where the fold's modulus passes one 30-bit int digit.
    rng = random.Random(27)
    for n in (0, 1, 2, 3, 5, 8):
        labels = rng.sample(range(40), n)
        g = Graph.build(labels, [(u, v) for u, v in combinations(labels, 2) if rng.random() < 0.5])
        for size in sorted({c for c in (0, 1, n - 2, n - 1, n, n + 3, 29, 30, 31) if c >= 0}):
            palettes = [Palette.plain(size)]
            if size:
                lists = {v: set(rng.sample(range(size), rng.randint(1, size))) for v in labels}
                for c in range(size) if labels else ():
                    lists[rng.choice(labels)].add(c)
                palettes.append(Palette.from_lists(lists))
            for palette in palettes:
                yield g, Template.empty(g), palette
                yield g, random_template(g, palette, rng), palette


def test_fold_edges_against_brute_force():
    lines = []
    for g, t, palette in _fold_edge_cases():
        try:
            reference = brute_force_extend(g, t, palette)
        except ValueError:  # past the brute-force caps
            reference = None
        for cap in (0, 5, 50):
            try:
                res = extend(g, t, palette, SolverBudget(cap))
            except ResourceLimitError as exc:
                lines.append(str(exc))
                continue
            if reference is not None:
                assert res.outcome == reference.outcome
            assert res.colouring is None or respects(g, t, res.colouring, palette)
            lines.append(repr((res.outcome, res.colouring and list(res.colouring.items()),
                               res.stats.decisions, res.stats.backtracks)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fcb59aa8cd1b9a5846996f276a2f5a15ac3c88aac3f13aa90ccd13d53d07913a"


def test_stride_spaces_rows_and_folds_exactly():
    # The remainder by 2**d - 1 folds bits i*w to bits i, as a loop over
    # the set bits would.
    rng = random.Random(7)
    for n in range(0, 130):
        for nc in range(0, 70):
            w, d = solver._stride(n, nc)
            assert w >= n and d > nc and (w - 1) % d == 0
            # the least width, and the least stride for it
            assert d == nc + 1
            assert w == min(x for x in range(n, n + d + 1) if (x - 1) % d == 0)
            mask = (1 << nc) - 1 if n % 7 == 0 else rng.getrandbits(nc)
            column = sum(1 << i * w for i in range(nc) if mask >> i & 1)
            assert column % ((1 << d) - 1) == mask
