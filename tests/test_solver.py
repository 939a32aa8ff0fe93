import random
from itertools import combinations

import pytest

from chromcert.cli import EXIT_NOT_INEXTENSIBLE, main
from chromcert.coloring import is_colourable
from chromcert.errors import NotInextensibleError, ResourceLimitError, TemplateError
from chromcert.extractor import ExtractConfig, extract
from chromcert.families import FamilySpec, generate
from chromcert.graphs import Graph
from chromcert.oracles import brute_colourable, brute_force_extend
from chromcert.solver import SolverBudget, extend
from chromcert.templates import Palette, Template, respects


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
    res = extend(g, Template.empty(g), Palette.plain(14), SolverBudget(max_decisions=3))
    assert res.outcome == "resource_limit"
    assert res.colouring is None
    with pytest.raises(ResourceLimitError):
        res.raise_if_limited()
    # same instance, unconstrained: a definite answer, not a limit
    assert extend(g, Template.empty(g), Palette.plain(14)).outcome == "unsat"


def test_wall_clock_budget():
    # this instance needs a few more than 512 decisions, and the clock is
    # polled every 512, so a tiny cap reliably trips mid-search
    from chromcert.families import generate as gen

    g = gen(FamilySpec.join(*[FamilySpec.cycle(5)] * 5))
    res = extend(g, Template.empty(g), Palette.plain(14),
                 SolverBudget(wall_clock_seconds=1e-9))
    assert res.outcome == "resource_limit"


def test_stats_populated():
    g = generate(FamilySpec.complete(5))
    res = extend(g, Template.empty(g), Palette.plain(5))
    assert res.outcome == "sat"
    assert res.stats.decisions >= 5
    assert res.stats.elapsed >= 0.0


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
