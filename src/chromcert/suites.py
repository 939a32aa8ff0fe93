"""Reproduction suites: instance runs and property/oracle checks.

Each suite returns a machine-readable report dict (byte-stable: fixed key
order, fixed seeds, no timing) plus a wall-time dict for console display.
The acceptance tests and the `reproduce` command both drive these.  Every
counting section is one tally loop over a check, and every property section
is one tally over one seeded stream.
"""

from __future__ import annotations

import json
import random
import time
from functools import partial
from itertools import combinations, repeat

from .checker import verify_certificate, witness_lists
from .coloring import list_chromatic_at_least
from .connectivity import is_k_connected, min_vertex_cut
from .errors import InternalContradiction
from .extractor import ExtractConfig, descend, extract, finalize_chromatic
from .families import FamilySpec, generate, random_graph
from .graphs import Graph, induced_subgraph
from .oracles import (
    brute_colourable,
    brute_force_extend,
    brute_is_k_connected,
    brute_list_colour,
    brute_min_cut,
)
from .solver import Palette, Template, extend, is_colourable, list_colour, respects, validate_template
from .templates import (
    colour_from_intervals,
    degree,
    derive_completion_template,
    derive_separation_template,
    glue,
    interval_partition,
    rainbow_small_case,
    restrict,
    strengthen_witness,
)


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Instance suites
# ---------------------------------------------------------------------------

def _run_sections(sections) -> tuple[dict, dict[str, float]]:
    """Run each (name, fn) in order: the results and the wall times, by name."""
    results: dict = {}
    timings: dict[str, float] = {}
    for name, fn in sections:
        t0 = time.perf_counter()
        results[name] = fn()
        timings[name] = time.perf_counter() - t0
    return results, timings


def _run_instance(instance_id: str, spec: FamilySpec, cfg: ExtractConfig) -> dict:
    g = generate(spec)
    record = {
        "id": instance_id,
        "family": spec.label(),
        "k": cfg.k,
        "mode": cfg.mode,
        "outcome": "fail",
        "h_size": None,
        "h_min_cut": None,
        "chromatic_evidence": None,
        "verified": False,
        "kappa_ok": False,
        "chromatic_ok": False,
        "solver_decisions": None,
        "solver_backtracks": None,
        "certificate": None,
    }
    try:
        cert = extract(g, cfg)
    except Exception as exc:  # includes InternalContradiction: reported, not raised
        record["outcome"] = f"error:{type(exc).__name__}"
        return record
    h = induced_subgraph(g, cert.final_vertices)
    record["h_size"] = h.n
    evidence = cert.connectivity_evidence
    record["h_min_cut"] = "complete" if evidence["kind"] == "complete" else evidence["size"]
    chromatic = cert.chromatic_evidence
    record["chromatic_evidence"] = chromatic["kind"]
    record["verified"] = verify_certificate(g, cert)
    record["kappa_ok"] = brute_is_k_connected(h, cfg.k)
    # The certificate's own chromatic claim by brute force: bad lists, as the
    # checker decodes them, else chi(H) >= k.
    if chromatic["kind"] == "choosability_witness":
        lists = witness_lists(h, chromatic["lists"], cfg.k)
        record["chromatic_ok"] = lists is not None and brute_list_colour(h, lists) is None
    else:
        record["chromatic_ok"] = not brute_colourable(h, cfg.k - 1)
    record["solver_decisions"] = cert.solver_decisions
    record["solver_backtracks"] = cert.solver_backtracks
    record["certificate"] = json.loads(cert.to_json())
    if record["verified"] and record["kappa_ok"] and record["chromatic_ok"]:
        record["outcome"] = "pass"
    return record


def theorem1_instances() -> list[tuple[str, FamilySpec, ExtractConfig]]:
    out: list[tuple[str, FamilySpec, ExtractConfig]] = []
    for k in (1, 2):
        n = 7 * k + 1
        out.append((f"t1-k{k}-complete{n}", FamilySpec.complete(n), ExtractConfig(k=k)))
        for s in sorted({1, k - 1}):
            out.append(
                (
                    f"t1-k{k}-glued{n}-{n}-s{s}",
                    FamilySpec.glued_cliques((n, n), s),
                    ExtractConfig(k=k),
                )
            )
        if k == 1:
            join = FamilySpec.join(FamilySpec.cycle(5), FamilySpec.complete(5))
        else:
            join = FamilySpec.join(*[FamilySpec.cycle(5)] * 5)
        out.append((f"t1-k{k}-join", join, ExtractConfig(k=k)))
    return out


def theorem2_instances() -> list[tuple[str, FamilySpec, ExtractConfig]]:
    out: list[tuple[str, FamilySpec, ExtractConfig]] = []
    for k in (1, 2):
        n = 4 * k + 1
        cfg = ExtractConfig(k=k, mode="list")
        out.append((f"t2-k{k}-complete{n}", FamilySpec.complete(n), cfg))
        out.append((f"t2-k{k}-glued{n}-{n}-s1", FamilySpec.glued_cliques((n, n), 1), cfg))
    return out


def _run_instance_suite(name: str, instances) -> tuple[dict, dict[str, float]]:
    by_id, timings = _run_sections(
        (iid, partial(_run_instance, iid, spec, cfg)) for iid, spec, cfg in instances
    )
    records = [by_id[iid] for iid in sorted(by_id)]
    passed = sum(1 for r in records if r["outcome"] == "pass")
    report = {
        "suite": name,
        "instances": records,
        "passed": passed,
        "failed": len(records) - passed,
        "ok": passed == len(records),
    }
    return report, timings


def run_theorem1() -> tuple[dict, dict[str, float]]:
    return _run_instance_suite("theorem1", theorem1_instances())


def run_theorem2() -> tuple[dict, dict[str, float]]:
    return _run_instance_suite("theorem2", theorem2_instances())


# ---------------------------------------------------------------------------
# Shared by the oracle and property suites: the tally loop, random instances
# ---------------------------------------------------------------------------

def _tally(cases, check, total: str, *counted: str) -> dict:
    """Count the cases, argument tuples (zip(xs) wraps each x in one), under
    `total`.  Of what check(*case) yields, a name counts one under itself, and
    a true condition one under the last of `counted`; names keep this order."""
    counts = dict.fromkeys((total, *counted), 0)
    for case in cases:
        counts[total] += 1
        for item in check(*case):
            if isinstance(item, str):
                counts[item] += 1
            else:
                counts[counted[-1]] += item
    return counts


def _seeded_trials(seed: int, check, trials: int, *names: str) -> dict:
    """_tally of check(rng, i) for trials i = 0, 1, ... on one seeded stream,
    under `names` (the total first), by default trials and violations."""
    cases = zip(repeat(random.Random(seed)), range(trials))
    return _tally(cases, check, *(names or ("trials", "violations")))


def _random_proper_precolouring(
    g: Graph, palette: Palette, rng: random.Random, candidates: list[int], limit: int
) -> dict[int, int]:
    pre: dict[int, int] = {}
    for v in candidates:
        if len(pre) >= limit:
            break
        options = sorted(palette.colours_of(v) - {pre[u] for u in g.adj[v] if u in pre})
        if options:
            pre[v] = rng.choice(options)
    return pre


def _random_template(
    g: Graph,
    palette: Palette,
    rng: random.Random,
    s_limit: int,
    f_limit: int,
    degree_cap: int | None = None,
    k: int = 1,
) -> Template:
    """Random well-formed template: a proper pre-colouring on a random
    subset and random forbidden lists of size at most f_limit, optionally
    thinned until the degree cap holds."""
    verts = g.sorted_vertices()
    wanted = [v for v in verts if rng.random() < 0.35]
    rng.shuffle(wanted)
    pre = _random_proper_precolouring(g, palette, rng, wanted, s_limit)
    forb: dict[int, frozenset[int]] = {}
    for v in verts:
        if v in pre:
            continue
        size = rng.randint(0, f_limit) if f_limit > 0 else 0
        pool = sorted(palette.colours_of(v))
        forb[v] = frozenset(rng.sample(pool, min(size, len(pool))))
    t = Template(pre, forb)
    if degree_cap is not None:
        while degree(t, k) > degree_cap:
            heavy = [v for v, fs in forb.items() if fs]
            if heavy:
                v = rng.choice(heavy)
                fs = sorted(forb[v])
                fs.pop(rng.randrange(len(fs)))
                forb[v] = frozenset(fs)
            elif pre:
                v = rng.choice(sorted(pre))
                del pre[v]
                forb[v] = frozenset()
            else:
                break
            t = Template(pre, forb)
    validate_template(g, t, palette)
    return t


def _random_inextensible_instance(rng: random.Random, k: int) -> tuple[Graph, Template, Palette]:
    """A graph containing K_{7k+1} (hence not 7k-colourable) with a random
    witness-shaped template.  Every such template is a witness: its
    respecting colourings are a subset of all proper palette colourings,
    and there are none of those."""
    core = 7 * k + 1
    extra = rng.randint(0, 3)
    n = core + extra
    edges = list(combinations(range(core), 2))
    for v in range(core, n):
        for u in range(v):
            if rng.random() < 0.3:
                edges.append((u, v))
    g = Graph.build(n, edges)
    palette = Palette.plain(7 * k)
    t = _random_template(g, palette, rng, s_limit=2, f_limit=2 * k, degree_cap=2 * k * k, k=k)
    return g, t, palette


def _random_separated_instance(
    rng: random.Random, k: int
) -> tuple[Graph, Template, Palette, frozenset[int], frozenset[int], frozenset[int]]:
    """A graph with a designated cut X (|X| <= k-1) separating Y from Z,
    plus a template with lists of size at most k-1 and Z-restriction degree
    at most k^2."""
    nx = rng.randint(0, k - 1)
    ny = rng.randint(2, 5)
    nz = rng.randint(2, 5)
    x = frozenset(range(nx))
    y = frozenset(range(nx, nx + ny))
    z = frozenset(range(nx + ny, nx + ny + nz))
    edges: list[tuple[int, int]] = []
    for side in (sorted(y), sorted(z)):
        for i in range(len(side) - 1):
            edges.append((side[i], side[i + 1]))  # keep each side connected
        for u, v in combinations(side, 2):
            if rng.random() < 0.4:
                edges.append((u, v))
    for u in x:
        for v in sorted(y | z):
            if rng.random() < 0.5:
                edges.append((u, v))
    for u, v in combinations(sorted(x), 2):
        if rng.random() < 0.5:
            edges.append((u, v))
    g = Graph.build(nx + ny + nz, edges)
    palette = Palette.plain(7 * k)
    for _ in range(50):
        t = _random_template(
            g, palette, rng, s_limit=2 * k, f_limit=k - 1, degree_cap=2 * k * k, k=k
        )
        if degree(restrict(t, z), k) <= k * k:
            return g, t, palette, x, y, z
    t = Template.empty(g)
    return g, t, palette, x, y, z


# ---------------------------------------------------------------------------
# Oracle suite (solver equivalence and ground truths)
# ---------------------------------------------------------------------------

def _all_graphs(most: int):
    """Every labelled graph on at most `most` vertices, the smaller first."""
    for n in range(most + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph.build(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def _exhaustive_cases():
    """Every graph on at most 5 vertices, each with palettes 2, 3 and 4."""
    rng = random.Random(20260801)
    for g in _all_graphs(5):
        for size in (2, 3, 4):
            palette = Palette.plain(size)
            yield g, _random_template(g, palette, rng, s_limit=2, f_limit=2), palette


def _random_cases():
    rng = random.Random(20260802)
    for _ in range(500):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        palette = Palette.plain(rng.randint(2, 4))
        yield g, _random_template(g, palette, rng, s_limit=3, f_limit=2), palette


def _extend_agrees(g: Graph, t: Template, palette: Palette):
    """extend against brute force: the same outcome, and a colouring that
    respects the template when there is one."""
    fast = extend(g, t, palette)
    yield fast.outcome != brute_force_extend(g, t, palette).outcome
    yield fast.outcome == "sat" and not respects(g, t, fast.colouring, palette)


def _colourability_agrees(g: Graph):
    for t in range(1, 5):
        col = is_colourable(g, t)
        yield (col is not None) != brute_colourable(g, t)
        yield col is not None and any(col[u] == col[v] for u, v in g.edges)


def _cut_samples():
    """Six named graphs, then 250 seeded random ones on 2 to 8 vertices."""
    yield from map(generate, (FamilySpec.kneser(5, 2), FamilySpec.cycle(5), FamilySpec.complete(6),
                              FamilySpec.glued_cliques((4, 4), 1)))
    yield from (Graph.build(4, [(0, 1), (1, 2), (2, 3)]), Graph.build(2, []))
    rng = random.Random(20260803)
    for _ in range(250):
        n = rng.randint(2, 8)
        yield random_graph(n, rng.uniform(0.15, 0.95), rng)


def _cut_agrees(g: Graph):
    cut = min_vertex_cut(g)
    yield brute_min_cut(g) != (None if cut is None else (len(cut), cut))
    for k in range(1, 5):
        yield is_k_connected(g, k) != brute_is_k_connected(g, k)


def _choosability_ground_truth() -> dict:
    """ch(C4) = 2, ch(K4) = 4 and ch(K_{2,4}) >= 3: each bound that holds
    has a witness that brute force refutes, and each one past ch fails; then
    the bad lists of K_{2,4} from the definition (Erdos-Rubin-Taylor 1979)."""
    c4, k4 = generate(FamilySpec.cycle(4)), generate(FamilySpec.complete(4))
    k24 = Graph.build(6, [(i, j) for i in (0, 1) for j in (2, 3, 4, 5)])
    failures: list[str] = []
    for name, g, t, holds in (("C4", c4, 2, True), ("C4", c4, 3, False), ("K4", k4, 4, True),
                              ("K4", k4, 5, False), ("K_{2,4}", k24, 3, True)):
        found, witness = list_chromatic_at_least(g, t)
        if found != holds or found and brute_list_colour(g, witness) is not None:
            failures.append(f"chi_ell({name}) >= {t}" if holds else f"chi_ell({name}) <= {t - 1}")
    lists24 = dict(enumerate(map(frozenset, ({1, 2}, {3, 4}, {1, 3}, {1, 4}, {2, 3}, {2, 4}))))
    if list_colour(k24, lists24) is not None or brute_list_colour(k24, lists24) is not None:
        failures.append("K_{2,4} witness lists admit no colouring")
    return {"checked": 6, "failures": failures}


def run_oracles() -> tuple[dict, dict[str, float]]:
    sections, timings = _run_sections((
        ("extend_vs_bruteforce_exhaustive",
         partial(_tally, _exhaustive_cases(), _extend_agrees, "checked", "mismatches")),
        ("extend_vs_bruteforce_random",
         partial(_tally, _random_cases(), _extend_agrees, "checked", "mismatches")),
        ("colourability_all_graphs_n6",
         partial(_tally, zip(_all_graphs(6)), _colourability_agrees, "graphs", "mismatches")),
        ("min_cut_ground_truth",
         partial(_tally, zip(_cut_samples()), _cut_agrees, "checked", "mismatches")),
        ("choosability_ground_truth", _choosability_ground_truth),
    ))
    ok = all(not s.get("mismatches") and not s.get("failures") for s in sections.values())
    report = {"suite": "oracles", "sections": sections, "ok": ok}
    return report, timings


# ---------------------------------------------------------------------------
# Property suite (proof inequalities and negative paths)
# ---------------------------------------------------------------------------

def _degree_additivity(rng: random.Random, _: int):
    k = rng.randint(1, 4)
    n = rng.randint(1, 10)
    g = random_graph(n, rng.uniform(0.1, 0.9), rng)
    palette = Palette.plain(7 * k)
    t = _random_template(g, palette, rng, s_limit=4, f_limit=3)
    xs = frozenset(v for v in g.vertices if rng.random() < 0.5)
    ys = g.vertices - xs
    yield degree(restrict(t, xs), k) + degree(restrict(t, ys), k) != degree(t, k)


def _strengthen(rng: random.Random, i: int):
    if i % 10 == 0:
        # list-mode exercise: K_{4k+2} core with identical lists of
        # size 4k+1 is inextensible for the same subset reason
        k = 1
        g = generate(FamilySpec.complete(4 * k + 2))
        palette = Palette.from_lists({v: range(4 * k + 1) for v in g.vertices})
        t = _random_template(g, palette, rng, s_limit=2, f_limit=2 * k, degree_cap=2 * k * k, k=k)
    else:
        k = rng.choice((1, 1, 2))
        g, t, palette = _random_inextensible_instance(rng, k)
    before = degree(t, k)
    out = strengthen_witness(g, t, k, palette)
    yield any(len(fs) > k - 1 for fs in out.forbidden.values())
    yield degree(out, k) > before
    yield extend(g, out, palette).outcome != "unsat"


def _separation(rng: random.Random, _: int):
    k = rng.randint(2, 4)
    g, t, palette, x, y, z = _random_separated_instance(rng, k)
    t_sep = derive_separation_template(g, t, x, y, z, k)
    yield degree(t_sep, k) > degree(t, k)
    for v, fs in t_sep.forbidden.items():
        bound = 2 * k - 1 if v in x else k - 1
        yield len(fs) > bound


def _completion_and_glue(rng: random.Random, _: int):
    k = rng.randint(2, 4)
    g, t, palette, x, y, z = _random_separated_instance(rng, k)
    t_sep = derive_separation_template(g, t, x, y, z, k)
    res_y = extend(induced_subgraph(g, x | y), t_sep, palette)
    if res_y.outcome != "sat":
        return  # palette 7k on these sparse sides: not expected
    t_comp = derive_completion_template(g, t, x, z, res_y.colouring, k)
    yield "performed"
    yield degree(t_comp, k) > 2 * k * k
    yield any(len(fs) > k - 1 for fs in t_comp.forbidden.values())
    res_z = extend(induced_subgraph(g, x | z), t_comp, palette)
    if res_z.outcome == "sat":
        yield "glued"
        yield not respects(g, t, glue(res_y.colouring, res_z.colouring), palette)


def _interval_instance(rng: random.Random, k: int):
    """Graph built from at most k-1 independent sets plus a pre-coloured
    fringe, with a witness-degree template."""
    sizes = [rng.randint(0, 4) for _ in range(k - 1)]
    sets: list[list[int]] = []
    next_id = 0
    for size in sizes:
        sets.append(list(range(next_id, next_id + size)))
        next_id += size
    s_count = rng.randint(0, min(2 * k, 3))
    s_vertices = list(range(next_id, next_id + s_count))
    next_id += s_count
    edges: list[tuple[int, int]] = []
    for a, b in combinations(range(len(sets)), 2):
        for u in sets[a]:
            for v in sets[b]:
                if rng.random() < 0.4:
                    edges.append((u, v))
    for u in s_vertices:
        for v in range(next_id):
            if v != u and rng.random() < 0.3:
                edges.append((min(u, v), max(u, v)))
    g = Graph.build(next_id, edges)
    palette = Palette.plain(7 * k)
    pre = _random_proper_precolouring(g, palette, rng, s_vertices, len(s_vertices))
    budget = 2 * k * k - k * len(pre)
    forb: dict[int, frozenset[int]] = {}
    for v in g.sorted_vertices():
        if v in pre:
            continue
        size = rng.randint(0, k - 1)
        size = min(size, max(budget, 0))
        pool = sorted(palette.colours_of(v))
        forb[v] = frozenset(rng.sample(pool, size))
        budget -= size
    t = Template(pre, forb)
    validate_template(g, t, palette)
    return g, t, palette, [[v for v in js if v not in pre] for js in sets]


def _intervals(rng: random.Random, _: int):
    k = rng.randint(2, 5)
    g, t, palette, indep = _interval_instance(rng, k)
    intervals = interval_partition(g, t, k, indep)
    yield len(intervals) > 3 * k
    homes = [frozenset(js) for js in indep]
    for interval in intervals:
        yield sum(len(t.forbidden[v]) for v in interval) > 2 * k
        yield not any(set(interval) <= home for home in homes)
        for u, v in combinations(interval, 2):
            yield g.has_edge(u, v)
    col = colour_from_intervals(g, t, intervals, palette)
    yield not respects(g, t, col, palette)


def _small_instance(rng: random.Random, k: int) -> tuple[Graph, Template, Palette]:
    """A graph on at most k vertices with a template whose lists have at
    most k - 1 colours: the rainbow small case."""
    n = rng.randint(1, k)
    g = random_graph(n, rng.uniform(0.2, 0.9), rng)
    palette = Palette.plain(7 * k)
    return g, _random_template(g, palette, rng, s_limit=n, f_limit=k - 1), palette


def _rainbow(rng: random.Random, _: int):
    k = rng.randint(2, 5)
    g, t, palette = _small_instance(rng, k)
    col = rainbow_small_case(g, t, k, palette)
    yield not respects(g, t, col, palette)
    outside = [col[v] for v in sorted(t.forbidden)]
    yield len(set(outside)) != len(outside)


_MUTATION_PLAN = ["descend"] * 40 + ["finalize_plain"] * 30 + ["rainbow"] * 20 + ["finalize_list"] * 10


def _mutated_witness(rng: random.Random, i: int):
    """A deliberately invalid witness pair of kind plan[i % 100], run through
    its stage: it must end in InternalContradiction with a colouring that
    respects the template."""
    kind = _MUTATION_PLAN[i % len(_MUTATION_PLAN)]
    if kind == "descend":
        k = rng.choice((1, 2, 3))
        nx = k - 1
        ny, nz = rng.randint(2, 4), rng.randint(2, 4)
        x = list(range(nx))
        y = list(range(nx, nx + ny))
        z = list(range(nx + ny, nx + ny + nz))
        edges = []
        for side in (y, z):
            edges += zip(side, side[1:])
            for u, v in combinations(side, 2):
                if rng.random() < 0.5:
                    edges.append((u, v))
        for u in x:
            edges.append((u, y[0]))
            edges.append((u, z[0]))
            for v in y + z:
                if rng.random() < 0.4:
                    edges.append((u, v))
        g = Graph.build(nx + ny + nz, edges)
        cfg = ExtractConfig(k=k)
        t = Template.empty(g)
    elif kind == "finalize_plain":
        k = rng.choice((3, 4))
        a, b = rng.randint(k, k + 2), rng.randint(k, k + 2)
        g = Graph.build(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        palette = Palette.plain(7 * k)
        t = _random_template(g, palette, rng, s_limit=2, f_limit=k - 1, degree_cap=2 * k * k, k=k)
        cfg = ExtractConfig(k=k)
    elif kind == "rainbow":
        k = rng.choice((3, 4, 5))
        g, t, _ = _small_instance(rng, k)
        cfg = ExtractConfig(k=k)
    else:  # finalize_list
        k = 2
        n = rng.randint(3, 4)
        g = generate(FamilySpec.complete(n))
        lists = {v: frozenset(range(9)) for v in g.vertices}
        cfg = ExtractConfig(k=k, mode="list", lists=lists)
        t = Template.empty(g)
    try:
        (finalize_chromatic if kind.startswith("finalize") else descend)(g, t, cfg)
    except InternalContradiction as exc:
        yield "contradictions"
        yield respects(g, t, exc.colouring, cfg.palette_for(g))


def run_properties(trials: int = 1000, mutations: int = 100) -> tuple[dict, dict[str, float]]:
    sections, timings = _run_sections((
        ("degree_additivity", partial(_seeded_trials, 20260810, _degree_additivity, trials)),
        ("strengthen_witness", partial(_seeded_trials, 20260811, _strengthen, trials)),
        ("derive_separation", partial(_seeded_trials, 20260812, _separation, trials)),
        ("derive_completion_glue", partial(_seeded_trials, 20260813, _completion_and_glue, trials,
                                           "trials", "performed", "glued", "violations")),
        ("interval_partition", partial(_seeded_trials, 20260814, _intervals, trials)),
        ("rainbow_small_case", partial(_seeded_trials, 20260815, _rainbow, trials)),
        ("mutated_witnesses", partial(_seeded_trials, 20260816, _mutated_witness, mutations,
                                      "count", "contradictions", "respecting_colourings")),
    ))
    muts = sections["mutated_witnesses"]
    ok = all(not s.get("violations") for s in sections.values())
    ok = ok and muts["contradictions"] == muts["count"] == muts["respecting_colourings"]
    report = {"suite": "properties", "sections": sections, "ok": ok}
    return report, timings


SUITES = {
    "theorem1": run_theorem1,
    "theorem2": run_theorem2,
    "oracles": run_oracles,
    "properties": run_properties,
}
