"""Reproduction suites: instance runs and property/oracle checks.

Each suite returns a machine-readable report dict (byte-stable: fixed key
order, fixed seeds, no timing) plus a wall-time dict for console display.
The acceptance tests and the `reproduce` command both drive these.
"""

from __future__ import annotations

import json
import random
import time
from functools import partial
from itertools import combinations

from .checker import verify_certificate
from .coloring import list_chromatic_at_least
from .connectivity import is_k_connected, min_vertex_cut
from .errors import InternalContradiction
from .extractor import ExtractConfig, WitnessPair, descend, extract, finalize_chromatic
from .families import FamilySpec, generate, random_graph
from .graphs import Graph, induced_subgraph
from .oracles import (
    brute_chromatic_number,
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

def _witness_refuted(h: Graph, lists: dict[int, frozenset[int]]) -> bool:
    if any(not cs for cs in lists.values()):
        return True
    return brute_list_colour(h, lists) is None


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
    record["chromatic_evidence"] = cert.chromatic_evidence["kind"]
    record["verified"] = verify_certificate(g, cert)
    record["kappa_ok"] = brute_is_k_connected(h, cfg.k)
    if cfg.mode == "plain":
        record["chromatic_ok"] = (
            is_colourable(h, cfg.k - 1) is None and not brute_colourable(h, cfg.k - 1)
        )
    else:
        holds, witness = list_chromatic_at_least(h, cfg.k)
        record["chromatic_ok"] = bool(holds) and _witness_refuted(h, witness)
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
# Random instance helpers shared by the oracle and property suites
# ---------------------------------------------------------------------------

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

def _all_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.build(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def _solver_equivalence_exhaustive() -> dict:
    rng = random.Random(20260801)
    checked = 0
    mismatches = 0
    for n in range(0, 6):
        for g in _all_graphs(n):
            for size in (2, 3, 4):
                palette = Palette.plain(size)
                t = _random_template(g, palette, rng, s_limit=2, f_limit=2)
                fast = extend(g, t, palette)
                slow = brute_force_extend(g, t, palette)
                checked += 1
                if fast.outcome != slow.outcome:
                    mismatches += 1
                if fast.outcome == "sat" and not respects(g, t, fast.colouring, palette):
                    mismatches += 1
    return {"checked": checked, "mismatches": mismatches}


def _solver_equivalence_random(trials: int = 500) -> dict:
    rng = random.Random(20260802)
    checked = 0
    mismatches = 0
    for _ in range(trials):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        palette = Palette.plain(rng.randint(2, 4))
        t = _random_template(g, palette, rng, s_limit=3, f_limit=2)
        fast = extend(g, t, palette)
        slow = brute_force_extend(g, t, palette)
        checked += 1
        if fast.outcome != slow.outcome:
            mismatches += 1
    return {"checked": checked, "mismatches": mismatches}


def _colourability_ground_truth() -> dict:
    graphs = 0
    mismatches = 0
    for n in range(0, 7):
        for g in _all_graphs(n):
            graphs += 1
            chi = brute_chromatic_number(g, 4)
            for t in range(1, 5):
                col = is_colourable(g, t)
                expected = chi is not None and chi <= t
                if (col is not None) != expected:
                    mismatches += 1
                if col is not None and any(col[u] == col[v] for u, v in g.edges):
                    mismatches += 1
    return {"graphs": graphs, "mismatches": mismatches}


def _min_cut_ground_truth() -> dict:
    rng = random.Random(20260803)
    named = [
        generate(FamilySpec.kneser(5, 2)),
        generate(FamilySpec.cycle(5)),
        generate(FamilySpec.complete(6)),
        generate(FamilySpec.glued_cliques((4, 4), 1)),
        Graph.build(4, [(0, 1), (1, 2), (2, 3)]),
        Graph.build(2, []),
    ]
    samples = list(named)
    for _ in range(250):
        n = rng.randint(2, 8)
        samples.append(random_graph(n, rng.uniform(0.15, 0.95), rng))
    checked = 0
    mismatches = 0
    for g in samples:
        checked += 1
        expected = brute_min_cut(g)
        got = min_vertex_cut(g)
        if expected is None:
            if got is not None:
                mismatches += 1
        else:
            size, cut = expected
            if got is None or len(got) != size or frozenset(got) != cut:
                mismatches += 1
        for k in range(1, 5):
            if is_k_connected(g, k) != brute_is_k_connected(g, k):
                mismatches += 1
    return {"checked": checked, "mismatches": mismatches}


def _k24() -> tuple[Graph, dict[int, frozenset[int]]]:
    g = Graph.build(6, [(i, j) for i in (0, 1) for j in (2, 3, 4, 5)])
    lists = {
        0: frozenset({1, 2}),
        1: frozenset({3, 4}),
        2: frozenset({1, 3}),
        3: frozenset({1, 4}),
        4: frozenset({2, 3}),
        5: frozenset({2, 4}),
    }
    return g, lists


def _choosability_ground_truth() -> dict:
    failures: list[str] = []
    c4 = generate(FamilySpec.cycle(4))
    if not list_chromatic_at_least(c4, 2)[0]:
        failures.append("chi_ell(C4) >= 2")
    if list_chromatic_at_least(c4, 3)[0]:
        failures.append("chi_ell(C4) <= 2")
    k4 = generate(FamilySpec.complete(4))
    holds, witness = list_chromatic_at_least(k4, 4)
    if not (holds and _witness_refuted(k4, witness)):
        failures.append("chi_ell(K4) >= 4")
    if list_chromatic_at_least(k4, 5)[0]:
        failures.append("chi_ell(K4) <= 4")
    g24, lists24 = _k24()
    if list_colour(g24, lists24) is not None or brute_list_colour(g24, lists24) is not None:
        failures.append("K_{2,4} witness lists admit no colouring")
    holds, witness = list_chromatic_at_least(g24, 3)
    if not (holds and _witness_refuted(g24, witness)):
        failures.append("chi_ell(K_{2,4}) >= 3")
    return {"checked": 6, "failures": failures}


def run_oracles() -> tuple[dict, dict[str, float]]:
    sections, timings = _run_sections((
        ("extend_vs_bruteforce_exhaustive", _solver_equivalence_exhaustive),
        ("extend_vs_bruteforce_random", _solver_equivalence_random),
        ("colourability_all_graphs_n6", _colourability_ground_truth),
        ("min_cut_ground_truth", _min_cut_ground_truth),
        ("choosability_ground_truth", _choosability_ground_truth),
    ))
    ok = all(not s.get("mismatches") and not s.get("failures") for s in sections.values())
    report = {"suite": "oracles", "sections": sections, "ok": ok}
    return report, timings


# ---------------------------------------------------------------------------
# Property suite (proof inequalities and negative paths)
# ---------------------------------------------------------------------------

def _prop_degree_additivity(trials: int) -> dict:
    rng = random.Random(20260810)
    violations = 0
    for _ in range(trials):
        k = rng.randint(1, 4)
        n = rng.randint(1, 10)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        palette = Palette.plain(7 * k)
        t = _random_template(g, palette, rng, s_limit=4, f_limit=3)
        xs = frozenset(v for v in g.vertices if rng.random() < 0.5)
        ys = g.vertices - xs
        if degree(restrict(t, xs), k) + degree(restrict(t, ys), k) != degree(t, k):
            violations += 1
    return {"trials": trials, "violations": violations}


def _prop_strengthen(trials: int) -> dict:
    rng = random.Random(20260811)
    violations = 0
    for i in range(trials):
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
        if any(len(fs) > k - 1 for fs in out.forbidden.values()):
            violations += 1
        if degree(out, k) > before:
            violations += 1
        if extend(g, out, palette).outcome != "unsat":
            violations += 1
    return {"trials": trials, "violations": violations}


def _prop_separation(trials: int) -> dict:
    rng = random.Random(20260812)
    violations = 0
    for _ in range(trials):
        k = rng.randint(2, 4)
        g, t, palette, x, y, z = _random_separated_instance(rng, k)
        t_sep = derive_separation_template(g, t, x, y, z, k)
        if degree(t_sep, k) > degree(t, k):
            violations += 1
        for v, fs in t_sep.forbidden.items():
            bound = 2 * k - 1 if v in x else k - 1
            if len(fs) > bound:
                violations += 1
    return {"trials": trials, "violations": violations}


def _prop_completion_and_glue(trials: int) -> dict:
    rng = random.Random(20260813)
    violations = 0
    performed = 0
    glued = 0
    for _ in range(trials):
        k = rng.randint(2, 4)
        g, t, palette, x, y, z = _random_separated_instance(rng, k)
        t_sep = derive_separation_template(g, t, x, y, z, k)
        sub_y = induced_subgraph(g, x | y)
        res_y = extend(sub_y, t_sep, palette)
        if res_y.outcome != "sat":
            continue  # palette 7k on these sparse sides: not expected
        t_comp = derive_completion_template(g, t, x, z, res_y.colouring, k)
        performed += 1
        if degree(t_comp, k) > 2 * k * k:
            violations += 1
        if any(len(fs) > k - 1 for fs in t_comp.forbidden.values()):
            violations += 1
        sub_z = induced_subgraph(g, x | z)
        res_z = extend(sub_z, t_comp, palette)
        if res_z.outcome != "sat":
            continue
        merged = glue(res_y.colouring, res_z.colouring)
        glued += 1
        if not respects(g, t, merged, palette):
            violations += 1
    return {"trials": trials, "performed": performed, "glued": glued, "violations": violations}


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


def _prop_intervals(trials: int) -> dict:
    rng = random.Random(20260814)
    violations = 0
    for _ in range(trials):
        k = rng.randint(2, 5)
        g, t, palette, indep = _interval_instance(rng, k)
        parts = interval_partition(g, t, k, indep)
        if len(parts.intervals) > 3 * k:
            violations += 1
        homes = [frozenset(js) for js in indep]
        for interval in parts.intervals:
            if sum(len(t.forbidden[v]) for v in interval) > 2 * k:
                violations += 1
            if not any(set(interval) <= home for home in homes):
                violations += 1
            for u, v in combinations(interval, 2):
                if g.has_edge(u, v):
                    violations += 1
        col = colour_from_intervals(g, t, parts, palette)
        if not respects(g, t, col, palette):
            violations += 1
    return {"trials": trials, "violations": violations}


def _prop_rainbow(trials: int) -> dict:
    rng = random.Random(20260815)
    violations = 0
    for _ in range(trials):
        k = rng.randint(2, 5)
        n = rng.randint(1, k)
        g = random_graph(n, rng.uniform(0.2, 0.9), rng)
        palette = Palette.plain(7 * k)
        t = _random_template(g, palette, rng, s_limit=n, f_limit=k - 1)
        col = rainbow_small_case(g, t, k, palette)
        if not respects(g, t, col, palette):
            violations += 1
        outside = [col[v] for v in sorted(t.forbidden)]
        if len(set(outside)) != len(outside):
            violations += 1
    return {"trials": trials, "violations": violations}


def _mutated_witnesses(count: int):
    """Deliberately invalid witness pairs plus the stage to run them
    through; each must end in InternalContradiction."""
    rng = random.Random(20260816)
    plan = (["descend"] * 40 + ["finalize_plain"] * 30 + ["rainbow"] * 20 + ["finalize_list"] * 10)[:count]
    for kind in plan:
        if kind == "descend":
            k = rng.choice((1, 2, 3))
            nx = k - 1
            ny, nz = rng.randint(2, 4), rng.randint(2, 4)
            x = list(range(nx))
            y = list(range(nx, nx + ny))
            z = list(range(nx + ny, nx + ny + nz))
            edges = []
            for side in (y, z):
                for i in range(len(side) - 1):
                    edges.append((side[i], side[i + 1]))
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
            yield kind, g, Template.empty(g), cfg, "descend"
        elif kind == "finalize_plain":
            k = rng.choice((3, 4))
            a, b = rng.randint(k, k + 2), rng.randint(k, k + 2)
            g = Graph.build(a + b, [(i, a + j) for i in range(a) for j in range(b)])
            palette = Palette.plain(7 * k)
            t = _random_template(g, palette, rng, s_limit=2, f_limit=k - 1, degree_cap=2 * k * k, k=k)
            cfg = ExtractConfig(k=k)
            yield kind, g, t, cfg, "finalize"
        elif kind == "rainbow":
            k = rng.choice((3, 4, 5))
            n = rng.randint(1, k)
            g = random_graph(n, rng.uniform(0.2, 0.9), rng)
            palette = Palette.plain(7 * k)
            t = _random_template(g, palette, rng, s_limit=n, f_limit=k - 1)
            cfg = ExtractConfig(k=k)
            yield kind, g, t, cfg, "descend"
        else:  # finalize_list
            k = 2
            n = rng.randint(3, 4)
            g = generate(FamilySpec.complete(n))
            lists = {v: frozenset(range(9)) for v in g.vertices}
            cfg = ExtractConfig(k=k, mode="list", lists=lists)
            yield kind, g, Template.empty(g), cfg, "finalize"


def _prop_mutations(count: int) -> dict:
    fired = 0
    respecting = 0
    for kind, g, t, cfg, stage in _mutated_witnesses(count):
        wp = WitnessPair(g, t)
        palette = cfg.palette_for(g)
        try:
            if stage == "descend":
                descend(wp, cfg)
            else:
                finalize_chromatic(wp, cfg)
        except InternalContradiction as exc:
            fired += 1
            if respects(g, t, exc.colouring, palette):
                respecting += 1
    return {"count": count, "contradictions": fired, "respecting_colourings": respecting}


def run_properties(trials: int = 1000, mutations: int = 100) -> tuple[dict, dict[str, float]]:
    sections, timings = _run_sections((
        ("degree_additivity", partial(_prop_degree_additivity, trials)),
        ("strengthen_witness", partial(_prop_strengthen, trials)),
        ("derive_separation", partial(_prop_separation, trials)),
        ("derive_completion_glue", partial(_prop_completion_and_glue, trials)),
        ("interval_partition", partial(_prop_intervals, trials)),
        ("rainbow_small_case", partial(_prop_rainbow, trials)),
        ("mutated_witnesses", partial(_prop_mutations, mutations)),
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
