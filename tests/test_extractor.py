import hashlib
import json

import pytest

from chromcert import extractor, templates
from chromcert.cli import EXIT_NOT_INEXTENSIBLE, main
from chromcert.connectivity import connectivity
from chromcert.errors import (
    InternalContradiction,
    NotInextensibleError,
    ResourceLimitError,
)
from chromcert.extractor import (
    Certificate,
    ExtractConfig,
    check_precondition,
    descend,
    extract,
    finalize_chromatic,
    verify_certificate,
)
from chromcert.families import FamilySpec, generate
from chromcert.graphs import Graph, induced_subgraph, is_connected, write_dimacs
from chromcert.oracles import brute_is_k_connected
from chromcert.solver import Palette, SolverBudget, SolverStats, Template, extend, is_colourable, respects


def glued15():
    return generate(FamilySpec.glued_cliques((15, 15), 1))


def gadget_graph():
    """K_14 on 0..13, an apex 14 adjacent to 1..13 (so its colour is forced
    to match vertex 0 under a full palette), and a triangle {1,15,16}
    hanging off vertex 1."""
    edges = [(u, v) for u in range(14) for v in range(u + 1, 14)]
    edges += [(i, 14) for i in range(1, 14)]
    edges += [(1, 15), (1, 16), (15, 16)]
    return Graph.build(17, edges)


def gadget_witness():
    g = gadget_graph()
    forb = {v: frozenset() for v in g.vertices if v != 14}
    forb[0] = frozenset({5})
    return g, Template({14: 5}, forb)


# -- check_precondition -------------------------------------------------------

def test_precondition_k8():
    # The proof's work is what extract adds to the steps' counts.
    g = generate(FamilySpec.complete(8))
    stats = check_precondition(g, ExtractConfig(k=1))
    assert stats.decisions > 0
    cert = extract(g, ExtractConfig(k=1))
    assert (cert.solver_decisions, cert.solver_backtracks) == (stats.decisions, stats.backtracks)


def test_precondition_rejects_colourable_graph():
    g = generate(FamilySpec.cycle(5))
    with pytest.raises(NotInextensibleError) as exc:
        check_precondition(g, ExtractConfig(k=1))
    col = exc.value.colouring
    assert set(col) == set(g.vertices)
    assert all(col[u] != col[v] for u, v in g.edges)


def test_precondition_glued_k15s():
    assert check_precondition(glued15(), ExtractConfig(k=2)).decisions > 0


def test_precondition_trust_skips_solver():
    g = generate(FamilySpec.cycle(5))  # would fail under verify
    assert check_precondition(g, ExtractConfig(k=1, palette_size=4, trust_precondition=True)) == SolverStats()


@pytest.mark.parametrize("mode", ["plain", "list"])
@pytest.mark.parametrize("trusted", [False, True])
def test_precondition_counts_an_oversized_palette_first(mode, trusted):
    # 7k (or 4k) colours for 3 vertices: a colouring by index, found without
    # building the palette of 7 * 10**20 colours.
    g = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    cfg = ExtractConfig(k=10**20, mode=mode, trust_precondition=trusted)
    with pytest.raises(NotInextensibleError) as exc:
        check_precondition(g, cfg)
    col = exc.value.colouring
    assert col == {0: 0, 1: 1, 2: 2}
    assert all(col[u] != col[v] for u, v in g.edges) and max(col.values()) < cfg.colour_count()


def test_precondition_budget_surfaces_limit():
    cfg = ExtractConfig(k=2, budget=SolverBudget(max_decisions=2))
    with pytest.raises(ResourceLimitError):
        check_precondition(glued15(), cfg)


# -- descend -------------------------------------------------------------------

def test_descend_side_solve_budget_surfaces_limit():
    # No heavy list, so strengthening runs no solve: the first solve is the
    # separation side's, and it needs more than one decision.
    cfg = ExtractConfig(k=2, budget=SolverBudget(max_decisions=1), trust_precondition=True)
    g = glued15()
    with pytest.raises(ResourceLimitError, match="after 2 decisions"):
        descend(g, Template.empty(g), cfg)


def test_descend_zero_steps_on_complete_graph():
    cfg = ExtractConfig(k=2)
    g = generate(FamilySpec.complete(15))
    check_precondition(g, cfg)
    trace, h, t = descend(g, Template.empty(g), cfg)
    assert trace == []
    assert h.n == 15


def test_descend_glued_k15s_one_step(is_valid_witness):
    cfg = ExtractConfig(k=2)
    g = glued15()
    check_precondition(g, cfg)
    trace, h, t = descend(g, Template.empty(g), cfg)
    assert is_valid_witness(h, t, 2, cfg.palette_for(h))
    assert len(trace) == 1
    step = trace[0]
    assert step.cut == (0,)
    assert step.recursed == "separation"
    assert step.z_degree <= 4 and step.derived_degree <= step.template_degree
    assert h.vertices == frozenset(range(15))


def test_descend_join_is_immediately_connected():
    g = generate(FamilySpec.join(FamilySpec.cycle(5), FamilySpec.complete(5)))
    cfg = ExtractConfig(k=1)
    check_precondition(g, cfg)
    trace, h, _ = descend(g, Template.empty(g), cfg)
    assert trace == []
    assert h == g
    assert brute_is_k_connected(h, 1)


def test_descend_nonempty_template_witness(is_valid_witness):
    g, t = gadget_witness()
    cfg = ExtractConfig(k=2, trust_precondition=True)
    assert is_valid_witness(g, t, 2, cfg.palette_for(g))
    trace, h, t = descend(g, t, cfg)
    assert len(trace) == 1
    assert trace[0].cut == (1,)
    assert h.vertices == frozenset(range(15))
    conn, chrom = finalize_chromatic(h, t, cfg)
    assert chrom == {"kind": "colouring_unsat", "colours": 1}


def test_descend_completion_branch(is_valid_witness):
    # K_5 and K_15 sharing vertex 0.  The template loads the K_5 side with
    # degree 5 > k^2, so the big clique must play Z; the K_5 side then
    # extends and the completion template on the K_15 side is the
    # unsatisfiable one.
    g = generate(FamilySpec.glued_cliques((5, 15), 1))
    forb = {v: frozenset() for v in g.vertices if v not in (1, 2)}
    forb[3] = frozenset({0})
    t = Template({1: 0, 2: 1}, forb)
    cfg = ExtractConfig(k=2, trust_precondition=True)
    assert is_valid_witness(g, t, 2, cfg.palette_for(g))
    trace, h, t = descend(g, t, cfg)
    assert len(trace) == 1
    assert trace[0].recursed == "completion"
    assert trace[0].derived_degree <= 8
    assert h.vertices == frozenset({0}) | frozenset(range(5, 19))
    # a hand-assembled certificate over this trace must replay cleanly
    conn, chrom = finalize_chromatic(h, t, cfg)
    cert = Certificate(
        graph_hash=g.digest,
        k=2,
        mode="plain",
        palette_size=14,
        trace=tuple(trace),
        final_vertices=tuple(sorted(h.vertices)),
        connectivity_evidence=conn,
        chromatic_evidence=chrom,
        solver_decisions=0,
        solver_backtracks=0,
    )
    assert verify_certificate(g, cert)


def test_descend_multi_step_chain():
    # Three K_15s in a chain sharing distinct cut vertices: two descent
    # steps peel the chain down to a single clique.
    edges = []
    blocks = [list(range(0, 15)), list(range(14, 29)), list(range(28, 43))]
    for block in blocks:
        edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1:]]
    g = Graph.build(43, edges)
    cfg = ExtractConfig(k=2)
    check_precondition(g, cfg)
    trace, h, t = descend(g, Template.empty(g), cfg)
    assert len(trace) == 2
    assert h.is_complete() and h.n == 15
    conn, chrom = finalize_chromatic(h, t, cfg)
    assert chrom == {"kind": "colouring_unsat", "colours": 1}


def test_descend_contradiction_on_corrupted_witness():
    # Drop the one forbidden colour that made the gadget witness tight: both
    # derived templates become satisfiable and the glue branch must fire.
    g, t = gadget_witness()
    broken = Template(dict(t.precolour), {**t.forbidden, 0: frozenset()})
    cfg = ExtractConfig(k=2, trust_precondition=True)
    with pytest.raises(InternalContradiction) as exc:
        descend(g, broken, cfg)
    assert respects(g, broken, exc.value.colouring, cfg.palette_for(g))


# -- finalize ------------------------------------------------------------------

def test_finalize_k15():
    cfg = ExtractConfig(k=2)
    g = generate(FamilySpec.complete(15))
    conn, chrom = finalize_chromatic(g, Template.empty(g), cfg)
    assert conn["kind"] == "complete"
    assert chrom == {"kind": "colouring_unsat", "colours": 1}


def test_finalize_k1_trivial_evidence():
    g = generate(FamilySpec.complete(8))
    cfg = ExtractConfig(k=1)
    conn, chrom = finalize_chromatic(g, Template.empty(g), cfg)
    assert chrom == {"kind": "colouring_unsat", "colours": 0}
    assert is_colourable(g, 0) is None


def test_finalize_contradiction_on_bipartite_fake_witness():
    # K_{3,3} is 3-connected and 2-colourable: the interval construction
    # must complete any claimed witness for k = 3.
    g = Graph.build(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    cfg = ExtractConfig(k=3, trust_precondition=True)
    with pytest.raises(InternalContradiction) as exc:
        finalize_chromatic(g, Template.empty(g), cfg)
    assert respects(g, Template.empty(g), exc.value.colouring, cfg.palette_for(g))


def test_finalize_list_completion_budget_surfaces_limit():
    g = generate(FamilySpec.complete(9))
    cfg = ExtractConfig(k=2, mode="list", budget=SolverBudget(max_decisions=1))
    with pytest.raises(ResourceLimitError, match="after 2 decisions"):
        finalize_chromatic(g, Template.empty(g), cfg)


def test_finalize_requires_connectivity():
    g = glued15()
    cfg = ExtractConfig(k=2)
    with pytest.raises(ValueError):
        finalize_chromatic(g, Template.empty(g), cfg)


# -- extract end-to-end ----------------------------------------------------------

def test_extract_k8():
    g = generate(FamilySpec.complete(8))
    cert = extract(g, ExtractConfig(k=1))
    assert cert.final_vertices == tuple(range(8))
    assert verify_certificate(g, cert)


@pytest.mark.parametrize(
    "spec, k",
    [(FamilySpec.random(30, 0.85, 1), 1), (FamilySpec.glued_cliques((30, 30), 1), 2)],
)
def test_extract_dense_and_glued_report_a_minimum_cut(spec, k):
    # random(30, 0.85) has kappa 21: a scan of the C(30, 21) vertex subsets
    # for its lexicographic cut would not finish.
    g = generate(spec)
    cert = extract(g, ExtractConfig(k=k))
    assert verify_certificate(g, cert)
    h = induced_subgraph(g, cert.final_vertices)
    evidence = cert.connectivity_evidence
    if evidence["kind"] == "complete":
        assert h.is_complete() and evidence["order"] == h.n == connectivity(h) + 1
    else:
        cut = frozenset(evidence["cut"])
        assert len(cut) == evidence["size"] == connectivity(h)
        assert not is_connected(induced_subgraph(h, h.vertices - cut))


def test_extract_glued_k15s():
    g = glued15()
    cert = extract(g, ExtractConfig(k=2))
    h = induced_subgraph(g, cert.final_vertices)
    assert h.n == 15
    assert brute_is_k_connected(h, 2)
    assert is_colourable(h, 1) is None
    assert verify_certificate(g, cert)


def test_extract_list_mode_glued_k9s():
    g = generate(FamilySpec.glued_cliques((9, 9), 1))
    cert = extract(g, ExtractConfig(k=2, mode="list"))
    assert len(cert.final_vertices) == 9
    assert cert.chromatic_evidence["kind"] == "choosability_witness"
    assert verify_certificate(g, cert)


def _bad_k33():
    """K3,3 with lists {0,1}, {0,2}, {1,2} on each side: not 2-choosable."""
    g = Graph.build(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    pairs = [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]
    return g, ExtractConfig(k=3, mode="list", lists={v: pairs[v % 3] for v in range(6)})


@pytest.mark.parametrize("case", ["k33-bad-lists", "glued-13-13", "join-c5-c5-c5"])
def test_list_extract_solves_each_witness_pair_once(monkeypatch, case):
    # The precondition proof, the side solves and strengthening's re-checks
    # prove every witness pair the descent holds, the final one included, so
    # finalize needs no extend call of its own.
    g, cfg = {
        "k33-bad-lists": _bad_k33,
        "glued-13-13": lambda: (generate(FamilySpec.glued_cliques((13, 13), 2)), ExtractConfig(k=3, mode="list")),
        "join-c5-c5-c5": lambda: (generate(FamilySpec.join(*[FamilySpec.cycle(5)] * 3)),
                                  ExtractConfig(k=2, mode="list")),
    }[case]()
    solves, in_finalize = [], [False]

    def counting_extend(h, t, palette, budget=None):
        result = extend(h, t, palette, budget)
        problem = (h.vertices, tuple(sorted(t.precolour.items())), tuple(sorted(t.forbidden.items())))
        solves.append((problem, result.outcome, in_finalize[0]))
        return result

    def watched_finalize(*args, **kwargs):
        in_finalize[0] = True
        try:
            return finalize_chromatic(*args, **kwargs)
        finally:
            in_finalize[0] = False

    monkeypatch.setattr(extractor, "extend", counting_extend)
    monkeypatch.setattr(templates, "extend", counting_extend)
    monkeypatch.setattr(extractor, "finalize_chromatic", watched_finalize)
    cert = extract(g, cfg)
    assert not any(during for _, _, during in solves)
    witnesses = [problem for problem, outcome, _ in solves if outcome == "unsat"]
    assert len(witnesses) == len(set(witnesses)) >= 1 + len(cert.trace)
    assert witnesses[-1][0] == frozenset(cert.final_vertices)
    # Only a completion step's Y side extends.
    assert len(solves) - len(witnesses) == sum(step.recursed == "completion" for step in cert.trace)


def test_trusted_list_extract_of_a_colourable_graph_still_contradicts(tmp_path):
    # K4 from 4-lists is colourable; trusted, no step proves the final pair,
    # so finalize solves it and its completion refutes the hypothesis.
    g = generate(FamilySpec.complete(4))
    lists = dict.fromkeys(range(4), frozenset(range(4)))
    with pytest.raises(InternalContradiction, match="list completion succeeded on the final pair") as exc:
        extract(g, ExtractConfig(k=2, mode="list", lists=lists, trust_precondition=True))
    assert respects(g, Template.empty(g), exc.value.colouring, Palette.from_lists(lists))
    graph, lists_file = tmp_path / "k4.col", tmp_path / "k4.lists"
    write_dimacs(g, str(graph))
    lists_file.write_text("".join(f"list {v} 0 1 2 3\n" for v in range(4)))
    argv = ["extract", str(graph), "--k", "2", "--mode", "list", "--lists", str(lists_file), "--trust-precondition"]
    assert main(argv) == EXIT_NOT_INEXTENSIBLE


def strengthening_graph():
    """K5 on 10..14; vertex 9 adjacent to 1, 2 and 10; the edge 1-2; a cycle
    through 1 and 100..159 and one through 2 and 200..229."""
    edges = [(u, v) for u in range(10, 15) for v in range(u + 1, 15)] + [(1, 2), (1, 9), (2, 9), (9, 10)]
    for cycle in ([1, *range(100, 160)], [2, *range(200, 230)]):
        edges += zip(cycle, cycle[1:] + cycle[:1])
    return Graph.build(sorted({v for e in edges for v in e}), edges)


def test_extract_whose_descent_strengthens(monkeypatch):
    # At palette 4 the cuts at 1 and 2 recurse into completion templates,
    # and the separation templates push the colours of pre-coloured Z
    # vertices onto X; the push at 9 gives it k = 2 forbidden colours, so
    # strengthening pre-colours it before the cut at 10.
    pushes, precoloured = [], []
    derive, strengthen = extractor.derive_separation_template, extractor.strengthen_witness

    def recording_derive(h, t, x, y, z, k):
        out = derive(h, t, x, y, z, k)
        pushes.append({v: sorted(fs - t.forbidden[v]) for v, fs in out.forbidden.items() if fs != t.forbidden[v]})
        return out

    def recording_strengthen(h, t, *args):
        out = strengthen(h, t, *args)
        if out is not t:
            precoloured.append({v: c for v, c in out.precolour.items() if v not in t.precolour})
        return out

    monkeypatch.setattr(extractor, "derive_separation_template", recording_derive)
    monkeypatch.setattr(extractor, "strengthen_witness", recording_strengthen)
    g = strengthening_graph()
    assert (g.n, g.m) == (98, 106)
    cert = extract(g, ExtractConfig(k=2, palette_size=4))
    assert [(step.cut, step.recursed) for step in cert.trace] == [
        ((1,), "completion"), ((2,), "completion"), ((9,), "separation"), ((10,), "separation")]
    assert [push for push in pushes if push] == [{2: [0]}, {9: [0, 1]}, {10: [2]}]
    assert precoloured == [{9: 2}]
    assert verify_certificate(g, cert)
    digest = hashlib.sha256(cert.to_json().encode()).hexdigest()
    assert digest == "a88b08987caa0114ca42224db53dcc4039c9d897e11d61dfc1de091c75e04802"


def test_extract_deterministic_bytes():
    g = glued15()
    a = extract(g, ExtractConfig(k=2)).to_json()
    b = extract(g, ExtractConfig(k=2)).to_json()
    assert a == b


# -- verify_certificate ------------------------------------------------------------

def fresh_cert():
    g = glued15()
    return g, extract(g, ExtractConfig(k=2))


def test_verify_accepts_own_output():
    g, cert = fresh_cert()
    assert verify_certificate(g, cert)


def test_verify_rejects_shrunken_subgraph():
    g, cert = fresh_cert()
    doc = json.loads(cert.to_json())
    doc["final_vertices"] = [0]
    doc["trace"] = []
    assert not verify_certificate(g, Certificate.from_json(json.dumps(doc)))


def test_verify_rejects_tampered_degree_bounds():
    g, cert = fresh_cert()
    doc = json.loads(cert.to_json())
    doc["trace"][0]["z_degree"] = 5  # > k^2
    assert not verify_certificate(g, Certificate.from_json(json.dumps(doc)))
    doc = json.loads(cert.to_json())
    doc["trace"][0]["derived_degree"] = doc["trace"][0]["template_degree"] + 1
    assert not verify_certificate(g, Certificate.from_json(json.dumps(doc)))


def test_verify_rejects_wrong_graph():
    _, cert = fresh_cert()
    assert not verify_certificate(generate(FamilySpec.complete(8)), cert)


def test_verify_rejects_fabricated_split():
    g, cert = fresh_cert()
    doc = json.loads(cert.to_json())
    step = doc["trace"][0]
    # move a vertex from z to y: the split now has cross edges
    step["side_y"] = sorted(step["side_y"] + [step["side_z"][0]])
    step["side_z"] = step["side_z"][1:]
    assert not verify_certificate(g, Certificate.from_json(json.dumps(doc)))


def test_verify_rejects_wrong_chromatic_evidence():
    g, cert = fresh_cert()
    doc = json.loads(cert.to_json())
    doc["chromatic_evidence"]["colours"] = 14  # claims UNSAT at 14 colours
    assert not verify_certificate(g, Certificate.from_json(json.dumps(doc)))


def test_certificate_json_round_trip():
    g, cert = fresh_cert()
    again = Certificate.from_json(cert.to_json())
    assert again == cert
    assert again.to_json() == cert.to_json()
    assert cert.graph_hash == g.digest


def test_certificate_rejects_unknown_format():
    with pytest.raises(ValueError):
        Certificate.from_json(json.dumps({"format": "something-else"}))


def test_extract_config_validation():
    with pytest.raises(ValueError):
        ExtractConfig(k=0)
    with pytest.raises(ValueError):
        ExtractConfig(k=1, mode="banana")
    with pytest.raises(ValueError, match="only used in list mode"):
        ExtractConfig(k=1, lists={0: frozenset({0})})
    with pytest.raises(ValueError, match="only used in plain mode"):
        ExtractConfig(k=1, mode="list", palette_size=2)
    # The checker accepts k and palette_size only as JSON integers: a bool
    # would give a certificate that extract's own self-verify rejects, and a
    # float a TypeError deep inside the palette.
    for options, field in [({"k": True}, "k"), ({"k": 2.5}, "k"),
                           ({"k": 2, "palette_size": True}, "palette_size"),
                           ({"k": 2, "palette_size": 13.5}, "palette_size")]:
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ExtractConfig(**options)


@pytest.mark.parametrize("field, value", [
    ("connectivity_evidence", []),
    ("chromatic_evidence", {"kind": "choosability_witness", "t": 2, "lists": [1, 2]}),
    # Shapes that make the checker raise inside its try (H is the clique on
    # 0..15, so the keys name its vertices): it returns False.
    ("chromatic_evidence", {"kind": "choosability_witness", "t": 2, "lists": {str(v): 1 for v in range(16)}}),
    ("chromatic_evidence", ["choosability_witness", 2]),
])
def test_verify_rejects_malformed_evidence(field, value):
    g = generate(FamilySpec.glued_cliques((16, 16), 1))
    cert = extract(g, ExtractConfig(k=2, mode="list"))
    assert cert.chromatic_evidence["kind"] == "choosability_witness"
    doc = json.loads(cert.to_json())
    doc[field] = value
    assert not verify_certificate(g, Certificate.from_json(json.dumps(doc)))
