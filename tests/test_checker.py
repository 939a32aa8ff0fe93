"""The certificate format and the checker: pinned certificate bytes, strict
parsing, list-mode claims the checker re-checks, and module boundaries read
off the source (the checker's trust base, an acyclic import graph with no
import inside a function, and a single exact colouring search: solver.py's
colouring entry points call extend, and coloring.py searches only for
choosability witnesses)."""

import ast
import hashlib
import json
import sys
from dataclasses import asdict, replace
from itertools import combinations
from pathlib import Path

import pytest

from chromcert import checker, coloring, extractor, solver, templates
from chromcert.checker import CERTIFICATE_FORMAT, Certificate, connectivity_evidence, verify_certificate
from chromcert.cli import EXIT_OK, EXIT_PARSE_ERROR, EXIT_REJECTED, EXIT_RESOURCE_LIMIT, main
from chromcert.extractor import ExtractConfig, extract
from chromcert.families import FamilySpec, generate
from chromcert.graphs import Graph, write_dimacs
from chromcert.suites import theorem1_instances, theorem2_instances

# The chromcert modules checker.py may import, and the only names it may
# take from solver.
CHECKER_IMPORTS = {"graphs", "connectivity", "solver", "errors"}
SOLVER_NAMES = {"PLAIN", "LIST", "is_colourable", "list_colour"}

PACKAGE = Path(checker.__file__).parent

# coloring.py's only loops that search: the choosability witness search.
WITNESS_SEARCH = {"list_chromatic_at_least", "_colourings", "_refuted_last_pair", "_first_refuted_assignment"}


def _tree(module):
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _chromcert_imports(tree):
    """(module, names) for every chromcert import, relative or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "chromcert":
                    yield alias.name.partition(".")[2], set()
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield node.module or "", {a.name for a in node.names}
            elif (node.module or "").split(".")[0] == "chromcert":
                yield node.module.partition(".")[2], {a.name for a in node.names}


def test_checker_imports_only_its_trust_base():
    imports = list(_chromcert_imports(_tree(checker)))
    assert imports
    for module, names in imports:
        assert module in CHECKER_IMPORTS, module
        if module == "solver":
            assert names <= SOLVER_NAMES, names
    # extractor takes the checker back instead of keeping its own.
    assert extractor.verify_certificate is checker.verify_certificate
    assert extractor.Certificate is checker.Certificate
    assert extractor.connectivity_evidence is checker.connectivity_evidence


def _import_graph():
    """Module name -> the chromcert modules it imports (the package itself
    is "__init__")."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {module or "__init__" for module, _ in _chromcert_imports(tree)}
    return graph


def test_no_chromcert_import_inside_a_function():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not list(_chromcert_imports(node)), (path.name, node.name)


def test_import_graph_is_acyclic():
    graph = _import_graph()
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, " -> ".join(path + [module])
        if module not in done:
            for dep in sorted(graph[module]):
                visit(dep, path + [module])
            done.add(module)

    for module in sorted(graph):
        visit(module, [])


def test_checker_import_closure_is_its_trust_base():
    graph = _import_graph()
    closure, todo = set(), ["checker"]
    while todo:
        for dep in graph[todo.pop()] - closure:
            closure.add(dep)
            todo.append(dep)
    assert closure == {"graphs", "connectivity", "solver", "errors"}


def _functions(module):
    return {f.name: f for f in _tree(module).body if isinstance(f, ast.FunctionDef)}


def test_coloring_has_no_search_besides_the_witness_search():
    funcs = _functions(solver)
    for name in ("is_colourable", "list_colour"):
        nodes = list(ast.walk(funcs[name]))
        assert not any(isinstance(n, (ast.For, ast.While)) for n in nodes), name
        assert any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "extend" for n in nodes), name
    funcs = _functions(coloring)
    assert not {"is_colourable", "list_colour"} & funcs.keys()
    searching = {name for name, f in funcs.items() if any(isinstance(n, ast.While) for n in ast.walk(f))}
    assert searching <= WITNESS_SEARCH


def test_the_separation_rule_is_written_once():
    for module in (checker, templates):
        called = {n.func.id for n in ast.walk(_tree(module)) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert "separation_fault" in called, module.__name__
    assert not hasattr(templates, "_check_partition")


def test_package_imports_only_the_standard_library():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


# -- certificate bytes -----------------------------------------------------------

def k5_cycle7():
    """K5 sharing vertex 4 with a 7-cycle: at palette 4 and k=2 the descent
    recurses through the completion template into the clique."""
    edges = list(combinations(range(5), 2))
    ring = [4] + list(range(5, 11))
    edges += [(ring[i], ring[(i + 1) % 7]) for i in range(7)]
    return Graph.build(11, edges)


# sha256 of to_json, recorded before the format was derived from the
# dataclasses; one instance per trace branch and per chromatic evidence kind.
PINNED = [
    (lambda: generate(FamilySpec.glued_cliques((15, 15), 1)), ExtractConfig(k=2),
     "separation", "colouring_unsat",
     "8b820c665fb90f6143a0ead9e5a9c3ef52db4e7edee16165b7f4cde82a78d48a"),
    (k5_cycle7, ExtractConfig(k=2, palette_size=4),
     "completion", "colouring_unsat",
     "509174d745ea9faa7a992201a1476174aafe6677b8d0ec70d130b183bc7affae"),
    (lambda: generate(FamilySpec.glued_cliques((16, 16), 1)), ExtractConfig(k=2, mode="list"),
     "separation", "choosability_witness",
     "c6ebeef6fe3ac5aa76b263c917df1b266a52135d146c518f6c62e3ce5deaa016"),
    (lambda: generate(FamilySpec.glued_cliques((13, 13), 2)), ExtractConfig(k=3, mode="list"),
     "separation", "theorem_guarantee",
     "7684c5b902f0a043809b74fa5350043cd865c1e2569aebdb669e3f6d42abbbf9"),
]


def test_to_json_matches_the_asdict_serialisation():
    # The suite certificates and the pinned ones, against the serialisation
    # that deep-copied the certificate with dataclasses.asdict first.
    cases = [(generate(spec), cfg) for _, spec, cfg in theorem1_instances() + theorem2_instances()]
    cases += [(make(), cfg) for make, cfg, *_ in PINNED]
    for g, cfg in cases:
        cert = extract(g, cfg)
        assert cert.to_json() == json.dumps({"format": CERTIFICATE_FORMAT, **asdict(cert)}, indent=2) + "\n"


@pytest.mark.parametrize("make, cfg, recursed, kind, digest", PINNED)
def test_certificate_bytes_pinned(make, cfg, recursed, kind, digest):
    g = make()
    cert = extract(g, cfg)
    assert [s.recursed for s in cert.trace] == [recursed]
    assert cert.chromatic_evidence["kind"] == kind
    text = cert.to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    again = Certificate.from_json(text)
    assert again == cert and verify_certificate(g, again)


def test_list_values_of_any_collection_type_give_one_certificate():
    # ExtractConfig freezes the caller's lists into one palette, whatever
    # collection holds each vertex's colours.
    for g in (k5_cycle7(), generate(FamilySpec.glued_cliques((9, 9, 9), 1))):
        texts = {extract(g, ExtractConfig(k=2, mode="list", lists=dict.fromkeys(g.vertices, colours))).to_json()
                 for colours in (frozenset(range(4)), set(range(4)), list(range(4)), tuple(range(4)), range(4))}
        assert len(texts) == 1


def test_from_json_rejects_unknown_and_missing_fields():
    g = generate(FamilySpec.glued_cliques((15, 15), 1))
    doc = json.loads(extract(g, ExtractConfig(k=2)).to_json())
    with pytest.raises(TypeError):
        Certificate.from_json(json.dumps({**doc, "note": "extra"}))
    with pytest.raises(TypeError):
        Certificate.from_json(json.dumps({f: v for f, v in doc.items() if f != "solver_backtracks"}))
    step = doc["trace"][0]
    with pytest.raises(TypeError):
        Certificate.from_json(json.dumps({**doc, "trace": [{**step, "note": "extra"}]}))
    with pytest.raises(TypeError):
        Certificate.from_json(json.dumps({**doc, "trace": [{f: v for f, v in step.items() if f != "cut"}]}))


def test_a_step_whose_sides_touch_is_rejected():
    # The edge (1, 15) joins the recorded sides, so the step is no longer a
    # separation, while every other claim of the certificate still holds.
    g = generate(FamilySpec.glued_cliques((15, 15), 1))
    cert = extract(g, ExtractConfig(k=2))
    assert cert.trace[0].side_y[0] == 1 and cert.trace[0].side_z[0] == 15
    touching = Graph.build(g.n, g.edges | {(1, 15)})
    assert not verify_certificate(touching, replace(cert, graph_hash=touching.digest))


def test_degree_claims_chain_and_a_completion_stays_within_2k_squared():
    # A step's template degree is at most the degree the step before it
    # derived (2k^2 before the first step), and a completion derives at most
    # 2k^2.  Each mutant breaks one of these claims and nothing else.
    g = generate(FamilySpec.glued_cliques((6, 6, 6), 1))
    cert = extract(g, ExtractConfig(k=2, palette_size=5))
    first, second = cert.trace
    assert second.template_degree == first.derived_degree == 0 and first.template_degree <= 8
    for trace in [(first, replace(second, template_degree=1)), (replace(first, template_degree=9), second)]:
        assert not verify_certificate(g, replace(cert, trace=trace))
    h = k5_cycle7()
    cert = extract(h, ExtractConfig(k=2, palette_size=4))
    (step,) = cert.trace
    assert step.recursed == "completion" and step.derived_degree <= 8
    assert not verify_certificate(h, replace(cert, trace=(replace(step, derived_degree=9),)))


def test_a_certificate_for_the_empty_graph_is_rejected():
    # No graph on at most k vertices is k-connected, the empty one included.
    g = Graph.build(0, [])
    evidence = connectivity_evidence(g)
    assert evidence == {"kind": "complete", "order": 0}
    for mode, size, chrom in [("plain", 7, {"kind": "colouring_unsat", "colours": 0}),
                              ("list", None, {"kind": "choosability_witness", "t": 1, "lists": {}})]:
        cert = Certificate(graph_hash=g.digest, k=1, mode=mode, palette_size=size, trace=(), final_vertices=(),
                           connectivity_evidence=evidence, chromatic_evidence=chrom,
                           solver_decisions=0, solver_backtracks=0)
        assert not verify_certificate(g, cert)


def _unsorted_mutants(cert: Certificate) -> list[Certificate]:
    """cert with a vertex list of its first step or its final set repeated
    or reordered: each still names the same set."""
    step, fv = cert.trace[0], cert.final_vertices

    def at_step(**fields):
        return replace(cert, trace=(replace(step, **fields),) + cert.trace[1:])

    return [replace(cert, final_vertices=fv + fv[:1]), replace(cert, final_vertices=fv[::-1]),
            at_step(cut=step.cut * 2), at_step(side_y=step.side_y + step.side_y[:1]),
            at_step(side_z=step.side_z[::-1])]


def k33_bad_lists():
    """K3,3 with the lists {0,1}, {0,2}, {1,2} on each side: not colourable
    from them, so at k = 3 extract writes these lists as its witness."""
    g = Graph.build(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    return g, {v: frozenset(({0, 1}, {0, 2}, {1, 2})[v % 3]) for v in g.vertices}


def _witness_mutants(cert: Certificate) -> list[Certificate]:
    """cert with vertex 0's witness list reversed, or with a repeat."""
    witness = cert.chromatic_evidence
    lists = witness["lists"]
    return [replace(cert, chromatic_evidence={**witness, "lists": {**lists, "0": cs}})
            for cs in (lists["0"][::-1], lists["0"] + lists["0"][:1])]


def test_vertex_and_witness_lists_must_be_strictly_increasing():
    # One encoding per claim: extract writes every vertex list and witness
    # list strictly increasing, and a repeat or a reordering names the same
    # set in a second form.  Rejected in-process and after a JSON round trip.
    g = generate(FamilySpec.glued_cliques((6, 6, 6), 1))
    cert = extract(g, ExtractConfig(k=2, palette_size=5))
    assert len(cert.trace) == 2 and verify_certificate(g, cert)
    k33, lists = k33_bad_lists()
    witnessed = extract(k33, ExtractConfig(k=3, mode="list", lists=lists))
    assert witnessed.chromatic_evidence["lists"]["0"] == [0, 1] and verify_certificate(k33, witnessed)
    cases = [(g, m) for m in _unsorted_mutants(cert)] + [(k33, m) for m in _witness_mutants(witnessed)]
    for graph, mutant in cases:
        assert not verify_certificate(graph, mutant), mutant
        assert not verify_certificate(graph, Certificate.from_json(mutant.to_json())), mutant


# -- list-mode claims --------------------------------------------------------------

def k44():
    return Graph.build(8, [(i, 4 + j) for i in range(4) for j in range(4)])


def forged_k44_certificate() -> Certificate:
    """Claims chi_ell(K4,4) >= 4 through the list-mode guarantee; in truth
    chi_ell(K4,4) = 3.  Everything else in it is true."""
    g = k44()
    return Certificate(
        graph_hash=g.digest,
        k=4,
        mode="list",
        palette_size=None,
        trace=(),
        final_vertices=tuple(range(8)),
        connectivity_evidence=connectivity_evidence(g),
        chromatic_evidence={"kind": "theorem_guarantee", "t": 4},
        solver_decisions=0,
        solver_backtracks=0,
    )


def test_unchecked_list_guarantee_is_rejected():
    cert = forged_k44_certificate()
    assert cert.connectivity_evidence == {"kind": "cut", "size": 4, "cut": [0, 1, 2, 3]}
    assert not verify_certificate(k44(), cert)


def test_list_guarantee_needs_t_equal_to_k():
    g = generate(FamilySpec.glued_cliques((13, 13), 2))
    doc = json.loads(extract(g, ExtractConfig(k=3, mode="list")).to_json())
    assert verify_certificate(g, Certificate.from_json(json.dumps(doc)))
    doc["chromatic_evidence"]["t"] = 4
    assert not verify_certificate(g, Certificate.from_json(json.dumps(doc)))


def bipartite_bad_lists():
    """K5,5 with the bad 2-lists of K3,3 on three vertices of each side: not
    colourable from its lists, 2-colourable, and past CHOOSABILITY_CAP."""
    g = Graph.build(10, [(i, 5 + j) for i in range(5) for j in range(5)])
    bad = [{1, 2}, {1, 3}, {2, 3}, {4, 5}, {4, 5}]
    return g, {v: frozenset(bad[v % 5]) for v in g.vertices}



# -- the CLI on these certificates --------------------------------------------------

def cli(*argv):
    return main(list(argv))


def test_verify_unknown_or_missing_field_is_a_parse_error(tmp_path):
    graph = tmp_path / "glued.col"
    cert = tmp_path / "cert.json"
    cli("gen", "glued", "15", "15", "--out", str(graph))
    assert cli("extract", str(graph), "--k", "2", "--out", str(cert)) == EXIT_OK
    good = json.loads(cert.read_text())
    missing = {f: v for f, v in good.items() if f != "final_vertices"}
    for doc in ({**good, "note": "extra"}, missing):
        cert.write_text(json.dumps(doc))
        assert cli("verify", str(graph), str(cert)) == EXIT_PARSE_ERROR


def test_verify_rejects_forged_list_guarantee(tmp_path):
    graph = tmp_path / "k44.col"
    cert = tmp_path / "cert.json"
    write_dimacs(k44(), str(graph))
    cert.write_text(forged_k44_certificate().to_json())
    assert cli("verify", str(graph), str(cert)) == EXIT_REJECTED


def test_verify_rejects_a_repeated_final_vertex(tmp_path):
    g = generate(FamilySpec.glued_cliques((6, 6, 6), 1))
    graph, cert = tmp_path / "glued.col", tmp_path / "cert.json"
    write_dimacs(g, str(graph))
    good = extract(g, ExtractConfig(k=2, palette_size=5))
    cert.write_text(good.to_json())
    assert cli("verify", str(graph), str(cert)) == EXIT_OK
    cert.write_text(_unsorted_mutants(good)[0].to_json())
    assert cli("verify", str(graph), str(cert)) == EXIT_REJECTED


def test_extract_without_checkable_list_evidence_exits_4(tmp_path, capsys):
    g, lists = bipartite_bad_lists()
    assert g.n > coloring.CHOOSABILITY_CAP
    graph = tmp_path / "k55.col"
    lists_file = tmp_path / "k55.lists"
    write_dimacs(g, str(graph))
    lists_file.write_text("".join(f"list {v} {' '.join(map(str, sorted(cs)))}\n"
                                  for v, cs in sorted(lists.items())))
    capsys.readouterr()
    assert cli("extract", str(graph), "--k", "3", "--mode", "list",
               "--lists", str(lists_file), "--out", str(tmp_path / "c.json")) == EXIT_RESOURCE_LIMIT
    assert "CHOOSABILITY_CAP" in capsys.readouterr().err
