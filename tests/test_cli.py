import errno
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from chromcert import cli, coloring
from chromcert.cli import (
    EXIT_NOT_INEXTENSIBLE,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_REJECTED,
    EXIT_RESOURCE_LIMIT,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from chromcert.graphs import read_dimacs


def run(*argv):
    return main(list(argv))


def test_gen_complete(tmp_path, capsys):
    out = tmp_path / "k8.col"
    assert run("gen", "complete", "8", "--out", str(out)) == EXIT_OK
    text = out.read_text()
    assert "p edge 8 28" in text
    g = read_dimacs(str(out))
    assert g.n == 8 and g.m == 28


def test_gen_glued(tmp_path):
    out = tmp_path / "glued.col"
    assert run("gen", "glued", "15", "15", "--shared", "1", "--out", str(out)) == EXIT_OK
    assert read_dimacs(str(out)).n == 29


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.col", tmp_path / "b.col"
    assert run("gen", "random", "20", "0.5", "--seed", "7", "--out", str(a)) == EXIT_OK
    assert run("gen", "random", "20", "0.5", "--seed", "7", "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_stdout(capsys):
    assert run("gen", "cycle", "5") == EXIT_OK
    assert "p edge 5 5" in capsys.readouterr().out


def test_gen_named_families(tmp_path):
    pet = tmp_path / "petersen.col"
    assert run("gen", "kneser", "5", "2", "--out", str(pet)) == EXIT_OK
    assert read_dimacs(str(pet)).n == 10
    gro = tmp_path / "grotzsch.col"
    assert run("gen", "mycielski", "4", "--out", str(gro)) == EXIT_OK
    assert read_dimacs(str(gro)).n == 11


def test_gen_usage_errors():
    assert run("gen", "complete") == 2          # missing parameter
    assert run("gen", "complete", "x") == 2     # non-numeric parameter
    assert run("gen", "nosuchfamily", "3") == 2
    assert run("gen", "kneser", "3", "2") == 2  # invalid for the family
    assert run("gen", "complete", "4", "9") == 2  # one parameter too many
    assert run("gen", "kneser", "5") == 2
    assert run("gen", "random", "20") == 2
    assert run("gen", "complete", "3", "--shared", "5") == 2  # option the family ignores
    assert run("gen", "complete", "3", "--seed", "9") == 2


@pytest.mark.parametrize("argv, message", [
    (["glued"], "glued_cliques needs at least one clique"),
    (["glued", "3", "3", "--shared", "-1"], "shared vertex count must be nonnegative"),
    (["join"], "join needs at least one part"),
    (["random", "-1", "0.5"], "random graph needs n >= 0"),
])
def test_gen_family_guards_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "g.col"
    assert run("gen", *argv, "--out", str(out)) == EXIT_USAGE
    assert f"gen {argv[0]}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_extract_and_verify_round_trip(tmp_path, capsys):
    graph = tmp_path / "k8.col"
    cert = tmp_path / "k8.cert.json"
    run("gen", "complete", "8", "--out", str(graph))
    assert run("extract", str(graph), "--k", "1", "--out", str(cert)) == EXIT_OK
    out = capsys.readouterr().out
    assert "subgraph: 8 of 8 vertices" in out
    assert run("verify", str(graph), str(cert)) == EXIT_OK


def test_extract_not_inextensible(tmp_path):
    graph = tmp_path / "c5.col"
    run("gen", "cycle", "5", "--out", str(graph))
    assert run("extract", str(graph), "--k", "1") == EXIT_NOT_INEXTENSIBLE


@pytest.mark.parametrize("mode", ["plain", "list"])
def test_extract_empty_graph_exits_3(tmp_path, capsys, mode):
    graph = tmp_path / "empty.col"
    graph.write_text("p edge 0 0\n")
    lists = tmp_path / "empty.lists"
    lists.write_text("")
    options = ["--mode", "list", "--lists", str(lists)] if mode == "list" else []
    out = tmp_path / "empty.cert.json"
    assert run("extract", str(graph), "--k", "1", *options, "--out", str(out)) == EXIT_NOT_INEXTENSIBLE
    assert "extract: the empty graph is trivially colourable" in capsys.readouterr().err
    assert not out.exists()


def test_extract_self_verify_failure_exits_5(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "k8.col"
    cert = tmp_path / "k8.cert.json"
    run("gen", "complete", "8", "--out", str(graph))
    monkeypatch.setattr("chromcert.extractor.verify_certificate", lambda g, cert: False)
    assert run("extract", str(graph), "--k", "1", "--out", str(cert)) == EXIT_VERIFY_FAILED
    err = capsys.readouterr().err
    assert "extract: verification failure: freshly extracted certificate failed verification" in err
    assert not cert.exists()


def test_extract_trusted_false_hypothesis(tmp_path):
    # C_4 is 3-colourable, so trusting the k=3 hypothesis at palette 3 ends
    # in a refuted witness; the contradiction maps to the hypothesis-failure
    # exit code.  (The default 21 colours would be refuted by the count.)
    graph = tmp_path / "c4.col"
    run("gen", "cycle", "4", "--out", str(graph))
    assert run("extract", str(graph), "--k", "3", "--palette-size", "3",
               "--trust-precondition") == EXIT_NOT_INEXTENSIBLE


@pytest.mark.parametrize("options", [
    ("--k", "2", "--palette-size", "1000000"),
    ("--k", "99999999999999999999"),
    ("--k", "10000000", "--mode", "list"),
])
def test_extract_oversized_palette_exits_at_once(tmp_path, options):
    # At least n colours refute the hypothesis by counting, before any
    # palette of that size is built: the child runs under a 1.5 GB
    # address-space cap and a timeout.
    graph = tmp_path / "glued.col"
    run("gen", "glued", "6", "6", "--shared", "1", "--out", str(graph))
    cap = 3 << 29

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "chromcert.cli", "extract", str(graph), *options],
                          env=env, preexec_fn=limit, capture_output=True, text=True, timeout=20)
    assert done.returncode == EXIT_NOT_INEXTENSIBLE, done.stderr
    assert "hypothesis fails" in done.stderr


def test_extract_budget_exhaustion(tmp_path):
    graph = tmp_path / "glued.col"
    run("gen", "glued", "15", "15", "--out", str(graph))
    code = run("extract", str(graph), "--k", "2", "--budget-decisions", "3")
    assert code == EXIT_RESOURCE_LIMIT


@pytest.mark.parametrize("family, params, mode", [
    ("glued", ("15", "15"), "plain"),  # runs out in the descent's side solve
    ("complete", ("9",), "list"),  # runs out in the list-mode direct completion
])
def test_extract_budget_exhaustion_past_the_precondition(tmp_path, family, params, mode):
    graph = tmp_path / "g.col"
    run("gen", family, *params, "--out", str(graph))
    code = run("extract", str(graph), "--k", "2", "--mode", mode,
               "--trust-precondition", "--budget-decisions", "1")
    assert code == EXIT_RESOURCE_LIMIT


def test_extract_budget_bounds_finalize(tmp_path):
    # kneser(7, 2) is 10-connected with chi = 5: no descent step, and
    # finalize's proof that it is not 4-colourable takes 32 decisions.
    graph = tmp_path / "kneser72.col"
    run("gen", "kneser", "7", "2", "--out", str(graph))
    code = run("extract", str(graph), "--k", "5", "--palette-size", "20", "--trust-precondition",
               "--budget-decisions", "1")
    assert code == EXIT_RESOURCE_LIMIT


def test_extract_budget_seconds_bound_the_witness_search(tmp_path, capsys, monkeypatch):
    # K3,3 with the lists {0,1} {0,2} {1,2} on each side at k = 3 in list
    # mode: finalize searches for the bad-list witness.  The search's clock
    # advances a second per reading, so it is past a 0.5 s budget at its
    # first check; the solver's own clock is untouched.
    graph, lists = tmp_path / "k33.col", tmp_path / "k33.lists"
    graph.write_text("p edge 6 9\n" + "".join(f"e {u} {v}\n" for u in (1, 2, 3) for v in (4, 5, 6)))
    lists.write_text("".join(f"list {v} {' '.join(map(str, cs))}\n"
                             for v, cs in enumerate([(0, 1), (0, 2), (1, 2)] * 2)))
    ticks = iter(range(10**6))
    monkeypatch.setattr(coloring, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
    argv = ("extract", str(graph), "--k", "3", "--mode", "list", "--lists", str(lists))
    assert run(*argv, "--out", str(tmp_path / "k33.cert.json")) == EXIT_OK  # no budget: no limit
    capsys.readouterr()
    assert run(*argv, "--budget-seconds", "0.5", "--out", str(tmp_path / "k33.cert.json")) == EXIT_RESOURCE_LIMIT
    assert "choosability witness search ran past its 0.5 s budget" in capsys.readouterr().err


def test_extract_palette_too_small_is_a_usage_error(tmp_path, capsys):
    # Groetzsch graph, chi = 4: a 3-colour palette leaves the rainbow small
    # case without a colour, which is a configuration error, not exit 5.
    graph = tmp_path / "groetzsch.col"
    run("gen", "mycielski", "4", "--out", str(graph))
    assert run("extract", str(graph), "--k", "4", "--palette-size", "3") == EXIT_USAGE
    assert "no rainbow colour left for vertex 6: palette size 3 is too small for k = 4" in capsys.readouterr().err


def test_extract_list_mode_with_lists_file(tmp_path):
    graph = tmp_path / "k9.col"
    lists = tmp_path / "lists.txt"
    cert = tmp_path / "k9.cert.json"
    run("gen", "complete", "9", "--out", str(graph))
    lists.write_text("".join(f"list {v} 0 1 2 3 4 5 6 7\n" for v in range(9)))
    assert run("extract", str(graph), "--k", "2", "--mode", "list",
               "--lists", str(lists), "--out", str(cert)) == EXIT_OK
    assert run("verify", str(graph), str(cert)) == EXIT_OK


def test_extract_palette_size_override(tmp_path):
    # K_5 with a 4-colour palette behaves like a unit-scale theorem run.
    graph = tmp_path / "k5.col"
    cert = tmp_path / "k5.cert.json"
    run("gen", "complete", "5", "--out", str(graph))
    assert run("extract", str(graph), "--k", "1",
               "--palette-size", "4", "--out", str(cert)) == EXIT_OK
    assert run("verify", str(graph), str(cert)) == EXIT_OK
    # with the default 7-colour palette the same graph is colourable
    assert run("extract", str(graph), "--k", "1") == EXIT_NOT_INEXTENSIBLE


def test_extract_unreadable_graph(tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge\n")
    assert run("extract", str(bad), "--k", "1") == EXIT_PARSE_ERROR
    assert run("extract", str(tmp_path / "missing.col"), "--k", "1") == EXIT_PARSE_ERROR


def test_extract_lists_not_covering_graph(tmp_path):
    graph = tmp_path / "k5.col"
    lists = tmp_path / "short.txt"
    run("gen", "complete", "5", "--out", str(graph))
    lists.write_text("list 0 0 1 2 3\n")  # four vertices missing
    assert run("extract", str(graph), "--k", "1", "--mode", "list",
               "--lists", str(lists)) == 2


def test_extract_lists_naming_a_stray_vertex(tmp_path, capsys):
    graph = tmp_path / "k5.col"
    lists = tmp_path / "stray.txt"
    run("gen", "complete", "5", "--out", str(graph))
    lists.write_text("".join(f"list {v} 0 1 2 3\n" for v in (0, 1, 2, 3, 4, 99)))
    assert run("extract", str(graph), "--k", "1", "--mode", "list",
               "--lists", str(lists)) == EXIT_USAGE
    assert "stray [99], missing []" in capsys.readouterr().err


def test_extract_lists_giving_a_vertex_no_colour(tmp_path, capsys):
    # A lists file parses with an empty list; extract refuses it before any
    # work, naming the first such vertex, and writes no certificate.
    graph = tmp_path / "glued9.col"
    lists = tmp_path / "empty.txt"
    cert = tmp_path / "cert.json"
    run("gen", "glued", "9", "9", "--out", str(graph))
    lists.write_text("".join(f"list {v} 0 1 2 3 4 5 6 7\n" if v not in (1, 5) else f"list {v}\n" for v in range(17)))
    capsys.readouterr()
    assert run("extract", str(graph), "--k", "2", "--mode", "list",
               "--lists", str(lists), "--out", str(cert)) == EXIT_USAGE
    assert "extract: invalid configuration: vertex 1 has an empty list" in capsys.readouterr().err
    assert not cert.exists()


def test_extract_option_unused_by_the_mode(tmp_path):
    graph = tmp_path / "k5.col"
    lists = tmp_path / "lists.txt"
    run("gen", "complete", "5", "--out", str(graph))
    lists.write_text("".join(f"list {v} 0 1 2 3\n" for v in range(5)))
    assert run("extract", str(graph), "--k", "1", "--mode", "list", "--palette-size", "2") == EXIT_USAGE
    assert run("extract", str(graph), "--k", "1", "--lists", str(lists)) == EXIT_USAGE  # plain mode


def test_extract_lists_with_repeated_vertex(tmp_path, capsys):
    graph = tmp_path / "k5.col"
    lists = tmp_path / "twice.txt"
    run("gen", "complete", "5", "--out", str(graph))
    lists.write_text("".join(f"list {v} 0 1 2 3\n" for v in (0, 1, 2, 3, 4, 0)))
    assert run("extract", str(graph), "--k", "1", "--mode", "list",
               "--lists", str(lists)) == EXIT_PARSE_ERROR
    assert "line 6: second list for vertex 0" in capsys.readouterr().err


def test_extract_lists_with_repeated_colour(tmp_path, capsys):
    graph = tmp_path / "k5.col"
    lists = tmp_path / "repeated.txt"
    run("gen", "complete", "5", "--out", str(graph))
    lists.write_text("".join(f"list {v} 0 1 2 3\n" for v in range(4)) + "list 4 0 1 1 3\n")
    assert run("extract", str(graph), "--k", "1", "--mode", "list",
               "--lists", str(lists)) == EXIT_PARSE_ERROR
    assert "line 5: repeated colour in the list of vertex 4" in capsys.readouterr().err


def test_extract_nan_budget_is_a_usage_error(tmp_path, capsys):
    # NaN compares false with everything, so it must not pass as a limit.
    graph = tmp_path / "k8.col"
    run("gen", "complete", "8", "--out", str(graph))
    assert run("extract", str(graph), "--k", "1", "--budget-seconds", "nan") == EXIT_USAGE
    assert "budget limits must be nonnegative" in capsys.readouterr().err


def test_verify_rejects_tampered_certificate(tmp_path):
    graph = tmp_path / "glued.col"
    cert = tmp_path / "cert.json"
    run("gen", "glued", "8", "8", "--out", str(graph))
    run("extract", str(graph), "--k", "1", "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["final_vertices"] = doc["final_vertices"][:1]
    doc["trace"] = []
    cert.write_text(json.dumps(doc))
    assert run("verify", str(graph), str(cert)) == EXIT_REJECTED


def test_verify_rejects_certificate_for_other_graph(tmp_path):
    g1, g2 = tmp_path / "a.col", tmp_path / "b.col"
    cert = tmp_path / "cert.json"
    run("gen", "complete", "8", "--out", str(g1))
    run("gen", "complete", "9", "--out", str(g2))
    run("extract", str(g1), "--k", "1", "--out", str(cert))
    assert run("verify", str(g2), str(cert)) == EXIT_REJECTED


def test_verify_parse_failure_distinct_from_rejection(tmp_path):
    graph = tmp_path / "k8.col"
    junk = tmp_path / "junk.json"
    run("gen", "complete", "8", "--out", str(graph))
    junk.write_text("not json")
    assert run("verify", str(graph), str(junk)) == EXIT_PARSE_ERROR


def test_verify_deeply_nested_certificate_is_a_parse_error(tmp_path, capsys):
    graph = tmp_path / "k4.col"
    deep = tmp_path / "deep.json"
    run("gen", "complete", "4", "--out", str(graph))
    deep.write_text('{"format": ' + "[" * 100_000 + "]" * 100_000 + "}")
    capsys.readouterr()
    assert run("verify", str(graph), str(deep)) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "Traceback" not in err


@pytest.mark.parametrize("old, new", [
    ('"format": "chromcert-certificate-v1",', '"format": "chromcert-certificate-v1", "k": 99,'),
    ('"cut": [', '"cut": [], "cut": ['),
    ('"connectivity_evidence": {', '"connectivity_evidence": {"kind": "complete",'),
    ('"lists": {', '"lists": {"0": [5],'),
], ids=["top-level", "step", "evidence", "witness-lists"])
def test_verify_a_repeated_key_is_a_parse_error(tmp_path, capsys, old, new):
    # json.loads keeps the last value of a repeated key, so the first would
    # be a second, unchecked encoding of the claim.
    graph = tmp_path / "glued.col"
    cert = tmp_path / "cert.json"
    run("gen", "glued", "16", "16", "--out", str(graph))
    assert run("extract", str(graph), "--k", "2", "--mode", "list", "--out", str(cert)) == EXIT_OK
    text = cert.read_text()
    assert json.loads(text)["trace"] and text.count(old) >= 1
    cert.write_text(text.replace(old, new, 1))
    capsys.readouterr()
    assert run("verify", str(graph), str(cert)) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert "cannot parse certificate: repeated key" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["gen", "extract", "reproduce"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    graph = tmp_path / "k8.col"
    run("gen", "complete", "8", "--out", str(graph))
    args = {"gen": ["complete", "8"], "extract": [str(graph), "--k", "1"], "reproduce": ["theorem2"]}[command]

    def work(*args, **kwargs):
        raise AssertionError("the output path is checked before the work")

    # The path is refused before generating, extracting or running a suite.
    monkeypatch.setattr(cli, "generate", work)
    monkeypatch.setattr(cli, "extract", work)
    monkeypatch.setitem(cli.SUITES, "theorem2", work)
    before = sorted(tmp_path.iterdir())
    for out in (tmp_path / "missing" / "out.txt", tmp_path):
        capsys.readouterr()
        assert run(command, *args, "--out", str(out)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{command}: cannot write {out}" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["gen", "extract", "reproduce"])
def test_a_failed_write_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    # The path passes the check before the work, and then the write fails,
    # as on a full disk: cli.open, a module global, shadows the builtin.
    graph, out = tmp_path / "k8.col", tmp_path / "out.txt"
    run("gen", "complete", "8", "--out", str(graph))

    def full(path, *args, **kwargs):
        if path == str(out):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", full, raising=False)
    monkeypatch.setitem(cli.SUITES, "stub", lambda: ({"suite": "stub", "sections": {}, "ok": True}, {}))
    args = {"gen": ["complete", "8"], "extract": [str(graph), "--k", "1"], "reproduce": ["stub"]}[command]
    capsys.readouterr()
    assert run(command, *args, "--out", str(out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{command}: cannot write {out}: No space left on device" in err and "Traceback" not in err
    assert not out.exists()


def test_reproduce_theorem2_and_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run("reproduce", "theorem2", "--out", str(report)) == EXIT_OK
    out = capsys.readouterr().out
    assert "4 passed, 0 failed" in out
    doc = json.loads(report.read_text())
    assert doc["ok"] and doc["suite"] == "theorem2"


@pytest.mark.parametrize("ok, line, code", [(True, "suite ok", EXIT_OK), (False, "suite FAILED", EXIT_REJECTED)])
def test_reproduce_prints_one_line_per_section(capsys, monkeypatch, ok, line, code):
    report = {"suite": "stub", "sections": {"first": {"checked": 2}, "second": {"violations": 0}}, "ok": ok}
    monkeypatch.setitem(cli.SUITES, "stub", lambda: (report, {}))
    assert run("reproduce", "stub") == code
    assert capsys.readouterr().out.splitlines() == [
        "first: {'checked': 2} (0.00s)",
        "second: {'violations': 0} (0.00s)",
        line,
    ]


def test_reproduce_unknown_suite():
    assert run("reproduce", "nosuchsuite") == 2


def test_join_atoms(tmp_path):
    graph = tmp_path / "join.col"
    assert run("gen", "join", "cycle:5", "complete:5", "--out", str(graph)) == EXIT_OK
    assert read_dimacs(str(graph)).n == 10


def test_verify_rejects_malformed_evidence(tmp_path, capsys):
    graph = tmp_path / "glued.col"
    cert = tmp_path / "cert.json"
    run("gen", "glued", "16", "16", "--out", str(graph))
    good = {}
    for mode in ("list", "plain"):
        assert run("extract", str(graph), "--k", "2", "--mode", mode, "--out", str(cert)) == EXIT_OK
        good[mode] = json.loads(cert.read_text())
    lst, plain = good["list"], good["plain"]
    step, witness = lst["trace"][0], lst["chromatic_evidence"]
    mutants = [
        {**lst, "connectivity_evidence": []},
        {**lst, "chromatic_evidence": {**witness, "lists": [1, 2]}},
        # Each claim has one encoding: JSON true, 1.0 and " 1" are not the
        # vertex, count or colour 1, although Python equates or parses them.
        {**lst, "trace": [{**step, "side_y": [True] + step["side_y"][1:]}]},
        {**lst, "final_vertices": [0.0] + lst["final_vertices"][1:]},
        {**lst, "trace": [{**step, "cut": [float(v) for v in step["cut"]]}]},
        {**lst, "connectivity_evidence": {**lst["connectivity_evidence"],
                                          "order": float(lst["connectivity_evidence"]["order"])}},
        {**plain, "chromatic_evidence": {**plain["chromatic_evidence"],
                                         "colours": float(plain["chromatic_evidence"]["colours"])}},
        {**lst, "solver_decisions": True},
        {**lst, "solver_decisions": "x"},
        {**lst, "trace": [{**step, "z_degree": 0.5}]},
        {**lst, "trace": [{**step, "derived_degree": -5}]},
        {**lst, "chromatic_evidence": {**witness, "lists": {f" {v} ": cs for v, cs in witness["lists"].items()}}},
        {**lst, "chromatic_evidence": {**witness, "lists": {v: [True] for v in witness["lists"]}}},
        # Each kind of chromatic evidence has exactly its own keys.
        {**plain, "chromatic_evidence": {**plain["chromatic_evidence"], "junk": 5}},
        {**plain, "chromatic_evidence": {**plain["chromatic_evidence"], "lists": {}}},
        {**plain, "chromatic_evidence": {**plain["chromatic_evidence"], "t": "x"}},
        {**lst, "chromatic_evidence": {**witness, "colours": 1}},
        # Shapes that make the checker raise inside its try.
        {**lst, "chromatic_evidence": {**witness, "lists": {v: 1 for v in witness["lists"]}}},
        {**lst, "chromatic_evidence": list(witness.values())},
    ]
    for doc in mutants:
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("verify", str(graph), str(cert)) == EXIT_REJECTED, doc
        err = capsys.readouterr().err
        assert "certificate rejected" in err and "Traceback" not in err


def test_verify_ill_typed_certificate_is_a_parse_error(tmp_path):
    graph = tmp_path / "k8.col"
    cert = tmp_path / "cert.json"
    run("gen", "complete", "8", "--out", str(graph))
    for doc in ([], {"format": "chromcert-certificate-v1", "trace": [[1]]}):
        cert.write_text(json.dumps(doc))
        assert run("verify", str(graph), str(cert)) == EXIT_PARSE_ERROR


def test_verify_rejects_a_boolean_k(tmp_path):
    # JSON true equals 1 in Python, but k must be an integer.
    graph = tmp_path / "k8.col"
    cert = tmp_path / "cert.json"
    run("gen", "complete", "8", "--out", str(graph))
    assert run("extract", str(graph), "--k", "1", "--out", str(cert)) == EXIT_OK
    good = json.loads(cert.read_text())
    assert run("verify", str(graph), str(cert)) == EXIT_OK
    for field, value in (("k", True), ("k", 1.0), ("palette_size", True), ("palette_size", 7.0)):
        cert.write_text(json.dumps({**good, field: value}))
        assert run("verify", str(graph), str(cert)) == EXIT_REJECTED


def test_verify_requires_the_palette_size_of_the_mode(tmp_path):
    # Plain mode records a nonnegative palette size, list mode null.
    graph = tmp_path / "k8.col"
    lists = tmp_path / "k8.lists"
    run("gen", "complete", "8", "--out", str(graph))
    lists.write_text("".join(f"list {v} 0 1 2 3\n" for v in range(8)))
    certs = {}
    for mode, extra in (("plain", ()), ("list", ("--mode", "list", "--lists", str(lists)))):
        certs[mode] = tmp_path / f"{mode}.cert.json"
        assert run("extract", str(graph), "--k", "1", *extra, "--out", str(certs[mode])) == EXIT_OK
        assert run("verify", str(graph), str(certs[mode])) == EXIT_OK
    for mode, value in (("plain", -1), ("plain", None), ("list", 7)):
        good = json.loads(certs[mode].read_text())
        certs[mode].write_text(json.dumps({**good, "palette_size": value}))
        assert run("verify", str(graph), str(certs[mode])) == EXIT_REJECTED, (mode, value)


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("target, command, phase", [
    ("read_dimacs", "extract", "reading the graph"),
    ("read_dimacs", "verify", "reading the graph"),
    ("extract", "extract", "extracting"),
])
def test_memory_error_exits_4_and_names_the_phase(tmp_path, capsys, monkeypatch, target, command, phase):
    graph = tmp_path / "k8.col"
    run("gen", "complete", "8", "--out", str(graph))
    monkeypatch.setattr(cli, target, _out_of_memory)
    capsys.readouterr()
    options = ["--k", "1"] if command == "extract" else [str(tmp_path / "k8.cert.json")]
    assert run(command, str(graph), *options) == EXIT_RESOURCE_LIMIT
    err = capsys.readouterr().err
    assert f"{command}: out of memory while {phase}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["gen", "verify", "reproduce"])
def test_memory_error_in_any_command_exits_4_not_1(tmp_path, capsys, monkeypatch, command):
    # Exit 1 would read as a rejected certificate or a failed suite.
    graph, cert = tmp_path / "k8.col", tmp_path / "k8.cert.json"
    run("gen", "complete", "8", "--out", str(graph))
    run("extract", str(graph), "--k", "1", "--out", str(cert))
    monkeypatch.setattr(cli, "generate", _out_of_memory)
    monkeypatch.setattr(cli, "verify_certificate", _out_of_memory)
    monkeypatch.setitem(cli.SUITES, "theorem1", _out_of_memory)
    argv = {"gen": ("gen", "complete", "8"), "verify": ("verify", str(graph), str(cert)),
            "reproduce": ("reproduce", "theorem1")}[command]
    capsys.readouterr()
    assert run(*argv) == EXIT_RESOURCE_LIMIT
    err = capsys.readouterr().err
    assert f"{command}: out of memory" in err and "Traceback" not in err


def test_recursion_error_in_extract_exits_4_not_5(tmp_path, capsys, monkeypatch):
    def overflow(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    graph = tmp_path / "k8.col"
    run("gen", "complete", "8", "--out", str(graph))
    monkeypatch.setattr(cli, "extract", overflow)
    capsys.readouterr()
    assert run("extract", str(graph), "--k", "1") == EXIT_RESOURCE_LIMIT
    err = capsys.readouterr().err
    assert "extract: Python's recursion limit was reached while extracting" in err
    assert "verification failure" not in err and "Traceback" not in err


# -- hostile inputs ------------------------------------------------------------
#
# A seeded fuzz test over the three input files.  Each mutation is built so
# that its class, and so its exit code, is known: a file that cannot be read
# as its format exits 6, lists that do not name exactly the graph's vertices
# exit 2, a certificate whose claims are ill-typed or false exits 1, and an
# unchanged claim exits 0.  Headers that declare a huge order are left out:
# the reader allocates before it refuses them.

FUZZ_ROUNDS = 12
BAD_UTF8 = (b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80")
HUGE_IDS = (-1, -(10**30), 10**30)
WRONG_TYPES = (None, True, 1.5, "x", [], {}, [[0]])
OTHER_SPELLINGS = ("1_0", "+2", "\uff11", "\u0663")  # int() reads them; an id has one spelling


def _json_type(value):
    return "bool" if isinstance(value, bool) else type(value).__name__


def _leaves(doc, path=()):
    """(path, value) for every scalar of a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, path + (key,))
    else:
        yield path, doc


def _replaced(text, path, value):
    doc = json.loads(text)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc)


def _bad_utf8(rng, text):
    at = rng.randrange(len(text))
    return f"bad UTF-8 at {at}", text[:at].encode() + rng.choice(BAD_UTF8) + text[at:].encode()


def _line_replaced(lines, i, fields):
    text = " ".join(fields)
    return f"line {i + 1} = {text!r}", ("".join(lines[:i]) + text + "\n" + "".join(lines[i + 1:])).encode()


def _is_vertex_id(path):
    return (path[0] == "final_vertices" or path[:2] == ("connectivity_evidence", "cut")
            or (path[0] == "trace" and path[2] in ("cut", "side_y", "side_z")))


def _certificate_cases(rng, text):
    """(mutation, bytes, exit code) for a valid certificate's text."""
    leaves = [(p, v) for p, v in _leaves(json.loads(text)) if p != ("format",)]
    ids = [p for p, _ in leaves if _is_vertex_id(p)] + [("k",)]
    for _ in range(FUZZ_ROUNDS):
        cut = rng.randrange(len(text) - 2)  # short of the closing brace
        yield f"truncated at {cut}", text[:cut].encode(), EXIT_PARSE_ERROR
        yield *_bad_utf8(rng, text), EXIT_PARSE_ERROR
        path, value = rng.choice(leaves)
        for depth, code in ((100_000, EXIT_PARSE_ERROR), (20, EXIT_REJECTED)):
            nested = _replaced(text, path, "@").replace('"@"', "[" * depth + "]" * depth)
            yield f"{path} nested {depth} deep", nested.encode(), code
        wrong = [w for w in WRONG_TYPES if _json_type(w) != _json_type(value)]
        w = rng.choice(wrong)
        yield f"{path} = {w!r}", _replaced(text, path, w).encode(), EXIT_REJECTED
        path, w = rng.choice(ids), rng.choice(HUGE_IDS)
        yield f"{path} = {w}", _replaced(text, path, w).encode(), EXIT_REJECTED
    yield "a JSON array", b"[]", EXIT_PARSE_ERROR
    yield "compact JSON", json.dumps(json.loads(text)).encode(), EXIT_OK


def _dimacs_cases(rng, text):
    lines = text.splitlines(keepends=True)
    records = [i for i, line in enumerate(lines) if line[0] in "pe"]
    for _ in range(FUZZ_ROUNDS):
        cut = rng.randrange(len(text) - len(lines[-1]))  # loses at least one edge line
        yield f"truncated at {cut}", text[:cut].encode(), EXIT_PARSE_ERROR
        yield *_bad_utf8(rng, text), EXIT_PARSE_ERROR
        i = rng.choice(records)
        fields = lines[i].split()
        j = rng.randrange(2 if fields[0] == "p" else 1, len(fields))
        # Of the order field, only the negative values: a huge one allocates.
        tokens = ["x", "1.5", "-", "0x1", "0", "-3", *OTHER_SPELLINGS] + (
            [] if fields[0] == "p" and j == 2 else [str(w) for w in HUGE_IDS])
        fields[j] = rng.choice(tokens)
        yield *_line_replaced(lines, i, fields), EXIT_PARSE_ERROR
    i = rng.choice(records)
    copy = "c" + lines[i]  # a record, not a comment: its first field is not exactly c
    misspelt = "".join([*lines[:i], copy, *lines[i:]]).encode()
    yield f"line {i + 1} copied as {copy.split()[0]!r}", misspelt, EXIT_PARSE_ERROR
    yield "an added comment", ("c fuzz\n" + text).encode(), EXIT_OK


def _lists_cases(rng, text):
    lines = text.splitlines(keepends=True)
    for _ in range(FUZZ_ROUNDS):
        j = rng.randrange(len(lines))
        yield f"first {j} lines", "".join(lines[:j]).encode(), EXIT_USAGE
        yield *_bad_utf8(rng, text), EXIT_PARSE_ERROR
        i = rng.randrange(len(lines))
        fields = lines[i].split()
        fields[1] = str(rng.choice(HUGE_IDS))
        yield *_line_replaced(lines, i, fields), EXIT_USAGE
        fields = lines[i].split()
        fields[rng.randrange(1, len(fields))] = rng.choice(["x", "1.5", "nan", "-", *OTHER_SPELLINGS])
        yield *_line_replaced(lines, i, fields), EXIT_PARSE_ERROR
        yield f"line {i + 1} twice", (text + lines[i]).encode(), EXIT_PARSE_ERROR
    i = rng.randrange(len(lines))
    copy = "c" + lines[i]  # a record, not a comment: its first field is not exactly c
    misspelt = "".join([*lines[:i], copy, *lines[i:]]).encode()
    yield f"line {i + 1} copied as {copy.split()[0]!r}", misspelt, EXIT_PARSE_ERROR
    yield "lines reversed", "".join(reversed(lines)).encode(), EXIT_OK


def test_fuzzed_inputs_keep_the_exit_contract(tmp_path, capsys):
    rng = random.Random(2024)
    glued9, lists = tmp_path / "glued9.col", tmp_path / "glued9.lists"
    glued15 = tmp_path / "glued15.col"
    run("gen", "glued", "9", "9", "--out", str(glued9))
    run("gen", "glued", "15", "15", "--out", str(glued15))
    lists.write_text("".join(f"list {v} 0 1 2 3 4 5 6 7\n" for v in range(17)))
    certs = {glued9: tmp_path / "list.cert.json", glued15: tmp_path / "plain.cert.json"}
    assert run("extract", str(glued9), "--k", "2", "--mode", "list", "--lists", str(lists),
               "--out", str(certs[glued9])) == EXIT_OK
    assert run("extract", str(glued15), "--k", "2", "--out", str(certs[glued15])) == EXIT_OK
    mutant = tmp_path / "mutant"
    out = str(tmp_path / "out.cert.json")
    cases = [(f"{graph.name} certificate: {name}", data, code, ("verify", str(graph), str(mutant)))
             for graph, cert in certs.items() for name, data, code in _certificate_cases(rng, cert.read_text())]
    cases += [(f"graph: {name}", data, code, ("verify", str(mutant), str(certs[glued9])))
              for name, data, code in _dimacs_cases(rng, glued9.read_text())]
    cases += [(f"lists: {name}", data, code,
               ("extract", str(glued9), "--k", "2", "--mode", "list", "--lists", str(mutant), "--out", out))
              for name, data, code in _lists_cases(rng, lists.read_text())]
    assert {code for *_, code, _ in cases} == {EXIT_OK, EXIT_REJECTED, EXIT_USAGE, EXIT_PARSE_ERROR}
    for name, data, code, argv in cases:
        mutant.write_bytes(data)
        capsys.readouterr()
        got = run(*argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err, name
        assert got == code, (name, err)
