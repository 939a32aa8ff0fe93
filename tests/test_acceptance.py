"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s` (or
`chromcert reproduce <suite>` for the underlying machinery)."""

import dataclasses
import hashlib
import random
from collections.abc import Mapping

import pytest

from chromcert import suites
from chromcert.graphs import Graph
from chromcert.solver import Palette, Template
from chromcert.suites import (
    report_to_json,
    run_oracles,
    run_properties,
    run_theorem1,
    run_theorem2,
)


@pytest.fixture(scope="module")
def theorem1():
    return run_theorem1()


@pytest.fixture(scope="module")
def theorem2():
    return run_theorem2()


@pytest.fixture(scope="module")
def oracles():
    return run_oracles()


@pytest.fixture(scope="module")
def properties():
    return run_properties(trials=1000, mutations=100)


def announce(number: int, name: str, ok: bool) -> None:
    print(f"CRITERION {number} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_theorem1_instances(theorem1):
    report, timings = theorem1
    ok = report["ok"] and all(seconds < 300.0 for seconds in timings.values())
    announce(1, "theorem 1 instances, k in {1,2}", ok)
    assert report["ok"], report
    for instance_id, seconds in timings.items():
        assert seconds < 300.0, f"{instance_id} took {seconds:.1f}s"


def test_criterion_2_theorem2_instances(theorem2):
    report, _ = theorem2
    announce(2, "theorem 2 instances with brute-force list witnesses", report["ok"])
    assert report["ok"], report
    for record in report["instances"]:
        assert record["chromatic_evidence"] == "choosability_witness"


@pytest.mark.parametrize("lists", [
    {str(v): [v] for v in range(9)},  # K9 with nine distinct colours: the lists admit a colouring
    {**{str(v): [0] for v in range(8)}, "8": [0, 1]},  # one list past k - 1 colours
    # The true witness, but not in its one encoding, as the checker decodes it:
    {**{str(v): [0] for v in range(7)}, "07": [0], "8": [0]},  # a vertex named other than by its id
    {**{str(v): [0] for v in range(8)}, "8": [0, 0]},  # a list with a repeated colour
    {**{str(v): [0] for v in range(8)}, "8": 0},  # a colour in place of a list
])
def test_theorem_record_judges_the_certificates_own_witness(monkeypatch, lists):
    instance_id, spec, cfg = next(i for i in suites.theorem2_instances() if i[0] == "t2-k2-complete9")
    real_extract = suites.extract

    def forged_extract(g, cfg):
        cert = real_extract(g, cfg)
        return dataclasses.replace(cert, chromatic_evidence={**cert.chromatic_evidence, "lists": lists})

    monkeypatch.setattr(suites, "extract", forged_extract)
    record = suites._run_instance(instance_id, spec, cfg)
    assert (record["verified"], record["chromatic_ok"], record["outcome"]) == (False, False, "fail")


def test_criterion_3_solver_equivalence(oracles):
    report, _ = oracles
    exhaustive = report["sections"]["extend_vs_bruteforce_exhaustive"]
    randomised = report["sections"]["extend_vs_bruteforce_random"]
    ok = exhaustive["mismatches"] == 0 and randomised["mismatches"] == 0
    announce(3, "extension solver vs brute force", ok)
    assert exhaustive["checked"] == 3300 and exhaustive["mismatches"] == 0, exhaustive
    assert randomised["checked"] == 500 and randomised["mismatches"] == 0, randomised


def test_criterion_4_proof_inequalities(properties):
    report, _ = properties
    names = (
        "degree_additivity",
        "strengthen_witness",
        "derive_separation",
        "derive_completion_glue",
        "interval_partition",
        "rainbow_small_case",
    )
    sections = {name: report["sections"][name] for name in names}
    ok = all(s["violations"] == 0 and s["trials"] >= 1000 for s in sections.values())
    ok = ok and sections["derive_completion_glue"]["performed"] >= 1000
    ok = ok and sections["derive_completion_glue"]["glued"] >= 1000
    announce(4, "proof-inequality property suites", ok)
    for name, section in sections.items():
        assert section["trials"] >= 1000, (name, section)
        assert section["violations"] == 0, (name, section)
    assert sections["derive_completion_glue"]["performed"] >= 1000
    assert sections["derive_completion_glue"]["glued"] >= 1000


def test_criterion_5_unreachability(theorem1, theorem2, properties):
    rep1, _ = theorem1
    rep2, _ = theorem2
    clean = all(
        r["outcome"] == "pass"
        for r in rep1["instances"] + rep2["instances"]
    )
    muts = properties[0]["sections"]["mutated_witnesses"]
    fired = muts["contradictions"] == muts["count"] == muts["respecting_colourings"] == 100
    announce(5, "contradiction branches: silent on real runs, loud on mutations", clean and fired)
    assert clean, "an InternalContradiction (or failure) surfaced on a genuine instance"
    assert fired, muts


def test_criterion_6_oracle_ground_truths(oracles):
    report, _ = oracles
    colourability = report["sections"]["colourability_all_graphs_n6"]
    min_cut = report["sections"]["min_cut_ground_truth"]
    choosability = report["sections"]["choosability_ground_truth"]
    ok = (
        colourability["mismatches"] == 0
        and min_cut["mismatches"] == 0
        and not choosability["failures"]
    )
    announce(6, "oracle ground truths (colourability, cuts, choosability)", ok)
    assert colourability["graphs"] == 33868 and colourability["mismatches"] == 0
    assert min_cut["mismatches"] == 0, min_cut
    assert not choosability["failures"], choosability


def test_criterion_7_determinism(theorem1):
    first_report, _ = theorem1
    second_report, _ = run_theorem1()
    ok = report_to_json(first_report) == report_to_json(second_report)
    announce(7, "byte-identical certificates and reports on repeat", ok)
    assert ok
    firsts = {r["id"]: r["certificate"] for r in first_report["instances"]}
    seconds = {r["id"]: r["certificate"] for r in second_report["instances"]}
    assert firsts == seconds


# sha256 of each suite's report, as `chromcert reproduce <suite> --out` writes it.
REPORT_SHA256 = {
    "theorem1": "d759590e3c9fc59bc4d63dd5d624fd1d3f270bb743198cc5bd218edbdcf4cc62",
    "theorem2": "67b1afcfaebdce3eb0869d81d11dbccd3a84c08fa60c5ab1eb7cebb8c7cefedf",
    "oracles": "a8af2b9049948ae87954de53a77f93afcdd3869d60f8b905324b73527d16d7bc",
    "properties": "50a2bbba355adb57157f4082703c20c4f60a00f93592d46609603d7956ad20e2",
}


def test_suite_reports_pinned(theorem1, theorem2, oracles, properties):
    reports = {"theorem1": theorem1, "theorem2": theorem2, "oracles": oracles, "properties": properties}
    digests = {
        name: hashlib.sha256(report_to_json(report).encode()).hexdigest()
        for name, (report, _) in reports.items()
    }
    assert digests == REPORT_SHA256


def test_mutations_past_one_plan_cycle_all_fire():
    report, _ = run_properties(trials=1, mutations=101)
    muts = report["sections"]["mutated_witnesses"]
    assert muts == {"count": 101, "contradictions": 101, "respecting_colourings": 101}
    assert report["ok"]


def canonical(x):
    """x in a form free of set and dict order: graphs as sorted vertices and
    edges, templates and palettes as sorted items, a random stream as a
    digest of its state."""
    if isinstance(x, Graph):
        return ("graph", sorted(x.vertices), sorted(x.edges))
    if isinstance(x, Template):
        return ("template", canonical(x.precolour), canonical(x.forbidden))
    if isinstance(x, Palette):
        return ("palette", x.mode, x.size, canonical(x.lists))
    if isinstance(x, random.Random):
        return ("rng", hashlib.sha256(repr(x.getstate()).encode()).hexdigest())
    if isinstance(x, Mapping):
        return sorted((canonical(k), canonical(v)) for k, v in x.items())
    if isinstance(x, (set, frozenset)):
        return sorted(canonical(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, [canonical(getattr(x, f.name)) for f in dataclasses.fields(x)])
    return x


class Recorded:
    """Logs the canonical arguments of each call, then makes it.  An
    attribute such as Template.empty is recorded under its dotted name."""

    def __init__(self, log: list[str], name: str, target):
        self.log, self.name, self.target = log, name, target

    def __call__(self, *args, **kwargs):
        self.log.append(repr((self.name, canonical(args), canonical(kwargs))))
        return self.target(*args, **kwargs)

    def __getattr__(self, attr):
        return Recorded(self.log, f"{self.name}.{attr}", getattr(self.target, attr))


def test_property_suite_inputs_pinned(monkeypatch):
    # The property report holds only counts, so REPORT_SHA256 cannot see a
    # generator that draws other instances.  This pins every call the suite
    # makes into the rest of the package, with its arguments.
    log: list[str] = []
    for name, obj in list(vars(suites).items()):
        module = getattr(obj, "__module__", None) or ""
        if not callable(obj) or not module.startswith("chromcert.") or module == suites.__name__:
            continue
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue  # caught by `except`, so it must stay a class
        monkeypatch.setattr(suites, name, Recorded(log, name, obj))
    run_properties(trials=50, mutations=20)
    digest = hashlib.sha256("".join(line + "\n" for line in log).encode()).hexdigest()
    assert (len(log), digest) == (4205, "2c69e1b7819a34210d2514fca7fb4f2e26fdf2c4f6887bc87d09a708e7618926")


def test_mutated_witness_inputs_pinned_over_one_plan_cycle(monkeypatch):
    # The pin above runs only the first 20 mutations, all of kind descend.
    # This one runs one whole plan cycle of 100, so every kind's draws and
    # package calls are pinned, not only counted.
    log: list[str] = []
    for name, obj in list(vars(suites).items()):
        module = getattr(obj, "__module__", None) or ""
        if not callable(obj) or not module.startswith("chromcert.") or module == suites.__name__:
            continue
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        monkeypatch.setattr(suites, name, Recorded(log, name, obj))
    run_properties(trials=0, mutations=100)
    digest = hashlib.sha256("".join(line + "\n" for line in log).encode()).hexdigest()
    assert (len(log), digest) == (640, "e0e1eed157fbeaac57ea76b0683fbda4178c55be638deed67844306b5d6076a2")
