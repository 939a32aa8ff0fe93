"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import chromcert  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _fingerprint(insts):
    return [(i.name, i.graph.vertices, i.graph.edges, i.cfg, i.expected, i.known_defect) for i in insts]


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert _fingerprint(workloads.build(name, 7)) == _fingerprint(workloads.build(name, 7))
    # The seed reaches the inputs it is documented to draw.
    assert _fingerprint(workloads.build("lists", 1)) != _fingerprint(workloads.build("lists", 2))
    assert _fingerprint(workloads.build("search", 1)) != _fingerprint(workloads.build("search", 2))


def _chromcert_bindings():
    return {
        (mod.__name__, attr): value
        for mod in tracer._chromcert_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_restores_every_binding_and_keeps_certificates():
    inst = workloads._completion()
    plain = chromcert.extract(inst.graph, inst.cfg).to_json()
    before = _chromcert_bindings()
    originals = {id(getattr(sys.modules[f"chromcert.{m}"], f)) for m, fs in tracer.TRACED.items() for f in fs}
    with tracer.Tracer() as t:
        patched = set(t.bindings())
        # Names imported directly by other modules are patched too.
        assert ("chromcert.extractor", "is_k_connected") in patched
        assert ("chromcert.connectivity", "is_connected") in patched
        assert ("chromcert", "extract") in patched
        assert not originals & {id(v) for v in _chromcert_bindings().values()}
        traced = chromcert.extract(inst.graph, inst.cfg).to_json()
    assert _chromcert_bindings() == before
    assert traced == plain
    spans = t.metrics()
    assert spans["extractor.self_verify.calls"] == 1
    assert spans["templates.derive_completion_template.calls"] >= 1
    assert spans["extractor.descend.self_s"] <= spans["extractor.descend.s"]


def test_corrupted_certificate_is_a_failed_operation():
    inst = workloads._completion()
    text = chromcert.extract(inst.graph, inst.cfg).to_json()
    doc = json.loads(text)
    doc["final_vertices"] = doc["final_vertices"][1:]
    tally = run.Tally(refs={})
    tally.verify_op(inst, json.dumps(doc), 10.0)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.failures[inst.name] == ["verify rejected the certificate"]
    # A certificate that differs from its reference hash fails as well.
    tally = run.Tally(refs={inst.name: "0" * 64})
    tally.extract_op(inst, 10.0)
    assert tally.failures[inst.name] == ["certificate differs from the reference"]


def test_deadline_overrun_is_a_timeout():
    _, error, seconds = run.run_op(lambda: [0 for _ in iter(int, 1)], 0.05)
    assert error == "timeout" and seconds < 5
    slow = next(i for i in workloads.build("cuts", 0) if i.name == "kneser7_2_p4_k2")
    tally = run.Tally(refs={})
    tally.extract_op(slow, 0.01)
    assert tally.failures[slow.name] == ["extract: timeout"]
