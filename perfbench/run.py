"""chromcert benchmark: time of extract and verify per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cuts --seed 0 --seconds 30 --trace 0

One process, one thread, closed loop: a single caller runs each operation
after the previous one finished.  A round is one extract pass over the
workload's instances (``extract`` plus ``to_json``, self-verify included)
followed by a verify pass over the certificates it produced
(``Certificate.from_json`` plus ``verify_certificate``).  Rounds repeat
until ``--seconds`` have passed.  A reported pass time is the sum over
instances of each operation's median time, scaled to a reference host
speed (see SpeedSampler).  Every operation runs under a deadline and is checked against the
outcome theory predicts and against the reference certificate hash.  An
operation is one instance's extract or one instance's verify; the result's
``attempted`` counts each once however many rounds repeat it, and
``failed`` counts those that failed in any round, so both numbers do not
depend on how many rounds fit in ``--seconds``.  With
``--trace 1`` one more round runs under the span tracer and the per-layer
numbers are reported instead.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"

# Verifications per certificate per round: lists certificates verify in
# about 2 ms each, shorter than the speed sampler's interval.
VERIFY_REPEATS = {"cuts": 1, "search": 1, "lists": 20}
OP_DEADLINE_S = 30.0
DEFECT_DEADLINE_S = 3.0
# Deadlines keep every run under 180 s.
RUN_BUDGET_S = 150.0
SETUP_PROBES = 5
# Host speed sampling: every SAMPLE_EVERY_S of process CPU time a signal
# handler times SAMPLE_ROUNDS rounds of a fixed loop (about 1 ms).  Reported
# times are scaled to the speed at which one round takes REF_ROUND_S, the
# median on a 2-vCPU cloud container with CPython 3.11.
SAMPLE_EVERY_S = 0.02
SAMPLE_ROUNDS = 40
REF_ROUND_S = 3.4e-5


class DeadlineExceeded(BaseException):
    """Raised from the SIGALRM handler; a BaseException so that no handler
    in the program under test can swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded


def run_op(fn, limit: float):
    """Run fn() under a wall-clock deadline; (value, error, seconds).

    error is None, "timeout", or the exception's type name."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(limit, 0.001))
    t0 = time.perf_counter()
    try:
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return value, None, time.perf_counter() - t0
    except DeadlineExceeded:
        return None, "timeout", time.perf_counter() - t0
    except Exception as exc:  # any other failure is a failed operation
        return None, type(exc).__name__, time.perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, previous)


def _calib_loop(rounds: int) -> int:
    """Fixed pure-Python work (dict, set and list traffic, like chromcert's
    own) that shares no code with the program under test."""
    adj = {v: ((v * 7 + 1) % 101, (v * 13 + 5) % 101, (v + 1) % 101) for v in range(101)}
    total = 0
    for _ in range(rounds):
        seen = {0}
        queue = [0]
        while queue:
            nxt = []
            for v in queue:
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            queue = nxt
        total += len(frozenset(seen))
    return total


class SpeedSampler:
    """Scales operation times to the reference speed.

    The host's speed drifts by up to 2x within minutes and by 10-40% within
    a second, because other tenants share its cores; no run length averages
    that out.  While active, a SIGPROF handler samples the speed inside the
    operations themselves.  An operation's time, minus the handler's own
    time, is scaled by REF_ROUND_S over the median sample taken during it
    (or over the last few samples, for operations shorter than one
    interval)."""

    def __init__(self):
        self.samples: list[float] = []  # seconds per round
        self.stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _calib_loop(SAMPLE_ROUNDS)
        seconds = time.perf_counter() - t0
        self.samples.append(seconds / SAMPLE_ROUNDS)
        self.stolen += seconds

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._tick(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def measure(self, op) -> float:
        """Run op(), which returns its wall seconds; seconds at reference
        speed."""
        first, stolen = len(self.samples), self.stolen
        seconds = op() - (self.stolen - stolen)
        during = self.samples[first:] or self.samples[-5:]
        return seconds * REF_ROUND_S / statistics.median(during)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_refs(workload: str, seed: int) -> dict[str, str | None]:
    """instance name -> reference certificate sha256 for this seed.  Seeded
    instances have references only for the seeds listed in refs.json."""
    doc = json.loads(REFS.read_text()) if REFS.exists() else {}
    out = {}
    for name, entry in doc.get(workload, {}).items():
        out[name] = entry["any"] if "any" in entry else entry["seeds"].get(str(seed))
    return out


@dataclass
class Tally:
    """Operation accounting and output checks for one run.

    An operation is keyed by (instance, kind); repeating it in later rounds
    does not count it again, and it has failed if any repetition failed."""

    refs: dict[str, str | None]
    ops: set[tuple[str, str]] = field(default_factory=set)
    bad: set[tuple[str, str]] = field(default_factory=set)
    failures: dict[str, list[str]] = field(default_factory=dict)
    texts: dict[str, str] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.bad)

    def fail(self, op: tuple[str, str], why: str) -> None:
        self.bad.add(op)
        reasons = self.failures.setdefault(op[0], [])
        if why not in reasons:
            reasons.append(why)

    def extract_op(self, inst, limit: float) -> float:
        import chromcert
        from workloads import CERT

        op = (inst.name, "extract")
        self.ops.add(op)
        value, error, seconds = run_op(lambda: chromcert.extract(inst.graph, inst.cfg).to_json(), limit)
        if inst.expected == CERT:
            if error is not None:
                self.fail(op, f"extract: {error}")
                return seconds
            ref = self.refs.get(inst.name)
            if ref is not None and sha256(value) != ref:
                self.fail(op, "certificate differs from the reference")
            elif self.texts.setdefault(inst.name, value) != value:
                self.fail(op, "certificate differs between passes")
        elif error != "NotInextensibleError":
            self.fail(op, f"extract: expected NotInextensibleError, got {error or 'a certificate'}")
        return seconds

    def verify_op(self, inst, text: str, limit: float) -> float:
        import chromcert

        op = (inst.name, "verify")
        self.ops.add(op)
        value, error, seconds = run_op(
            lambda: chromcert.verify_certificate(inst.graph, chromcert.Certificate.from_json(text)), limit
        )
        if error is not None:
            self.fail(op, f"verify: {error}")
        elif value is not True:
            self.fail(op, "verify rejected the certificate")
        return seconds


class Clock:
    """Per-operation deadlines that also keep the whole run in budget."""

    def __init__(self):
        self.start = time.perf_counter()

    def limit(self, cap: float) -> float:
        return min(cap, RUN_BUDGET_S - (time.perf_counter() - self.start))

    def out_of_budget(self) -> bool:
        return self.limit(OP_DEADLINE_S) <= 1.0


def extract_pass(insts, tally: Tally, clock: Clock, speed: SpeedSampler, times: dict) -> None:
    """One extract operation per instance; appends each one's time at
    reference speed to times[name]."""
    for inst in insts:
        seconds = speed.measure(lambda: tally.extract_op(inst, clock.limit(OP_DEADLINE_S)))
        times.setdefault(inst.name, []).append(seconds)


def verify_pass(insts, tally: Tally, clock: Clock, speed: SpeedSampler, times: dict, repeats: int = 1) -> None:
    """Verify each certificate ``repeats`` times in a row, timed together;
    appends the time of one verify at reference speed to times[name]."""
    for inst in insts:
        if inst.name in tally.texts:
            text = tally.texts[inst.name]
            seconds = speed.measure(lambda: sum(
                tally.verify_op(inst, text, clock.limit(OP_DEADLINE_S)) for _ in range(repeats)))
            times.setdefault(inst.name, []).append(seconds / repeats)


def typical_pass(times: dict) -> float:
    """Sum over instances of the median time of their operation: the time of
    a pass with every operation at its typical speed."""
    return sum(statistics.median(v) for v in times.values())


def setup_probe(workload: str, seed: int) -> float:
    """Import chromcert and build the workload, in a fresh process; seconds
    at reference speed."""
    def setup() -> float:
        t0 = time.perf_counter()
        import chromcert  # noqa: F401
        import workloads

        workloads.build(workload, seed)
        return time.perf_counter() - t0

    with SpeedSampler() as speed:
        return speed.measure(setup)


def measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def src_info() -> dict:
    files = sorted((SRC / "chromcert").glob("*.py"))
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    commit = None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        top, head = proc.stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {"src_lines": lines, "commit": commit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(VERIFY_REPEATS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "chromcert" / "__init__.py").is_file():
        print(f"chromcert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    clock = Clock()
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    import workloads

    insts = workloads.build(args.workload, args.seed)
    regular = [i for i in insts if i.known_defect is None]
    tally = Tally(load_refs(args.workload, args.seed))

    # Known defects: once per run, outside the timed passes.
    known = {}
    for inst in insts:
        if inst.known_defect is not None:
            before = tally.failed
            tally.extract_op(inst, clock.limit(DEFECT_DEADLINE_S))
            if inst.name in tally.texts:
                tally.verify_op(inst, tally.texts[inst.name], clock.limit(DEFECT_DEADLINE_S))
            known[inst.name] = "fails" if tally.failed > before else "fixed"

    order_rng = random.Random(f"order:{args.workload}:{args.seed}")
    speed = SpeedSampler()
    ext: dict[str, list[float]] = {}
    ver: dict[str, list[float]] = {}
    repeats = VERIFY_REPEATS[args.workload]
    rounds = 0
    t_measure = time.perf_counter()
    with speed:
        while not rounds or (time.perf_counter() - t_measure < args.seconds and not clock.out_of_budget()):
            order = order_rng.sample(regular, len(regular))
            gc.collect()
            extract_pass(order, tally, clock, speed, ext)
            verify_pass(order, tally, clock, speed, ver, repeats)
            rounds += 1
    ext_s = typical_pass(ext)
    ver_s = typical_pass(ver)

    untraced_texts = {i.name: tally.texts[i.name] for i in regular if i.name in tally.texts}
    info = {"workload": args.workload, "seed": args.seed, **src_info(),
            "samples": {"extract_s": rounds, "verify_s": rounds, "setup_s": len(setup)},
            "verifies_per_sample": repeats,
            "speed_samples": len(speed.samples),
            "round_s": statistics.median(speed.samples),
            "known_defects": known,
            "refs_checked": sorted(n for n in tally.texts if tally.refs.get(n))}

    if args.trace:
        from tracer import Tracer

        tally.texts = {}
        traced_ext, traced_ver = {}, {}
        with speed, Tracer() as tracer:
            extract_pass(regular, tally, clock, speed, traced_ext)
            verify_pass(regular, tally, clock, speed, traced_ver)
        same = ("trace", "same certificates")
        tally.ops.add(same)
        if tally.texts != untraced_texts:
            tally.fail(same, "traced certificates differ from untraced ones")
        texts = [tally.texts[n] for n in sorted(tally.texts)]
        certs = [json.loads(t) for t in texts]
        layer = tracer.metrics()
        layer["extractor.descent_steps"] = sum(len(c["trace"]) for c in certs)
        layer["extractor.h_vertices"] = sum(len(c["final_vertices"]) for c in certs)
        layer["extractor.cert_bytes"] = sum(len(t.encode("utf-8")) for t in texts)
        traced_s = typical_pass(traced_ext) + typical_pass(traced_ver)
        layer["trace.overhead_frac"] = traced_s / (ext_s + ver_s) - 1
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layer.items()}
    else:
        ok = sum(1 for i in insts if i.name not in tally.failures) / len(insts)
        metrics = {
            "extract_s": {"value": ext_s, "unit": "s"},
            "verify_s": {"value": ver_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "ok_frac": {"value": ok, "unit": "frac"},
        }

    regressions = {n: w for n, w in tally.failures.items() if n not in known}
    info["fail_frac"] = tally.failed / tally.attempted
    info["failures"] = tally.failures
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not regressions,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
