"""Batch command-line front end: gen, extract, verify, reproduce."""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time

from .checker import Certificate, verify_certificate
from .errors import (
    InternalContradiction,
    NotInextensibleError,
    ResourceLimitError,
    TemplateError,
)
from .extractor import ExtractConfig, extract
from .families import generate, parse_family
from .graphs import Graph, parse_lists, read_dimacs, to_dimacs
from .solver import SolverBudget
from .suites import SUITES, report_to_json

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_NOT_INEXTENSIBLE = 3
EXIT_RESOURCE_LIMIT = 4
EXIT_VERIFY_FAILED = 5
EXIT_PARSE_ERROR = 6


def _can_write(command: str, path: str) -> bool:
    """Before any work, creating nothing: refuse an output path that is a
    directory or whose directory is missing or not writable, as _write_out would."""
    folder = os.path.dirname(path) or "."
    code = (errno.EISDIR if os.path.isdir(path)
            else errno.ENOENT if not os.path.isdir(folder)
            else errno.EACCES if not os.access(folder, os.W_OK | os.X_OK) else 0)
    if code:
        print(f"{command}: cannot write {path}: {os.strerror(code)}", file=sys.stderr)
    return not code


def _write_out(command: str, path: str, text: str) -> bool:
    """Write text to path; when that fails, say so naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"{command}: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.out and not _can_write("gen", args.out):
        return EXIT_USAGE
    try:
        spec = parse_family(args.family, args.params, args.shared, args.seed)
        g = generate(spec)
    except ValueError as exc:
        print(f"gen {args.family}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    comments = [spec.label()]
    if args.out:
        if not _write_out("gen", args.out, to_dimacs(g, comments=comments)):
            return EXIT_USAGE
        print(f"wrote {spec.label()}: {g.n} vertices, {g.m} edges -> {args.out}")
    else:
        sys.stdout.write(to_dimacs(g, comments=comments))
    return EXIT_OK


def _read_graph(command: str, path: str) -> Graph | int:
    """The DIMACS graph at path, or the exit code after saying why it
    could not be read."""
    try:
        return read_dimacs(path)
    except (OSError, ValueError) as exc:
        print(f"{command}: cannot read graph: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except MemoryError:
        print(f"{command}: out of memory while reading the graph", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT


def _cmd_extract(args: argparse.Namespace) -> int:
    g = _read_graph("extract", args.graph)
    if isinstance(g, int):
        return g
    lists = None
    if args.lists:
        try:
            with open(args.lists, "r", encoding="utf-8") as fh:
                lists = parse_lists(fh.read())
        except (OSError, ValueError) as exc:
            print(f"extract: cannot read lists: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
    try:
        budget = SolverBudget(max_decisions=args.budget_decisions,
                              wall_clock_seconds=args.budget_seconds)
        cfg = ExtractConfig(
            k=args.k,
            mode=args.mode,
            palette_size=args.palette_size,
            lists=lists,
            budget=budget,
            trust_precondition=args.trust_precondition,
        )
    except ValueError as exc:
        print(f"extract: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = args.out or (args.graph + ".cert.json")
    if not _can_write("extract", out):
        return EXIT_USAGE
    t0 = time.perf_counter()
    try:
        cert = extract(g, cfg)
    except (TemplateError, ValueError) as exc:
        # e.g. a lists file that does not cover the graph's vertices
        print(f"extract: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotInextensibleError as exc:
        print(f"extract: {exc}", file=sys.stderr)
        return EXIT_NOT_INEXTENSIBLE
    except InternalContradiction as exc:
        # only reachable under --trust-precondition with a false hypothesis
        print(f"extract: trusted hypothesis refuted: {exc}", file=sys.stderr)
        return EXIT_NOT_INEXTENSIBLE
    except ResourceLimitError as exc:
        print(f"extract: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except MemoryError:
        print("extract: out of memory while extracting", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except RecursionError:
        # a RuntimeError, but a resource limit, not a failed self-verify
        print("extract: Python's recursion limit was reached while extracting", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except RuntimeError as exc:
        print(f"extract: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    elapsed = time.perf_counter() - t0
    if not _write_out("extract", out, cert.to_json()):
        return EXIT_USAGE
    print(f"subgraph: {len(cert.final_vertices)} of {g.n} vertices")
    print(f"descent steps: {len(cert.trace)}")
    for i, step in enumerate(cert.trace):
        print(
            f"  step {i}: cut={list(step.cut)} -> {step.recursed} side "
            f"(degree {step.derived_degree})"
        )
    conn = cert.connectivity_evidence
    conn_str = "complete" if conn["kind"] == "complete" else f"min cut {conn['size']}"
    print(f"connectivity evidence: {conn_str}")
    print(f"chromatic evidence: {cert.chromatic_evidence['kind']}")
    print(f"solver: {cert.solver_decisions} decisions, {cert.solver_backtracks} backtracks")
    print(f"certificate -> {out}  ({elapsed:.2f}s)", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph("verify", args.graph)
    if isinstance(g, int):
        return g
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            cert = Certificate.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"verify: cannot parse certificate: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except RecursionError:
        print("verify: cannot parse certificate: its JSON is nested too deeply", file=sys.stderr)
        return EXIT_PARSE_ERROR
    if verify_certificate(g, cert):
        print("certificate accepted")
        return EXIT_OK
    print("certificate rejected", file=sys.stderr)
    return EXIT_REJECTED


def _cmd_reproduce(args: argparse.Namespace) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        print(f"reproduce: unknown suite {args.suite!r}; "
              f"choose from {', '.join(sorted(SUITES))}", file=sys.stderr)
        return EXIT_USAGE
    if args.out and not _can_write("reproduce", args.out):
        return EXIT_USAGE
    report, timings = suite()
    if "instances" in report:
        for record in report["instances"]:
            status = "PASS" if record["outcome"] == "pass" else "FAIL"
            seconds = timings.get(record["id"], 0.0)
            extra = "" if record["h_size"] is None else f" |H|={record['h_size']}"
            print(f"{status} {record['id']} [{record['family']}]{extra} ({seconds:.2f}s)")
        print(f"{report['passed']} passed, {report['failed']} failed")
    else:
        for name, section in report["sections"].items():
            seconds = timings.get(name, 0.0)
            print(f"{name}: {section} ({seconds:.2f}s)")
        print("suite ok" if report["ok"] else "suite FAILED")
    if args.out:
        if not _write_out("reproduce", args.out, report_to_json(report)):
            return EXIT_USAGE
        print(f"report -> {args.out}", file=sys.stderr)
    return EXIT_OK if report["ok"] else EXIT_REJECTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromcert",
        description="Extract and verify certified k-connected subgraphs of "
        "large (list) chromatic number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a DIMACS graph from a family spec")
    p_gen.add_argument("family", help="complete|cycle|kneser|mycielski|glued|random|join")
    p_gen.add_argument("params", nargs="*", help="family parameters")
    p_gen.add_argument("--shared", type=int, help="shared vertices for glued (default 1)")
    p_gen.add_argument("--seed", type=int, help="seed for random (default 0)")
    p_gen.add_argument("--out", help="output path (default: stdout)")

    p_ext = sub.add_parser("extract", help="run an extraction and write its certificate")
    p_ext.add_argument("graph", help="DIMACS graph file")
    p_ext.add_argument("--k", type=int, required=True)
    p_ext.add_argument("--mode", choices=("plain", "list"), default="plain")
    p_ext.add_argument("--palette-size", type=int, default=None,
                       help="plain-mode palette size override (default 7k)")
    p_ext.add_argument("--lists", help="list-mode lists file (default: {0..4k-1} everywhere)")
    p_ext.add_argument("--budget-decisions", type=int, default=0)
    p_ext.add_argument("--budget-seconds", type=float, default=0.0)
    p_ext.add_argument("--trust-precondition", action="store_true")
    p_ext.add_argument("--out", help="certificate path (default: <graph>.cert.json)")

    p_ver = sub.add_parser("verify", help="re-check a certificate against a graph")
    p_ver.add_argument("graph")
    p_ver.add_argument("certificate")

    p_rep = sub.add_parser("reproduce", help="run a reproduction suite")
    p_rep.add_argument("suite", help="|".join(sorted(SUITES)))
    p_rep.add_argument("--out", help="write the machine-readable report here")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"gen": _cmd_gen, "extract": _cmd_extract, "verify": _cmd_verify, "reproduce": _cmd_reproduce}
    try:
        return commands[args.command](args)
    except MemoryError:
        print(f"{args.command}: out of memory", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT


if __name__ == "__main__":
    sys.exit(main())
