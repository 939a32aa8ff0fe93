"""Batch command-line front end: gen, extract, verify, reproduce."""

from __future__ import annotations

import argparse
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
from .families import FamilySpec, generate, parse_atom
from .graphs import read_dimacs, to_dimacs, write_dimacs
from .solver import SolverBudget
from .suites import SUITES, report_to_json
from .templates import parse_lists

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_NOT_INEXTENSIBLE = 3
EXIT_RESOURCE_LIMIT = 4
EXIT_VERIFY_FAILED = 5
EXIT_PARSE_ERROR = 6


def _family_from_args(args: argparse.Namespace) -> FamilySpec | None:
    fam = args.family
    params = args.params
    try:
        if fam == "complete":
            return FamilySpec.complete(int(params[0]))
        if fam == "cycle":
            return FamilySpec.cycle(int(params[0]))
        if fam == "kneser":
            return FamilySpec.kneser(int(params[0]), int(params[1]))
        if fam == "mycielski":
            return FamilySpec.mycielski(int(params[0]))
        if fam == "glued":
            return FamilySpec.glued_cliques(tuple(int(p) for p in params), args.shared)
        if fam == "random":
            return FamilySpec.random(int(params[0]), float(params[1]), args.seed)
        if fam == "join":
            return FamilySpec.join(*(parse_atom(p) for p in params))
    except (IndexError, ValueError) as exc:
        print(f"gen: bad parameters for family {fam!r}: {exc}", file=sys.stderr)
        return None
    print(f"gen: unknown family {fam!r}", file=sys.stderr)
    return None


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = _family_from_args(args)
    if spec is None:
        return EXIT_USAGE
    try:
        g = generate(spec)
    except ValueError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    comments = [spec.label()]
    if args.out:
        write_dimacs(g, args.out, comments=comments)
        print(f"wrote {spec.label()}: {g.n} vertices, {g.m} edges -> {args.out}")
    else:
        sys.stdout.write(to_dimacs(g, comments=comments))
    return EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> int:
    try:
        g = read_dimacs(args.graph)
    except (OSError, ValueError) as exc:
        print(f"extract: cannot read graph: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
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
            precondition="trust" if args.trust_precondition else "verify",
        )
    except ValueError as exc:
        print(f"extract: {exc}", file=sys.stderr)
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
    except RuntimeError as exc:
        print(f"extract: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    elapsed = time.perf_counter() - t0
    out = args.out or (args.graph + ".cert.json")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(cert.to_json())
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
    try:
        g = read_dimacs(args.graph)
    except (OSError, ValueError) as exc:
        print(f"verify: cannot read graph: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            cert = Certificate.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"verify: cannot parse certificate: {exc}", file=sys.stderr)
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
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
    p_gen.add_argument("--shared", type=int, default=1, help="shared vertices for glued")
    p_gen.add_argument("--seed", type=int, default=0, help="seed for random")
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
    group = p_ext.add_mutually_exclusive_group()
    group.add_argument("--verify-precondition", dest="trust_precondition",
                       action="store_false", default=False)
    group.add_argument("--trust-precondition", dest="trust_precondition",
                       action="store_true")
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
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "extract":
        return _cmd_extract(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "reproduce":
        return _cmd_reproduce(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
