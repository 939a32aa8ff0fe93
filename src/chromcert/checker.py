"""The certificate format and its checker.

verify_certificate re-checks a certificate from scratch against the graph.
Its trust base is explicit and small: graph hashing and induced subgraphs
(graphs), the max-flow minimum vertex cut (connectivity), and the exact
colouring engine behind coloring.is_colourable and list_colour
(solver.extend and the template predicates it re-checks a colouring with).
It imports nothing from the extraction pipeline, and tests/test_checker.py
keeps it that way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .coloring import is_colourable, list_colour
from .connectivity import min_vertex_cut
from .graphs import Graph, graph_hash, induced_subgraph
from .templates import LIST, PLAIN

CERTIFICATE_FORMAT = "chromcert-certificate-v1"


@dataclass(frozen=True)
class DescentStep:
    """One recursion of the descent, recorded for replay by the verifier."""

    cut: tuple[int, ...]
    side_y: tuple[int, ...]
    side_z: tuple[int, ...]
    recursed: str  # "separation" (into X u Y) or "completion" (into X u Z)
    template_degree: int  # degree of the (strengthened) witness template
    z_degree: int  # degree of its restriction to Z
    derived_degree: int  # degree of the template recursed into
    solver_decisions: int
    solver_backtracks: int


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of one extraction; everything the verifier
    re-derives lives here, nothing time-dependent does."""

    graph_hash: str
    k: int
    mode: str
    palette_size: int | None
    trace: tuple[DescentStep, ...]
    final_vertices: tuple[int, ...]
    connectivity_evidence: dict
    chromatic_evidence: dict
    solver_decisions: int
    solver_backtracks: int

    def to_json(self) -> str:
        doc = {
            "format": CERTIFICATE_FORMAT,
            "graph_hash": self.graph_hash,
            "k": self.k,
            "mode": self.mode,
            "palette_size": self.palette_size,
            "trace": [
                {
                    "cut": list(s.cut),
                    "side_y": list(s.side_y),
                    "side_z": list(s.side_z),
                    "recursed": s.recursed,
                    "template_degree": s.template_degree,
                    "z_degree": s.z_degree,
                    "derived_degree": s.derived_degree,
                    "solver_decisions": s.solver_decisions,
                    "solver_backtracks": s.solver_backtracks,
                }
                for s in self.trace
            ],
            "final_vertices": list(self.final_vertices),
            "connectivity_evidence": self.connectivity_evidence,
            "chromatic_evidence": self.chromatic_evidence,
            "solver_decisions": self.solver_decisions,
            "solver_backtracks": self.solver_backtracks,
        }
        return json.dumps(doc, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "Certificate":
        doc = json.loads(text)
        if doc.get("format") != CERTIFICATE_FORMAT:
            raise ValueError(f"unknown certificate format {doc.get('format')!r}")
        trace = tuple(
            DescentStep(
                cut=tuple(s["cut"]),
                side_y=tuple(s["side_y"]),
                side_z=tuple(s["side_z"]),
                recursed=s["recursed"],
                template_degree=s["template_degree"],
                z_degree=s["z_degree"],
                derived_degree=s["derived_degree"],
                solver_decisions=s["solver_decisions"],
                solver_backtracks=s["solver_backtracks"],
            )
            for s in doc["trace"]
        )
        return Certificate(
            graph_hash=doc["graph_hash"],
            k=doc["k"],
            mode=doc["mode"],
            palette_size=doc["palette_size"],
            trace=trace,
            final_vertices=tuple(doc["final_vertices"]),
            connectivity_evidence=doc["connectivity_evidence"],
            chromatic_evidence=doc["chromatic_evidence"],
            solver_decisions=doc["solver_decisions"],
            solver_backtracks=doc["solver_backtracks"],
        )


def _k_connected(h: Graph, k: int, cut) -> bool:
    """is_k_connected(h, k), read off h's min_vertex_cut."""
    return h.n > k and (cut is None or len(cut) >= k)


def _witness_refutes(h: Graph, lists: dict[int, frozenset[int]]) -> bool:
    """True when no proper colouring from the witness lists exists.  Empty
    lists refute immediately (the vertex cannot be coloured at all)."""
    if set(lists) != set(h.vertices):
        return False
    if any(not cs for cs in lists.values()):
        return True
    return list_colour(h, lists) is None


def verify_certificate(g: Graph, cert: Certificate) -> bool:
    """Re-check a certificate from scratch against the graph.

    Recomputes the graph hash, replays every descent step (partition
    shape, cut smallness, absence of cross edges, the k^2 side condition,
    and the derived-degree inequalities), then re-establishes both final
    guarantees: k-connectivity, and the chromatic evidence appropriate to
    the mode.  Returns False on any discrepancy.
    """
    try:
        k = cert.k
        if k < 1 or cert.mode not in (PLAIN, LIST):
            return False
        if graph_hash(g) != cert.graph_hash:
            return False
        current = frozenset(g.vertices)
        ksq = k * k
        prev_degree = 2 * k * k
        for step in cert.trace:
            x = frozenset(step.cut)
            y = frozenset(step.side_y)
            z = frozenset(step.side_z)
            if x | y | z != current or len(x) + len(y) + len(z) != len(current):
                return False
            if not y or not z:
                return False
            if len(x) > k - 1:
                return False
            # y and z nonempty with no cross edges proves x disconnects
            # g[current], which is all the degree accounting relies on.
            if any(not z.isdisjoint(g.adj[u]) for u in y):
                return False
            if step.z_degree > ksq:
                return False
            if step.template_degree > prev_degree:
                return False
            if step.recursed == "separation":
                if step.derived_degree > step.template_degree:
                    return False
                current = x | y
            elif step.recursed == "completion":
                if step.derived_degree > 2 * k * k:
                    return False
                current = x | z
            else:
                return False
            prev_degree = step.derived_degree
        if frozenset(cert.final_vertices) != current:
            return False
        h = induced_subgraph(g, current)
        if h.n == 0:
            return False
        recomputed = min_vertex_cut(h)
        if not _k_connected(h, k, recomputed):
            return False
        evidence = cert.connectivity_evidence
        chrom = cert.chromatic_evidence
        if not (isinstance(evidence, dict) and isinstance(chrom, dict)
                and isinstance(chrom.get("lists", {}), dict)):
            return False
        if recomputed is None:
            if evidence.get("kind") != "complete" or evidence.get("order") != h.n:
                return False
        else:
            if evidence.get("kind") != "cut" or evidence.get("size") != len(recomputed):
                return False
            if sorted(recomputed) != list(evidence.get("cut", [])):
                return False
        if cert.mode == PLAIN:
            if chrom.get("kind") != "colouring_unsat" or chrom.get("colours") != k - 1:
                return False
            if is_colourable(h, k - 1) is not None:
                return False
        else:
            kind = chrom.get("kind")
            if kind == "choosability_witness":
                if chrom.get("t") != k:
                    return False
                lists = {int(v): frozenset(cs) for v, cs in chrom.get("lists", {}).items()}
                if any(len(cs) != k - 1 for cs in lists.values()):
                    return False
                if not _witness_refutes(h, lists):
                    return False
            elif kind != "theorem_guarantee":
                return False
        return True
    except (ValueError, KeyError, TypeError):
        return False
