"""Certified extraction of a k-connected subgraph with (list) chromatic
number at least k from a graph whose (list) chromatic number clears the
7k / 4k threshold.

The extraction maintains a witness pair: an induced subgraph together with
a template the solver certifies unsatisfiable.  Whenever the current graph
has a small cut, one of the two derived templates on the cut sides must
again be unsatisfiable; the descent recurses into that strictly smaller
pair.  If both sides were satisfiable, gluing the two colourings along the
cut would produce a colouring respecting the witness template, so that
branch raises InternalContradiction rather than ever being reachable on a
genuine witness.  The loop therefore terminates at a k-connected pair,
after which the unsatisfiability of the final template forces the
chromatic bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .coloring import CHOOSABILITY_CAP, is_colourable, list_chromatic_at_least
# is_k_connected stays bound for perfbench/tracer.py, which patches it here.
from .connectivity import COMPLETE, is_k_connected, min_vertex_cut, split_by_cut  # noqa: F401
from .errors import InternalContradiction, NotInextensibleError
from .graphs import Graph, graph_hash, induced_subgraph
from .solver import SolverBudget, SolveResult, extend
from .templates import (
    LIST,
    PLAIN,
    Palette,
    Template,
    colour_from_intervals,
    degree,
    derive_completion_template,
    derive_separation_template,
    glue,
    interval_partition,
    is_valid_witness,
    list_direct_completion,
    rainbow_small_case,
    respects,
    restrict,
    strengthen_witness,
)

CERTIFICATE_FORMAT = "chromcert-certificate-v1"

VERIFY = "verify"
TRUST = "trust"


@dataclass(frozen=True)
class ExtractConfig:
    """Extraction parameters.

    Plain mode uses a palette of `palette_size` colours (default 7k); list
    mode uses `lists` (default: every vertex gets {0..4k-1}, the list
    analogue of the plain palette).  The precondition policy `verify` runs
    the solver on the empty template first; `trust` skips that check for
    graphs whose chromatic number is known by construction.
    """

    k: int
    mode: str = PLAIN
    palette_size: int | None = None
    lists: dict[int, frozenset[int]] | None = None
    budget: SolverBudget = field(default_factory=SolverBudget)
    precondition: str = VERIFY
    choosability_cap: int = CHOOSABILITY_CAP
    debug_validate: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.mode not in (PLAIN, LIST):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.precondition not in (VERIFY, TRUST):
            raise ValueError(f"unknown precondition policy {self.precondition!r}")

    def palette_for(self, g: Graph) -> Palette:
        if self.mode == PLAIN:
            size = self.palette_size if self.palette_size is not None else 7 * self.k
            return Palette.plain(size)
        if self.lists is not None:
            return Palette(LIST, lists=dict(self.lists))
        default = frozenset(range(4 * self.k))
        return Palette(LIST, lists={v: default for v in g.vertices})


@dataclass(frozen=True)
class WitnessPair:
    """An induced subgraph and a template certified unsatisfiable on it."""

    h: Graph
    t: Template
    k: int
    mode: str


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


class StatTotals:
    """Deterministic solver-work counters accumulated across a pipeline."""

    def __init__(self):
        self.decisions = 0
        self.backtracks = 0

    def add(self, result: SolveResult) -> None:
        self.decisions += result.stats.decisions
        self.backtracks += result.stats.backtracks


def check_precondition(g: Graph, cfg: ExtractConfig, totals: StatTotals | None = None) -> WitnessPair:
    """Initial witness pair: the empty template on g.

    Under the verify policy the solver confirms that no palette colouring
    exists at all, which is exactly the chromatic-threshold hypothesis; a
    colouring instead raises NotInextensibleError carrying it.
    """
    if g.n == 0:
        raise NotInextensibleError("the empty graph is trivially colourable", {})
    palette = cfg.palette_for(g)
    t = Template.empty(g)
    if cfg.precondition == VERIFY:
        result = extend(g, t, palette, cfg.budget)
        if totals is not None:
            totals.add(result)
        result.raise_if_limited()
        if result.outcome == "sat":
            raise NotInextensibleError(
                "graph admits a proper palette colouring; the extraction "
                "hypothesis fails",
                result.colouring,
            )
    return WitnessPair(g, t, cfg.k, cfg.mode)


def _orient_sides(t: Template, k: int, y: frozenset[int], z: frozenset[int]):
    """Pick which side plays Z: its restriction must have degree at most
    k^2, with ties broken towards the smaller side and then towards keeping
    the split order (Y stays the side holding the smallest vertex id)."""
    dy = degree(restrict(t, y), k)
    dz = degree(restrict(t, z), k)
    ksq = k * k
    if dy <= ksq and dz <= ksq:
        if len(z) < len(y):
            return y, z
        if len(y) < len(z):
            return z, y
        return y, z
    if dz <= ksq:
        return y, z
    return z, y


def descend(
    wp: WitnessPair, cfg: ExtractConfig, totals: StatTotals | None = None
) -> tuple[list[DescentStep], WitnessPair]:
    """Run the descent until the witness pair is k-connected.

    Each iteration strengthens the witness, stops if the graph is
    k-connected, and otherwise recurses into whichever derived side the
    solver certifies unsatisfiable.  Both sides satisfiable would glue into
    a colouring respecting the witness template, and a graph on at most k
    vertices always admits the rainbow completion, so either event raises
    InternalContradiction with its colouring attached.
    """
    k = cfg.k
    palette = cfg.palette_for(wp.h)
    totals = totals if totals is not None else StatTotals()
    trace: list[DescentStep] = []
    h, t = wp.h, wp.t
    for _ in range(wp.h.n + 1):
        t = strengthen_witness(h, t, k, palette, cfg.budget)
        if cfg.debug_validate and not is_valid_witness(h, t, k, palette, cfg.budget):
            raise RuntimeError("descent invariant broken: current pair is not a witness")
        if h.n <= k:
            col = rainbow_small_case(h, t, k, palette)
            raise InternalContradiction(
                "graph on at most k vertices admits a rainbow completion; "
                "the witness claim was false",
                col,
            )
        # h.n > k here, so "no cut below k" is k-connectivity.
        cut = min_vertex_cut(h, below=k)
        if cut is None:
            final = WitnessPair(h, t, k, cfg.mode)
            return trace, final
        y0, z0 = split_by_cut(h, cut)
        y, z = _orient_sides(t, k, y0, z0)
        deg_t = degree(t, k)
        deg_z = degree(restrict(t, z), k)
        t_sep = derive_separation_template(h, t, cut, y, z, k)
        sub_y = induced_subgraph(h, cut | y)
        res_y = extend(sub_y, t_sep, palette, cfg.budget)
        res_y.raise_if_limited()
        totals.add(res_y)
        if res_y.outcome == "unsat":
            trace.append(
                DescentStep(
                    cut=tuple(sorted(cut)),
                    side_y=tuple(sorted(y)),
                    side_z=tuple(sorted(z)),
                    recursed="separation",
                    template_degree=deg_t,
                    z_degree=deg_z,
                    derived_degree=degree(t_sep, k),
                    solver_decisions=res_y.stats.decisions,
                    solver_backtracks=res_y.stats.backtracks,
                )
            )
            h, t = sub_y, t_sep
            continue
        t_comp = derive_completion_template(h, t, cut, z, res_y.colouring, k)
        sub_z = induced_subgraph(h, cut | z)
        res_z = extend(sub_z, t_comp, palette, cfg.budget)
        res_z.raise_if_limited()
        totals.add(res_z)
        if res_z.outcome == "unsat":
            trace.append(
                DescentStep(
                    cut=tuple(sorted(cut)),
                    side_y=tuple(sorted(y)),
                    side_z=tuple(sorted(z)),
                    recursed="completion",
                    template_degree=deg_t,
                    z_degree=deg_z,
                    derived_degree=degree(t_comp, k),
                    solver_decisions=res_y.stats.decisions + res_z.stats.decisions,
                    solver_backtracks=res_y.stats.backtracks + res_z.stats.backtracks,
                )
            )
            h, t = sub_z, t_comp
            continue
        glued = glue(res_y.colouring, res_z.colouring)
        if not respects(h, t, glued, palette):
            raise RuntimeError("glued colouring fails the respects check")
        raise InternalContradiction(
            "both cut sides extend and glue into a respecting colouring; "
            "the witness claim was false",
            glued,
        )
    raise RuntimeError("descent failed to terminate")


def _k_connected(h: Graph, k: int, cut) -> bool:
    """is_k_connected(h, k), read off h's min_vertex_cut."""
    return h.n > k and (cut is COMPLETE or len(cut) >= k)


def finalize_chromatic(wp: WitnessPair, cfg: ExtractConfig) -> tuple[dict, dict]:
    """Chromatic evidence for the final k-connected pair.

    Plain mode: the uncoloured part must not be (k-1)-colourable, since a
    (k-1)-colouring feeds the interval construction which would complete
    the witness template.  List mode: the direct completion must come back
    unsatisfiable.  Either construction succeeding raises
    InternalContradiction with the completed colouring.
    Returns (connectivity_evidence, chromatic_evidence).
    """
    h, t, k = wp.h, wp.t, wp.k
    palette = cfg.palette_for(h)
    cut = min_vertex_cut(h)
    if not _k_connected(h, k, cut):
        raise ValueError("finalize requires a k-connected witness pair")
    if cut is COMPLETE:
        connectivity_evidence = {"kind": "complete", "order": h.n}
    else:
        connectivity_evidence = {"kind": "cut", "size": len(cut), "cut": sorted(cut)}

    if cfg.mode == PLAIN:
        rest = sorted(t.forbidden)
        sub = induced_subgraph(h, rest)
        col = is_colourable(sub, k - 1)
        if col is not None:
            classes: dict[int, list[int]] = {}
            for v, c in col.items():
                classes.setdefault(c, []).append(v)
            indep = [classes[c] for c in sorted(classes)]
            parts = interval_partition(h, t, k, indep)
            full = colour_from_intervals(h, t, parts, palette)
            raise InternalContradiction(
                "interval construction completed the witness template; "
                "the witness claim was false",
                full,
            )
        if is_colourable(h, k - 1) is not None:
            raise RuntimeError("subgraph not (k-1)-colourable but full graph is")
        return connectivity_evidence, {"kind": "colouring_unsat", "colours": k - 1}

    completion = list_direct_completion(h, t, k, palette, cfg.budget)
    if completion is not None:
        raise InternalContradiction(
            "list completion succeeded on the final pair; the witness claim "
            "was false",
            completion,
        )
    if k <= 2 or h.n <= cfg.choosability_cap:
        holds, witness = list_chromatic_at_least(h, k, cfg.choosability_cap)
        if not holds:
            raise RuntimeError("final graph fails the guaranteed choosability bound")
        lists = {str(v): sorted(witness[v]) for v in sorted(witness)}
        return connectivity_evidence, {"kind": "choosability_witness", "t": k, "lists": lists}
    return connectivity_evidence, {"kind": "theorem_guarantee", "t": k}


def extract(g: Graph, cfg: ExtractConfig) -> Certificate:
    """check_precondition, descend, finalize; the result is self-verified
    against verify_certificate before being returned.  The recorded solver
    stats cover the precondition check and the descent."""
    totals = StatTotals()
    wp = check_precondition(g, cfg, totals)
    trace, final = descend(wp, cfg, totals)
    connectivity_evidence, chromatic_evidence = finalize_chromatic(final, cfg)
    cert = Certificate(
        graph_hash=graph_hash(g),
        k=cfg.k,
        mode=cfg.mode,
        palette_size=cfg.palette_for(g).size if cfg.mode == PLAIN else None,
        trace=tuple(trace),
        final_vertices=tuple(sorted(final.h.vertices)),
        connectivity_evidence=connectivity_evidence,
        chromatic_evidence=chromatic_evidence,
        solver_decisions=totals.decisions,
        solver_backtracks=totals.backtracks,
    )
    if not verify_certificate(g, cert):
        raise RuntimeError("freshly extracted certificate failed verification")
    return cert


def _witness_refutes(h: Graph, lists: dict[int, frozenset[int]]) -> bool:
    """True when no proper colouring from the witness lists exists.  Empty
    lists refute immediately (the vertex cannot be coloured at all)."""
    from .coloring import list_colour

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
            sub = induced_subgraph(g, current)
            # y and z nonempty with no cross edges proves x disconnects sub,
            # which is all the degree accounting relies on.
            for u, v in sub.edges:
                if (u in y and v in z) or (u in z and v in y):
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
        if recomputed is COMPLETE:
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
