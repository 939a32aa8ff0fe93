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

from dataclasses import dataclass, field

# extract calls the self-verify through this module's verify_certificate
# binding, and is_k_connected stays bound here, because perfbench/tracer.py
# patches both names in this module.
from .checker import Certificate, DescentStep, _k_connected, verify_certificate
from .coloring import CHOOSABILITY_CAP, is_colourable, list_chromatic_at_least
from .connectivity import is_k_connected, min_vertex_cut, split_by_cut  # noqa: F401
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


def finalize_chromatic(wp: WitnessPair, cfg: ExtractConfig) -> tuple[dict, dict]:
    """Chromatic evidence for the final k-connected pair.

    Plain mode: the uncoloured part must not be (k-1)-colourable, since a
    (k-1)-colouring feeds the interval construction which would complete
    the witness template.  It is an induced subgraph of h, so h is not
    (k-1)-colourable either (extract's self-verify checks h itself).  List
    mode: the direct completion must come back unsatisfiable.  Either
    construction succeeding raises InternalContradiction with the
    completed colouring.
    Returns (connectivity_evidence, chromatic_evidence).
    """
    h, t, k = wp.h, wp.t, wp.k
    palette = cfg.palette_for(h)
    cut = min_vertex_cut(h)
    if not _k_connected(h, k, cut):
        raise ValueError("finalize requires a k-connected witness pair")
    if cut is None:
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
