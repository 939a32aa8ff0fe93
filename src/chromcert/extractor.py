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
from typing import Iterable, Mapping

# extract self-verifies through this module's verify_certificate, which the
# tracer patches; is_k_connected is unused, bound for perfbench's tracer test.
from .checker import Certificate, DescentStep, _k_connected, connectivity_evidence, verify_certificate
from .coloring import CHOOSABILITY_CAP, list_chromatic_at_least
from .connectivity import is_k_connected, min_vertex_cut, split_by_cut  # noqa: F401
from .errors import InternalContradiction, NotInextensibleError, ResourceLimitError
from .graphs import Graph, induced_subgraph
from .solver import LIST, PLAIN, Palette, SolverBudget, SolverStats, Template, extend, is_colourable, respects
from .templates import (
    colour_from_intervals,
    degree,
    derive_completion_template,
    derive_separation_template,
    glue,
    interval_partition,
    list_direct_completion,
    rainbow_small_case,
    restrict,
    strengthen_witness,
)

@dataclass(frozen=True)
class ExtractConfig:
    """Extraction parameters.

    Plain mode uses a palette of `palette_size` colours (default 7k); list
    mode uses `lists`, a collection of colours per vertex (default: every
    vertex gets {0..4k-1}, the list analogue of the plain palette).  The
    solver first proves that no palette colouring exists;
    `trust_precondition` skips that check for graphs whose chromatic number
    is known by construction.
    """

    k: int
    mode: str = PLAIN
    palette_size: int | None = None
    lists: Mapping[int, Iterable[int]] | None = None
    budget: SolverBudget = field(default_factory=SolverBudget)
    trust_precondition: bool = False

    def __post_init__(self):
        if type(self.k) is not int:
            raise ValueError(f"k must be an integer, not {self.k!r}")
        if self.palette_size is not None and type(self.palette_size) is not int:
            raise ValueError(f"palette_size must be an integer, not {self.palette_size!r}")
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.mode not in (PLAIN, LIST):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.lists is not None and self.mode != LIST:
            raise ValueError("lists are only used in list mode")
        if self.palette_size is not None and self.mode != PLAIN:
            raise ValueError("a palette size is only used in plain mode")

    def colour_count(self) -> int | None:
        """The colours of the plain palette, or of each default list; None
        when the lists are given."""
        if self.mode == PLAIN:
            return self.palette_size if self.palette_size is not None else 7 * self.k
        return 4 * self.k if self.lists is None else None

    def palette_for(self, g: Graph) -> Palette:
        if self.mode == PLAIN:
            return Palette.plain(self.colour_count())
        lists = self.lists
        if lists is None:
            lists = dict.fromkeys(g.vertices, frozenset(range(self.colour_count())))
        return Palette.from_lists(lists)


_REFUTED = "graph admits a proper palette colouring; the extraction hypothesis fails"


def check_precondition(g: Graph, cfg: ExtractConfig) -> SolverStats:
    """Establish the initial witness pair (g, empty template); return the
    solver work of its proof (none when the precondition is trusted).

    Unless the precondition is trusted, the solver confirms that no palette
    colouring exists at all, which is exactly the chromatic-threshold
    hypothesis; a colouring instead raises NotInextensibleError carrying it.  In list
    mode no list may be empty, and the lists must name exactly g's vertices,
    else ValueError.

    A plain palette or default lists with at least n colours refute the
    hypothesis outright, trusted or not, before any palette is built: each
    vertex takes its index in id order.
    """
    if g.n == 0:
        raise NotInextensibleError("the empty graph is trivially colourable", {})
    count = cfg.colour_count()
    if count is not None and count >= g.n:
        raise NotInextensibleError(_REFUTED, {v: i for i, v in enumerate(g.sorted_vertices())})
    palette = cfg.palette_for(g)
    if cfg.mode == LIST and not all(palette.lists.values()):
        empty = next(v for v, cs in palette.lists.items() if not cs)
        raise ValueError(f"vertex {empty} has an empty list")
    if cfg.mode == LIST and palette.lists.keys() != g.vertices:
        stray, missing = sorted(palette.lists.keys() - g.vertices), sorted(g.vertices - palette.lists.keys())
        raise ValueError(f"the lists must name exactly the graph's vertices: stray {stray}, missing {missing}")
    if cfg.trust_precondition:
        return SolverStats()
    result = extend(g, Template.empty(g), palette, cfg.budget)
    if result.outcome == "sat":
        raise NotInextensibleError(_REFUTED, result.colouring)
    return result.stats


def _orient_sides(t: Template, k: int, y: frozenset[int], z: frozenset[int]):
    """(Y, Z, degree of t restricted to Z): Z's restriction must have degree
    at most k^2, with ties broken towards the smaller side and then towards
    keeping the split order (Y stays the side holding the smallest vertex id)."""
    dy = degree(restrict(t, y), k)
    dz = degree(restrict(t, z), k)
    ksq = k * k
    if dz <= ksq and (dy > ksq or len(z) <= len(y)):
        return y, z, dz
    return z, y, dy


def descend(h: Graph, t: Template, cfg: ExtractConfig) -> tuple[list[DescentStep], Graph, Template]:
    """Run the descent from the witness pair (h, t), t certified
    unsatisfiable on h, until h is k-connected; return the trace and the
    final pair.

    Each iteration strengthens the witness, stops if the graph is
    k-connected, and otherwise recurses into whichever derived side the
    solver certifies unsatisfiable.  Both sides satisfiable would glue into
    a colouring respecting the witness template, and a graph on at most k
    vertices always admits the rainbow completion, so either event raises
    InternalContradiction with its colouring attached.  Each step records
    the solver work of its side solves.
    """
    k = cfg.k
    palette = cfg.palette_for(h)
    trace: list[DescentStep] = []
    for _ in range(h.n + 1):
        t = strengthen_witness(h, t, k, palette, cfg.budget)
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
            return trace, h, t
        y0, z0 = split_by_cut(h, cut)
        y, z, deg_z = _orient_sides(t, k, y0, z0)
        deg_t = degree(t, k)
        t_sep = derive_separation_template(h, t, cut, y, z, k)
        sub_y = induced_subgraph(h, cut | y)
        res_y = extend(sub_y, t_sep, palette, cfg.budget)
        work = SolverStats()
        work.add(res_y.stats)
        if res_y.outcome == "unsat":
            recursed, h_next, t_next = "separation", sub_y, t_sep
        else:
            t_comp = derive_completion_template(h, t, cut, z, res_y.colouring, k)
            sub_z = induced_subgraph(h, cut | z)
            res_z = extend(sub_z, t_comp, palette, cfg.budget)
            work.add(res_z.stats)
            if res_z.outcome != "unsat":
                glued = glue(res_y.colouring, res_z.colouring)
                if not respects(h, t, glued, palette):
                    raise RuntimeError("glued colouring fails the respects check")
                raise InternalContradiction(
                    "both cut sides extend and glue into a respecting colouring; "
                    "the witness claim was false",
                    glued,
                )
            recursed, h_next, t_next = "completion", sub_z, t_comp
        trace.append(
            DescentStep(
                cut=tuple(sorted(cut)),
                side_y=tuple(sorted(y)),
                side_z=tuple(sorted(z)),
                recursed=recursed,
                template_degree=deg_t,
                z_degree=deg_z,
                derived_degree=degree(t_next, k),
                solver_decisions=work.decisions,
                solver_backtracks=work.backtracks,
            )
        )
        h, t = h_next, t_next
    raise RuntimeError("descent failed to terminate")


def finalize_chromatic(h: Graph, t: Template, cfg: ExtractConfig) -> tuple[dict, dict]:
    """Chromatic evidence for the final k-connected witness pair (h, t).

    Plain mode: the uncoloured part must not be (k-1)-colourable, since a
    (k-1)-colouring feeds the interval construction which would complete
    the witness template.  It is an induced subgraph of h, so h is not
    (k-1)-colourable either (extract's self-verify checks h itself).  List
    mode: the direct completion must come back unsatisfiable.  Either
    construction succeeding raises InternalContradiction with the
    completed colouring.  List-mode evidence is a bad-list witness up to
    CHOOSABILITY_CAP vertices (any size for k <= 2); past the cap it is
    the guarantee chi(h) >= k, which implies chi_ell(h) >= k, and when h
    is (k-1)-colourable no evidence is in reach: ResourceLimitError.  The
    colouring searches run under cfg.budget, the witness search under its
    wall clock.
    Returns (connectivity_evidence, chromatic_evidence).
    """
    k = cfg.k
    palette = cfg.palette_for(h)
    conn = connectivity_evidence(h)
    if not _k_connected(h, k, conn):
        raise ValueError("finalize requires a k-connected witness pair")

    if cfg.mode == PLAIN:
        rest = sorted(t.forbidden)
        sub = induced_subgraph(h, rest)
        col = is_colourable(sub, k - 1, cfg.budget)
        if col is not None:
            classes: dict[int, list[int]] = {}
            for v, c in col.items():
                classes.setdefault(c, []).append(v)
            indep = [classes[c] for c in sorted(classes)]
            intervals = interval_partition(h, t, k, indep)
            full = colour_from_intervals(h, t, intervals, palette)
            raise InternalContradiction(
                "interval construction completed the witness template; "
                "the witness claim was false",
                full,
            )
        return conn, {"kind": "colouring_unsat", "colours": k - 1}

    completion = list_direct_completion(h, t, k, palette, cfg.budget)
    if completion is not None:
        raise InternalContradiction(
            "list completion succeeded on the final pair; the witness claim "
            "was false",
            completion,
        )
    if k <= 2 or h.n <= CHOOSABILITY_CAP:
        holds, witness = list_chromatic_at_least(h, k, cfg.budget)
        if not holds:
            raise RuntimeError("final graph fails the guaranteed choosability bound")
        lists = {str(v): sorted(witness[v]) for v in sorted(witness)}
        return conn, {"kind": "choosability_witness", "t": k, "lists": lists}
    if is_colourable(h, k - 1, cfg.budget) is not None:
        raise ResourceLimitError(
            f"final graph has {h.n} > CHOOSABILITY_CAP = {CHOOSABILITY_CAP} vertices "
            f"and is {k - 1}-colourable: no checkable list-chromatic evidence"
        )
    return conn, {"kind": "theorem_guarantee", "t": k}


def extract(g: Graph, cfg: ExtractConfig) -> Certificate:
    """check_precondition, descend, finalize; the result is self-verified
    against verify_certificate before being returned.  The recorded solver
    stats cover the precondition check and the descent's steps."""
    proof = check_precondition(g, cfg)
    trace, h, t = descend(g, Template.empty(g), cfg)
    conn, chrom = finalize_chromatic(h, t, cfg)
    cert = Certificate(
        graph_hash=g.digest,
        k=cfg.k,
        mode=cfg.mode,
        palette_size=cfg.colour_count() if cfg.mode == PLAIN else None,
        trace=tuple(trace),
        final_vertices=tuple(sorted(h.vertices)),
        connectivity_evidence=conn,
        chromatic_evidence=chrom,
        solver_decisions=proof.decisions + sum(step.solver_decisions for step in trace),
        solver_backtracks=proof.backtracks + sum(step.solver_backtracks for step in trace),
    )
    if not verify_certificate(g, cert):
        raise RuntimeError("freshly extracted certificate failed verification")
    return cert
