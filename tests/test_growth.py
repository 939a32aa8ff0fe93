"""Growth gates on exact work counters, free of timing noise.

Each ladder is a family of instances at growing sizes.  At every rung each
recorded counter of `extract` (self-verify included), of one uncapped
`min_vertex_cut` or of one `extend` may stay at its value or fall, and the
log-log slope between the last two rungs may not rise.  The choosability
witness search has no ladder: on each listed graph its counters may stay or
fall.  A change that lowers a counter records the new values here.

The CI wall pins of tests/pins.py on a ladder rung (dense 300, planted 250
and 1,000, pendant path 400) read their graph, k, step count and flow bound
from LADDERS.
"""

import math
import random
from itertools import combinations

import pytest

from chromcert import coloring, connectivity
from chromcert.extractor import ExtractConfig, extract
from chromcert.families import FamilySpec, generate
from chromcert.graphs import Graph
from chromcert.solver import Palette, Template, extend


def k15_star(m):
    """m K15s sharing one vertex."""
    return generate(FamilySpec.glued_cliques((15,) * m, 1))


def k15_chain(m):
    """m K15s in a row, each sharing one vertex with the next."""
    edges = []
    for i in range(m):
        block = range(14 * i, 14 * i + 15)
        edges += [(u, v) for u in block for v in block if u < v]
    return Graph.build(14 * m + 1, edges)


def pendant_path(length):
    """A path on `length` vertices whose last vertex lies in a K15: each
    canonical cut is the smallest cut vertex, so each step peels one path
    vertex."""
    edges = [(v, v + 1) for v in range(length - 1)]
    clique = range(length - 1, length + 14)
    edges += [(u, v) for u in clique for v in clique if u < v]
    return Graph.build(length + 14, edges)


def dense_random(n):
    return generate(FamilySpec.random(n, 0.9, 3))


def planted(n, d, clique, seed):
    """A sparse random graph with a planted clique: each vertex draws d
    partners, a drawn partner other than itself gives an edge, and then
    `clique` sampled vertices become a clique."""
    rng = random.Random(seed)
    edges = set()
    for v in range(n):
        for _ in range(d):
            u = rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
    edges |= set(combinations(sorted(rng.sample(range(n), clique)), 2))
    return Graph.build(n, sorted(edges))


STEPS, SIZES, FLOWS = "descent steps", "sum of |V(H_i)|", "flows"
SEPARATORS = "_SplitNetwork._separator calls"
SEARCHES = "augmenting searches"
CLIQUE_LADDER = {STEPS: (19, 39, 79), SIZES: (2945, 11505, 45425), FLOWS: (19, 39, 79)}

# (graph at a rung, k, rungs, recorded counter values at the rungs)
LADDERS = {
    "k15-star": (k15_star, 2, (20, 40, 80), CLIQUE_LADDER),
    "k15-chain": (k15_chain, 2, (20, 40, 80), CLIQUE_LADDER),
    # Beside the flows, the augmenting searches: one in each of the two
    # uncapped cuts of the final H (finalize and the self-verify); every
    # other flow is settled by its s-w-t paths, its s-a-b-t paths or a
    # one-path detour.
    "dense-random": (dense_random, 1, (50, 100, 150, 300), {FLOWS: (402, 1766, 4196, 17612),
                                                           SEARCHES: (2, 2, 2, 2)}),
    # The minimum degree settles every query, so no flow runs.
    "pendant-path": (pendant_path, 2, (100, 200, 400), {STEPS: (99, 199, 399), SIZES: (6435, 22885, 85785),
                                                       FLOWS: (0, 0, 0)}),
    # Each canonical cut at kappa = 1 is the smallest cut vertex, found by
    # one depth-first search; a flow per non-neighbour of the first vertex,
    # and a separator closure per flow of value 1, took 10,296 flows and
    # 5,882 closures at n = 250.  The closures left are those of the final
    # H's uncapped cut, in finalize and in the self-verify.  At n = 1,000
    # there are none, so the slope gate reads a count that falls between
    # the last two rungs, not one that rises from 0.
    "planted-clique": (lambda n: planted(n, 1, 15, seed=1), 2, (60, 125, 250, 500, 1000),
                       {STEPS: (18, 30, 66, 133, 205), SIZES: (830, 2377, 10378, 35439, 89541),
                        FLOWS: (135, 144, 447, 757, 816), SEPARATORS: (0, 0, 0, 180, 0)}),
    # Wall 4b: kappa is 2 or 3 at every step, so most flows are capped at 3
    # and repeat a query of an earlier step.  Records of the paths of each
    # search that met its cap settle those with no search: 1,559 and 14,130
    # searches without them.
    "wall-4b": (lambda n: planted(n, 2, 22, seed=1), 3, (100, 200),
                {STEPS: (9, 32), FLOWS: (3180, 18434), SEARCHES: (588, 2340)}),
}


# The uncapped cut of C_n at these n: kappa = 2 and the cut holds only
# vertex 0, so the tail scans every prefix from {0, 1} down.
CYCLE_RUNGS, CYCLE_FLOWS = (150, 300, 600), (294, 594, 1194)


def _slope(rungs, values):
    """log-log slope between the last two rungs."""
    (r0, r1), (v0, v1) = rungs[-2:], values[-2:]
    return math.log2(max(v1, 1) / max(v0, 1)) / math.log2(r1 / r0)


def _assert_no_growth(counter, rungs, got, values):
    assert all(g <= v for g, v in zip(got, values)), (counter, got, values)
    assert _slope(rungs, got) <= _slope(rungs, values), (counter, got, values)


@pytest.mark.parametrize("ladder", sorted(LADDERS))
def test_work_counters_do_not_grow(monkeypatch, count_flows, count_searches, ladder):
    make, k, rungs, recorded = LADDERS[ladder]
    separator, separators = connectivity._SplitNetwork._separator, [0]

    def counting_separator(self, *args):
        separators[0] += 1
        return separator(self, *args)

    monkeypatch.setattr(connectivity._SplitNetwork, "_separator", counting_separator)
    measured = {STEPS: [], SIZES: [], FLOWS: [], SEPARATORS: [], SEARCHES: []}
    for rung in rungs:
        count_flows[0] = count_searches[0] = separators[0] = 0
        cert = extract(make(rung), ExtractConfig(k=k))
        measured[STEPS].append(len(cert.trace))
        measured[SIZES].append(sum(len(s.cut) + len(s.side_y) + len(s.side_z) for s in cert.trace))
        measured[FLOWS].append(count_flows[0])
        measured[SEPARATORS].append(separators[0])
        measured[SEARCHES].append(count_searches[0])
    for counter, values in recorded.items():
        _assert_no_growth(counter, rungs, measured[counter], values)


def test_uncapped_cut_of_a_cycle_does_not_grow(count_flows):
    got = []
    for n in CYCLE_RUNGS:
        count_flows[0] = 0
        assert connectivity.min_vertex_cut(generate(FamilySpec.cycle(n))) == frozenset({0, 2})
        got.append(count_flows[0])
    _assert_no_growth(FLOWS, CYCLE_RUNGS, got, CYCLE_FLOWS)


# extend's proof that join(C5 x r) is not (3r - 1)-colourable, at these r.
JOIN_RUNGS = (9, 10, 11)
JOIN_WORK = {"decisions": (61455, 202938, 670220), "backtracks": (48486, 160102, 528740)}


def test_solver_work_on_cycle_joins_does_not_grow():
    got = {counter: [] for counter in JOIN_WORK}
    for r in JOIN_RUNGS:
        g = generate(FamilySpec.join(*[FamilySpec.cycle(5)] * r))
        res = extend(g, Template.empty(g), Palette.plain(3 * r - 1))
        assert res.outcome == "unsat"
        got["decisions"].append(res.stats.decisions)
        got["backtracks"].append(res.stats.backtracks)
    for counter, values in JOIN_WORK.items():
        _assert_no_growth(counter, JOIN_RUNGS, got[counter], values)


def complete_bipartite(a, b):
    return Graph.build(a + b, [(u, a + v) for u in range(a) for v in range(b)])


SIX_EDGES = [(0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 4), (3, 4), (3, 5), (4, 5)]

# (graph, t, (colourings yielded, enumerations started) by coloring._colourings)
WITNESS_SEARCHES = {
    "K3,3": (complete_bipartite(3, 3), 3, (93, 16)),
    "K3,4": (complete_bipartite(3, 4), 3, (64, 18)),
    "K4,4": (complete_bipartite(4, 4), 3, (84, 18)),
    "K2,6": (complete_bipartite(2, 6), 3, (62, 20)),
    # 3-choosable, so the whole t = 4 enumeration runs (about 0.3 s)
    "six": (Graph.build(6, SIX_EDGES), 4, (38211, 7457)),
    # peeling the pendant vertices leaves `six` to the search; on all eight it yields 1,121,798 colourings
    "six plus two pendant vertices": (Graph.build(8, SIX_EDGES + [(0, 6), (1, 7)]), 4, (38211, 7457)),
}


@pytest.mark.parametrize("name", sorted(WITNESS_SEARCHES))
def test_witness_search_colourings_do_not_grow(monkeypatch, name):
    g, t, recorded = WITNESS_SEARCHES[name]
    colourings, counts = coloring._colourings, [0, 0]

    def counting_colourings(*args):
        counts[1] += 1
        for chosen in colourings(*args):
            counts[0] += 1
            yield chosen

    monkeypatch.setattr(coloring, "_colourings", counting_colourings)
    holds, _ = coloring.list_chromatic_at_least(g, t)
    assert holds == (not name.startswith("six"))
    assert all(got <= value for got, value in zip(counts, recorded)), (name, counts, recorded)


def test_only_the_descent_reads_path_records(monkeypatch):
    # The descent's capped cuts share one PathRecords; finalize's and
    # verify's uncapped cuts, and the self-verify's, build their networks
    # with none, so verify never trusts a path that extract found.
    from chromcert import checker, extractor

    phase, records_by_phase = ["other"], {}
    init = connectivity._SplitNetwork.__init__

    def recording_init(self, g, records=None):
        records_by_phase.setdefault(phase[0], set()).add(records)
        init(self, g, records)

    def in_phase(name, fn):
        def run(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer
        return run

    monkeypatch.setattr(connectivity._SplitNetwork, "__init__", recording_init)
    for name in ("descend", "finalize_chromatic", "verify_certificate"):
        monkeypatch.setattr(extractor, name, in_phase(name, getattr(extractor, name)))
    g = planted(100, 2, 22, seed=1)
    cert = extract(g, ExtractConfig(k=3))
    assert in_phase("verify", checker.verify_certificate)(g, cert)
    descent = records_by_phase.pop("descend")
    assert len(descent) == 1 and None not in descent
    assert records_by_phase.keys() == {"finalize_chromatic", "verify_certificate", "verify"}
    assert all(found == {None} for found in records_by_phase.values()), records_by_phase
