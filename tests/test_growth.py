"""Growth gates on exact work counters, free of timing noise.

Each ladder is a family of instances at growing sizes.  At every rung each
recorded counter of `extract` (self-verify included), or of one uncapped
`min_vertex_cut`, may stay at its value or fall, and the log-log slope
between the last two rungs may not rise.  The choosability witness search
has no ladder: on each listed graph its counters may stay or fall.  A
change that lowers a counter records the new values here.
"""

import math

import pytest

from chromcert import coloring, connectivity
from chromcert.extractor import ExtractConfig, extract
from chromcert.families import FamilySpec, generate
from chromcert.graphs import Graph


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


def dense_random(n):
    return generate(FamilySpec.random(n, 0.9, 3))


STEPS, SIZES, FLOWS = "descent steps", "sum of |V(H_i)|", "flows"
CLIQUE_LADDER = {STEPS: (19, 39, 79), SIZES: (2945, 11505, 45425), FLOWS: (19, 39, 79)}

# (graph at a rung, k, rungs, recorded counter values at the rungs)
LADDERS = {
    "k15-star": (k15_star, 2, (20, 40, 80), CLIQUE_LADDER),
    "k15-chain": (k15_chain, 2, (20, 40, 80), CLIQUE_LADDER),
    "dense-random": (dense_random, 1, (50, 100, 150, 300), {FLOWS: (404, 1770, 4200, 17624)}),
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


def _count_flows(monkeypatch):
    """A one-item list counting the calls of _SplitNetwork.flow from now on."""
    flow, flows = connectivity._SplitNetwork.flow, [0]

    def counting_flow(self, *args):
        flows[0] += 1
        return flow(self, *args)

    monkeypatch.setattr(connectivity._SplitNetwork, "flow", counting_flow)
    return flows


@pytest.mark.parametrize("ladder", sorted(LADDERS))
def test_work_counters_do_not_grow(monkeypatch, ladder):
    make, k, rungs, recorded = LADDERS[ladder]
    flows = _count_flows(monkeypatch)
    measured = {STEPS: [], SIZES: [], FLOWS: []}
    for rung in rungs:
        flows[0] = 0
        cert = extract(make(rung), ExtractConfig(k=k))
        measured[STEPS].append(len(cert.trace))
        measured[SIZES].append(sum(len(s.cut) + len(s.side_y) + len(s.side_z) for s in cert.trace))
        measured[FLOWS].append(flows[0])
    for counter, values in recorded.items():
        _assert_no_growth(counter, rungs, measured[counter], values)


def test_uncapped_cut_of_a_cycle_does_not_grow(monkeypatch):
    flows, got = _count_flows(monkeypatch), []
    for n in CYCLE_RUNGS:
        flows[0] = 0
        assert connectivity.min_vertex_cut(generate(FamilySpec.cycle(n))) == frozenset({0, 2})
        got.append(flows[0])
    _assert_no_growth(FLOWS, CYCLE_RUNGS, got, CYCLE_FLOWS)


def complete_bipartite(a, b):
    return Graph.build(a + b, [(u, a + v) for u in range(a) for v in range(b)])


# (graph, t, (colourings yielded, enumerations started) by coloring._colourings)
WITNESS_SEARCHES = {
    "K3,3": (complete_bipartite(3, 3), 3, (93, 16)),
    "K3,4": (complete_bipartite(3, 4), 3, (64, 18)),
    "K4,4": (complete_bipartite(4, 4), 3, (84, 18)),
    "K2,6": (complete_bipartite(2, 6), 3, (62, 20)),
    # 3-choosable, so the whole t = 4 enumeration runs (about 0.3 s)
    "six": (Graph.build(6, [(0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 4), (3, 4), (3, 5), (4, 5)]),
            4, (38211, 7457)),
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
    assert holds == (name != "six")
    assert all(got <= value for got, value in zip(counts, recorded)), (name, counts, recorded)
