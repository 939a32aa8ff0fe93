"""The wall pins of CI: `PYTHONPATH=src:tests python tests/pins.py NAME` counts the flows
(`_SplitNetwork.flow` calls) of one pinned descent, extract and then verify, or of one
uncapped canonical cut, prints the numbers and exits 1 when a pinned value fails.  A pin
on a rung of test_growth's LADDERS reads its graph, k, steps and flow bound there."""

import hashlib
import sys

import pytest
from chromcert import ExtractConfig, connectivity, extract, verify_certificate
from conftest import _count_calls
from test_growth import FLOWS, LADDERS, STEPS, dense_random, k15_chain, planted

VERIFY_FLOWS, CUT_FLOWS = "verify flows", 8806  # one uncapped cut of dense_random(300)
CUT_OUTSIDE = {0, 9, 23, 32, 40, 41, 43, 53, 65, 68, 69, 70, 80, 96, 100, 102, 105, 109, 114, 115, 133, 140, 148, 158,
               162, 167, 170, 182, 189, 194, 197, 200, 205, 210, 223, 230, 239, 249, 263, 266, 273, 275, 283, 291, 294}


def rung(ladder, n, exact=(), at_most=(), more=None):
    """(graph, k, exact values, upper bounds) of a pin on rung n of LADDERS[ladder]:
    the counters named take the values recorded there, `more` adds exact ones."""
    make, k, rungs, recorded = LADDERS[ladder]
    value = {counter: values[rungs.index(n)] for counter, values in recorded.items()}
    return lambda: make(n), k, {**{c: value[c] for c in exact}, **(more or {})}, {c: value[c] for c in at_most}


# name: (graph, k or None for the uncapped cut alone, exact values, upper bounds, certificate sha256)
PINS = {
    "dense300-cut": (lambda: dense_random(300), None, {}, {FLOWS: CUT_FLOWS}, None),
    "dense300": (*rung("dense-random", 300, [FLOWS], more={VERIFY_FLOWS: CUT_FLOWS}),
                 "0a88b9ba366ea051dc2a37d83defcad6bdd967a5b3ca990ea36072bdd1518a9e"),
    "planted250": (*rung("planted-clique", 250, [STEPS], [FLOWS]),
                   "8714612ca4b7099d5d10753466528dbea3e5231874388579b0bd2a92d8414d2a"),
    "planted1000": (*rung("planted-clique", 1000, [STEPS], [FLOWS]),
                    "60e8a2c1710364588cbb8ee85df753526faabff2aae81e3a74925faaf736053d"),
    "pendant400": (*rung("pendant-path", 400, [STEPS]),
                   "d895565581f702e65600f4f5c99a061e6334f8a1b00478be00aab2a9ed768d4c"),
    "chain160": (lambda: k15_chain(160), 2, {STEPS: 159}, {},
                 "d96b6d312e5661ff431e9eb0c39c2320c5307c9671c18cde0e2c286f2563778f"),
    "wall4b": (lambda: planted(400, 2, 22, seed=1), 3, {STEPS: 69, FLOWS: 76679}, {},
               "d0bad8297815b37a2cdf63b3db012d6f50e0b1290395f36ef1d7b92d7daa44e9"),
}


def main(name):
    make, k, exact, at_most, pinned = PINS[name]
    flows, g = _count_calls(pytest.MonkeyPatch(), "flow"), make()
    if k is None:
        cut = connectivity.min_vertex_cut(g)
        got, ok, digest = {"cut vertices": len(cut), FLOWS: flows[0]}, g.vertices - cut == CUT_OUTSIDE, None
    else:
        cert = extract(g, ExtractConfig(k=k))
        got, flows[0] = {STEPS: len(cert.trace), FLOWS: flows[0]}, 0
        ok, digest = verify_certificate(g, cert), hashlib.sha256(cert.to_json().encode()).hexdigest()
        got[VERIFY_FLOWS] = flows[0]
    print(f"{name} at k = {k}:", ", ".join(f"{c} {v}" for c, v in got.items()), f"| verified {ok}, sha256 {digest}")
    print(f"pinned: {exact}, at most {at_most}, sha256 {pinned}")
    ok = ok and digest == pinned and all(got[c] == v for c, v in exact.items())
    return 0 if ok and all(got[c] <= v for c, v in at_most.items()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
