"""The certificate format and its checker.

The format is the Certificate and DescentStep dataclasses: their fields,
in order, are the JSON fields, and connectivity_evidence is the one
builder of the connectivity record that extraction writes and the checker
recomputes.

verify_certificate re-checks a certificate from scratch against the graph.
Its trust base is explicit and small: the graph digest and induced
subgraphs (graphs), the max-flow minimum vertex cut and the separation rule
(connectivity), and the exact colouring search behind is_colourable and
list_colour (solver: the colouring problem and extend, which re-checks
each colouring it returns against the respects predicate).  At k <= 2
the chromatic evidence leaves each vertex at most one colour, so
is_proper decides it on the one forced colouring, and no search runs.
It imports nothing from the extraction pipeline, the choosability search
of coloring.py or the proof constructions of templates.py, and
tests/test_checker.py keeps it that way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, pairwise, starmap
from json.encoder import encode_basestring_ascii as _string
from operator import lt

from .connectivity import min_vertex_cut, separation_fault
from .graphs import Graph, induced_subgraph
from .solver import LIST, PLAIN, is_colourable, list_colour

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
        # The fields in order, read in place: asdict would deep-copy every
        # nested list and dict only for _indented to read them once.
        doc = {"format": CERTIFICATE_FORMAT, **vars(self)}
        doc["trace"] = [vars(step) for step in self.trace]
        return _indented(doc, "\n") + "\n"

    @staticmethod
    def from_json(text: str) -> "Certificate":
        """Parse a certificate; an unknown or missing field is a TypeError,
        and a key repeated in any JSON object a ValueError."""
        doc = json.loads(text, object_pairs_hook=_distinct_keys)
        if doc.get("format") != CERTIFICATE_FORMAT:
            raise ValueError(f"unknown certificate format {doc.get('format')!r}")
        del doc["format"]
        if "trace" in doc:
            doc["trace"] = tuple(DescentStep(**_tuples(s)) for s in doc["trace"])
        return Certificate(**_tuples(doc))


def _indented(value, newline: str) -> str:
    """json.dumps(value, indent=2) placed after `newline`, the line break
    and indent before it.  json's indent mode runs its pure-Python encoder,
    so the layout is written here, and the scalars by the C string encoder,
    int.__repr__ (json's own) or json.dumps; a list of ints is one join."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _string(value)
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items, ends = [f"{_key(key)}: {_indented(v, inner)}" for key, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)) and value:
        items, ends = (map(int.__repr__, value) if set(map(type, value)) == {int}
                       else [_indented(v, inner) for v in value]), "[]"
    else:
        return json.dumps(value)
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{newline}{ends[1]}"


def _key(key) -> str:
    """An object key as json writes it: a string, or the string of a
    number, boolean or null key's JSON value."""
    return _string(key) if type(key) is str else json.dumps({key: 0})[1:-4]


def _distinct_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are distinct: one encoding per claim, where
    json.loads alone would keep the last of two values."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return doc


_TUPLE_FIELDS = ("cut", "side_y", "side_z", "final_vertices")


def _tuples(doc: dict) -> dict:
    """doc with the JSON lists of the tuple fields turned back into tuples."""
    return {f: tuple(v) if f in _TUPLE_FIELDS else v for f, v in doc.items()}


def connectivity_evidence(h: Graph) -> dict:
    """The certificate's connectivity record of h: its order when h has no
    vertex cut (h is complete), else its canonical minimum vertex cut."""
    cut = min_vertex_cut(h)
    if cut is None:
        return {"kind": "complete", "order": h.n}
    return {"kind": "cut", "size": len(cut), "cut": sorted(cut)}


_EVIDENCE_KEYS = {
    "colouring_unsat": {"kind", "colours"},
    "choosability_witness": {"kind", "t", "lists"},
    "theorem_guarantee": {"kind", "t"},
}


def _ints(xs) -> bool:
    """Every entry is a JSON integer: an int, not a boolean or a float."""
    return set(map(type, xs)) <= {int}


def _increasing(*lists) -> bool:
    """Each list holds JSON integers in strictly increasing order: the one
    encoding of a vertex set or a colour list."""
    return _ints(chain(*lists)) and all(starmap(lt, chain.from_iterable(map(pairwise, lists))))


def _nats(*ns) -> bool:
    """Every argument is a nonnegative JSON integer."""
    return _ints(ns) and min(ns) >= 0


def _k_connected(h: Graph, k: int, evidence: dict) -> bool:
    """is_k_connected(h, k), read off h's connectivity evidence."""
    return h.n > k and (evidence["kind"] == "complete" or evidence["size"] >= k)


def witness_lists(h: Graph, raw, k: int) -> dict[int, frozenset[int]] | None:
    """A choosability witness's lists of colours per vertex of h, decoded,
    or None when raw is not their one encoding: its keys are exactly the
    decimal names of h's vertices, and each list is a JSON array of k - 1
    integers in strictly increasing order."""
    names = {str(v): v for v in h.vertices}
    if not (isinstance(raw, dict) and raw.keys() == names.keys()
            and all(type(cs) is list for cs in raw.values()) and _increasing(*raw.values())):
        return None
    lists = {names[key]: frozenset(cs) for key, cs in raw.items()}
    return lists if all(len(cs) == k - 1 for cs in lists.values()) else None


def verify_certificate(g: Graph, cert: Certificate) -> bool:
    """Re-check a certificate from scratch against the graph.

    Checks that every vertex id, count and colour is an int, not a bool,
    and that palette_size is a nonnegative one in plain mode, None in list
    mode; recomputes the graph hash, replays every descent step (partition
    shape, cut smallness, absence of cross edges, the k^2 side condition,
    and the derived-degree inequalities), then re-establishes both final
    guarantees: k-connectivity, and the chromatic evidence appropriate to
    the mode.  Returns False on any discrepancy.
    """
    try:
        k = cert.k
        # One encoding per claim: JSON true is not the integer 1, nor is 1.0.
        if not (_nats(k, cert.solver_decisions, cert.solver_backtracks) and _increasing(cert.final_vertices)):
            return False
        # Plain mode records its palette's size, list mode none.
        if k < 1 or not (_nats(cert.palette_size) if cert.mode == PLAIN
                         else cert.mode == LIST and cert.palette_size is None):
            return False
        if g.digest != cert.graph_hash:
            return False
        current = frozenset(g.vertices)
        ksq = k * k
        prev_degree = 2 * k * k
        for step in cert.trace:
            if not (_increasing(step.cut, step.side_y, step.side_z) and _nats(
                    step.template_degree, step.z_degree, step.derived_degree,
                    step.solver_decisions, step.solver_backtracks)):
                return False
            x = frozenset(step.cut)
            y = frozenset(step.side_y)
            z = frozenset(step.side_z)
            # A separation proves that x disconnects g[current], which is
            # all the degree accounting relies on.
            if len(x) > k - 1 or separation_fault(g, current, x, y, z):
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
        evidence, ev = connectivity_evidence(h), cert.connectivity_evidence
        # == takes 8.0 and true for integers, so the numbers' types are checked too.
        if not (_k_connected(h, k, evidence) and ev == evidence and _ints(ev.get("cut", ()))
                and _nats(ev.get("order", 0), ev.get("size", 0))):
            return False
        chrom = cert.chromatic_evidence
        # One encoding per claim: the evidence has exactly its kind's keys.
        kind = chrom["kind"]
        if chrom.keys() != _EVIDENCE_KEYS.get(kind):
            return False
        if cert.mode == PLAIN:
            if kind != "colouring_unsat" or not _nats(chrom["colours"]) or chrom["colours"] != k - 1:
                return False
        elif kind == "colouring_unsat" or not _nats(chrom["t"]) or chrom["t"] != k:
            return False
        elif kind == "choosability_witness":
            lists = witness_lists(h, chrom["lists"], k)
            return lists is not None and list_colour(h, lists) is None
        # Plain mode, or the list-mode guarantee: chi(H) >= k, which
        # implies chi_ell(H) >= k.
        return is_colourable(h, k - 1) is None
    except (ValueError, KeyError, TypeError):
        return False
