"""chromcert: certified extraction of k-connected subgraphs of large
(list) chromatic number, with re-checkable certificates."""

from .checker import Certificate, DescentStep, verify_certificate
from .coloring import list_chromatic_at_least
from .connectivity import is_k_connected, min_vertex_cut, split_by_cut
from .errors import (
    ChromcertError,
    InternalContradiction,
    NotInextensibleError,
    ResourceLimitError,
    TemplateError,
)
from .extractor import (
    ExtractConfig,
    WitnessPair,
    check_precondition,
    descend,
    extract,
    finalize_chromatic,
)
from .families import FamilySpec, generate
from .graphs import Graph, from_dimacs, graph_hash, induced_subgraph, read_dimacs, to_dimacs, write_dimacs
from .solver import Palette, SolveResult, SolverBudget, Template, extend, is_colourable, list_colour, respects
from .templates import (
    IntervalPartition,
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

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChromcertError",
    "DescentStep",
    "ExtractConfig",
    "FamilySpec",
    "Graph",
    "InternalContradiction",
    "IntervalPartition",
    "NotInextensibleError",
    "Palette",
    "ResourceLimitError",
    "SolveResult",
    "SolverBudget",
    "Template",
    "TemplateError",
    "WitnessPair",
    "check_precondition",
    "colour_from_intervals",
    "degree",
    "derive_completion_template",
    "derive_separation_template",
    "descend",
    "extend",
    "extract",
    "finalize_chromatic",
    "from_dimacs",
    "generate",
    "glue",
    "graph_hash",
    "induced_subgraph",
    "interval_partition",
    "is_colourable",
    "is_k_connected",
    "list_chromatic_at_least",
    "list_colour",
    "list_direct_completion",
    "min_vertex_cut",
    "rainbow_small_case",
    "read_dimacs",
    "respects",
    "restrict",
    "split_by_cut",
    "strengthen_witness",
    "to_dimacs",
    "verify_certificate",
    "write_dimacs",
]
