"""chromcert: certified extraction of k-connected subgraphs of large
(list) chromatic number, with re-checkable certificates.

The package root holds the library API; every building block is
importable from its own module."""

from .checker import Certificate, DescentStep, verify_certificate
from .errors import (
    ChromcertError,
    InternalContradiction,
    NotInextensibleError,
    ResourceLimitError,
    TemplateError,
)
from .extractor import ExtractConfig, extract
from .families import FamilySpec, generate
from .graphs import Graph, from_dimacs, read_dimacs, to_dimacs, write_dimacs
from .solver import SolverBudget

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChromcertError",
    "DescentStep",
    "ExtractConfig",
    "FamilySpec",
    "Graph",
    "InternalContradiction",
    "NotInextensibleError",
    "ResourceLimitError",
    "SolverBudget",
    "TemplateError",
    "extract",
    "from_dimacs",
    "generate",
    "read_dimacs",
    "to_dimacs",
    "verify_certificate",
    "write_dimacs",
]
