"""Module boundaries read off the source: the checker's trust base, and a
single exact colouring search behind coloring.py."""

import ast
from pathlib import Path

from chromcert import checker, coloring, extractor

# The chromcert modules checker.py may import, and the only names it may
# take from templates.
CHECKER_IMPORTS = {"graphs", "connectivity", "coloring", "templates", "errors"}
TEMPLATE_NAMES = {"PLAIN", "LIST"}

# coloring.py's only loops that search: the choosability witness search.
WITNESS_SEARCH = {"list_chromatic_at_least", "_refuted", "_first_refuted_assignment"}


def _tree(module):
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _chromcert_imports(tree):
    """(module, names) for every chromcert import, relative or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "chromcert":
                    yield alias.name.partition(".")[2], set()
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield node.module or "", {a.name for a in node.names}
            elif (node.module or "").split(".")[0] == "chromcert":
                yield node.module.partition(".")[2], {a.name for a in node.names}


def test_checker_imports_only_its_trust_base():
    imports = list(_chromcert_imports(_tree(checker)))
    assert imports
    for module, names in imports:
        assert module in CHECKER_IMPORTS, module
        if module == "templates":
            assert names <= TEMPLATE_NAMES, names
    # extractor takes the checker back instead of keeping its own.
    assert extractor.verify_certificate is checker.verify_certificate
    assert extractor.Certificate is checker.Certificate


def test_coloring_has_no_search_besides_the_witness_search():
    funcs = {f.name: f for f in _tree(coloring).body if isinstance(f, ast.FunctionDef)}
    for name in ("is_colourable", "list_colour"):
        nodes = list(ast.walk(funcs[name]))
        assert not any(isinstance(n, (ast.For, ast.While)) for n in nodes), name
        assert any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "extend" for n in nodes), name
    searching = {name for name, f in funcs.items() if any(isinstance(n, ast.While) for n in ast.walk(f))}
    assert searching <= WITNESS_SEARCH
