import importlib

import chromcert

ROOT_API = {
    "extract", "verify_certificate", "ExtractConfig", "SolverBudget", "Certificate", "DescentStep",
    "FamilySpec", "generate", "Graph", "from_dimacs", "read_dimacs", "to_dimacs", "write_dimacs",
    "ChromcertError", "InternalContradiction", "NotInextensibleError", "ResourceLimitError", "TemplateError",
}


def test_the_package_root_exports_the_library_api():
    assert sorted(chromcert.__all__) == sorted(ROOT_API)
    for name in chromcert.__all__:
        obj = getattr(chromcert, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("chromcert.") and getattr(home, name) is obj, name
