"""Static checks on the package source, made with the standard library's ast."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "perigee"


def unused_imports(source):
    """Names an import statement binds that no other node of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detector():
    source = "import os\nfrom math import gcd, isqrt as root\n\nprint(os.sep, root(4))\n"
    assert unused_imports(source) == [(2, "gcd")]


def test_no_unused_imports_in_package():
    # __init__.py imports only to re-export, so it is exempt
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = [
        "%s:%d %s" % (path.name, line, name)
        for path in modules
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []
