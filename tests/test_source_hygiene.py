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


def unread_private_functions(sources):
    """(file, line, name) of each module-level `_name` function that no module
    of `sources` (a dict of file name to source) reads by name or attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        (name, node.lineno, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    )


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


def test_unread_private_functions_detector():
    sources = {
        "a.py": "def _local():\n    pass\n\ndef _dead():\n    pass\n\n"
        "def _called_elsewhere():\n    pass\n\ndef _by_attribute():\n    pass\n\n"
        "def public():\n    return _local()\n",
        "b.py": "from . import a\nfrom .a import _called_elsewhere\n\n"
        "_called_elsewhere()\na._by_attribute()\n",
    }
    assert unread_private_functions(sources) == [("a.py", 4, "_dead")]


def test_no_unread_private_functions_in_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert sources
    assert unread_private_functions(sources) == []
