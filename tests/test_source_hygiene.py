"""Static checks on the package source, made with the standard library's ast."""

import ast
import re
import sys
from pathlib import Path

import pytest

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


def unread_definitions(definitions, readers):
    """(file, line, name) of each function, method, property or class of
    `definitions` (a dict of file name to source) that no source of `readers`
    reads by name or attribute.  Dunders are called by the language itself,
    so they are exempt."""
    read = set()
    for source in readers.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        (name, node.lineno, node.name)
        for name, source in definitions.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    )


def unread_members(definitions, readers):
    """(file, line, name) of each method, property or `name = property(...)`
    in a class body of `definitions` that no source of `readers` reads as an
    attribute.  A member is reached through its instance or class, so a bare
    name of the same spelling does not read it; dunders are exempt.  A method
    named like a field of a namedtuple of `definitions` is read only where an
    attribute of its name is called, since `table.least` reads the field."""
    trees = [ast.parse(source) for source in readers.values()]
    read = {
        node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    called = {
        node.func.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    fields = {
        field
        for source in definitions.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "namedtuple"
        and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
        for field in node.args[1].value.replace(",", " ").split()
    }
    flagged = []
    for file, source in definitions.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                seen = read
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                    if node.name in fields and not any(
                        getattr(d, "id", None) == "property" for d in node.decorator_list
                    ):
                        seen = called
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and (
                    getattr(node.value.func, "id", None) == "property"
                ):
                    names = [target.id for target in node.targets if isinstance(target, ast.Name)]
                else:
                    continue
                flagged.extend(
                    (file, node.lineno, name) for name in names
                    if not (name.startswith("__") and name.endswith("__")) and name not in seen
                )
    return sorted(flagged)


def unread_private_functions(sources):
    """(file, line, name) of each `_name` function that no module of
    `sources` (a dict of file name to source) reads by name or attribute."""
    return [entry for entry in unread_definitions(sources, sources) if entry[2].startswith("_")]


def never_passed_parameters(definitions, callers):
    """(file, line, 'function.parameter') of each defaulted parameter of a
    function or method of `definitions` (a dict of file name to source) that
    no call in `callers` passes, by keyword or by position.  Calls are matched
    by the called name or attribute, and a class's __init__ by the class
    name; a call that unpacks *args or **kwargs passes all it could."""
    positional, keywords = {}, {}
    for source in callers.values():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            count = float("inf") if starred else len(node.args)
            positional[name] = max(positional.get(name, 0), count)
            keywords.setdefault(name, set()).update(kw.arg for kw in node.keywords)
    flagged = []
    for file, source in definitions.items():
        tree = ast.parse(source)
        owner = {}  # a method's FunctionDef -> its class
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                owner.update((f, cls) for f in cls.body if isinstance(f, ast.FunctionDef))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = owner.get(node)
            name = cls.name if cls and node.name == "__init__" else node.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            bound = 1 if cls and not static else 0
            passed = keywords.get(name, set())
            params = node.args.posonlyargs + node.args.args
            first_defaulted = len(params) - len(node.args.defaults)
            defaulted = [
                (param, index - bound) for index, param in enumerate(params)
                if index >= first_defaulted
            ] + [
                (param, None)
                for param, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is not None
            ]
            for param, slot in defaulted:
                by_position = slot is not None and positional.get(name, 0) > slot
                if not (by_position or param.arg in passed or None in passed):
                    flagged.append((file, param.lineno, "%s.%s" % (name, param.arg)))
    return sorted(flagged)


def test_unused_imports_detector():
    source = "import os\nfrom math import gcd, isqrt as root\n\nprint(os.sep, root(4))\n"
    assert unused_imports(source) == [(2, "gcd")]


def unused_imports_in(paths):
    """'file:line name' for each unused import in the given source files."""
    assert paths
    return [
        "%s:%d %s" % (path.name, line, name)
        for path in paths
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]


def test_no_unused_imports_in_package():
    assert unused_imports_in(sorted(PACKAGE.glob("*.py"))) == []


def test_no_unused_imports_in_tests():
    assert unused_imports_in(sorted(Path(__file__).resolve().parent.glob("*.py"))) == []


def imported_modules(source):
    """Top-level names of the modules an import statement of the source loads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_detector():
    source = (
        "import os.path\nfrom . import cli\nfrom json import dumps\n\n"
        "def f():\n    import dataclasses\n"
    )
    assert imported_modules(source) == {"os", "json", "dataclasses"}


def test_no_module_imports_dataclasses():
    # every layer a command runs is executed in its process: records are namedtuples,
    # which cost a tenth of a frozen dataclass to create, and the dataclasses
    # import alone pulls in inspect, ast, dis and tokenize
    importers = [
        path.name for path in sorted(PACKAGE.glob("*.py"))
        if "dataclasses" in imported_modules(path.read_text(encoding="utf-8"))
    ]
    assert importers == []


def test_runtime_dependencies_are_the_third_party_imports():
    # pyproject.toml declares exactly the modules outside the standard library
    # that the package imports in any scope, so no command can load a module
    # that installing perigee does not bring
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[\w.-]+", req).group().lower()
                for req in project["project"]["dependencies"]}
    imported = set().union(*(imported_modules(path.read_text(encoding="utf-8"))
                             for path in PACKAGE.glob("*.py")))
    assert sorted(imported - set(sys.stdlib_module_names) - {"perigee"}) == sorted(declared)


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


def test_unread_definitions_detector():
    definitions = {
        "m.py": "class A:\n    def __init__(self):\n        pass\n\n"
        "    @property\n    def used(self):\n        return 1\n\n"
        "    @property\n    def dead_property(self):\n        return 2\n\n"
        "    def dead_method(self):\n        return self.used\n\n"
        "def tested():\n    def helper():\n        pass\n    return helper\n\n"
        "class DeadRow:\n    n: int\n",
    }
    readers = dict(definitions, **{"test_m.py": "from m import A, tested\n\nA()\ntested()\n"})
    assert unread_definitions(definitions, readers) == [
        ("m.py", 10, "dead_property"),
        ("m.py", 13, "dead_method"),
        ("m.py", 21, "DeadRow"),
    ]


def test_no_unread_definitions_in_package():
    # a definition counts as read if the package, its tests or the bench
    # harness names it
    root = PACKAGE.parent.parent
    definitions = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = {
        str(p.relative_to(root)): p.read_text(encoding="utf-8")
        for folder in ("src", "tests", "bench")
        for p in (root / folder).rglob("*.py")
    }
    assert definitions and readers
    assert unread_definitions(definitions, readers) == []


def test_unread_members_detector():
    definitions = {
        "m.py": "class A:\n    def __init__(self):\n        pass\n\n"
        "    def read(self):\n        return 1\n\n"
        "    def by_name_only(self):\n        return 2\n\n"
        "    @property\n    def unread_property(self):\n        return 3\n\n"
        "    shown = property(lambda a: 4)\n    hidden = property(lambda a: 5)\n"
        "    plain = 6\n\n"
        "def by_name_only():\n    return A().read() + A().shown\n\n"
        "Row = namedtuple('Row', 'least fixed, size')\n\n"
        "class Sequence:\n    @classmethod\n    def least(cls, values):\n        pass\n\n"
        "    @classmethod\n    def fixed(cls, values):\n        pass\n\n"
        "    @property\n    def size(self):\n        return 7\n",
    }
    readers = dict(definitions, **{
        "use.py": "from m import by_name_only\n\nby_name_only()\n",
        # Row's fields are read as attributes; only fixed is also called
        "table.py": "row = Row(1, 2, 3)\nprint(row.least, row.fixed, row.size)\n"
        "Sequence.fixed([1])\n",
    })
    assert unread_members(definitions, readers) == [
        ("m.py", 8, "by_name_only"),
        ("m.py", 12, "unread_property"),
        ("m.py", 16, "hidden"),
        ("m.py", 26, "least"),
    ]


def test_package_defines_nothing_only_tests_read():
    # what only the tests read (oracles, mpmath views of balls) lives in
    # tests/oracles.py: each function, class and class member of the package
    # is read by the package or the bench harness, a member as an attribute
    root = PACKAGE.parent.parent
    definitions = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    readers = {
        str(p.relative_to(root)): p.read_text(encoding="utf-8")
        for folder in ("src", "bench")
        for p in (root / folder).rglob("*.py")
    }
    assert definitions and readers
    unread = unread_definitions(definitions, readers) + unread_members(definitions, readers)
    assert sorted(set(unread)) == []


def test_never_passed_parameters_detector():
    definitions = {
        "m.py": "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
        "class K:\n    def __init__(self, x=0, y=0):\n        pass\n\n"
        "    def method(self, z=0, w=0):\n        pass\n\n"
        "def g(u=0):\n    pass\n\n"
        "def h(v=0):\n    pass\n",
    }
    callers = dict(definitions, **{
        "use.py": "f(0, 5, d=6)\nK(7)\nK().method(8)\ng(*[])\nh(**{})\n",
    })
    assert never_passed_parameters(definitions, callers) == [
        ("m.py", 1, "f.c"),
        ("m.py", 1, "f.e"),
        ("m.py", 5, "K.y"),
        ("m.py", 8, "method.w"),
    ]


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call in the package, its tests or the bench harness
    # overrides is a setting nobody sets: fold it into the function
    root = PACKAGE.parent.parent
    definitions = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    callers = {
        str(p.relative_to(root)): p.read_text(encoding="utf-8")
        for folder in ("src", "tests", "bench")
        for p in (root / folder).rglob("*.py")
    }
    assert definitions and callers
    assert never_passed_parameters(definitions, callers) == []


def tables_built_whole(source):
    """(function, line) of each call of _emit in a cmd_* function whose rows
    argument (the third, or rows=) is neither a generator expression nor a
    name that the function binds only by assigning generator expressions."""
    flagged = []
    for func in ast.walk(ast.parse(source)):
        if not (isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_")):
            continue
        assigned = {
            target: node.value
            for node in ast.walk(func) if isinstance(node, ast.Assign)
            for target in node.targets
        }
        bound = {}  # name -> the value of each of its bindings; None if not `name = value`
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, []).append(assigned.get(node))
            elif isinstance(node, ast.arg):
                bound.setdefault(node.arg, []).append(None)
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_emit"):
                continue
            rows = call.args[2] if len(call.args) > 2 else next(
                (kw.value for kw in call.keywords if kw.arg == "rows"), None
            )
            values = bound.get(rows.id, [None]) if isinstance(rows, ast.Name) else [rows]
            if not all(isinstance(value, ast.GeneratorExp) for value in values):
                flagged.append((func.name, call.lineno))
    return flagged


def test_tables_built_whole_detector():
    source = (
        "def cmd_streamed(args, out):\n"
        "    rows = (r for r in range(3))\n"
        "    _emit(args, [], rows, {}, out)\n"
        "    _emit(args, [], (r for r in range(3)), {}, out)\n"
        "\n"
        "def cmd_listed(args, out):\n"
        "    rows = [r for r in range(3)]\n"
        "    _emit(args, [], rows, {}, out)\n"
        "\n"
        "def cmd_rebound(args, out):\n"
        "    rows = (r for r in range(3))\n"
        "    for rows in [[1]]:\n"
        "        pass\n"
        "    _emit(args, [], rows=rows, summary={}, out=out)\n"
        "\n"
        "def cmd_passed(args, rows, out):\n"
        "    _emit(args, [], rows, {}, out)\n"
        "\n"
        "def cmd_inline(args, out):\n"
        "    _emit(args, [], list(range(3)), {}, out)\n"
        "\n"
        "def helper(args, out):\n"
        "    _emit(args, [], [1], {}, out)\n"
    )
    assert tables_built_whole(source) == [
        ("cmd_listed", 8), ("cmd_rebound", 14), ("cmd_passed", 17), ("cmd_inline", 20),
    ]


def test_no_command_builds_its_whole_table():
    # _emit writes each row as the generator yields it, so a command's peak
    # memory is its inputs plus one formatted row
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    emitters = {
        func.name
        for func in ast.walk(ast.parse(source))
        if isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_")
        for call in ast.walk(func)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_emit"
    }
    assert len(emitters) == 6
    assert tables_built_whole(source) == []
