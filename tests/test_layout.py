"""Package layout: every module, every module-level function (private ones
too), every public class and every public method or property of a package
class has a caller inside the package.  A caller is a loaded name that no
enclosing function binds, an attribute, or an import alias.  Every name a
module imports is used in it or listed in its `__all__`."""

import ast
import pathlib

import dpmps

PACKAGE = pathlib.Path(dpmps.__file__).parent
ENTRY_POINTS = {"__init__", "cli"}


def imported_modules(path):
    """Sibling modules named by the relative imports of a source file
    (`from .x import ...` and `from . import x`), the package's only
    import style."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_is_imported_by_another():
    files = {p.stem: p for p in PACKAGE.glob("*.py")}
    imported = set()
    for name, path in files.items():
        imported |= imported_modules(path) - {name}
    orphans = sorted(set(files) - ENTRY_POINTS - imported)
    assert orphans == []


# Checked names whose only callers are outside the package, each kept on
# purpose.
TEST_REFERENCES = {
    "covering_chain": "the covering-proof stages behind the criterion-2 "
                      "xfail",
    "pairs": "PairNet.pairs, the per-pair view that only perfbench/ "
             "reads, until it reads the net's arrays",
}


def checked_definitions(tree):
    """Top-level functions of a module, private ones included, its public
    classes, and the public methods and properties of its classes."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found.update(item.name for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("_"))
            if not node.name.startswith("_"):
                found.add(node.name)
        elif isinstance(node, ast.FunctionDef):
            found.add(node.name)
    return found


def bound_names(func):
    """Names a function binds: its parameters and every name it stores to,
    nested scopes included."""
    args = func.args
    found = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    found.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif node is not func and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def referenced_names(tree):
    """Names a module uses: a Name it loads that no enclosing function
    binds (so a local or parameter of the same name is no caller), an
    Attribute, or an import alias, leaving out a definition's references
    to itself."""
    found = set()

    def visit(node, owner, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = local | bound_names(node)
        if isinstance(node, ast.Name):
            name = None if (not isinstance(node.ctx, ast.Load)
                            or node.id in local) else node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = None
        if name is not None and name != owner:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, local)

    for stmt in tree.body:
        visit(stmt, getattr(stmt, "name", None), frozenset())
    return found


def test_every_public_name_has_a_caller():
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in PACKAGE.glob("*.py")]
    defined = set().union(*(checked_definitions(t) for t in trees))
    used = set().union(*(referenced_names(t) for t in trees))
    assert sorted(defined - used - set(TEST_REFERENCES)) == []
    # an exemption whose name has gained a caller in the package is stale
    assert sorted(set(TEST_REFERENCES) & used) == []


def byte_comparers(trees):
    """Modules, of (name, tree) pairs, that call a `.tobytes()` method."""
    return sorted(name for name, tree in trees
                  if any(isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Attribute)
                         and node.func.attr == "tobytes"
                         for node in ast.walk(tree)))


def test_only_hamiltonian_compares_term_bytes():
    # NnHamiltonian makes equal terms one array; every other module finds
    # equal terms by identity
    trees = [(p.stem, ast.parse(p.read_text(encoding="utf-8")))
             for p in PACKAGE.glob("*.py")]
    assert byte_comparers(trees) == ["hamiltonian"]


def test_a_tobytes_call_is_found():
    tree = ast.parse("def key(t):\n    return t.tobytes()\n")
    assert byte_comparers([("dp", tree)]) == ["dp"]
    tree = ast.parse("def key(t):\n    return t.tobytes\n")
    assert byte_comparers([("dp", tree)]) == []


GUARD_ERRORS = {"SizeGuardError", "NetSizeError"}


def guard_raisers(trees):
    """Modules, of (name, tree) pairs, with a `raise` of a size-guard error
    class, by name or as a module attribute, or of an instance made by
    calling one."""
    def raised(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) \
            else getattr(exc, "attr", None)
        return name in GUARD_ERRORS

    return sorted(name for name, tree in trees
                  if any(isinstance(node, ast.Raise) and node.exc is not None
                         and raised(node) for node in ast.walk(tree)))


def test_only_errors_raises_size_guard_errors():
    # every size guard goes through errors.check_size
    trees = [(p.stem, ast.parse(p.read_text(encoding="utf-8")))
             for p in PACKAGE.glob("*.py") if p.stem != "errors"]
    assert guard_raisers(trees) == []


def test_a_guard_raise_is_found():
    for stmt in ("raise SizeGuardError('too big')", "raise NetSizeError",
                 "raise SizeGuardError('x') from None",
                 "raise errors.NetSizeError('cap')"):
        assert guard_raisers([("dp", ast.parse(stmt))]) == ["dp"]
    for stmt in ("raise EmptyNetError('none')", "raise",
                 "check_size(1, 0, 'x', 'y', NetSizeError)"):
        assert guard_raisers([("dp", ast.parse(stmt))]) == []


def test_private_module_functions_are_checked():
    tree = ast.parse("def _helper():\n    pass\n\n"
                     "class Box:\n    def _inner(self):\n        pass\n")
    assert checked_definitions(tree) == {"_helper", "Box"}
    assert "_helper" not in referenced_names(tree)


def test_a_local_or_parameter_is_no_caller():
    tree = ast.parse("def pub():\n    pass\n\n"
                     "def shadow(x):\n    pub = x\n    return pub\n\n"
                     "def param(pub):\n    return pub\n")
    assert "pub" not in referenced_names(tree)
    tree = ast.parse("def pub():\n    pass\n\n"
                     "def call():\n    return pub()\n")
    assert "pub" in referenced_names(tree)


def unused_imports(tree):
    """Names a module's imports bind (`from __future__` aside) that it
    never loads and does not list in its `__all__`."""
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - loaded - exported)


def test_every_imported_name_is_used():
    unused = {p.stem: unused_imports(ast.parse(p.read_text(encoding="utf-8")))
              for p in PACKAGE.glob("*.py")}
    assert {name: found for name, found in unused.items() if found} == {}


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nimport numpy as np\nimport os.path\n"
                     "from . import dp\nfrom .mps import a, b as c\n"
                     "__all__ = ['a']\n\n"
                     "def f():\n    return np.zeros(dp.N)\n")
    assert unused_imports(tree) == ["c", "os"]
