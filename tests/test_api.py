import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys
import types

import drinfeld2
from drinfeld2 import ff


def test_all_is_sorted_unique_and_resolves():
    names = drinfeld2.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(drinfeld2, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from drinfeld2 import *", namespace)
    assert set(drinfeld2.__all__) <= set(namespace)


def test_all_matches_the_public_namespace():
    # a name bound in the package is exported, and an exported name is bound
    bound = {
        name
        for name, value in vars(drinfeld2).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(drinfeld2.__all__) == bound


def test_domain_errors_share_one_base():
    # the CLI reports a DomainError with exit status 1 and lets any other
    # exception propagate, so every ValueError the library defines derives
    # from it, and the errors that signal a bug do not
    defined = {}
    for info in pkgutil.iter_modules(drinfeld2.__path__):
        module = importlib.import_module("drinfeld2." + info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                defined[name] = obj
    value_errors = {
        name for name, cls in defined.items() if issubclass(cls, ValueError)
    }
    assert value_errors == {
        "DomainError", "FieldError", "IncompatibleFieldError", "OreDomainError",
        "PolyDomainError", "RankError", "RealizationBoundError",
    }
    for name in value_errors:
        assert issubclass(defined[name], ff.DomainError), name
    bugs = ("ConsistencyError", "LinearSolveError", "InconsistentSystem",
            "UnderdeterminedSystem")
    for name in bugs:
        assert not issubclass(defined[name], ff.DomainError), name
    # the base stays out of the public API
    assert "DomainError" not in drinfeld2.__all__


def _sibling_imports(name):
    """The drinfeld2 modules that drinfeld2.<name> imports from."""
    tree = ast.parse(inspect.getsource(importlib.import_module("drinfeld2." + name)))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module)
    return found


def test_admissibility_lives_in_census():
    # the Weil verdict is a property of the census grid: census does not
    # reach into classify for it, and classify, which reads the per-module
    # invariants off the charpoly, needs neither a field-level kernel nor L{t}
    assert "classify" not in _sibling_imports("census")
    assert "ff" not in _sibling_imports("classify")
    assert "ore" not in _sibling_imports("classify")
    assert {"frobenius", "polyring"} <= _sibling_imports("classify")
    assert drinfeld2.Verdict.__module__ == "drinfeld2.census"
    assert drinfeld2.weil_admissible.__module__ == "drinfeld2.census"


def test_only_ff_reads_the_field_tables():
    # the discrete-log tables and the generator search belong to ff: other
    # modules take a field's arithmetic from ExtensionField.arith and its
    # generator from ExtensionField.generator
    private = {"_exp", "_log", "_zech", "_n_units", "_least_generator"}
    read = {}
    for info in pkgutil.iter_modules(drinfeld2.__path__):
        module = importlib.import_module("drinfeld2." + info.name)
        tree = ast.parse(inspect.getsource(module))
        read[info.name] = private & {
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
        }
    assert read.pop("ff") == private
    assert all(not names for names in read.values()), read
    # and inside ff, only ExtensionField's body, nested closures included,
    # touches the tables: PrimeField has none, and FiniteField holds only
    # what both classes share
    tables = private - {"_least_generator"}
    tree = ast.parse(inspect.getsource(drinfeld2.ff))
    (ext,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ExtensionField"
    ]

    def touched(tops):
        return tables & {
            node.attr for top in tops for node in ast.walk(top)
            if isinstance(node, ast.Attribute)
        }

    assert touched([ext]) == tables
    assert not touched(top for top in tree.body if top is not ext)
    # inside ExtensionField an operation reads the tables or goes through
    # arith(), never a third way: __init__ and _build_tables set them, only
    # _log_arith, add, mul and pow read them, and neg, a product by -1,
    # touches none
    methods = {node.name: node for node in ext.body if isinstance(node, ast.FunctionDef)}

    def users(ctx):
        return {
            name for name, method in methods.items()
            if any(isinstance(node, ast.Attribute) and node.attr in tables
                   and isinstance(node.ctx, ctx) for node in ast.walk(method))
        }

    assert users(ast.Store) == {"__init__", "_build_tables"}
    assert users(ast.Load) == {"_log_arith", "add", "mul", "pow"}
    assert not touched([methods["neg"]])


def test_the_library_imports_the_standard_library_alone():
    # drinfeld2 has no dependencies: an absolute import names a standard
    # library module, a relative one a sibling module, and the project
    # declares none (matched as text: Python 3.10 has no tomllib)
    siblings = {info.name for info in pkgutil.iter_modules(drinfeld2.__path__)}
    package = pathlib.Path(drinfeld2.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [a.name for a in node.names]
                assert node.level == 1 and set(names) <= siblings, (path.name, names)
                continue
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
    pyproject = package.parents[1] / "pyproject.toml"
    assert re.search(r"^dependencies = \[\]$", pyproject.read_text(), re.M)


def test_the_library_keeps_no_dead_names():
    # every import outside __init__.py (which re-exports) is used in its
    # module, every module-level private function or class is named by
    # some other top-level statement of the library, and every private
    # method (not a dunder) of a library class by some other statement: a
    # sibling method of any class or a top-level statement outside a class
    package = pathlib.Path(drinfeld2.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}

    def names(node):
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.alias):
                found.add(sub.name)
        return found

    statements = [(stmt, names(stmt)) for tree in trees.values() for stmt in tree.body]
    for name, tree in trees.items():
        if name != "__init__.py":
            loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        assert bound in loaded, (name, "unused import", bound)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                assert any(
                    stmt.name in refs for node, refs in statements if node is not stmt
                ), (name, "unnamed private", stmt.name)

    # a class counts as its body statements here, so that a method named
    # only inside itself is not named by its own class
    members = [
        (item, names(item))
        for tree in trees.values()
        for stmt in tree.body
        for item in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])
    ]
    methods = set()
    for name, tree in trees.items():
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            for item in cls.body:
                if (isinstance(item, ast.FunctionDef) and item.name.startswith("_")
                        and not item.name.endswith("__")):
                    methods.add(item.name)
                    assert any(
                        item.name in refs for node, refs in members if node is not item
                    ), (name, "unnamed private method", cls.name, item.name)
    # the walk reaches the private methods of ff, polyring and frobenius
    assert {"_least_generator", "_build_tables", "_terms", "_disc_parts"} <= methods


def test_readme_session_runs_as_written():
    # the README's python session runs, and its comment's presentation of
    # F_9 holds: L = F_3[y]/(y^2 + 1)
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    (session,) = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    namespace = {}
    exec(session, namespace)
    assert namespace["L"].modulus == (1, 0, 1)
    assert isinstance(namespace["cp"], drinfeld2.CharPoly)
    assert isinstance(namespace["report"], drinfeld2.ClassificationReport)
