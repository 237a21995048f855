"""The public surface holds only what runs.

Every public top-level function of `tensor.py` and `ops.py` must be called
from somewhere in `src/tpmamba` outside its own definition and outside
`selfcheck.py`: a primitive that only the tests or the check suites use
belongs with them.  Every other public top-level function,
and every public method or property of a class in `src/tpmamba`, needs a
caller in `src/tpmamba`, `scripts/` or `perfbench/`.  Methods are matched by
attribute name, since the receiver's class is not known statically.  The
benchmark's tracer must find every module attribute it patches.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import tpmamba

PACKAGE = Path(tpmamba.__file__).parent
REPO = PACKAGE.parents[1]
ENGINE = ("tensor", "ops")

# Names kept without a caller outside the tests, each with its reason.
ALLOWED = set()


def _parse(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


PACKAGE_TREES = _parse(sorted(PACKAGE.glob("*.py")))
CALLER_TREES = {
    **PACKAGE_TREES,
    **_parse(sorted((REPO / "scripts").glob("*.py")) + sorted((REPO / "perfbench").rglob("*.py"))),
}


def _public_functions(tree):
    return [n for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]


def _public_methods(tree):
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for n in cls.body:
                if isinstance(n, ast.FunctionDef) and not n.name.startswith("_"):
                    yield cls.name, n


def _module_of(path):
    """The package module a file defines, or None outside the package."""
    return path.stem if path.parent == PACKAGE else None


def _references(path, tree, within=None):
    """Count of the (module, name) pairs that the code of `within` (default:
    the whole file) refers to, by bare name or as an attribute of an imported
    package module.  Package imports anywhere in the file are resolved,
    relative (`from .ops import conv3d`) or absolute (`from tpmamba import ops`)."""
    names = {}  # local name -> (module, name)
    modules = {}  # local name -> module
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            package_module = node.module
        elif node.level == 0 and (node.module or "").split(".")[0] == "tpmamba":
            package_module = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            if package_module is None:
                modules[alias.asname or alias.name] = alias.name
            else:
                names[alias.asname or alias.name] = (package_module, alias.name)
    own = _module_of(path)
    if own is not None:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names[node.name] = (own, node.name)
    refs = Counter()
    for node in ast.walk(within or tree):
        if isinstance(node, ast.Name) and node.id in names:
            refs[names[node.id]] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            refs[(modules[node.value.id], node.attr)] += 1
    return refs


def _attributes(node):
    """Count of the attribute names that this code reads or calls."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _uncalled_functions(modules, callers):
    """Public functions of these modules referred to nowhere in `callers`
    but inside their own definition."""
    total = sum((_references(p, t) for p, t in callers.items()), Counter())
    uncalled = []
    for path, tree in PACKAGE_TREES.items():
        module = _module_of(path)
        if module not in modules:
            continue
        for fn in _public_functions(tree):
            key = (module, fn.name)
            if total[key] <= _references(path, tree, fn)[key] and f"{module}.{fn.name}" not in ALLOWED:
                uncalled.append(f"{module}.{fn.name}")
    return uncalled


def test_every_public_engine_function_has_a_caller_in_the_package():
    model_trees = {p: t for p, t in PACKAGE_TREES.items() if p.stem != "selfcheck"}
    uncalled = _uncalled_functions(ENGINE, model_trees)
    assert not uncalled, f"no caller in src/tpmamba outside selfcheck.py: {uncalled}"


def test_every_public_function_has_a_caller():
    others = {_module_of(p) for p in PACKAGE_TREES} - set(ENGINE)
    uncalled = _uncalled_functions(others, CALLER_TREES)
    assert not uncalled, f"no caller in src/tpmamba, scripts/ or perfbench/: {uncalled}"


def test_every_public_method_has_a_caller():
    total = sum((_attributes(t) for t in CALLER_TREES.values()), Counter())
    uncalled = []
    for path, tree in PACKAGE_TREES.items():
        for cls, fn in _public_methods(tree):
            name = f"{_module_of(path)}.{cls}.{fn.name}"
            if total[fn.name] <= _attributes(fn)[fn.name] and name not in ALLOWED:
                uncalled.append(name)
    assert not uncalled, f"no caller in src/tpmamba, scripts/ or perfbench/: {uncalled}"


def test_benchmark_tracer_installs_and_restores_every_patched_attribute():
    # perfbench/tracer.py wraps package functions where their callers look
    # them up (`triplane.conv3d`, `ssm.conv1d_depthwise`, each `_record`, ...);
    # a renamed or removed one makes `install` raise AttributeError
    spec = importlib.util.spec_from_file_location("perfbench_tracer", REPO / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    modules = [importlib.import_module(f"tpmamba.{p.stem}") for p in PACKAGE_TREES if p.stem != "__init__"]
    before = [dict(vars(m)) for m in modules]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()  # a partial install must not leak into later tests
    assert [dict(vars(m)) for m in modules] == before
