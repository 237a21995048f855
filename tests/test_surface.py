"""The engine's public surface holds only what the package runs.

Every public top-level function of `tensor.py` and `ops.py` must be called
from somewhere in `src/tpmamba` outside its own definition.  A primitive that
only tests use belongs in the tests.
"""

import ast
from pathlib import Path

import tpmamba

PACKAGE = Path(tpmamba.__file__).parent
ENGINE = ("tensor", "ops")


def _public_functions(tree):
    return [n for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]


def _references(module, tree, skip):
    """(module, name) pairs this module's code refers to, by bare name or as
    an attribute of an imported module; nodes in `skip` are not searched."""
    names = {}  # local name -> (module, name)
    modules = {}  # local name -> module
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.FunctionDef) and module in ENGINE:
            names[node.name] = (module, node.name)
    refs = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name) and node.id in names:
            refs.add(names[node.id])
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            refs.add((modules[node.value.id], node.attr))
        stack.extend(ast.iter_child_nodes(node))
    return refs


def test_every_public_engine_function_has_a_caller_in_the_package():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    uncalled = []
    for module in ENGINE:
        for fn in _public_functions(trees[module]):
            called = any(
                (module, fn.name) in _references(name, tree, {fn} if name == module else set())
                for name, tree in trees.items()
            )
            if not called:
                uncalled.append(f"{module}.{fn.name}")
    assert not uncalled, f"no caller in src/tpmamba: {uncalled}"

