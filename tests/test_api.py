"""Every public name of the package has a caller inside the package.

A public top-level function or class, or a public method, that nothing in
``src/isacsim`` refers to serves only the tests: it is either dead code or
a test oracle, which belongs in the tests.  The scan parses every module
except ``__init__.py`` (whose re-exports are not uses) and counts a name
as used when it appears as an ``ast.Name`` or as the attribute of an
``ast.Attribute`` anywhere in the package.  It matches names, not
bindings, so it only finds names that nothing in the package uses: a
public name that a local variable or another attribute shares passes
unseen (a method ``gram`` would, as ``uplink._logdet_fn`` has a local
``gram``).
"""

import ast
from pathlib import Path

import isacsim

PACKAGE = Path(isacsim.__file__).parent


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def _public(tree):
    # (qualified name, bare name) of each public definition of one module
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def _used(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    modules = _modules()
    used = _used(modules.values())
    unused = [f"{module}.{qualified}"
              for module, tree in modules.items()
              for qualified, name in _public(tree) if name not in used]
    assert unused == []
