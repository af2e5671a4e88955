"""Every name the package defines is used by the package itself.

Parses ``src/xtune/*.py`` and checks that each module-level function,
class and assigned name, and each method or property that is not a dunder,
is loaded somewhere in ``src/xtune`` (as a name or an attribute).  Code
that only the tests call belongs in ``tests/``.

The guard matches by name only, so it is coarse: a definition passes when
any unrelated load shares its name (``log``, ``words``), and dynamic
lookups (``getattr`` with a string) do not count as uses.
"""

import ast
from pathlib import Path

import xtune

SOURCES = sorted(Path(xtune.__file__).parent.glob("*.py"))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, line) of the module's functions, classes, assigned names and
    non-dunder methods and properties."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not _is_dunder(member.name):
                    yield member.name, member.lineno
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not _is_dunder(target.id):
                yield target.id, node.lineno


def loaded_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_definition_is_used_in_the_package():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = set().union(*(loaded_names(tree) for tree in trees.values()))
    unused = [f"{path.name}:{line}: {name}" for path, tree in trees.items()
              for name, line in definitions(tree) if name not in used]
    assert not unused, "defined in src/xtune but used only outside it:\n" + "\n".join(unused)
