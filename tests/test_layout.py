"""Every name the package defines is used by the package itself.

Parses ``src/xtune/*.py`` and checks that each module-level function,
class and assigned name, and each method or property that is not a dunder,
is loaded somewhere in ``src/xtune`` (as a name or an attribute).  Code
that only the tests call belongs in ``tests/``.

A load matches by name only, so a method or property whose name another
class also defines or assigns (``Segmentation.pieces`` and
``UnigramVocab.pieces``) would pass on the other class's uses.  Each such
member needs an entry in ``SHARED`` naming its owning class and the
function in ``src/xtune`` that uses it; the guard checks that the function
loads the name, and that every entry still names a shared member.  Dynamic
lookups (``getattr`` with a string) do not count as uses.

The benchmark replaces the module attributes listed in
``perfbench/tracer.py``'s ``TARGETS``; each must resolve on the package.
"""

import ast
import importlib
from pathlib import Path

import xtune

SOURCES = sorted(Path(xtune.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# "<class>.<member>" -> "<module>.<function>" that uses it, for members whose
# name another class also defines or assigns
SHARED = {
    "BilingualDictionary.n_words": "augment.load_dictionary",
    "Segmentation.pieces": "cli.cmd_tokenize",
    "TrainConfig.strategy": "trainer._build_corpus",
}


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


def class_members(tree):
    """class name -> (methods and properties, every member name): the
    second also holds fields, class-level names and ``self.<name>``
    assignments."""
    found = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
        names = set(methods)
        for member in node.body:
            targets = (member.targets if isinstance(member, ast.Assign)
                       else [member.target] if isinstance(member, ast.AnnAssign) else [])
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        names.update(sub.attr for sub in ast.walk(node)
                     if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                     and isinstance(sub.value, ast.Name) and sub.value.id == "self")
        found[node.name] = (methods, names)
    return found


def function_node(trees, qualified):
    """The AST of ``<module>.<function>`` or ``<module>.<class>.<method>``."""
    module, *path = qualified.split(".")
    node = next(tree for p, tree in trees.items() if p.stem == module)
    for name in path:
        node = next(n for n in node.body
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    return node


def parsed_sources():
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def test_every_definition_is_used_in_the_package():
    trees = parsed_sources()
    used = set().union(*(loaded_names(tree) for tree in trees.values()))
    unused = [f"{path.name}:{line}: {name}" for path, tree in trees.items()
              for name, line in definitions(tree) if name not in used]
    assert not unused, "defined in src/xtune but used only outside it:\n" + "\n".join(unused)


def test_members_sharing_a_name_are_used_through_their_own_class():
    trees = parsed_sources()
    classes = {}
    for tree in trees.values():
        classes.update(class_members(tree))
    shared = {f"{cls}.{name}" for cls, (methods, _) in classes.items() for name in methods
              if not _is_dunder(name)
              and any(name in names for other, (_, names) in classes.items() if other != cls)}
    assert sorted(shared - set(SHARED)) == [], "shared names need a SHARED entry"
    assert sorted(set(SHARED) - shared) == [], "SHARED entries no longer shared"
    for member, user in SHARED.items():
        name = member.split(".")[1]
        assert name in loaded_names(function_node(trees, user)), (member, user)


def test_benchmark_targets_resolve_on_the_package():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                           for t in node.targets))
    pairs = [(ast.unparse(module), attr.value) for module, attr in
             (element.elts for element in targets.elts)]
    assert len(pairs) >= 20
    for module, attr in pairs:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
