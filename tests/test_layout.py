"""Every name the package defines is used by the package itself.

Parses ``src/xtune/*.py`` and checks that everything it defines is used
somewhere in ``src/xtune``.  Code that only the tests call belongs in
``tests/``.

A module-level function, class or assigned name counts as used when it is
loaded in its own module, imported by name from it (``from .m import
name``), or loaded as ``<alias>.<name>`` where the alias is bound to its
module (``from . import m as alias``).  So ``np.exp`` is no use of a
package ``exp``, nor is one module's local ``sub`` a use of another's.

A method or property that is not a dunder counts as used when its name is
loaded anywhere as an attribute, so one whose name another class also
defines or assigns (``Segmentation.pieces`` and ``UnigramVocab.pieces``)
would pass on the other class's uses.  Each such member needs an entry in
``SHARED`` naming its owning class and the function in ``src/xtune`` that
uses it; the guard checks that the function loads the name, and that every
entry still names a shared member.  Dynamic lookups (``getattr`` with a
string) do not count as uses.

A dunder method runs through Python's protocols, never by name.  The
constructors (``__init__``, ``__post_init__``) are exempt; every other
dunder needs an entry in ``DUNDERS`` naming its owning class and a function
in ``src/xtune`` that relies on it, and the guard checks that the function
makes the protocol's call (``len(...)`` for ``__len__``, a subscript for
``__getitem__``, ``repr`` or ``!r`` for ``__repr__``).  Module-level dunder
names (``__all__``, ``__version__``) are package metadata and not checked.

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
    "Corpus.join": "augment.build_augmented_corpus",
    "Packing.take": "trainer._teacher_rows",
    "RecordTable.lengths": "evaluate.score_corpus",
    "RowTable.join": "trainer._teacher_rows",
    "RowTable.take": "trainer.run_stage",
    "Segmentation.pieces": "cli.cmd_tokenize",
}

# "<class>.<dunder>" -> "<module>.<function>" that relies on it, for every
# dunder method but the constructors
DUNDERS = {
    "Corpus.__len__": "evaluate.score_corpus",
    "ModelParams.__getitem__": "model.encode",
    "Packing.__len__": "model.predict",
    "UnigramVocab.__len__": "trainer.init_params",
}
CONSTRUCTORS = {"__init__", "__post_init__"}
# dunder -> whether an AST node is a use of it
PROTOCOLS = {
    "__len__": lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                             and node.func.id == "len"),
    "__getitem__": lambda node: (isinstance(node, ast.Subscript)
                                 and isinstance(node.ctx, ast.Load)),
    "__repr__": lambda node: ((isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                               and node.func.id == "repr")
                              or (isinstance(node, ast.FormattedValue)
                                  and node.conversion == ord("r"))),
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, line, member) of the module's functions, classes and assigned
    names (member False) and its non-dunder methods and properties (True)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not _is_dunder(member.name):
                    yield member.name, member.lineno, True
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not _is_dunder(target.id):
                yield target.id, node.lineno, False


def loaded_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def module_uses(trees):
    """Module name -> its module-level names that the package uses: those
    loaded in the module, imported by name from it, or loaded as
    ``<alias>.<name>`` with the alias bound to it."""
    used = {path.stem: {node.id for node in ast.walk(tree)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for path, tree in trees.items()}
    for tree in trees.values():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    aliases.update((a.asname or a.name, a.name) for a in node.names)
                else:
                    used[node.module].update(a.name for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                used[aliases[node.value.id]].add(node.attr)
    return used


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
    attributes = set().union(*(loaded_names(tree) for tree in trees.values()))
    used = module_uses(trees)
    unused = [f"{path.name}:{line}: {name}" for path, tree in trees.items()
              for name, line, member in definitions(tree)
              if name not in (attributes if member else used[path.stem])]
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


def test_dunders_are_relied_on_through_their_protocol():
    trees = parsed_sources()
    classes = {}
    for tree in trees.values():
        classes.update(class_members(tree))
    defined = {f"{cls}.{name}" for cls, (methods, _) in classes.items() for name in methods
               if _is_dunder(name) and name not in CONSTRUCTORS}
    assert sorted(defined - set(DUNDERS)) == [], "dunders need a DUNDERS entry"
    assert sorted(set(DUNDERS) - defined) == [], "DUNDERS entries no longer defined"
    for member, user in DUNDERS.items():
        uses = PROTOCOLS[member.split(".")[1]]
        assert any(map(uses, ast.walk(function_node(trees, user)))), (member, user)


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
