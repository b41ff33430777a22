"""Dead-name lint: every function, class and method that `chrotop` defines
has a caller, or is part of its public surface.

A module-level function or class counts as used when code in `src/` refers
to it outside its own definition, when `perfbench/` refers to it (in code,
or in a string that names it for patching), when `README.md` mentions it,
or when `chrotop/__init__.py` exports it.  A method counts as used only
through an attribute reference `x.f` in `src/` outside its own body or in
`perfbench/`, or through a `perfbench/` string: a bare name `f`, such as a
parameter, or a README word is not a call of a method.  Names are matched
by their last component, as `test_no_recursion.py` does: a method `f` is
used by any `x.f`.  Dunder methods are called by Python itself and are
skipped.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import chrotop

SOURCE = Path(chrotop.__file__).parent
ROOT = SOURCE.parent.parent
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# qualified name (module.name) -> why it stays without a caller
ALLOWED = {
    "subdivision.policy_all_at_zero":
        "the built-in termination policy of the smallest terminating subdivision, used by tests",
    "subdivision.volume_by_base_facet":
        "the volume check of the acceptance tests (claim 2)",
    "subdivision.facet_volume_fraction":
        "the volume of one cell, which the volume tests check against a reference determinant",
    "render.render_terminating_svg":
        "draws a terminating subdivision's stable cells; library API next to render_svg",
}


def definitions(tree: ast.Module) -> list[tuple[str, str, ast.AST]]:
    """(qualified name, name, node) of each module-level function and
    class, and of each method of a module-level class but its dunders."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.name, node))
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (child.name.startswith("__") and child.name.endswith("__"))):
                    found.append((f"{node.name}.{child.name}", child.name, child))
    return found


def references(node: ast.AST, strings: bool = False) -> tuple[Counter, Counter]:
    """The names a piece of code refers to, as `f` or `x.f`, and those it
    refers to as `x.f`; with `strings`, the words of its string constants
    count in both."""
    names, attributes = Counter(), Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
            attributes[child.attr] += 1
        elif strings and isinstance(child, ast.Constant) and isinstance(child.value, str):
            words = WORD.findall(child.value)
            names.update(words)
            attributes.update(words)
    return names, attributes


def dead_names(modules: dict[str, str], exported: set[str], elsewhere: Counter,
               elsewhere_attributes: Counter) -> set[str]:
    """The `module.qualname` of each definition in `modules` (module name
    -> source) that no module refers to outside its own body and that
    nothing else keeps: a module-level name is kept by `exported` and by
    `elsewhere`, a method only by `elsewhere_attributes`, and a method is
    referred to only as `x.f`."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    names, attributes = Counter(elsewhere), Counter(elsewhere_attributes)
    for tree in trees.values():
        tree_names, tree_attributes = references(tree)
        names.update(tree_names)
        attributes.update(tree_attributes)
    dead = set()
    for module, tree in trees.items():
        for qualname, name, node in definitions(tree):
            own_names, own_attributes = references(node)
            if "." in qualname:
                used = attributes[name] - own_attributes[name] > 0
            else:
                used = name in exported or names[name] - own_names[name] > 0
            if not used:
                dead.add(f"{module}.{qualname}")
    return dead


def test_lint_finds_unused_functions_classes_and_methods():
    source = (
        "def used():\n    return 1\n"
        "def unused():\n    return used()\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def documented():\n    '''Not the same as unused().'''\n"
        "def public():\n    pass\n"
        "def patched():\n    pass\n"
        "class Kept:\n"
        "    def __eq__(self, other):\n        return True\n"
        "    def called(self):\n        return 1\n"
        "    def orphan(self):\n        return self.called()\n"
        "    def from_json(self):\n        return 1\n"
        "    def spanned(self):\n        return 1\n"
        "    def readme(self):\n        return 1\n"
        "    def public(self):\n        return 1\n"
        "class Gone:\n    pass\n"
        "def main():\n    return Kept().called\n"
        "def resolve(ref, from_json):\n    return from_json(ref)\n"
    )
    dead = dead_names({"made_up": source}, {"public"},
                      Counter(["main", "patched", "resolve", "readme"]), Counter(["spanned"]))
    # a parameter, an export or a README word of the same name keeps no method
    assert dead == {"made_up.unused", "made_up.recursive", "made_up.documented",
                    "made_up.Kept.orphan", "made_up.Kept.from_json", "made_up.Kept.readme",
                    "made_up.Kept.public", "made_up.Gone"}


def test_no_dead_names_outside_the_allowlist():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))}
    exported = {alias.asname or alias.name
                for node in ast.walk(ast.parse(modules["__init__"]))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    elsewhere = Counter(WORD.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    elsewhere_attributes = Counter()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        names, attributes = references(ast.parse(path.read_text(encoding="utf-8")), strings=True)
        elsewhere.update(names)
        elsewhere_attributes.update(attributes)
    dead = dead_names(modules, exported, elsewhere, elsewhere_attributes)
    assert dead - ALLOWED.keys() == set()
    # an entry that gained a caller, or whose definition is gone, leaves the allowlist too
    assert ALLOWED.keys() - dead == set()
