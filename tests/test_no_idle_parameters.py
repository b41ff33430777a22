"""Idle-parameter lint: every parameter with a default, of every function
and method that `chrotop` defines, is passed at some call in `src/` or
`perfbench/`.  A default that no caller overrides is a knob that does
nothing: the parameter can go, and its default with it.

A call counts when it names the function by its last component, as
`f(...)` or `x.f(...)`, outside the function's own body (a recursive
call only hands the value on); a class call `C(...)` is a call of
`C.__init__`.  It passes a parameter by keyword, or by position when it
has more positional arguments than come before the parameter, leaving
out the `self` or `cls` of a method.  A `*args` passes every positional
parameter and a `**kwargs` every keyword one.
"""

import ast
from collections import defaultdict
from pathlib import Path

import chrotop

SOURCE = Path(chrotop.__file__).parent
ROOT = SOURCE.parent.parent

# module.function.parameter -> why it keeps its default without a caller that passes it
ALLOWED = {
    "checker.sperner_evidence.sample_size":
        "the number of sampled colorings; only the tests pass a smaller one",
    "models.ModelSpec.__init__.predicate":
        "a library model's prefix predicate; no built-in or JSON model has one, only the tests pass one",
}


def defaulted_parameters(tree: ast.Module, module: str) -> list[tuple[str, str, int | None, ast.AST]]:
    """(module.qualname.parameter, call name, positional index, function
    node) of each parameter with a default.  The call name of `__init__`
    is its class's; the index leaves out a method's `self` or `cls` and is
    None for a keyword-only parameter."""
    found = []

    def visit(body, prefix: str, owner: ast.ClassDef | None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                skip = 1 if owner is not None and not static else 0
                name = owner.name if owner is not None and node.name == "__init__" else node.name
                qualname = f"{module}.{prefix}{node.name}"
                for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                        len(positional) - len(args.defaults)):
                    found.append((f"{qualname}.{arg.arg}", name, i - skip, node))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((f"{qualname}.{arg.arg}", name, None, node))
                visit(node.body, f"{prefix}{node.name}.", None)

    visit(tree.body, "", None)
    return found


def calls(tree: ast.AST) -> dict[str, list[ast.Call]]:
    """The calls in `tree`, by the last component of the name they call."""
    found = defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                found[node.func.id].append(node)
            elif isinstance(node.func, ast.Attribute):
                found[node.func.attr].append(node)
    return found


def passes(call: ast.Call, parameter: str, index: int | None) -> bool:
    """Whether `call` passes `parameter`, at positional `index`."""
    if any(k.arg is None or k.arg == parameter for k in call.keywords):
        return True
    if index is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > index


def idle_parameters(modules: dict[str, str], elsewhere: list[str]) -> set[str]:
    """The `module.qualname.parameter` of each defaulted parameter in
    `modules` (module name -> source) that no call in the modules, outside
    the function's own body, or in `elsewhere` (more sources) passes."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    by_name = defaultdict(list)
    for tree in [*trees.values(), *map(ast.parse, elsewhere)]:
        for name, found in calls(tree).items():
            by_name[name].extend(found)
    idle = set()
    for module, tree in trees.items():
        for qualname, name, index, node in defaulted_parameters(tree, module):
            own = {id(c) for c in ast.walk(node) if isinstance(c, ast.Call)}
            parameter = qualname.rsplit(".", 1)[1]
            if not any(passes(c, parameter, index) for c in by_name[name] if id(c) not in own):
                idle.add(qualname)
    return idle


def test_lint_finds_parameters_no_call_passes():
    source = (
        "def weights(vertices, base, memo=None):\n    return memo\n"
        "def walk(roots, depth, table=None):\n    return walk(roots, depth - 1, table)\n"
        "def by_keyword(a, seed=0):\n    pass\n"
        "def by_position(a, b=1, c=2):\n    pass\n"
        "def keyword_only(a, *, strict=False, label=None):\n    pass\n"
        "def spread(a, b=1, c=2):\n    pass\n"
        "class Box:\n"
        "    def __init__(self, size=1, colour=None):\n        pass\n"
        "    def grow(self, by=1, twice=False):\n        pass\n"
        "    @staticmethod\n"
        "    def make(kind=None):\n        pass\n"
        "def main(args, options):\n"
        "    weights([1], 2)\n"
        "    walk([1], 3)\n"
        "    by_keyword(1, seed=4)\n"
        "    by_position(1, 2)\n"
        "    keyword_only(1, strict=True)\n"
        "    spread(*args)\n"
        "    box = Box(3)\n"
        "    box.grow(2)\n"
        "    Box.make(**options)\n"
    )
    idle = idle_parameters({"made_up": source}, ["from made_up import by_position\nby_position(0, c=5)\n"])
    # a recursive call that hands `table` on is no caller of it
    assert idle == {"made_up.weights.memo", "made_up.walk.table", "made_up.keyword_only.label",
                    "made_up.Box.__init__.colour", "made_up.Box.grow.twice"}


def test_no_idle_parameters_outside_the_allowlist():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))}
    elsewhere = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    idle = idle_parameters(modules, elsewhere)
    assert idle - ALLOWED.keys() == set()
    # an entry that gained a caller, or whose parameter is gone, leaves the allowlist too
    assert ALLOWED.keys() - idle == set()
