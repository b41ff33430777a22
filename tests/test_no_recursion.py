"""Recursion lint: no function of `chrotop` may reach itself through calls
in its own module.  The allowlist is empty: no cycle is allowed, whatever
bound its depth might have.

Each module's call graph is built by name from its source, nested
functions included (see `call_graph`).  A cycle of that graph is a possible
recursion, which Python bounds by its stack, so a depth the library accepts
could end in a `RecursionError`.
"""

import ast
from pathlib import Path

import chrotop

SOURCE = Path(chrotop.__file__).parent

# cycle (as qualified names, per module) -> why its depth stays small
ALLOWED_CYCLES: dict[tuple[str, frozenset], str] = {}


def call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Qualified function name -> qualified names it may call.

    A call `f(...)` resolves as Python scoping does: to a function nested
    in the caller or in an enclosing function, else to a module-level
    function.  `self.f(...)` and `cls.f(...)` resolve to the method `f` of
    the enclosing class.  Calls on other objects leave the module's reach.
    """
    defs: dict[str, tuple[ast.AST, list[str], str | None]] = {}

    def collect(node, prefix, scopes, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                collect(child, f"{prefix}{child.name}.", scopes, prefix + child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                defs[qualname] = (child, scopes + [qualname], owner)
                collect(child, qualname + ".", scopes + [qualname], owner)
            else:
                collect(child, prefix, scopes, owner)

    def calls(node):
        """The calls in a function body, not in the functions it defines."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, ast.Call):
                yield child
            yield from calls(child)

    collect(tree, "", [], None)
    graph = {}
    for qualname, (node, scopes, owner) in defs.items():
        callees = set()
        for call in calls(node):
            func = call.func
            if isinstance(func, ast.Name):
                names = [f"{scope}.{func.id}" for scope in reversed(scopes)] + [func.id]
                callees.update(next(([n] for n in names if n in defs), []))
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in ("self", "cls") and f"{owner}.{func.attr}" in defs):
                callees.add(f"{owner}.{func.attr}")
        graph[qualname] = callees
    return graph


def cycles(graph: dict[str, set[str]]) -> list[frozenset]:
    """The strongly connected components that contain a cycle (Tarjan's
    algorithm on an explicit stack)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    found = []
    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, callees = work[-1]
            callee = next(callees, None)
            if callee is not None:
                if callee not in index:
                    index[callee] = low[callee] = len(index)
                    stack.append(callee)
                    on_stack.add(callee)
                    work.append((callee, iter(graph[callee])))
                elif callee in on_stack:
                    low[node] = min(low[node], index[callee])
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                if len(component) > 1 or node in graph[node]:
                    found.append(frozenset(component))
    return found


def module_cycles(source: str) -> list[frozenset]:
    return cycles(call_graph(ast.parse(source)))


def test_lint_finds_direct_nested_and_mutual_recursion():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    def extend(p):\n        extend(p)\n    extend(())\n"
        "def a():\n    b()\ndef b():\n    a()\n"
        "class C:\n    def walk(self):\n        return self.walk()\n"
        "def flat():\n    return sorted([])\n"
    )
    assert set(module_cycles(source)) == {
        frozenset({"f"}), frozenset({"g.extend"}), frozenset({"a", "b"}), frozenset({"C.walk"}),
    }


def test_no_recursion_outside_the_bounded_allowlist():
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        for component in module_cycles(path.read_text(encoding="utf-8")):
            found.add((path.stem, component))
    assert found - ALLOWED_CYCLES.keys() == set()
    # an entry whose recursion is gone must leave the allowlist too
    assert ALLOWED_CYCLES.keys() - found == set()
