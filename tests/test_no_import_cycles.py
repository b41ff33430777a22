"""Import-cycle lint: no `chrotop` module may reach itself through its
relative imports.  Imports inside function bodies count: they only defer
the cycle to the first call, and hide which module owns the code.

The graph has one node per module of the package and an edge m -> n for
each `from .n import ...` or `from . import n` anywhere in m.  Cycles are
found as `test_no_recursion.py` finds them in call graphs.
"""

import ast
from pathlib import Path

import chrotop
from test_no_recursion import cycles

SOURCE = Path(chrotop.__file__).parent


def import_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """Module name -> the sibling modules its source imports relatively,
    at module level or inside functions."""
    graph = {}
    for name, source in sources.items():
        targets = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets.update([node.module.split(".")[0]] if node.module else (a.name for a in node.names))
        graph[name] = targets & sources.keys()
    return graph


def test_lint_finds_module_level_and_function_level_cycles():
    sources = {
        "a": "from .b import f\n",
        "b": "def f():\n    from .a import g\n",
        "c": "from . import d\nfrom .a import g\n",
        "d": "import os\nfrom .errors import E\n",
    }
    assert import_graph(sources) == {"a": {"b"}, "b": {"a"}, "c": {"a", "d"}, "d": set()}
    assert cycles(import_graph(sources)) == [frozenset({"a", "b"})]


def test_no_import_cycles():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))}
    assert cycles(import_graph(sources)) == []
