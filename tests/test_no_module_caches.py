"""Cache lint: no module-level function of `chrotop` is decorated with
`functools.lru_cache` or `functools.cache`.

Such a cache lives as long as the module, so what it holds outlives every
call that filled it.  A cache made inside a function belongs to that
call's result and goes with it.
"""

import ast
from pathlib import Path

import chrotop

SOURCE = Path(chrotop.__file__).parent

CACHES = {"lru_cache", "cache"}


def cached_functions(source: str) -> list[str]:
    """The module-level functions, and methods of module-level classes,
    decorated with `lru_cache` or `cache`, bare, called, or reached as
    `functools.<name>`."""
    found = []
    tree = ast.parse(source)
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name in CACHES:
                    found.append(node.name)
    return found


def test_lint_finds_each_spelling_of_a_module_cache():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\ndef a(x):\n    return x\n"
        "@functools.lru_cache\ndef b(x):\n    return x\n"
        "@cache\ndef c(x):\n    return x\n"
        "@functools.cache\ndef d(x):\n    return x\n"
        "class K:\n    @lru_cache\n    def e(self):\n        return 1\n"
        "def nested():\n    @lru_cache(maxsize=8)\n    def inner(x):\n        return x\n    return inner\n"
        "@staticmethod\ndef plain(x):\n    return x\n"
    )
    assert cached_functions(source) == ["a", "b", "c", "d", "e"]


def test_no_module_level_cache():
    found = {
        (path.stem, name)
        for path in sorted(SOURCE.glob("*.py"))
        for name in cached_functions(path.read_text(encoding="utf-8"))
    }
    assert found == set()
