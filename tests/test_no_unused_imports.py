"""Unused-import lint: every name a `chrotop` module imports is used in
that module.

`chrotop/__init__.py` imports to export and is skipped; `from __future__`
imports switch on language features and bind no name.  A name counts as
used when the module's code refers to it as a bare name, `x` or the `x`
of `x.f`, annotations included.
"""

import ast
from pathlib import Path

import chrotop

SOURCE = Path(chrotop.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never refers to, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_lint_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "import sys\n"
        "from typing import Optional, Sequence\n"
        "from .errors import Kept, Gone as Renamed\n"
        "def f(x: Optional[int]) -> Kept:\n"
        "    '''Sequence and sys are only words here.'''\n"
        "    return os.path.join(regex.escape(x))\n"
    )
    assert unused_imports(source) == ["sys", "Sequence", "Renamed"]


def test_no_unused_imports():
    found = {
        path.stem: unused
        for path in sorted(SOURCE.glob("*.py"))
        if path.stem != "__init__" and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
