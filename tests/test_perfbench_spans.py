"""The benchmark traces spans by patching chrotop functions by name.  A
name that no longer resolves would crash a traced run, so resolve them
all here.  Only reads perfbench/; nothing there is imported or run."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def wrapped_names():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED") for t in node.targets
        ):
            names += [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    return names


def test_every_wrapped_name_resolves():
    names = wrapped_names()
    assert names, "no SPANNED or COUNTED entries found"
    for module, attr in names:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(getattr(owner, cls_name).__dict__.get(meth)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
