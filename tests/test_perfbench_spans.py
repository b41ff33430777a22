"""The benchmark traces spans by patching chrotop functions by name, and
its instances import chrotop names inside functions.  A name that no
longer resolves would crash a benchmark run, so resolve them all here.
Only reads perfbench/; nothing there is imported or run."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def test_every_instance_import_resolves():
    tree = ast.parse((PERFBENCH / "instances.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "chrotop"]
    assert imports, "no chrotop imports found"
    for node in imports:
        owner = importlib.import_module(node.module)
        for alias in node.names:
            if not hasattr(owner, alias.name):  # else a submodule, like `chrotop.cli`
                importlib.import_module(f"{node.module}.{alias.name}")
