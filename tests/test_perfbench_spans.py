"""The benchmark traces spans by patching chrotop functions by name, and
its instances import chrotop names inside functions.  A name that no
longer resolves would crash a benchmark run, so resolve them all here.
A traced run also reads the arguments of some calls by parameter name, so
those names must stay bound.  Only reads perfbench/; nothing there is
imported or run."""

import ast
import importlib
import inspect
from pathlib import Path

from chrotop.checker import build_time_T, search_decision_map
from chrotop.subdivision import chr_iterate

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


def stash_argument_names():
    """The names `Recorder._stash` reads as `args["name"]`."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    (stash,) = [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_stash"]
    return {node.slice.value for node in ast.walk(stash)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and isinstance(node.slice, ast.Constant)}


def test_stashed_calls_bind_the_argument_names_the_recorder_reads():
    read = {chr_iterate: {"K", "k"}, build_time_T: {"model", "T"}, search_decision_map: {"PT"}}
    assert stash_argument_names() == set().union(*read.values())
    for fn, names in read.items():
        assert names <= set(inspect.signature(fn).parameters), fn.__name__
