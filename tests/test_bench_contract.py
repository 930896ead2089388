"""The traced bench names ltrnas functions as strings; keep those names real.

`bench/tracer.py` wraps every public function of the traced modules and
`bench/run.py` fails a traced command whose span counts differ from the
ones it expects. A span name that no longer exists counts 0, so a rename
in `src/` shows up only when the traced bench runs; these tests read the
names out of both files and fail at once instead.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _dict_keys(node):
    return {k.value for k in node.keys if isinstance(k, ast.Constant) and isinstance(k.value, str)}


def expected_count_names():
    """Keys of the dicts every workload's `expected_counts` returns."""
    names = set()
    for fn in ast.walk(_tree("run.py")):
        if isinstance(fn, ast.FunctionDef) and fn.name == "expected_counts":
            for node in ast.walk(fn):
                if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                    names |= _dict_keys(node.value)
    return names


def tracer_span_names():
    """Span names the tracer reads: ATTRS and _EVAL_ROLES keys, the string
    arguments of SpanView.total/count/self_time, and `s.name == "..."` tests."""
    names = set()
    for node in ast.walk(_tree("tracer.py")):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) and any(
            isinstance(t, ast.Name) and t.id in ("ATTRS", "_EVAL_ROLES") for t in node.targets
        ):
            names |= _dict_keys(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in (
            "total", "count", "self_time"
        ):
            names |= {a.value for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)}
        elif isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute) and node.left.attr == "name":
            names |= {c.value for c in node.comparators if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def is_traced_function(name):
    """Whether the tracer wraps `module.function`: a public function defined in that ltrnas module."""
    module_name, _, attr = name.partition(".")
    module = importlib.import_module(f"ltrnas.{module_name}")
    obj = getattr(module, attr, None)
    return not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__


def test_names_are_found():
    # guards the readers above against silently finding nothing
    assert {"ltr.finetune", "nn.adam_step", "ltr.lambdarank_lambdas"} <= expected_count_names()
    assert {"nn.forward_heads", "nn.backward", "ltr.lambdarank_lambdas", "ltr.pretrain"} <= tracer_span_names()


@pytest.mark.parametrize("name", sorted(expected_count_names()))
def test_expected_counts_name_traced_functions(name):
    assert is_traced_function(name), f"bench/run.py expects spans of {name}, which is not a public ltrnas function"


@pytest.mark.parametrize("name", sorted(tracer_span_names()))
def test_tracer_reads_traced_functions(name):
    assert is_traced_function(name), f"bench/tracer.py reads spans of {name}, which is not a public ltrnas function"
