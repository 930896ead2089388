"""The traced bench names ltrnas functions as strings; keep those names real.

`bench/tracer.py` wraps every public function of the traced modules and
`bench/run.py` fails a traced command whose span counts differ from the
ones it expects. A span name that no longer exists counts 0, so a rename
in `src/` shows up only when the traced bench runs; these tests read the
names out of both files and fail at once instead. The tracer's ATTRS
functions also bind parameters by name and read fields of results, which
would fail with a KeyError or AttributeError in the traced bench alone;
these tests check the parameter names and run the tracer over a tiny search
on the path the CLI takes (`search.run_method`).
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from ltrnas import cli, ltr, nn, search, space  # noqa: F401 - the tracer wraps every traced module

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


def attrs_parameters():
    """(span name, key) for every `a["key"]` that an ATTRS function reads off its call's bound arguments."""
    tree = _tree("tracer.py")
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    pairs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "ATTRS" for t in node.targets):
            for key, value in zip(node.value.keys, node.value.values):
                for sub in ast.walk(functions[value.id]):
                    if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name) and sub.value.id == "a"
                            and isinstance(sub.slice, ast.Constant)):
                        pairs.add((key.value, sub.slice.value))
    return pairs


def test_attrs_parameters_are_found():
    assert {("nn.forward_heads", "train_mode"), ("search.select_top_k", "pool")} <= attrs_parameters()


@pytest.mark.parametrize("name, key", sorted(attrs_parameters()))
def test_attrs_read_live_parameters(name, key):
    module_name, _, attr = name.partition(".")
    fn = getattr(importlib.import_module(f"ltrnas.{module_name}"), attr)
    assert key in inspect.signature(fn).parameters, f"bench/tracer.py binds {key!r}, which {name} does not take"


def test_tracer_records_attrs_of_a_search(monkeypatch):
    # every ATTRS function runs on real calls: finetune curves, pools, forwards
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_mod)  # dataclasses look their module up there
    spec.loader.exec_module(tracer_mod)
    sp = space.calibrate_weak_labels(space.generate_synthetic_space(space.SynthConfig(size=60, seed=2)), 0.7, seed=3)
    model = nn.build_model(nn.ModelConfig(vocab_size=7, hparam_dim=2, conv_channels=(8,), sortpool_nodes=4,
                                          conv1d_channels=4, hparam_proj=2, head_hidden=8, seed=1))
    tracer = tracer_mod.Tracer()
    tracer.begin(0)
    tracer.install()
    try:
        search.run_method(search.METHODS["full"], sp, cfg=search.SearchConfig(per_round=10, rounds=2, top_k=2),
                          pretrained=model, train_cfg=ltr.TrainConfig(epochs=3, early_stop_patience=None),
                          probe_size=20)
    finally:
        tracer.uninstall()
    spans = tracer.invocations[0]
    for name in tracer_mod.ATTRS:
        named = [s for s in spans if s.name == name]
        assert named and all(s.attrs for s in named), name
    per_layer, _ = tracer_mod.layer_metrics(spans)
    # both finetunes' 2-item holdouts read an NDCG of 1.0 after epoch 1 of 3,
    # where the saturation exit stops them
    assert per_layer["ltr.finetune_epochs"] == 2 and per_layer["search.select_top_k_calls"] == 2
    # the space is packed once and the probe once, as bench/run.py pins at SPACE_SIZE + PROBE
    view = tracer_mod.SpanView(spans)
    assert view.count("search.make_probe") == 1
    assert view.count("space.encode_architecture") == len(sp) + 20
