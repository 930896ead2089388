"""Span tracer that times calls into the public functions of the ltrnas modules.

The tracer wraps every public function defined in the traced modules and
replaces every binding of that function in every loaded ``ltrnas`` module:
the home binding (so intra-module calls such as ``nn.forward`` ->
``forward_heads`` are seen), names imported elsewhere with ``from .space
import encode_architecture`` (``search``, ``ltr``), and module aliases such
as ``cli``'s ``space_mod``, which resolve through the home binding. Nothing
under ``src/`` is edited; the wrappers are removed again by ``uninstall``.

Spans stay in memory until ``write``. Each holds a name, start, end, parent
span index, invocation id and a few attributes read from the call's
arguments or result.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "ltrnas"
TRACED_MODULES = ("cli", "space", "metrics", "nn", "ltr", "search")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _forward_attrs(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    return {"items": len(a["batch"]), "train": bool(a["train_mode"])}


def _select_top_k_attrs(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    return {"items": len(a["pool"]), "k": int(a["k"])}


def _finetune_attrs(fn, args, kwargs, result) -> dict:
    train_epochs = [r.epoch for r in result.curve if r.split == "train"]
    holdout = [(r.ndcg, r.epoch) for r in result.curve if r.split == "holdout" and r.ndcg is not None]
    if holdout:
        best = max(n for n, _ in holdout)
        useful = min(e for n, e in holdout if n == best)
    else:
        useful = len(train_epochs)
    return {"epochs": len(train_epochs), "useful_epochs": useful}


# Attributes recorded per call; every other function records timing only.
ATTRS = {
    "nn.forward_heads": _forward_attrs,
    "search.select_top_k": _select_top_k_attrs,
    "ltr.finetune": _finetune_attrs,
}


class Tracer:
    def __init__(self):
        self.invocations: dict[int, list[Span]] = {}
        self._spans: list[Span] = []
        self._invocation = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, invocation: int) -> None:
        """Start collecting the spans of one invocation."""
        if self._stack:
            raise RuntimeError("begin() inside an open span")
        self._invocation = invocation
        self._spans = self.invocations.setdefault(invocation, [])

    def _wrap(self, name: str, fn):
        extract = ATTRS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self._spans
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None, self._invocation)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if extract is not None:
                span.attrs = extract(fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the traced modules at every binding."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in self._package_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Write every recorded span, one JSON list per line:
        [invocation, name, start, end, parent, attrs]."""
        with open(path, "w", encoding="utf-8") as fh:
            for spans in self.invocations.values():
                for s in spans:
                    fh.write(json.dumps([s.invocation, s.name, s.start, s.end, s.parent, s.attrs]) + "\n")

    @staticmethod
    def _package_modules():
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]


# ---------------------------------------------------------------------------
# per-layer metrics from one invocation's spans
# ---------------------------------------------------------------------------

# Nearest traced caller that decides what an eval forward is for.
_EVAL_ROLES = {
    "search.select_top_k": "pool",
    "ltr.finetune": "holdout",
    "ltr.pretrain": "holdout",
    "search.iterative_search": "probe",
}


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class SpanView:
    """Totals, self times and counts over the spans of one invocation."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                self.child_time[s.parent] += s.duration

    def ancestors(self, i: int):
        p = self.spans[i].parent
        while p is not None:
            yield p
            p = self.spans[p].parent

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def total(self, *names: str) -> float:
        """Wall time under the named spans, counting nested ones once."""
        wanted = set(names)
        return sum(
            s.duration for i, s in enumerate(self.spans)
            if s.name in wanted and not any(self.spans[a].name in wanted for a in self.ancestors(i))
        )

    def self_time(self, name: str) -> float:
        return sum(s.duration - self.child_time[i] for i, s in enumerate(self.spans) if s.name == name)

    def module_self_time(self, module: str) -> float:
        return sum(
            s.duration - self.child_time[i]
            for i, s in enumerate(self.spans) if s.name.startswith(module + ".")
        )

    def eval_role(self, i: int) -> str:
        for a in self.ancestors(i):
            role = _EVAL_ROLES.get(self.spans[a].name)
            if role is not None:
                return role
        return "other"

    def step_ms(self) -> list[float]:
        """Train steps: from a train-mode forward to the Adam update that ends it."""
        steps, start = [], None
        for s in self.spans:
            if s.name == "nn.forward_heads" and s.attrs.get("train"):
                start = s.start
            elif s.name == "nn.adam_step" and start is not None:
                steps.append(1e3 * (s.end - start))
                start = None
        return steps


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], list[float]]:
    """Per-layer numbers for one invocation, plus its train-step durations (ms)."""
    v = SpanView(spans)
    fwd = [(i, s) for i, s in enumerate(v.spans) if s.name == "nn.forward_heads"]
    evals = {"pool": 0.0, "probe": 0.0, "holdout": 0.0, "other": 0.0}
    pool_items = 0
    train_s, train_items = 0.0, 0
    for i, s in fwd:
        if s.attrs["train"]:
            train_s += s.duration
            train_items += s.attrs["items"]
            continue
        role = v.eval_role(i)
        evals[role] += s.duration
        if role == "pool":
            pool_items += s.attrs["items"]
    finetunes = [s for s in v.spans if s.name == "ltr.finetune"]
    ft_epochs = sum(s.attrs["epochs"] for s in finetunes)
    ft_useful = sum(s.attrs["useful_epochs"] for s in finetunes)
    topk = [s for s in v.spans if s.name == "search.select_top_k"]
    topk_items = sum(s.attrs["items"] for s in topk)
    search_total = v.total("search.iterative_search")
    search_self = v.self_time("search.iterative_search")
    m = {
        "nn.eval_pool_s": evals["pool"],
        "nn.eval_pool_items": float(pool_items),
        "nn.eval_pool_items_per_s": pool_items / evals["pool"] if evals["pool"] > 0 else 0.0,
        "nn.eval_probe_s": evals["probe"],
        "nn.eval_holdout_s": evals["holdout"],
        "nn.train_fwd_s": train_s,
        "nn.train_fwd_items": float(train_items),
        "nn.backward_s": v.total("nn.backward"),
        "nn.adam_s": v.total("nn.adam_step"),
        "nn.adam_steps": float(v.count("nn.adam_step")),
        "nn.checkpoint_s": v.total("nn.save_checkpoint", "nn.load_checkpoint", "nn.checkpoint_bytes"),
        "nn.clone_s": v.total("nn.clone_model"),
        "ltr.finetune_s": v.total("ltr.finetune"),
        "ltr.finetune_self_s": v.self_time("ltr.finetune"),
        "ltr.finetune_calls": float(len(finetunes)),
        "ltr.finetune_epochs": float(ft_epochs),
        "ltr.finetune_useful_frac": ft_useful / ft_epochs if ft_epochs else 0.0,
        "ltr.lambdas_s": v.total("ltr.lambdarank_lambdas"),
        "ltr.pretrain_s": v.total("ltr.pretrain"),
        "ltr.pretrain_self_s": v.self_time("ltr.pretrain"),
        "search.iterative_search_s": search_total,
        "search.iterative_search_self_s": search_self,
        "search.iterative_search_covered_frac": 1.0 - search_self / search_total if search_total > 0 else 0.0,
        "search.select_top_k_s": v.total("search.select_top_k"),
        "search.select_top_k_calls": float(len(topk)),
        "search.pick_useful_frac": sum(s.attrs["k"] for s in topk) / topk_items if topk_items else 0.0,
        "space.generate_s": v.total("space.generate_synthetic_space"),
        "space.calibrate_s": v.total("space.calibrate_weak_labels"),
        "space.save_space_s": v.total("space.save_space"),
        "space.load_space_s": v.total("space.load_space"),
        "space.encode_s": v.total("space.encode_architecture"),
        "space.encode_calls": float(v.count("space.encode_architecture")),
        "metrics.kendall_tau_s": v.total("metrics.kendall_tau"),
        "metrics.kendall_tau_calls": float(v.count("metrics.kendall_tau")),
        "metrics.ndcg_s": v.total("metrics.ndcg"),
        "cli.self_s": v.module_self_time("cli"),
        "trace.spans": float(len(v.spans)),
    }
    return m, v.step_ms()


def span_counts(spans: list[Span]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in spans:
        counts[s.name] = counts.get(s.name, 0) + 1
    return counts
