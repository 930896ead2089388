"""Round-based architecture search driven by the ranking model.

Round 1 samples uniformly at random; later rounds mix the model's top-scored
candidates (an exploit fraction of the round budget) with uniform draws from
the remaining pool. After every round the model is re-finetuned from the
supplied base checkpoint on all labels revealed so far, and the final top-k
is the model's. Without a model the same loop is the budget-matched random
baseline: every pick, the final k included, is uniform. The search sees
validation accuracy only, and only for sampled ids; test accuracy enters
exactly once, in finalize. The ws-greedy baseline is a one-shot selector
outside the loop that returns a one-round trace. `METHODS` says how each
search method runs: its selector, or its finetune loss and starting model;
`run_method` runs one of them.

A search is the entries of its trace; the final top-k, the chosen id and
every best-so-far derive from them (`SearchTrace.best`). The trace is a pure
function of (space, config, seed), reproduced byte for byte on replay.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import ltr, metrics, nn
from .space import Architecture, SearchSpace, SpaceValidationError, draw_ids, encode_architecture


@dataclass(frozen=True)
class SearchConfig:
    per_round: int                   # architectures revealed per round
    rounds: int = 5
    exploit_fraction: float = 0.5
    top_k: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.exploit_fraction <= 1.0:
            raise ValueError(f"exploit fraction must be in [0, 1], got {self.exploit_fraction}")
        if self.per_round < 1 or self.rounds < 1:
            raise ValueError("per_round and rounds must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")

    @property
    def budget(self) -> int:
        """Ground-truth evaluations consumed: iterative samples plus final top-k."""
        return self.per_round * self.rounds + self.top_k


@dataclass(frozen=True)
class TraceEntry:
    round: int
    arch_id: str
    origin: str          # "random" | "model" | "topk" | "ws-greedy"
    val_acc: float


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    ndcg: float | None
    tau: float | None
    best_val_so_far: float


@dataclass
class SearchTrace:
    entries: list[TraceEntry] = field(default_factory=list)
    round_metrics: list[RoundMetrics] = field(default_factory=list)

    def sampled_ids(self) -> list[str]:
        return [e.arch_id for e in self.entries]

    @property
    def final_top_k(self) -> tuple[str, ...]:
        return tuple(e.arch_id for e in self.entries if e.origin == "topk")

    def best(self, through_round: int | None = None) -> TraceEntry:
        """The best-validation entry of rounds through `through_round` (all if None), in `metrics.rank_order`."""
        seen = [e for e in self.entries if through_round is None or e.round <= through_round]
        if not seen:
            raise ValueError("empty trace")
        return seen[metrics.rank_order([e.val_acc for e in seen], [e.arch_id for e in seen])[0]]


class SearchView:
    """Search-time access to a space: architectures, ids, and on-demand
    validation accuracy. Test accuracy is dropped at construction, so nothing
    that holds only this view can read it."""

    def __init__(self, space: SearchSpace):
        self.meta = space.meta
        self.ids: tuple[str, ...] = space.ids
        self._arch = {rid: rec.arch for rid, rec in space.records.items()}
        self._val = {rid: rec.val_acc for rid, rec in space.records.items()}
        self._packed: nn.Packed | None = None
        self._position = {rid: i for i, rid in enumerate(self.ids)}

    def __len__(self):
        return len(self.ids)

    def pool(self, ids: Sequence[str]) -> "Pool":
        """The candidates `ids`, a row selection of the whole space packed on first use."""
        if self._packed is None:
            self._packed = nn.pack([encode_architecture(self._arch[rid], self.meta.vocab) for rid in self.ids])
        return Pool(tuple(ids), self._packed.select([self._position[rid] for rid in ids]))

    def reveal_val(self, arch_id: str) -> float:
        """The costly step: reveal one architecture's validation accuracy."""
        return self._val[arch_id]


@dataclass(frozen=True)
class Pool:
    """Candidate ids and their packed encodings, position for position."""

    ids: tuple[str, ...]
    batch: nn.Packed

    def __len__(self):
        return len(self.ids)


@dataclass(frozen=True)
class EvalProbe(Pool):
    """Measurement-only sample for per-round metric snapshots. Never feeds
    back into sampling or training; holds validation accuracy only."""

    val_accs: np.ndarray


def make_probe(space: SearchSpace, size: int, seed: int) -> EvalProbe:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9806]))
    picked = draw_ids(rng, space.ids, min(size, len(space)))
    return EvalProbe(
        ids=tuple(picked),
        batch=nn.pack([encode_architecture(space.records[r].arch, space.meta.vocab) for r in picked]),
        val_accs=np.array([space.records[r].val_acc for r in picked]),
    )


def select_top_k(model: nn.RankingModel, pool: Pool, k: int) -> list[tuple[str, float]]:
    """The k highest-scored candidates, in `metrics.rank_order`."""
    if k > len(pool):
        raise ValueError(f"top-k of {k} from a pool of {len(pool)}")
    scores, _ = nn.forward(model, pool.batch, "rank")
    order = metrics.rank_order(scores, pool.ids)
    return [(pool.ids[i], float(scores[i])) for i in order[:k]]


def _snapshot(
    model: nn.RankingModel,
    probe: EvalProbe | None,
    rmap: metrics.RelevanceMap | None,
) -> tuple[float | None, float | None]:
    if probe is None or len(probe.ids) < 2:
        return None, None
    scores, _ = nn.forward(model, probe.batch, "rank")
    if rmap is not None:
        rels = metrics.map_relevance(rmap, probe.val_accs)
    else:
        rels = np.ones(len(probe.ids))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", metrics.DegenerateRelevanceWarning)
        ndcg_val = metrics.ndcg(scores, rels, probe.ids)
    try:
        tau_val = metrics.kendall_tau(scores, probe.val_accs)
    except ValueError:
        tau_val = None
    return ndcg_val, tau_val


def _child_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def iterative_search(
    view: SearchView,
    model: nn.RankingModel | None,
    cfg: SearchConfig,
    train_cfg: ltr.TrainConfig | None = None,
    loss: str = "lambdarank",
    probe: EvalProbe | None = None,
) -> tuple[nn.RankingModel | None, SearchTrace]:
    """Run the round-based search; returns the final finetuned model and the
    trace (iterative samples plus the final top-k, all with revealed
    validation accuracy).

    With model=None this is the random baseline on the same budget: no
    exploit picks, no finetune, no NDCG/tau per round, a uniform final top-k,
    and None in place of the model."""
    if cfg.budget > len(view):
        raise ValueError(f"budget {cfg.budget} exceeds space size {len(view)}")
    if model is not None and train_cfg is None:
        raise ValueError("a model needs a finetune config")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5EA6]))
    trace = SearchTrace()
    current = model
    n_exploit = 0 if model is None else int(cfg.exploit_fraction * cfg.per_round)

    def unlabeled() -> list[str]:
        seen = set(trace.sampled_ids())
        return [rid for rid in view.ids if rid not in seen]

    def reveal(rnd: int, ids: Sequence[str], origin: str) -> None:
        trace.entries += [TraceEntry(rnd, rid, origin, view.reveal_val(rid)) for rid in ids]

    for rnd in range(1, cfg.rounds + 1):
        n_model = n_exploit if rnd > 1 else 0
        if n_model:
            reveal(rnd, [rid for rid, _ in select_top_k(current, view.pool(unlabeled()), n_model)], "model")
        n_random = cfg.per_round - n_model
        if n_random:
            reveal(rnd, draw_ids(rng, unlabeled(), n_random), "random")

        ndcg_val = tau_val = None
        if model is not None:
            labeled = trace.sampled_ids()
            current = result = None  # the last round's ranker has made its picks
            result = ltr.finetune(model, view.pool(labeled).batch, labeled, [e.val_acc for e in trace.entries],
                                  replace(train_cfg, seed=_child_seed(cfg.seed, 0xF7, rnd)), loss=loss)
            current = result.model
            ndcg_val, tau_val = _snapshot(current, probe, result.relevance_map)
        trace.round_metrics.append(
            RoundMetrics(round=rnd, ndcg=ndcg_val, tau=tau_val, best_val_so_far=trace.best(rnd).val_acc)
        )

    if model is None:
        top = draw_ids(rng, unlabeled(), cfg.top_k)
    else:
        top = [rid for rid, _ in select_top_k(current, view.pool(unlabeled()), cfg.top_k)]
    reveal(cfg.rounds + 1, top, "topk")

    sampled = trace.sampled_ids()
    if len(set(sampled)) != cfg.budget or len(sampled) != cfg.budget:
        raise RuntimeError("internal sampling bug: duplicate or missing ids in trace")
    return current, trace


def finalize(trace: SearchTrace, space: SearchSpace) -> tuple[Architecture, float]:
    """Pick the best-validation architecture among everything sampled and
    report its test accuracy (the single test-set read of a search)."""
    rec = space.records[trace.best().arch_id]
    return rec.arch, rec.test_acc


def ws_greedy_baseline(space: SearchSpace, budget: int) -> SearchTrace:
    """Greedy selection by weak label: the `budget` records with the highest
    super-net style accuracy (ties broken by id), as a one-round trace."""
    if budget < 1 or budget > len(space):
        raise ValueError(f"budget {budget} out of range for space of {len(space)}")
    missing = [rid for rid, rec in space.records.items() if rec.ws_acc is None]
    if missing:
        raise SpaceValidationError(f"{len(missing)} records have no weak label (e.g. {missing[0]!r})")
    recs = list(space.records.values())
    order = metrics.rank_order([r.ws_acc for r in recs], [r.arch.id for r in recs])
    return SearchTrace([TraceEntry(1, recs[i].arch.id, "ws-greedy", recs[i].val_acc) for i in order[:budget]])


@dataclass(frozen=True)
class Method:
    """How one search method runs. `select` is a one-shot selector
    (space, budget) -> trace in place of the round loop. Otherwise the round
    loop runs: with a model finetuned by `loss` that starts from `start`, the
    pretrained "checkpoint" or a "fresh" model, or, with neither, without a
    model (the random baseline)."""

    loss: str | None = None
    start: str | None = None
    select: Callable[[SearchSpace, int], SearchTrace] | None = None

    def starting_model(self, pretrained: bool) -> str | None:
        """"checkpoint", "fresh" or None (no model). A run that declines
        pretraining starts a checkpoint method from a fresh model."""
        return "fresh" if self.start == "checkpoint" and not pretrained else self.start


# Every search method, by the name `search --baseline` takes; the first is its default.
METHODS = {
    "full": Method(loss="lambdarank", start="checkpoint"),
    "vanilla-mse": Method(loss="mse", start="fresh"),
    "ranknet": Method(loss="ranknet", start="checkpoint"),
    "ws-greedy": Method(select=ws_greedy_baseline),
    "random": Method(),
}


def run_method(
    method: Method,
    space: SearchSpace,
    *,
    budget: int | None = None,
    cfg: SearchConfig | None = None,
    pretrained: nn.RankingModel | None = None,
    fresh: nn.ModelConfig | None = None,
    train_cfg: ltr.TrainConfig | None = None,
    probe_size: int = 0,
) -> tuple[nn.RankingModel | None, SearchTrace]:
    """Run one search method on `space`; returns the final model (None where
    no model trains) and the trace.

    A selector picks `budget` records. Otherwise the round loop of `cfg` runs
    from the method's starting model: `pretrained`, a model built from
    `fresh` (a run without `pretrained` starts a checkpoint method fresh), or
    no model. A model finetunes by `train_cfg` and is measured each round on a
    probe of `probe_size` records drawn with the search's seed (none at 0)."""
    if method.select is not None:
        return None, method.select(space, budget)
    start = method.starting_model(pretrained is not None)
    if start is None:
        return iterative_search(SearchView(space), None, cfg)
    model = pretrained if start == "checkpoint" else nn.build_model(fresh, space.meta.vocab)
    probe = make_probe(space, probe_size, seed=cfg.seed) if probe_size > 0 else None
    return iterative_search(SearchView(space), model, cfg, train_cfg, loss=method.loss, probe=probe)
