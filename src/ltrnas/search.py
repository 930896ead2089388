"""Round-based architecture search driven by the ranking model.

Round 1 samples uniformly at random; later rounds mix the model's top-scored
candidates (an exploit fraction of the round budget) with uniform draws from
the remaining pool. After every round the model is re-finetuned from the
supplied base checkpoint on all labels revealed so far, and the final top-k
is the model's. Without a model the same loop is the budget-matched random
baseline: every pick, the final k included, is uniform. The search sees
validation accuracy only, and only for sampled ids; test accuracy enters
exactly once, in finalize. The ws-greedy baseline is a one-shot selector
outside the loop.

The trace is a pure function of (space, config, seed): replaying the same
inputs reproduces it byte for byte.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import ltr, metrics, nn
from .space import Architecture, EncodedArch, SearchSpace, encode_architecture


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
    origin: str          # "random" | "model" | "topk"
    val_acc: float


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    ndcg: float | None
    tau: float | None
    best_val_so_far: float


@dataclass
class SearchTrace:
    config: SearchConfig
    entries: list[TraceEntry] = field(default_factory=list)
    round_metrics: list[RoundMetrics] = field(default_factory=list)
    final_top_k: tuple[str, ...] = ()
    chosen_id: str | None = None

    def sampled_ids(self) -> list[str]:
        return [e.arch_id for e in self.entries]


class SearchView:
    """Search-time access to a space: architectures, ids, and on-demand
    validation accuracy. Test accuracy is dropped at construction, so nothing
    that holds only this view can read it."""

    def __init__(self, space: SearchSpace):
        self.meta = space.meta
        self.ids: tuple[str, ...] = space.ids
        self._arch = {rid: rec.arch for rid, rec in space.records.items()}
        self._val = {rid: rec.val_acc for rid, rec in space.records.items()}
        self._encoded: dict[str, EncodedArch] = {}

    def __len__(self):
        return len(self.ids)

    def arch(self, arch_id: str) -> Architecture:
        return self._arch[arch_id]

    def encoded(self, arch_id: str) -> EncodedArch:
        enc = self._encoded.get(arch_id)
        if enc is None:
            enc = encode_architecture(self._arch[arch_id], self.meta.vocab)
            self._encoded[arch_id] = enc
        return enc

    def reveal_val(self, arch_id: str) -> float:
        """The costly step: reveal one architecture's validation accuracy."""
        return self._val[arch_id]


@dataclass(frozen=True)
class EvalProbe:
    """Measurement-only sample for per-round metric snapshots. Never feeds
    back into sampling or training; holds validation accuracy only."""

    ids: tuple[str, ...]
    encoded: tuple[EncodedArch, ...]
    val_accs: np.ndarray


def _draw(rng: np.random.Generator, ids: Sequence[str], n: int) -> list[str]:
    """n distinct ids drawn uniformly, in their order in `ids`."""
    return [ids[i] for i in sorted(rng.choice(len(ids), size=n, replace=False).tolist())]


def make_probe(space: SearchSpace, size: int, seed: int) -> EvalProbe:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9806]))
    picked = _draw(rng, space.ids, min(size, len(space)))
    return EvalProbe(
        ids=tuple(picked),
        encoded=tuple(encode_architecture(space.records[r].arch, space.meta.vocab) for r in picked),
        val_accs=np.array([space.records[r].val_acc for r in picked]),
    )


def _score_pool(model: nn.RankingModel, encs: Sequence[EncodedArch], chunk: int = 1024) -> np.ndarray:
    scores = np.empty(len(encs))
    for start in range(0, len(encs), chunk):
        part = encs[start : start + chunk]
        s, _ = nn.forward(model, part, "rank")
        scores[start : start + len(part)] = s
    return scores


def select_top_k(
    model: nn.RankingModel,
    pool: Sequence[tuple[str, EncodedArch]],
    k: int,
) -> list[tuple[str, float]]:
    """The k highest-scored candidates, ordered by (score desc, id asc)."""
    if k > len(pool):
        raise ValueError(f"top-k of {k} from a pool of {len(pool)}")
    scores = _score_pool(model, [enc for _, enc in pool])
    order = sorted(range(len(pool)), key=lambda i: (-scores[i], pool[i][0]))
    return [(pool[i][0], float(scores[i])) for i in order[:k]]


def _snapshot(
    model: nn.RankingModel,
    probe: EvalProbe | None,
    rmap: metrics.RelevanceMap | None,
) -> tuple[float | None, float | None]:
    if probe is None or len(probe.ids) < 2:
        return None, None
    scores = _score_pool(model, list(probe.encoded))
    if rmap is not None:
        rels = metrics.map_relevance(rmap, probe.val_accs)
    else:
        rels = np.ones(len(probe.ids))
    ranked = metrics.rank_by_score(
        [(rid, float(s), float(r)) for rid, s, r in zip(probe.ids, scores, rels)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", metrics.DegenerateRelevanceWarning)
        ndcg_val = metrics.ndcg(ranked)
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
    trace = SearchTrace(config=cfg)
    unlabeled = list(view.ids)
    labeled_ids: list[str] = []
    current = model
    best_val = -np.inf
    n_exploit = 0 if model is None else int(cfg.exploit_fraction * cfg.per_round)

    for rnd in range(1, cfg.rounds + 1):
        picks: list[tuple[str, str]] = []
        if rnd > 1 and n_exploit:
            pool = [(rid, view.encoded(rid)) for rid in unlabeled]
            picks = [(rid, "model") for rid, _ in select_top_k(current, pool, n_exploit)]
        taken = {rid for rid, _ in picks}
        remaining = [rid for rid in unlabeled if rid not in taken]
        n_random = cfg.per_round - len(picks)
        if n_random:
            picks += [(rid, "random") for rid in _draw(rng, remaining, n_random)]
        for rid, origin in picks:
            val = view.reveal_val(rid)
            trace.entries.append(TraceEntry(round=rnd, arch_id=rid, origin=origin, val_acc=val))
            labeled_ids.append(rid)
            best_val = max(best_val, val)
        taken = {rid for rid, _ in picks}
        unlabeled = [rid for rid in unlabeled if rid not in taken]

        ndcg_val = tau_val = None
        if model is not None:
            examples = [
                ltr.LabeledExample(arch_id=rid, encoded=view.encoded(rid), val_acc=view.reveal_val(rid))
                for rid in labeled_ids
            ]
            result = ltr.finetune(
                model, examples, replace(train_cfg, seed=_child_seed(cfg.seed, 0xF7, rnd)), loss=loss
            )
            current = result.model
            ndcg_val, tau_val = _snapshot(current, probe, result.relevance_map)
        trace.round_metrics.append(
            RoundMetrics(round=rnd, ndcg=ndcg_val, tau=tau_val, best_val_so_far=best_val)
        )

    if model is None:
        top = _draw(rng, unlabeled, cfg.top_k)
    else:
        pool = [(rid, view.encoded(rid)) for rid in unlabeled]
        top = [rid for rid, _ in select_top_k(current, pool, cfg.top_k)]
    trace.final_top_k = tuple(top)
    for rid in top:
        trace.entries.append(
            TraceEntry(round=cfg.rounds + 1, arch_id=rid, origin="topk", val_acc=view.reveal_val(rid))
        )

    sampled = trace.sampled_ids()
    if len(set(sampled)) != cfg.budget or len(sampled) != cfg.budget:
        raise RuntimeError("internal sampling bug: duplicate or missing ids in trace")
    return current, trace


def finalize(trace: SearchTrace, space: SearchSpace) -> tuple[Architecture, float]:
    """Pick the best-validation architecture among everything sampled and
    report its test accuracy (the single test-set read of a search)."""
    if not trace.entries:
        raise ValueError("empty trace")
    best = min(trace.entries, key=lambda e: (-e.val_acc, e.arch_id))
    trace.chosen_id = best.arch_id
    rec = space.records[best.arch_id]
    return rec.arch, rec.test_acc


def ws_greedy_baseline(space: SearchSpace, budget: int):
    """Greedy selection by weak label: the `budget` records with the highest
    super-net style accuracy (ties broken by id)."""
    if budget < 1 or budget > len(space):
        raise ValueError(f"budget {budget} out of range for space of {len(space)}")
    missing = [rid for rid, rec in space.records.items() if rec.ws_acc is None]
    if missing:
        raise ValueError(f"{len(missing)} records have no weak label (e.g. {missing[0]!r})")
    order = sorted(space.records.values(), key=lambda r: (-r.ws_acc, r.arch.id))
    return order[:budget]

