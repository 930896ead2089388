"""Losses and training procedures for the ranking model.

Two stages. Pretraining fits the three auxiliary heads (weak accuracy,
FLOPs, params) with a multi-task MSE on normalized labels: cheap, plentiful
supervision that teaches the encoder what an architecture looks like.
Finetuning transfers that encoder and trains the rank head listwise: each
shuffled mini-batch is one list, and per-item gradient coefficients are
accumulated over all in-list pairs (sigmoid of score differences, optionally
scaled by the NDCG change of swapping the pair).

The data views enforce information hygiene: pretraining records carry no
validation or test accuracy, finetuning examples carry no test accuracy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import expit

from . import metrics, nn
from .space import BenchmarkRecord, EncodedArch, SearchSpace, encode_architecture

log = logging.getLogger(__name__)

CHANNELS = ("ws", "flops", "params")


@dataclass(frozen=True)
class WeakRecord:
    """Pretraining view of a record: weak label and cost metrics only."""

    arch_id: str
    encoded: EncodedArch
    ws_acc: float
    flops: float
    params: float


@dataclass(frozen=True)
class LabeledExample:
    """Finetuning view of a record: revealed validation accuracy only."""

    arch_id: str
    encoded: EncodedArch
    val_acc: float


def weak_view(space: SearchSpace, ids: Sequence[str] | None = None) -> list[WeakRecord]:
    """Project records onto the pretraining view; errors if any weak label is missing."""
    chosen = space.ids if ids is None else tuple(ids)
    out = []
    for rid in chosen:
        rec = space.records[rid]
        if rec.ws_acc is None:
            raise ValueError(f"record {rid!r} has no weak label; calibrate or load ws_acc first")
        out.append(
            WeakRecord(
                arch_id=rid,
                encoded=encode_architecture(rec.arch, space.meta.vocab),
                ws_acc=rec.ws_acc,
                flops=rec.flops,
                params=rec.params,
            )
        )
    return out


def labeled_view(records: Sequence[BenchmarkRecord], vocab: Sequence[str]) -> list[LabeledExample]:
    return [
        LabeledExample(
            arch_id=r.arch.id,
            encoded=encode_architecture(r.arch, vocab),
            val_acc=r.val_acc,
        )
        for r in records
    ]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 20
    epochs: int = 300
    lr0: float = 0.005
    weight_decay: float = 0.0005
    early_stop_patience: int | None = 50
    sigma: float = 1.0              # sigmoid scale in the pairwise coefficients
    lambda_flops: float = 1.0
    lambda_params: float = 1.0
    holdout_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.lr0 <= 0 or self.sigma <= 0:
            raise ValueError("lr0 and sigma must be positive")
        if self.weight_decay < 0 or self.lambda_flops < 0 or self.lambda_params < 0:
            raise ValueError("weights must be nonnegative")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1 or None")

    @classmethod
    def pretrain_defaults(cls, **kw) -> "TrainConfig":
        base = dict(lr0=0.001, weight_decay=1e-5, early_stop_patience=None)
        base.update(kw)
        return cls(**base)


@dataclass(frozen=True)
class LabelNormalizer:
    """Per-channel shift/scale fitted on training labels (population std)."""

    mean: dict[str, float]
    std: dict[str, float]

    def normalize(self, channel: str, values) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean[channel]) / self.std[channel]


def fit_normalizer(labels: dict[str, Sequence[float]]) -> LabelNormalizer:
    mean, std = {}, {}
    for channel, values in labels.items():
        v = np.asarray(values, dtype=np.float64)
        if v.size < 2 or np.all(v == v[0]):
            raise ValueError(f"channel {channel!r} needs >= 2 distinct values")
        mean[channel] = float(v.mean())
        std[channel] = float(v.std())
    return LabelNormalizer(mean=mean, std=std)


@dataclass
class CurveRow:
    epoch: int
    split: str
    loss: float | None = None
    ndcg: float | None = None
    r2_ws: float | None = None
    r2_flops: float | None = None
    r2_params: float | None = None
    lr: float | None = None


# ---------------------------------------------------------------------------
# losses and gradient coefficients
# ---------------------------------------------------------------------------

def multitask_mse(
    preds: dict[str, np.ndarray],
    labels: dict[str, np.ndarray],
    lambda_flops: float = 1.0,
    lambda_params: float = 1.0,
) -> tuple[float, dict[str, np.ndarray]]:
    """MSE(ws) + lambda_flops*MSE(flops) + lambda_params*MSE(params), with
    per-prediction gradients 2*(pred - label)/batch scaled by the channel weight."""
    weights = {"ws": 1.0, "flops": lambda_flops, "params": lambda_params}
    loss = 0.0
    grads = {}
    for channel in CHANNELS:
        p = np.asarray(preds[channel], dtype=np.float64)
        t = np.asarray(labels[channel], dtype=np.float64)
        if p.shape != t.shape:
            raise ValueError(f"channel {channel!r}: prediction shape {p.shape} != label shape {t.shape}")
        err = p - t
        loss += weights[channel] * float(np.mean(err**2))
        grads[channel] = weights[channel] * 2.0 * err / err.size
    return loss, grads


def ranknet_lambdas(scores, rels, sigma: float = 1.0) -> np.ndarray:
    """Per-item gradient coefficients treating every misordered-relevance pair
    equally: for rel_i > rel_j the pair contributes -sigma*expit(-sigma*(s_i - s_j))
    to item i and its negation to item j."""
    s = np.asarray(scores, dtype=np.float64)
    r = np.asarray(rels, dtype=np.float64)
    if s.shape != r.shape or s.size < 2:
        raise ValueError("scores and relevances must be equal-length lists of >= 2 items")
    pair = np.where(
        r[:, None] > r[None, :],
        -sigma * expit(-sigma * (s[:, None] - s[None, :])),
        0.0,
    )
    return pair.sum(axis=1) - pair.sum(axis=0)


def lambdarank_lambdas(scores, rels, sigma: float = 1.0, ids: Sequence[str] | None = None) -> np.ndarray:
    """RankNet coefficients scaled per pair by |delta NDCG| of swapping the
    two items in the current predicted ranking (descending score, ties broken
    by id when given, else by original index)."""
    s = np.asarray(scores, dtype=np.float64)
    r = np.asarray(rels, dtype=np.float64)
    if s.shape != r.shape or s.size < 2:
        raise ValueError("scores and relevances must be equal-length lists of >= 2 items")
    n = s.size
    if ids is None:
        order = np.lexsort((np.arange(n), -s))
    else:
        order = np.array(sorted(range(n), key=lambda i: (-s[i], ids[i])), dtype=np.intp)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    delta_by_pos = metrics.pairwise_delta_ndcg(r[order])
    delta = delta_by_pos[position[:, None], position[None, :]]
    pair = np.where(
        r[:, None] > r[None, :],
        -sigma * expit(-sigma * (s[:, None] - s[None, :])) * delta,
        0.0,
    )
    return pair.sum(axis=1) - pair.sum(axis=0)


def _pairwise_logistic_loss(scores, rels, sigma: float) -> float:
    """Monitoring surrogate: mean log(1 + exp(-sigma*(s_i - s_j))) over pairs
    with rel_i > rel_j (the objective whose gradient the coefficients are)."""
    s = np.asarray(scores, dtype=np.float64)
    r = np.asarray(rels, dtype=np.float64)
    gt = r[:, None] > r[None, :]
    if not gt.any():
        return 0.0
    diff = s[:, None] - s[None, :]
    return float(np.mean(np.logaddexp(0.0, -sigma * diff)[gt]))


def r_squared(pred, target) -> float:
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        return float("nan")
    return 1.0 - float(np.sum((p - t) ** 2)) / ss_tot


# ---------------------------------------------------------------------------
# training procedures
# ---------------------------------------------------------------------------

@dataclass
class PretrainResult:
    model: nn.RankingModel
    r2: dict[str, float]
    curve: list[CurveRow]


@dataclass
class FinetuneResult:
    model: nn.RankingModel
    best_ndcg: float | None
    stopped_epoch: int
    relevance_map: metrics.RelevanceMap | None
    curve: list[CurveRow]


def _holdout_size(n: int, fraction: float, minimum: int) -> int:
    n_hold = int(round(fraction * n))
    if n_hold > 0:
        n_hold = max(n_hold, minimum)
    if n - n_hold < max(2, minimum) or n_hold < minimum:
        return 0
    return n_hold


def _split_holdout(n: int, fraction: float, rng: np.random.Generator, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    """(train_idx, holdout_idx); holdout empty when the set is too small to spare."""
    n_hold = _holdout_size(n, fraction, minimum)
    if n_hold == 0:
        return np.arange(n), np.arange(0)
    perm = rng.permutation(n)
    return perm[n_hold:], perm[:n_hold]


def _stratified_holdout(values, fraction: float, minimum: int) -> tuple[np.ndarray, np.ndarray]:
    """Holdout at evenly spaced ranks of `values` (extremes stay in training),
    so the early-stop NDCG always sees a spread of relevances. Deterministic."""
    n = len(values)
    n_hold = _holdout_size(n, fraction, minimum)
    if n_hold == 0:
        return np.arange(n), np.arange(0)
    order = np.argsort(np.asarray(values), kind="stable")
    ranks = np.linspace(0, n - 1, n_hold + 2)[1:-1].round().astype(int)
    hold = order[np.unique(ranks)]
    mask = np.ones(n, dtype=bool)
    mask[hold] = False
    return np.flatnonzero(mask), hold


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffle indices and chunk into batches; a trailing chunk of one item is
    folded into the previous batch (a single item carries no pairwise signal)."""
    perm = rng.permutation(n)
    chunks = [perm[i : i + batch_size] for i in range(0, n, batch_size)]
    if len(chunks) > 1 and chunks[-1].size < 2:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def pretrain(model: nn.RankingModel, records: Sequence[WeakRecord], cfg: TrainConfig) -> PretrainResult:
    """Train the auxiliary heads (ws/flops/params) with multi-task MSE on
    normalized labels; Adam with cosine decay, no early stopping by default.
    Returns a trained copy of the model plus held-out R-squared per channel.
    """
    if not records:
        raise ValueError("no pretraining records")
    model = nn.clone_model(model)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9E37]))
    seed_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD809]))

    train_idx, hold_idx = _split_holdout(len(records), cfg.holdout_fraction, rng, minimum=2)
    train = [records[i] for i in train_idx]
    hold = [records[i] for i in hold_idx]
    nn.set_hparam_stats(model, [r.encoded for r in train])
    normalizer = fit_normalizer(
        {
            "ws": [r.ws_acc for r in train],
            "flops": [r.flops for r in train],
            "params": [r.params for r in train],
        }
    )

    labels = {
        "ws": normalizer.normalize("ws", [r.ws_acc for r in train]),
        "flops": normalizer.normalize("flops", [r.flops for r in train]),
        "params": normalizer.normalize("params", [r.params for r in train]),
    }
    # The rank head is not part of the pretraining model (the auxiliary heads
    # replace it); leaving it in the optimizer would let Adam's normalized
    # weight-decay steps grind its untouched weights to zero.
    trainable = [n for n in model.store.names() if not n.startswith("head_rank")]
    steps_per_epoch = max(1, -(-len(train) // cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    curve: list[CurveRow] = []
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        epoch_losses = []
        for batch_idx in _epoch_batches(len(train), cfg.batch_size, rng):
            lr = nn.cosine_lr(step, total_steps, cfg.lr0)
            batch = [train[i].encoded for i in batch_idx]
            preds, ctx = nn.forward_heads(
                model, batch, CHANNELS, train_mode=True,
                dropout_seed=int(seed_rng.integers(0, 2**31)),
            )
            batch_labels = {ch: labels[ch][batch_idx] for ch in CHANNELS}
            loss, grads = multitask_mse(preds, batch_labels, cfg.lambda_flops, cfg.lambda_params)
            nn.backward(model, grads, ctx)
            nn.adam_step(model.store, lr, weight_decay=cfg.weight_decay, names=trainable)
            epoch_losses.append(loss)
            step += 1
        curve.append(CurveRow(epoch=epoch, split="train", loss=float(np.mean(epoch_losses)), lr=lr))

    r2 = {ch: float("nan") for ch in CHANNELS}
    if len(hold) >= 2:
        preds, _ = nn.forward_heads(model, [r.encoded for r in hold], CHANNELS)
        targets = {
            "ws": normalizer.normalize("ws", [r.ws_acc for r in hold]),
            "flops": normalizer.normalize("flops", [r.flops for r in hold]),
            "params": normalizer.normalize("params", [r.params for r in hold]),
        }
        r2 = {ch: r_squared(preds[ch], targets[ch]) for ch in CHANNELS}
        curve.append(
            CurveRow(epoch=cfg.epochs, split="holdout",
                     r2_ws=r2["ws"], r2_flops=r2["flops"], r2_params=r2["params"])
        )
    return PretrainResult(model=model, r2=r2, curve=curve)


# Parameters updated during finetuning: the shared encoder plus the rank
# head. Auxiliary heads stay frozen at their pretrained values.
def _finetune_param_names(model: nn.RankingModel) -> list[str]:
    return [n for n in model.store.names() if not n.startswith(("head_ws", "head_flops", "head_params"))]


def finetune(
    model: nn.RankingModel,
    examples: Sequence[LabeledExample],
    cfg: TrainConfig,
    loss: str = "lambdarank",
) -> FinetuneResult:
    """Listwise training of the rank head (and encoder) on labeled pairs.

    Fits the relevance map on the labeled accuracies, shuffles the labeled
    set into lists of batch_size each epoch, and applies the selected
    gradient coefficients per list ("lambdarank", "ranknet", or pointwise
    "mse" regression on normalized accuracy). Early stopping watches NDCG on
    a held-out slice; the best checkpoint is returned.
    """
    if loss not in ("lambdarank", "ranknet", "mse"):
        raise ValueError(f"unknown finetune loss {loss!r}")
    if len(examples) < 2:
        raise ValueError("finetuning needs at least 2 labeled records")
    model = nn.clone_model(model)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF17E]))
    seed_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xBEEF]))

    accs = np.array([e.val_acc for e in examples])
    try:
        rmap = metrics.fit_relevance_map(accs)
        rels_all = metrics.map_relevance(rmap, accs)
    except ValueError:
        log.warning("degenerate relevance map (labeled accuracies too concentrated); using uniform relevance")
        rmap = None
        rels_all = np.ones(len(examples))

    if not model.hp_fitted:
        # Fresh (non-transferred) model: fit hyper-parameter stats here.
        nn.set_hparam_stats(model, [e.encoded for e in examples])

    train_idx, hold_idx = _stratified_holdout(accs, cfg.holdout_fraction, minimum=2)
    train = [examples[i] for i in train_idx]
    hold = [examples[i] for i in hold_idx]
    rels_train = rels_all[train_idx]
    hold_ranked_entries = [(examples[i].arch_id, float(rels_all[i])) for i in hold_idx]

    normalizer = None
    if loss == "mse":
        vals = [e.val_acc for e in train]
        if np.ptp(vals) > 0:
            normalizer = fit_normalizer({"val": vals})

    trainable = _finetune_param_names(model)
    steps_per_epoch = max(1, -(-len(train) // cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    curve: list[CurveRow] = []
    best_params = None
    best_ndcg = None
    patience = 0
    stopped_epoch = cfg.epochs
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        epoch_losses = []
        for batch_idx in _epoch_batches(len(train), cfg.batch_size, rng):
            lr = nn.cosine_lr(step, total_steps, cfg.lr0)
            batch = [train[i].encoded for i in batch_idx]
            ids = [train[i].arch_id for i in batch_idx]
            rels = rels_train[batch_idx]
            scores, ctx = nn.forward(
                model, batch, "rank", train_mode=True,
                dropout_seed=int(seed_rng.integers(0, 2**31)),
            )
            if loss == "mse":
                if normalizer is None:
                    targets = np.zeros(len(batch_idx))
                else:
                    targets = normalizer.normalize("val", [train[i].val_acc for i in batch_idx])
                err = scores - targets
                coeffs = 2.0 * err / err.size
                epoch_losses.append(float(np.mean(err**2)))
            else:
                if loss == "lambdarank":
                    coeffs = lambdarank_lambdas(scores, rels, cfg.sigma, ids=ids)
                else:
                    coeffs = ranknet_lambdas(scores, rels, cfg.sigma)
                epoch_losses.append(_pairwise_logistic_loss(scores, rels, cfg.sigma))
            nn.backward(model, coeffs, ctx)
            nn.adam_step(model.store, lr, weight_decay=cfg.weight_decay, names=trainable)
            step += 1
        curve.append(CurveRow(epoch=epoch, split="train", loss=float(np.mean(epoch_losses)), lr=lr))

        if len(hold) >= 2:
            hold_scores, _ = nn.forward(model, [e.encoded for e in hold], "rank")
            ranked = metrics.rank_by_score(
                [(rid, float(s), rel) for (rid, rel), s in zip(hold_ranked_entries, hold_scores)]
            )
            val_ndcg = metrics.ndcg(ranked)
            curve.append(CurveRow(epoch=epoch, split="holdout", ndcg=val_ndcg))
            if best_ndcg is None or val_ndcg > best_ndcg:
                best_ndcg = val_ndcg
                best_params = {k: v.copy() for k, v in model.store.params.items()}
                patience = 0
            else:
                patience += 1
                if cfg.early_stop_patience is not None and patience >= cfg.early_stop_patience:
                    stopped_epoch = epoch
                    break

    if best_params is not None:
        for k, v in best_params.items():
            model.store.params[k][...] = v
    return FinetuneResult(
        model=model,
        best_ndcg=best_ndcg,
        stopped_epoch=stopped_epoch,
        relevance_map=rmap,
        curve=curve,
    )
