"""Losses and training procedures for the ranking model.

Two stages. Pretraining fits the three auxiliary heads (weak accuracy,
FLOPs, params) with a multi-task MSE on standardized labels: cheap, plentiful
supervision that teaches the encoder what an architecture looks like.
Finetuning transfers that encoder and trains the rank head listwise: each
shuffled mini-batch is one list, and per-item gradient coefficients are
accumulated over all in-list pairs (sigmoid of score differences, optionally
scaled by the NDCG change of swapping the pair). Both stages run one
training loop and differ only in the per-batch loss they hand it.

Information hygiene is held by the signatures: architectures reach both
stages only as a packed batch, `pretrain` receives weak labels and costs
alone, and `finetune` receives revealed validation accuracy alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import metrics, nn
from .space import SearchSpace, SpaceValidationError, encode_architecture

log = logging.getLogger(__name__)

CHANNELS = ("ws", "flops", "params")


def weak_view(space: SearchSpace, ids: Sequence[str]) -> tuple[nn.Packed, dict[str, np.ndarray]]:
    """The pretraining view of `ids`: their pack and, position for position,
    their weak labels and costs per channel of CHANNELS. No validation or test
    accuracy is read. Errors if any weak label is missing."""
    recs = [space.records[rid] for rid in ids]
    for rec in recs:
        if rec.ws_acc is None:
            raise SpaceValidationError(f"record {rec.arch.id!r} has no weak label; calibrate or load ws_acc first")
    packed = nn.pack([encode_architecture(rec.arch, space.meta.vocab) for rec in recs])
    weak = {"ws": [r.ws_acc for r in recs], "flops": [r.flops for r in recs], "params": [r.params for r in recs]}
    return packed, {ch: np.array(v, dtype=np.float64) for ch, v in weak.items()}


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
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        for name in ("lr0", "weight_decay", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr0 <= 0 or self.sigma <= 0:
            raise ValueError("lr0 and sigma must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1 or None")


# Share of the records held out: pretraining reports R-squared on them,
# finetuning early-stops on their NDCG.
HOLDOUT_FRACTION = 0.1


@dataclass(frozen=True)
class Standardizer:
    """(x - mean) / std with the mean and population std of training values."""

    mean: float
    std: float

    @classmethod
    def fit(cls, values, name: str) -> "Standardizer":
        """Fit on `values` of the quantity `name`, which needs >= 2 distinct values."""
        v = np.asarray(values, dtype=np.float64)
        if v.size < 2 or np.all(v == v[0]):
            raise ValueError(f"{name} needs >= 2 distinct values")
        return cls(float(v.mean()), float(v.std()))

    def __call__(self, values) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std


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

def _mse(pred, target) -> tuple[float, np.ndarray]:
    """Mean squared error and its per-prediction gradient 2*(pred - target)/n."""
    err = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    return float(np.mean(err**2)), 2.0 * err / err.size


def multitask_mse(preds: dict[str, np.ndarray], labels: dict[str, np.ndarray]) -> tuple[float, dict[str, np.ndarray]]:
    """MSE(ws) + MSE(flops) + MSE(params), with each channel's `_mse` gradient."""
    loss = 0.0
    grads = {}
    for channel in CHANNELS:
        if np.shape(preds[channel]) != np.shape(labels[channel]):
            raise ValueError(f"channel {channel!r}: prediction shape {np.shape(preds[channel])} "
                             f"!= label shape {np.shape(labels[channel])}")
        part, grads[channel] = _mse(preds[channel], labels[channel])
        loss += part
    return loss, grads


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _expit(t: np.ndarray) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + exp(-t)) of a 1-D array through libm's exp:
    bit for bit `scipy.special.expit`, 0.0 where exp(-t) overflows. numpy's
    SIMD exp is not libm's and differs in the last bit for some inputs."""
    neg = (-t).tolist()
    try:
        exp_neg = np.fromiter(map(math.exp, neg), np.float64, len(neg))
    except OverflowError:
        exp_neg = np.fromiter(map(_exp_or_inf, neg), np.float64, len(neg))
    return 1.0 / (1.0 + exp_neg)


def _pair_coefficients(s: np.ndarray, r: np.ndarray, sigma: float, delta: np.ndarray | None = None) -> np.ndarray:
    """Row sums minus column sums of the pair matrix whose [i, j] entry is
    -sigma*expit(-sigma*(s_i - s_j)) (times delta[i, j]) for rel_i > rel_j
    and 0.0 otherwise. expit runs only on those pairs."""
    above = r[:, None] > r[None, :]
    value = -sigma * _expit(-sigma * (s[:, None] - s[None, :])[above])
    pair = np.zeros(above.shape)
    pair[above] = value if delta is None else value * delta[above]
    return pair.sum(axis=1) - pair.sum(axis=0)


def ranknet_lambdas(scores, rels, sigma: float = 1.0) -> np.ndarray:
    """Per-item gradient coefficients treating every misordered-relevance pair
    equally: for rel_i > rel_j the pair contributes -sigma*expit(-sigma*(s_i - s_j))
    to item i and its negation to item j."""
    s = np.asarray(scores, dtype=np.float64)
    r = np.asarray(rels, dtype=np.float64)
    if s.shape != r.shape or s.size < 2:
        raise ValueError("scores and relevances must be equal-length lists of >= 2 items")
    return _pair_coefficients(s, r, sigma)


def lambdarank_lambdas(scores, rels, sigma: float = 1.0, *, ids: Sequence[str]) -> np.ndarray:
    """RankNet coefficients scaled per pair by |delta NDCG| of swapping the
    two items in the current predicted ranking (`metrics.rank_order`)."""
    s = np.asarray(scores, dtype=np.float64)
    r = np.asarray(rels, dtype=np.float64)
    if s.shape != r.shape or s.size < 2:
        raise ValueError("scores and relevances must be equal-length lists of >= 2 items")
    order = metrics.rank_order(s, ids)
    position = np.empty(s.size, dtype=np.intp)
    position[order] = np.arange(s.size)
    delta_by_pos = metrics.pairwise_delta_ndcg(r[order])
    return _pair_coefficients(s, r, sigma, delta_by_pos[position[:, None], position[None, :]])


def _pairwise_logistic_loss(s: np.ndarray, r: np.ndarray, sigma: float) -> float:
    """Monitoring surrogate: mean log(1 + exp(-sigma*(s_i - s_j))) over pairs
    with rel_i > rel_j (the objective whose gradient the coefficients are)."""
    gt = r[:, None] > r[None, :]
    if not gt.any():
        return 0.0
    return float(np.mean(np.logaddexp(0.0, -sigma * (s[:, None] - s[None, :]))[gt]))


# The finetune losses. A pairwise one maps a list's scores, relevances, ids and
# sigma to (monitoring loss, coefficients), calling the coefficient functions
# through their module bindings; None is the pointwise MSE on standardized accuracy.
FINETUNE_LOSSES: dict[str, Callable[..., tuple[float, np.ndarray]] | None] = {
    "lambdarank": lambda s, rels, ids, sigma: (_pairwise_logistic_loss(s, rels, sigma),
                                               lambdarank_lambdas(s, rels, sigma, ids=ids)),
    "ranknet": lambda s, rels, ids, sigma: (_pairwise_logistic_loss(s, rels, sigma), ranknet_lambdas(s, rels, sigma)),
    "mse": None,
}


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


def _holdout_size(n: int) -> int:
    """HOLDOUT_FRACTION of n records, at least 2; none when that would leave
    fewer than 2 for training."""
    n_hold = int(round(HOLDOUT_FRACTION * n))
    n_hold = max(n_hold, 2) if n_hold else 0
    return n_hold if n - n_hold >= 2 else 0


def _split_holdout(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(train_idx, holdout_idx); holdout empty when the set is too small to spare."""
    n_hold = _holdout_size(n)
    if n_hold == 0:
        return np.arange(n), np.arange(0)
    perm = rng.permutation(n)
    return perm[n_hold:], perm[:n_hold]


def _stratified_holdout(values) -> tuple[np.ndarray, np.ndarray]:
    """Holdout at evenly spaced ranks of `values` (extremes stay in training),
    so the early-stop NDCG always sees a spread of relevances. Deterministic."""
    n = len(values)
    n_hold = _holdout_size(n)
    if n_hold == 0:
        return np.arange(n), np.arange(0)
    order = np.argsort(np.asarray(values), kind="stable")
    ranks = np.linspace(0, n - 1, n_hold + 2)[1:-1].round().astype(int)
    hold = order[np.unique(ranks)]
    mask = np.ones(n, dtype=bool)
    mask[hold] = False
    return np.flatnonzero(mask), hold


def _ndcg_saturates(rels: np.ndarray) -> bool:
    """Whether no order of a holdout with relevances `rels` can read a
    `metrics.ndcg` above 1.0 once one has read exactly 1.0, so that a finetune
    that kept such an epoch can keep no later one.

    Orders that rank the relevances in descending sequence hand `metrics.dcg`
    equal arrays and read one value; every other order must read below 1.0.
    With equal relevances (all zero too) there is no other order. Else, with
    G_i = 2**r_i (gain plus one), d_k = 1/log2(k + 1) and n items, Abel
    summation gives IDCG - DCG(pi) = sum over k < n of A_k (d_k - d_k+1),
    A_k >= 0 the top k gains' sum less that of pi's first k. A non-ideal pi
    has an A_k > 0, then >= gap, the least positive difference of the G_i,
    and the d_k are convex: the loss is >= gap (d_n-1 - d_n). With u = 2**-53,
    exp2 and log2 within 16u (libm is within 1 ulp, numpy's SIMD loops 4) and
    the rest rounded to nearest, a computed DCG is within
    E = (48 + 1.02 (n - 1)) u S of the exact one, S = sum G_i, so a loss of
    2E + u S <= 100 n u S reads below 1.0. The test asks for 256 n u S, which
    leaves room for its own rounding (under 1% on each side, plus 33u S on gap).
    """
    levels = np.exp2(np.unique(rels))
    if levels.size < 2:
        return True
    n = len(rels)
    drop = 1.0 / math.log2(n) - 1.0 / math.log2(n + 1)
    return float(np.min(np.diff(levels))) * drop > 2.0**-45 * n * float(np.sum(np.exp2(rels)))


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffle indices and chunk into batches; a trailing chunk of one item is
    folded into the previous batch (a single item carries no pairwise signal)."""
    perm = rng.permutation(n)
    chunks = [perm[i : i + batch_size] for i in range(0, n, batch_size)]
    if len(chunks) > 1 and chunks[-1].size < 2:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _train_epochs(
    model: nn.RankingModel, packed: nn.Packed, train_idx: np.ndarray, heads: Sequence[str],
    batch_loss: Callable[[np.ndarray, dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
    cfg: TrainConfig, trainable: Sequence[str], rng: np.random.Generator, seed_rng: np.random.Generator,
) -> Iterator[CurveRow]:
    """The training loop both stages share: per epoch, shuffled batches of
    `train_idx`, each a train-mode forward of `heads`, `batch_loss(batch,
    scores) -> (loss, {head: upstream})`, backward and an Adam step on the
    `trainable` parameters under cosine decay. Yields each epoch's train row
    once its last step is taken; the caller may stop early by not resuming."""
    steps_per_epoch = max(1, -(-len(train_idx) // cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        epoch_losses = []
        for batch in _epoch_batches(len(train_idx), cfg.batch_size, rng):
            lr = nn.cosine_lr(step, total_steps, cfg.lr0)
            scores, ctx = nn.forward_heads(
                model, packed.select(train_idx[batch]), heads, train_mode=True,
                dropout_seed=int(seed_rng.integers(0, 2**31)),
            )
            loss, upstream = batch_loss(batch, scores)
            nn.backward(model, upstream, ctx)
            nn.adam_step(model.store, lr, weight_decay=cfg.weight_decay, names=trainable)
            epoch_losses.append(loss)
            step += 1
        yield CurveRow(epoch=epoch, split="train", loss=float(np.mean(epoch_losses)), lr=lr)


def pretrain(model: nn.RankingModel, packed: nn.Packed, weak: dict[str, np.ndarray], cfg: TrainConfig) -> PretrainResult:
    """Train the encoder and the auxiliary heads (ws/flops/params) with
    multi-task MSE on standardized labels for cfg.epochs (no early stopping).
    `packed` and `weak` are `weak_view`'s pair. Returns a trained copy of the
    model, with its optimizer state dropped, plus held-out R-squared per channel.
    """
    if any(len(weak[ch]) != len(packed) for ch in CHANNELS):
        raise ValueError(f"{len(packed)} architectures but label lengths {[len(weak[ch]) for ch in CHANNELS]}")
    model = nn.clone_model(model)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9E37]))
    seed_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD809]))

    train_idx, hold_idx = _split_holdout(len(packed), rng)
    nn.set_hparam_stats(model, packed.hparams[train_idx])
    scale = {ch: Standardizer.fit(weak[ch][train_idx], f"channel {ch!r}") for ch in CHANNELS}
    labels = {ch: scale[ch](weak[ch][train_idx]) for ch in CHANNELS}

    def batch_loss(batch, preds):
        return multitask_mse(preds, {ch: labels[ch][batch] for ch in CHANNELS})

    trainable = nn.trained_params(model.config, CHANNELS)
    curve = list(_train_epochs(model, packed, train_idx, CHANNELS, batch_loss, cfg, trainable, rng, seed_rng))
    model.store.release()

    r2 = {ch: float("nan") for ch in CHANNELS}
    if len(hold_idx) >= 2:
        preds, _ = nn.forward_heads(model, packed.select(hold_idx), CHANNELS)
        r2 = {ch: r_squared(preds[ch], scale[ch](weak[ch][hold_idx])) for ch in CHANNELS}
        curve.append(CurveRow(epoch=cfg.epochs, split="holdout", **{f"r2_{ch}": r2[ch] for ch in CHANNELS}))
    return PretrainResult(model=model, r2=r2, curve=curve)


def finetune(
    model: nn.RankingModel,
    packed: nn.Packed,
    ids: Sequence[str],
    accs: Sequence[float],
    cfg: TrainConfig,
    loss: str = "lambdarank",
) -> FinetuneResult:
    """Listwise training of the rank head and encoder on labeled architectures:
    `packed` holds them, `ids` and the revealed validation accuracies `accs`
    name and label them, position for position.

    Fits the relevance map on the labeled accuracies, shuffles the labeled
    set into lists of batch_size each epoch, and trains each list by `loss`,
    a key of FINETUNE_LOSSES. Early stopping watches NDCG on a held-out
    slice, and stops once no later epoch can beat the best (`_ndcg_saturates`);
    the best epoch is returned, without optimizer state.
    """
    try:
        pairwise = FINETUNE_LOSSES[loss]
    except KeyError:
        raise ValueError(f"unknown finetune loss {loss!r}") from None
    if not len(packed) == len(ids) == len(accs):
        raise ValueError(f"{len(packed)} architectures, {len(ids)} ids and {len(accs)} accuracies")
    if len(ids) < 2:
        raise ValueError("finetuning needs at least 2 labeled records")
    model = nn.clone_model(model)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF17E]))
    seed_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xBEEF]))

    accs = np.array(accs, dtype=np.float64)
    try:
        rmap = metrics.fit_relevance_map(accs)
        rels_all = metrics.map_relevance(rmap, accs)
    except ValueError:
        log.warning("degenerate relevance map (labeled accuracies too concentrated); using uniform relevance")
        rmap, rels_all = None, np.ones(len(accs))

    train_idx, hold_idx = _stratified_holdout(accs)
    train_ids = [ids[i] for i in train_idx]
    if not model.hp_fitted:
        # Fresh (non-transferred) model: fit hyper-parameter stats here.
        nn.set_hparam_stats(model, packed.hparams)
    hold_batch = packed.select(hold_idx) if len(hold_idx) >= 2 else None
    hold_ids, hold_rels = [ids[i] for i in hold_idx], rels_all[hold_idx]
    rels_train = rels_all[train_idx]

    if pairwise is None:
        vals = accs[train_idx]
        targets = Standardizer.fit(vals, "validation accuracy")(vals) if np.ptp(vals) > 0 else np.zeros(len(vals))

    def batch_loss(batch, scores):
        s = scores["rank"]
        value, coeffs = (_mse(s, targets[batch]) if pairwise is None
                         else pairwise(s, rels_train[batch], [train_ids[i] for i in batch], cfg.sigma))
        return value, {"rank": coeffs}

    trainable = nn.trained_params(model.config, ("rank",))
    saturates = hold_batch is not None and _ndcg_saturates(hold_rels)
    curve: list[CurveRow] = []
    best_flat = best_ndcg = None
    patience, stopped_epoch = 0, cfg.epochs
    for row in _train_epochs(model, packed, train_idx, ("rank",), batch_loss, cfg, trainable, rng, seed_rng):
        curve.append(row)
        if hold_batch is None:
            continue
        hold_scores, _ = nn.forward(model, hold_batch, "rank")
        val_ndcg = metrics.ndcg(hold_scores, hold_rels, hold_ids)
        curve.append(CurveRow(epoch=row.epoch, split="holdout", ndcg=val_ndcg))
        if best_ndcg is None or val_ndcg > best_ndcg:
            best_ndcg, best_flat, patience = val_ndcg, model.store.flat.copy(), 0
        else:
            patience += 1
        if (saturates and best_ndcg == 1.0) or patience == cfg.early_stop_patience:
            stopped_epoch = row.epoch
            break

    model.store.release()
    if best_flat is not None:
        model.store.flat[...] = best_flat
    return FinetuneResult(model=model, best_ndcg=best_ndcg, stopped_epoch=stopped_epoch, relevance_map=rmap,
                          curve=curve)
