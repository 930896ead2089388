"""Ranking-quality and correlation metrics.

Accuracies are clipped to a fitted window and linearly rescaled into a
bounded relevance range before being fed to the gain-based metrics. The
gain of an item is ``2**rel - 1`` and positions are discounted by
``1/log2(position + 1)`` (1-based positions), so misplacing a high-relevance
item near the top costs far more than shuffling the tail.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class DegenerateRelevanceWarning(UserWarning):
    """All relevances are zero: every ordering is ideal."""


@dataclass(frozen=True)
class RelevanceMap:
    """Clipping window mapping accuracy (percent) to relevance in [0, max_rel]."""

    lower: float
    upper: float
    max_rel: float = 20.0

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"relevance map needs lower < upper, got ({self.lower}, {self.upper})")
        if self.max_rel <= 0:
            raise ValueError(f"max_rel must be positive, got {self.max_rel}")


def rank_order(scores, ids: Sequence[str]) -> np.ndarray:
    """Item positions in descending score, ties broken by ascending id.

    The package's one ranking rule: training, evaluation and selection all
    order through it, so the loss trains the order that the metric scores and
    the selector picks. Ids are sorted with Python's `sorted`, which keeps
    exact `str` order (a numpy `<U` array strips trailing NULs); a stable
    argsort on -score over that order then keeps ties (-0.0 == 0.0 included)
    in id order.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != (len(ids),):
        raise ValueError(f"{s.shape} scores for {len(ids)} ids")
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    return by_id[np.argsort(-s[by_id], kind="stable")]


def fit_relevance_map(train_accs: Sequence[float], q: float = 0.2, max_rel: float = 20.0) -> RelevanceMap:
    """Fit the clipping window: lower = q-quantile of the training accuracies
    (linear-interpolation quantile), upper = their maximum.
    """
    accs = np.asarray(train_accs, dtype=np.float64)
    if accs.size < 2:
        raise ValueError("need at least 2 accuracy values to fit a relevance map")
    lower = float(np.quantile(accs, q, method="linear"))
    upper = float(np.max(accs))
    if lower >= upper:
        raise ValueError("degenerate relevance map: quantile equals maximum (values too concentrated)")
    return RelevanceMap(lower=lower, upper=upper, max_rel=max_rel)


def map_relevance(m: RelevanceMap, acc):
    """Clip accuracy to [lower, upper] and rescale linearly into [0, max_rel].

    Accepts a scalar or an ndarray.
    """
    a = np.clip(np.asarray(acc, dtype=np.float64), m.lower, m.upper)
    rel = m.max_rel * (a - m.lower) / (m.upper - m.lower)
    if np.ndim(acc) == 0:
        return float(rel)
    return rel


def dcg(rels_in_rank_order: Sequence[float]) -> float:
    """Discounted cumulative gain: sum of (2**rel - 1) / log2(i + 1), i 1-based."""
    rels = np.asarray(rels_in_rank_order, dtype=np.float64)
    if rels.size == 0:
        return 0.0
    if np.any(rels < 0):
        raise ValueError("relevance must be nonnegative")
    positions = np.arange(1, rels.size + 1, dtype=np.float64)
    return float(np.sum((np.exp2(rels) - 1.0) / np.log2(positions + 1.0)))


def ndcg(scores, rels, ids: Sequence[str]) -> float:
    """DCG of the relevances in `rank_order(scores, ids)` divided by the DCG
    of the relevance-descending order. Returns 1.0 with a
    DegenerateRelevanceWarning when the ideal DCG is zero.
    """
    order = rank_order(scores, ids)
    rels = np.asarray(rels, dtype=np.float64)
    if rels.shape != order.shape:
        raise ValueError(f"{rels.shape} relevances for {len(ids)} ids")
    rels = rels[order]
    idcg = dcg(np.sort(rels)[::-1])
    if idcg == 0.0:
        warnings.warn("all-zero relevance list: any order is ideal", DegenerateRelevanceWarning)
        return 1.0
    return dcg(rels) / idcg


def delta_ndcg(rels_in_rank_order, i: int, j: int) -> float:
    """|NDCG after swapping the items at 0-based positions i and j - NDCG before|.

    Uses the closed form |(gain_i - gain_j) * (disc_i - disc_j)| / IDCG, which
    equals a full recompute exactly in real arithmetic (all other terms cancel).
    The per-pair reference for `pairwise_delta_ndcg`.
    """
    rels = np.asarray(rels_in_rank_order, dtype=np.float64)
    n = rels.size
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"positions ({i}, {j}) out of range for list of length {n}")
    if i == j:
        raise ValueError("positions must differ")
    idcg = dcg(np.sort(rels)[::-1])
    if idcg == 0.0:
        return 0.0
    gain_i = float(np.exp2(rels[i])) - 1.0
    gain_j = float(np.exp2(rels[j])) - 1.0
    disc_i = 1.0 / float(np.log2(i + 2.0))
    disc_j = 1.0 / float(np.log2(j + 2.0))
    return abs((gain_i - gain_j) * (disc_i - disc_j)) / idcg


def pairwise_delta_ndcg(rels_in_rank_order: np.ndarray) -> np.ndarray:
    """Matrix of delta_ndcg for every position pair of a ranked list.

    Entry [i, j] matches delta_ndcg on the same list; vectorized for the
    listwise training loop.
    """
    rels = np.asarray(rels_in_rank_order, dtype=np.float64)
    idcg = dcg(np.sort(rels)[::-1])
    if idcg == 0.0:
        return np.zeros((rels.size, rels.size))
    gains = np.exp2(rels) - 1.0
    discounts = 1.0 / np.log2(np.arange(rels.size, dtype=np.float64) + 2.0)
    return np.abs((gains[:, None] - gains[None, :]) * (discounts[:, None] - discounts[None, :])) / idcg


def _dense_ranks(sorted_values: np.ndarray) -> np.ndarray:
    """1-based ranks of already sorted values, equal values sharing one rank."""
    return np.cumsum(np.r_[True, sorted_values[1:] != sorted_values[:-1]], dtype=np.intp)


def _pairs_within(group_sizes: np.ndarray) -> int:
    return int((group_sizes * (group_sizes - 1) // 2).sum())


def _discordant_pairs(y: np.ndarray) -> int:
    """Pairs i < j with y[i] > y[j], for nonnegative integer y, in O(n log n).

    Such a pair first differs at some bit b, where y[i] has a 1 and y[j] a 0,
    with equal bits above b. Bits are taken from the most significant down:
    while the array is stably sorted on the bits above b, each 0 at bit b
    counts the 1s before it among its equal-prefix run; a stable sort on the
    bits down to b then readies the next bit. The sort key is cast to the
    smallest unsigned type, so up to 65535 ranks numpy's stable sort is a
    radix sort.
    """
    top = int(y.max())
    key_dtype = np.min_scalar_type(top)
    discordant = 0
    for b in reversed(range(top.bit_length())):
        key = y >> b
        bit = key & 1
        ones_before = np.cumsum(bit) - bit
        run_start = np.r_[True, (key[1:] >> 1) != (key[:-1] >> 1)]
        ones_before -= np.maximum.accumulate(np.where(run_start, ones_before, 0))
        discordant += int(ones_before[bit == 0].sum())
        y = y[np.argsort(key.astype(key_dtype), kind="stable")]
    return discordant


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Tie-corrected (tau-b) rank correlation over all pairs (Kendall 1945).

    Every pair count is an exact integer, and the final float formula
    ``(con - dis) / sqrt(tot - xtie) / sqrt(tot - ytie)``, clipped to
    [-1, 1], is scipy's, so the value is bit for bit `scipy.stats.kendalltau`'s.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("tau undefined for non-finite values")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("tau undefined when one list is all ties")
    # dense ranks, ordered on x and then on y, so pairs tied in x are never discordant
    perm = np.argsort(y, kind="stable")
    x, y = x[perm], _dense_ranks(y[perm])
    perm = np.argsort(x, kind="stable")
    x, y = _dense_ranks(x[perm]), y[perm]
    joint_ties = _pairs_within(np.diff(np.flatnonzero(np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1]), True])))
    x_ties, y_ties = _pairs_within(np.bincount(x)), _pairs_within(np.bincount(y))
    total = x.size * (x.size - 1) // 2
    con_minus_dis = total - x_ties - y_ties + joint_ties - 2 * _discordant_pairs(y)
    tau = con_minus_dis / math.sqrt(total - x_ties) / math.sqrt(total - y_ties)
    return min(1.0, max(-1.0, tau))


def pearson(a: Sequence[float], b: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise ValueError("correlation undefined for zero-variance input")
    return float(xc @ yc) / denom


def top_k_regret(selected, space, k: int) -> float:
    """Gap between the best test accuracy in the space and the best test
    accuracy among the first k selected records.

    `selected` is a sequence of records with a test_acc attribute (ordered by
    the selector's preference); `space` is anything with an id-keyed .records
    mapping of such records.
    """
    if not selected:
        raise ValueError("selection is empty")
    if k > len(selected):
        raise ValueError(f"k={k} exceeds selection size {len(selected)}")
    best_space = max(r.test_acc for r in space.records.values())
    best_selected = max(r.test_acc for r in list(selected)[:k])
    return best_space - best_selected
