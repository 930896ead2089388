"""Differentiable ranking model over encoded architecture graphs.

The encoder stacks directed graph-convolution layers (row-normalized
propagation along edge direction, tanh), reads the node features out through
DGCNN sort-pooling (Zhang et al., AAAI 2018), and runs a node-wise 1-D
convolution over the pooled rows. Cell embeddings are concatenated with a
projection of the standardized hyper-parameters, and four independent
two-layer perceptron heads (rank, ws, flops, params) each emit one scalar per
item.

The encoder reads encodings only as packed batches, packed once per set
(`pack`, then `Packed.take`): op indices and uint8 adjacency zero-padded to
the largest node count; `take` copies rows out and row-normalizes them into
float64 propagation. A row selection (`Packed.select`) shares the packed
arrays, so a candidate pool is copied only chunk by chunk. A batch runs
dense, padded rows sorted after every real row, unless it is an eval batch
of more than `EVAL_ROWS` padded node rows: that runs in unpadded chunks of at
most `EVAL_ROWS` rows per node count and keeps nothing, so its memory does
not grow with the batch. Both modes sort-pool alike: every node row is
projected by the node-wise conv, then the selected rows are gathered; train
mode also saves the features for backward. Every score is bitwise
independent of the batch its item sits in. Backward takes each weight and
bias gradient as one reduction over the whole padded batch, to which padding
rows add exact zeros: a batch's gradients are deterministic, and equal those
of its node-count groups run one by one up to rounding. Everything is double
precision and backward is exact reverse-mode differentiation of the fixed
operator set above, so finite differences are a hard oracle. Eval forward is
a pure function of (parameters, input); train mode adds seeded inverted
dropout in the heads, drawn per node-count group (`_dense_forward`).
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, asdict, field, replace
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .space import EncodedArch

HEADS = ("rank", "ws", "flops", "params")


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hparam_dim: int
    n_cells: int = 1
    conv_channels: tuple[int, ...] = (128, 128, 128, 128)
    sortpool_nodes: int = 16
    conv1d_channels: int = 32
    hparam_proj: int = 16
    head_hidden: int = 128
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 1 or self.n_cells < 1 or self.hparam_dim < 0:
            raise ValueError("vocab_size and n_cells must be >= 1, hparam_dim >= 0")
        if not self.conv_channels or any(c < 1 for c in self.conv_channels):
            raise ValueError(f"invalid conv channels {self.conv_channels}")
        if self.sortpool_nodes < 1 or self.conv1d_channels < 1 or self.head_hidden < 1:
            raise ValueError("layer sizes must be >= 1")
        if self.hparam_dim > 0 and self.hparam_proj < 1:
            raise ValueError("hparam_proj must be >= 1 when hparams are present")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def embedding_dim(self) -> int:
        per_cell = self.sortpool_nodes * self.conv1d_channels
        proj = self.hparam_proj if self.hparam_dim > 0 else 0
        return self.n_cells * per_cell + proj


class ParamStore:
    """Named float64 parameters, each a view of its slice of one flat buffer in
    sorted-name order (the iteration order everywhere); write them in place
    only. Gradient and Adam moments are the rows of one (3, n) buffer of that
    layout, zeroed on first use and dropped by `release`."""

    def __init__(self, shapes: dict[str, tuple[int, ...]], flat: np.ndarray | None = None):
        ends = np.cumsum([0, *(math.prod(shapes[k]) for k in sorted(shapes))]).tolist()
        self._spans = {k: (a, b, tuple(shapes[k])) for k, a, b in zip(sorted(shapes), ends, ends[1:])}
        self.flat = np.zeros(ends[-1]) if flat is None else flat
        self.params = self._views(self.flat)
        self._state = None
        self.step = 0
        self.version = 0

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {k: flat[a:b].reshape(shape) for k, (a, b, shape) in self._spans.items()}

    def names(self) -> list[str]:
        return list(self.params)

    def state(self) -> np.ndarray:
        """Gradient, first and second moment: the rows of the optimizer buffer."""
        if self._state is None:
            self._state = np.zeros((3, len(self.flat)))
        return self._state

    @property
    def grads(self) -> dict[str, np.ndarray]:
        """Per-name views of the gradient row."""
        return self._views(self.state()[0])

    def runs(self, names: Sequence[str]) -> list[slice]:
        """The maximal contiguous slices of the buffer that the tensors `names` cover, in order."""
        spans = sorted(self._spans[k][:2] for k in set(names))
        cuts = [i for i in range(1, len(spans)) if spans[i - 1][1] != spans[i][0]]
        return [slice(spans[i][0], spans[j - 1][1]) for i, j in zip([0, *cuts], [*cuts, len(spans)]) if i < j]

    def release(self) -> None:
        """Drop gradients and optimizer state; the next step starts Adam afresh."""
        self._state = None
        self.step = 0

    def clone(self) -> "ParamStore":
        """Copy of the parameter values with no gradient/optimizer state."""
        return ParamStore({k: v.shape for k, v in self.params.items()}, self.flat.copy())


@dataclass
class RankingModel:
    config: ModelConfig
    store: ParamStore
    hp_mean: np.ndarray = field(default_factory=lambda: np.zeros(0))
    hp_std: np.ndarray = field(default_factory=lambda: np.ones(0))
    hp_fitted: bool = False
    vocab: tuple[str, ...] = ()      # op names by encoding index; () when not recorded


def _param_specs(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) for every parameter (biases use their layer's)."""
    specs = []
    cin = cfg.vocab_size
    for layer, cout in enumerate(cfg.conv_channels):
        specs.append((f"conv{layer}.weight", (cin, cout), cin))
        cin = cout
    total_c = sum(cfg.conv_channels)
    specs.append(("nodeconv.weight", (total_c, cfg.conv1d_channels), total_c))
    specs.append(("nodeconv.bias", (cfg.conv1d_channels,), total_c))
    if cfg.hparam_dim > 0:
        specs.append(("hproj.weight", (cfg.hparam_dim, cfg.hparam_proj), cfg.hparam_dim))
        specs.append(("hproj.bias", (cfg.hparam_proj,), cfg.hparam_dim))
    embed = cfg.embedding_dim
    for head in HEADS:
        specs.append((f"head_{head}.w1", (embed, cfg.head_hidden), embed))
        specs.append((f"head_{head}.b1", (cfg.head_hidden,), embed))
        specs.append((f"head_{head}.w2", (cfg.head_hidden, 1), cfg.head_hidden))
        specs.append((f"head_{head}.b2", (1,), cfg.head_hidden))
    return specs


def trained_params(cfg: ModelConfig, heads: Sequence[str]) -> list[str]:
    """The parameters a training stage updates: the encoder's and those of
    `heads`. Every other head keeps its values; left in the optimizer, Adam's
    normalized weight-decay steps would grind its weights to zero."""
    if not set(heads) <= set(HEADS):
        raise ValueError(f"unknown heads {sorted(set(heads) - set(HEADS))}")
    frozen = tuple(f"head_{head}." for head in HEADS if head not in heads)
    return [name for name, _, _ in _param_specs(cfg) if not name.startswith(frozen)]


def build_model(cfg: ModelConfig, vocab: Sequence[str] = ()) -> RankingModel:
    """Initialize parameters deterministically from the config seed with
    uniform fan-in scaling: every tensor ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in))
    with fan_in taken from its layer (biases included, which also keeps the
    padded sort-pool rows off the ReLU kink at initialization). `vocab`, the
    op names the encodings index, is recorded for checkpoints."""
    vocab = _checked_vocab(vocab, cfg.vocab_size)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x1217]))
    specs = _param_specs(cfg)
    store = ParamStore({name: shape for name, shape, _ in specs})
    for name, shape, fan_in in specs:
        bound = 1.0 / math.sqrt(fan_in)
        store.params[name][...] = rng.uniform(-bound, bound, size=shape)
    return RankingModel(config=cfg, store=store, hp_mean=np.zeros(cfg.hparam_dim),
                        hp_std=np.ones(cfg.hparam_dim), vocab=vocab)


def _checked_vocab(vocab: Sequence[str], vocab_size: int) -> tuple[str, ...]:
    """`vocab` as a tuple: empty, or `vocab_size` distinct strings."""
    vocab = tuple(vocab)
    if vocab and (len(vocab) != vocab_size or len(set(vocab)) != len(vocab)
                  or not all(isinstance(op, str) for op in vocab)):
        raise ValueError(f"vocabulary {list(vocab)} is not {vocab_size} distinct op names")
    return vocab


def set_hparam_stats(model: RankingModel, hparams: np.ndarray) -> None:
    """Fit the standardization constants for the hyper-parameter features:
    population mean/std over the training rows `hparams` (B, hparam_dim)."""
    if model.config.hparam_dim > 0:
        std = hparams.std(axis=0)
        std[std == 0.0] = 1.0
        model.hp_mean, model.hp_std = hparams.mean(axis=0), std
    model.hp_fitted = True


# ---------------------------------------------------------------------------
# packed batches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Packed:
    """Encoder inputs: per cell, op indices (R, N) and propagation (R, N, N)
    zero-padded to N, the cell's largest node count over the R rows: uint8
    incoming adjacency in a pack, row-normalized float64 once taken. Node
    counts (B, n_cells); hyper-parameters (B, hparam_dim). Item i sits in
    row `rows[i]` of the op and propagation arrays, or in row i when `rows`
    is None."""

    ops: tuple[np.ndarray, ...]
    prop: tuple[np.ndarray, ...]
    nodes: np.ndarray
    hparams: np.ndarray
    vocab_size: int
    rows: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def take(self, idx) -> "Packed":
        """The items at positions `idx` of a pack or a row selection, copied and
        padded to their own largest node counts; adjacency rows are divided by
        their sums, giving convex combinations for real nodes and +0.0 for
        padding. A taken batch is refused, so no row is normalized twice."""
        if self.prop[0].dtype != np.uint8:
            raise ValueError("take needs a pack or a row selection, not a taken batch")
        nodes = self.nodes[idx]
        top = nodes.max(axis=0)
        rows = idx if self.rows is None else self.rows[idx]
        ops = tuple(o[rows, :m] for o, m in zip(self.ops, top))
        prop = tuple(q[rows, :m, :m] for q, m in zip(self.prop, top))
        prop = tuple(a / np.maximum(a.sum(axis=2, keepdims=True), 1) for a in prop)
        return Packed(ops, prop, nodes, self.hparams[idx], self.vocab_size)

    def select(self, idx) -> "Packed":
        """The items at positions `idx` as a row selection: the op and
        propagation arrays are shared, and `take` copies only what it takes."""
        idx = np.asarray(idx, dtype=np.intp)
        rows = idx if self.rows is None else self.rows[idx]
        return Packed(self.ops, self.prop, self.nodes[idx], self.hparams[idx], self.vocab_size, rows)


def pack(encs: Sequence[EncodedArch]) -> Packed:
    """Validate encodings once and pack them: op indices, and each edge [s, d]
    and every self-loop scattered into row d of the uint8 incoming adjacency."""
    if not encs:
        raise ValueError("empty batch")
    if len({(len(e.ops), len(e.hparams), e.vocab_size) for e in encs}) > 1:
        raise ValueError("encodings differ in cell count, vocab size or hparam shape")
    vocab, b = encs[0].vocab_size, len(encs)
    nodes = np.array([[len(op) for op in enc.ops] for enc in encs], dtype=np.intp)
    ops, adj = [], []
    for c, top in enumerate(nodes.max(axis=0)):
        real = np.arange(top) < nodes[:, c, None]
        op = np.fromiter(chain.from_iterable(enc.ops[c] for enc in encs), np.intp, real.sum())
        n_edges = np.fromiter((len(enc.edges[c]) for enc in encs), np.intp, b)
        pairs = chain.from_iterable(chain.from_iterable(enc.edges[c] for enc in encs))
        src, dst = np.fromiter(pairs, np.intp, 2 * n_edges.sum()).reshape(-1, 2).T
        item = np.repeat(np.arange(b), n_edges)
        if np.any((op < 0) | (op >= vocab)):
            raise ValueError(f"cell {c}: op index out of range for vocab size {vocab}")
        if np.any((np.minimum(src, dst) < 0) | (np.maximum(src, dst) >= nodes[item, c])):
            raise ValueError(f"cell {c}: edge endpoint out of range for its node count")
        ops.append(np.zeros((b, top), dtype=np.intp))
        ops[c][real] = op
        adj.append(np.zeros((b, top, top), dtype=np.uint8))
        adj[c][:, np.arange(top), np.arange(top)] = real
        adj[c][item, dst, src] = 1
    return Packed(tuple(ops), tuple(adj), nodes, np.array([enc.hparams for enc in encs], dtype=np.float64), vocab)


# ---------------------------------------------------------------------------
# sort-pooling
# ---------------------------------------------------------------------------

def _sort_order(h: np.ndarray, k: int, nodes: np.ndarray) -> np.ndarray:
    """The (B, min(N, k)) source rows that sort-pooling of (B, N, c) features
    selects: per item, rows descending by the last channel, ties broken by
    the remaining channels descending, then by row index. Rows at or past an
    item's node count in `nodes` are padding, keyed +inf to sort after every
    real row.

    A stable argsort on the last channel is already the full order unless
    two rows tie there but differ elsewhere; only items with such a pair are
    re-sorted on every channel. Identical tied rows keep index order, and
    -0.0 ties with 0.0. Padding rows are all zero, so only pairs of real
    rows, whose keys are finite, are compared."""
    key = -h[:, :, -1]
    key[np.arange(h.shape[1]) >= nodes[:, None]] = np.inf
    orders = np.argsort(key, axis=1, kind="stable")
    ranked = np.take_along_axis(key, orders, axis=1)
    b, j = np.nonzero((ranked[:, 1:] == ranked[:, :-1]) & np.isfinite(ranked[:, 1:]))
    differ = np.unique(b[(h[b, orders[b, j]] != h[b, orders[b, j + 1]]).any(axis=1)])
    if differ.size:
        keys = -h[differ]
        keys[:, :, -1] = key[differ]
        orders[differ] = np.lexsort(np.moveaxis(keys, 2, 0), axis=-1)
    return orders[:, : min(h.shape[1], k)]


def _project_pooled(h: np.ndarray, selected: np.ndarray, weight: np.ndarray, bias: np.ndarray, k: int) -> np.ndarray:
    """Node-wise conv pre-activation (B, k, oc) of the `selected` rows of (B, N, c)
    features, gathered after one GEMM over every row (a row's projection does not
    depend on its GEMM's other rows); a slot past the selection holds `bias`."""
    conv_pre = np.tile(bias, (len(h), k, 1))
    conv_pre[:, : selected.shape[1]] = (h @ weight)[np.arange(len(h))[:, None], selected] + bias
    return conv_pre


def _rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w computed one row at a time so each item's result is independent
    of the batch it sits in (BLAS picks different kernels per matrix height)."""
    return (x[:, None, :] @ w)[:, 0, :]


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

# Most padded node rows, summed over cells, that one eval chunk encodes; keeps
# a chunk's features within cache and eval memory flat in the batch size.
EVAL_ROWS = 1024


@dataclass
class _CellTrace:
    ops: np.ndarray                  # (B, N) layer-0 op indices
    prop: np.ndarray                 # (B, N, N) row-normalized propagation
    outputs: list[np.ndarray]        # (B, N, c) tanh output of each conv layer
    selected: np.ndarray             # (B, k_eff) sort-pool source rows
    conv_pre: np.ndarray             # (B, k, oc) pre-activation of the 1-D conv


@dataclass
class _Activations:
    cells: list[_CellTrace]
    hp_norm: np.ndarray | None       # (B, d) standardized hyper-parameters
    hp_out: np.ndarray | None        # (B, proj) tanh projection
    embed: np.ndarray                # (B, E)
    head_pre: dict[str, np.ndarray]
    head_mask: dict[str, np.ndarray | None]
    head_dropped: dict[str, np.ndarray]


@dataclass
class ForwardContext:
    heads: tuple[str, ...]
    train_mode: bool
    batch_size: int
    store_version: int
    order: np.ndarray                # batch positions in ascending node-count order
    saved: _Activations | None = None  # train mode only, items in `order`


def forward_heads(
    model: RankingModel, batch: Packed, heads: Sequence[str] = ("rank",),
    train_mode: bool = False, dropout_seed: int | None = None,
) -> tuple[dict[str, np.ndarray], ForwardContext]:
    """Score a packed batch with one encoder pass and the selected heads.
    Returns per-head score vectors plus, in train mode, the activations
    backward needs.
    """
    cfg = model.config
    for head in heads:
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}")
    if (len(batch.ops), batch.vocab_size, batch.hparams.shape[1]) != (cfg.n_cells, cfg.vocab_size, cfg.hparam_dim):
        raise ValueError(f"batch has {len(batch.ops)} cells, vocab size {batch.vocab_size} and hparam dim "
                         f"{batch.hparams.shape[1]}; the model {cfg.n_cells}, {cfg.vocab_size} and {cfg.hparam_dim}")
    if train_mode and cfg.dropout > 0.0 and dropout_seed is None:
        raise ValueError("train-mode forward with dropout needs a dropout seed")
    rng = np.random.default_rng(np.random.SeedSequence([0 if dropout_seed is None else dropout_seed, 0xD507]))

    order = np.lexsort(batch.nodes.T[::-1])
    bounds = [0, *(np.flatnonzero(np.diff(batch.nodes[order], axis=0).any(axis=1)) + 1).tolist(), len(order)]
    ctx = ForwardContext(tuple(heads), train_mode, len(batch), model.store.version, order)
    # Train mode, and an eval batch whose padded rows fit the budget, run as one
    # dense chunk; a larger eval batch runs each node-count group in unpadded
    # chunks of at most EVAL_ROWS rows (at least one item).
    if train_mode or len(order) * batch.nodes.max(axis=0).sum() <= EVAL_ROWS:
        chunks = [(0, len(order))]
    else:
        chunks = [(a, min(a + step, hi)) for lo, hi in zip(bounds, bounds[1:])
                  for step in [max(1, EVAL_ROWS // batch.nodes[order[lo]].sum())] for a in range(lo, hi, step)]
    scores = {head: np.empty(len(batch)) for head in heads}
    for lo, hi in chunks:
        out = _dense_forward(model, batch.take(order[lo:hi]), heads, bounds, rng, ctx if train_mode else None)
        for head in heads:
            scores[head][order[lo:hi]] = out[head]
    for head, vals in scores.items():
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError(f"non-finite scores from head {head!r}")
    return scores, ctx


def forward(
    model: RankingModel, batch: Packed, head: str = "rank",
    train_mode: bool = False, dropout_seed: int | None = None,
) -> tuple[np.ndarray, ForwardContext]:
    """Single-head forward: one scalar per batch item plus saved activations."""
    scores, ctx = forward_heads(model, batch, (head,), train_mode, dropout_seed)
    return scores[head], ctx


def _dense_forward(model, packed: Packed, heads, bounds, rng, ctx: ForwardContext | None) -> dict[str, np.ndarray]:
    """Encoder and heads over one dense batch. With a context (train mode), dropout
    is drawn per node-count group of `bounds`, then per head, and activations are
    saved. That draw order gives each item the mask it got when every group ran
    as its own batch; another order would change every training run by whole
    masks rather than by rounding."""
    cfg, p = model.config, model.store.params
    cells, flats = zip(*(_encode_cell(cfg, p, *x, ctx is not None) for x in zip(packed.ops, packed.prop, packed.nodes.T)))
    hp_norm = hp_out = None
    if cfg.hparam_dim > 0:
        hp_norm = (packed.hparams - model.hp_mean) / model.hp_std
        hp_out = np.tanh(_rowwise_matmul(hp_norm, p["hproj.weight"]) + p["hproj.bias"])
        flats += (hp_out,)
    embed = np.concatenate(flats, axis=1) if len(flats) > 1 else flats[0]

    pre = {head: _rowwise_matmul(embed, p[f"head_{head}.w1"]) + p[f"head_{head}.b1"] for head in heads}
    mask = dict.fromkeys(heads)
    if ctx is not None and cfg.dropout > 0.0:
        mask = {head: np.empty_like(pre[head]) for head in heads}
        for lo, hi in zip(bounds, bounds[1:]):
            for head in heads:
                mask[head][lo:hi] = rng.random((hi - lo, cfg.head_hidden)) >= cfg.dropout
    act = {head: np.maximum(pre[head], 0.0) for head in heads}
    dropped = {h: act[h] if mask[h] is None else act[h] * mask[h] / (1.0 - cfg.dropout) for h in heads}
    if ctx is not None:
        ctx.saved = _Activations(list(cells), hp_norm, hp_out, embed, pre, mask, dropped)
    return {head: (_rowwise_matmul(dropped[head], p[f"head_{head}.w2"]) + p[f"head_{head}.b2"])[:, 0] for head in heads}


def _encode_cell(cfg, p, ops, prop, nodes, keep):
    """Conv stack, sort-pool and node-wise conv for one cell of a dense batch
    (padding rows propagate nothing, so their features stay zero). Pooling
    reads every conv layer's output (the deep graph-conv readout), keyed on
    the deepest layer's last channel. Both modes project every row before
    they gather the selected ones; with `keep` (train mode) the per-layer
    outputs, their concatenation, the selection and the pre-activations are
    saved for backward."""
    outputs = []
    h = p["conv0.weight"][ops]  # bitwise one-hot @ W
    for layer in range(len(cfg.conv_channels)):
        if layer:
            h = h @ p[f"conv{layer}.weight"]
        h = np.tanh(prop @ h)
        outputs.append(h)
    h = np.concatenate(outputs, axis=2) if len(outputs) > 1 else h
    selected = _sort_order(h, cfg.sortpool_nodes, nodes)
    conv_pre = _project_pooled(h, selected, p["nodeconv.weight"], p["nodeconv.bias"], cfg.sortpool_nodes)
    flat = np.maximum(conv_pre, 0.0).reshape(len(h), -1)
    return (_CellTrace(ops, prop, outputs, selected, conv_pre) if keep else None), flat


def backward(model: RankingModel, upstream: dict[str, np.ndarray], ctx: ForwardContext) -> None:
    """Accumulate exact gradients of sum over heads of upstream[head] * scores[head]
    into the store; `upstream` maps every head the forward pass ran, and no
    other, to a length-B array. Each weight and bias gradient is one reduction
    over the whole dense batch, so a batch's gradients are deterministic, and
    equal the sum of its node-count sub-batches' gradients up to rounding."""
    if not ctx.train_mode:
        raise ValueError("backward needs activations recorded in train mode")
    if ctx.store_version != model.store.version:
        raise ValueError("stale activations: parameters changed since forward")
    for h in upstream:
        if h not in ctx.heads:
            raise ValueError(f"upstream for head {h!r}, which the forward pass did not run")
    ups = {h: np.asarray(upstream[h], dtype=np.float64) for h in ctx.heads}
    for h, u in ups.items():
        if u.shape != (ctx.batch_size,):
            raise ValueError(f"upstream for head {h!r} has shape {u.shape}, want ({ctx.batch_size},)")

    cfg, p, g, t = model.config, model.store.params, model.store.grads, ctx.saved
    d_embed = np.zeros_like(t.embed)
    for head in ctx.heads:
        u = ups[head][ctx.order][:, None]
        mask = t.head_mask[head]
        g[f"head_{head}.w2"] += t.head_dropped[head].T @ u
        g[f"head_{head}.b2"] += u.sum(axis=0)
        d_act = u @ p[f"head_{head}.w2"].T
        if mask is not None:
            d_act = d_act * mask / (1.0 - cfg.dropout)
        d_pre = d_act * (t.head_pre[head] > 0.0)
        g[f"head_{head}.w1"] += t.embed.T @ d_pre
        g[f"head_{head}.b1"] += d_pre.sum(axis=0)
        d_embed += d_pre @ p[f"head_{head}.w1"].T

    cells_end = cfg.n_cells * cfg.sortpool_nodes * cfg.conv1d_channels
    if cfg.hparam_dim > 0:
        d_hp_pre = d_embed[:, cells_end:] * (1.0 - t.hp_out**2)
        g["hproj.weight"] += t.hp_norm.T @ d_hp_pre
        g["hproj.bias"] += d_hp_pre.sum(axis=0)
    for cell, d_flat in zip(t.cells, np.split(d_embed[:, :cells_end], cfg.n_cells, axis=1)):
        _backward_cell(cfg, p, g, cell, d_flat)


def _flat_outer(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum over (batch, row) of x_row^T d_row, as one GEMM."""
    return x.reshape(-1, x.shape[-1]).T @ d.reshape(-1, d.shape[-1])


def _backward_cell(cfg, p, g, cell: _CellTrace, d_flat: np.ndarray) -> None:
    """Add one cell's encoder gradients into `g`, top-down. Padding rows add
    exact zeros: their features are zero, and their rows and columns of the
    propagation are zero, so no gradient reaches them or leaves them."""
    batch_n, n = cell.ops.shape
    d_conv = d_flat.reshape(batch_n, cfg.sortpool_nodes, cfg.conv1d_channels) * (cell.conv_pre > 0.0)
    g["nodeconv.bias"] += d_conv.sum(axis=(0, 1))
    # Each pooled slot's gradient goes back onto its source row. Every row was
    # projected (`_project_pooled`), so each layer's block of the node-wise conv
    # weight takes one GEMM over all rows of that layer's output.
    d_proj = np.zeros((batch_n, n, cfg.conv1d_channels))
    d_proj[np.arange(batch_n)[:, None], cell.selected] = d_conv[:, : cell.selected.shape[1]]

    # Walk the conv stack top-down; each layer's output receives gradient both
    # from its readout block and from the layer above.
    bounds = np.cumsum([0, *cfg.conv_channels])
    inputs = [np.eye(cfg.vocab_size)[cell.ops], *cell.outputs[:-1]]
    prop_t = np.transpose(cell.prop, (0, 2, 1))
    d_chain = 0.0
    for layer in range(len(cfg.conv_channels) - 1, -1, -1):
        block = slice(bounds[layer], bounds[layer + 1])
        g["nodeconv.weight"][block] += _flat_outer(cell.outputs[layer], d_proj)
        d_nodes = d_proj @ p["nodeconv.weight"][block].T + d_chain
        d_lin = prop_t @ (d_nodes * (1.0 - cell.outputs[layer] ** 2))
        g[f"conv{layer}.weight"] += _flat_outer(inputs[layer], d_lin)
        if layer > 0:
            d_chain = d_lin @ p[f"conv{layer}.weight"].T


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(store: ParamStore, lr: float, names: Sequence[str], weight_decay: float = 0.0) -> None:
    """One Adam update of the parameters `names` over their accumulated
    gradients (L2 added to the gradient), with bias correction; clears those
    gradients and bumps the step counter. Parameters not named keep their
    exact values. The update is elementwise, so it runs once per contiguous
    run of named tensors (`ParamStore.runs`), bitwise the per-tensor one."""
    if lr <= 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    store.step += 1
    store.version += 1
    bc1 = 1.0 - ADAM_BETA1**store.step
    bc2 = 1.0 - ADAM_BETA2**store.step
    grads, moment1, moment2 = store.state()
    for run in store.runs(names):
        grad = grads[run]
        if weight_decay:
            grad = grad + weight_decay * store.flat[run]
        m = moment1[run]
        v = moment2[run]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        store.flat[run] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        grads[run] = 0.0


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Cosine decay from lr0 at step 0 to 0 at total_steps."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr0 * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "ltrnas-checkpoint"
# Version 2 records the op vocabulary; version 1 did not.
CHECKPOINT_VERSION = 2


def _encode_array(a: np.ndarray) -> dict:
    data = np.ascontiguousarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _decode_array(obj: dict) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(obj["data"]), dtype=np.float64)
    return flat.reshape(obj["shape"]).copy()


def checkpoint_bytes(model: RankingModel) -> bytes:
    """Serialize config + parameters + hparam stats + op vocabulary; bit-exact round trip."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "hp_mean": _encode_array(model.hp_mean),
        "hp_std": _encode_array(model.hp_std),
        "hp_fitted": model.hp_fitted,
        "params": {name: _encode_array(v) for name, v in model.store.params.items()},
        "vocab": list(model.vocab),
    }
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def save_checkpoint(model: RankingModel, path: str | Path) -> None:
    Path(path).write_bytes(checkpoint_bytes(model))


def load_checkpoint(path: str | Path) -> RankingModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a ranking-model checkpoint")
    if doc.get("version") == 1:
        raise ValueError(f"{path}: checkpoint version 1 predates the recorded op vocabulary; re-run pretrain")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    raw = dict(doc["config"])
    raw["conv_channels"] = tuple(raw["conv_channels"])
    cfg = ModelConfig(**raw)
    store = ParamStore({name: shape for name, shape, _ in _param_specs(cfg)})
    if set(doc["params"]) != set(store.params):
        raise ValueError(f"{path}: parameter names do not match the config")
    stats = {"hp_mean": np.empty(cfg.hparam_dim), "hp_std": np.empty(cfg.hparam_dim)}
    for name, target in {**store.params, **stats}.items():  # decoded straight into place
        value = _decode_array(doc["params"][name] if name in store.params else doc[name])
        if value.shape != target.shape:
            raise ValueError(f"{path}: {name} has shape {value.shape}, the config needs {target.shape}")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{path}: {name} has non-finite values")
        target[...] = value
    vocab = _checked_vocab(doc["vocab"], cfg.vocab_size)
    return RankingModel(config=cfg, store=store, hp_fitted=bool(doc["hp_fitted"]), vocab=vocab, **stats)


def clone_model(model: RankingModel) -> RankingModel:
    """Independent copy of parameters and stats, with no optimizer state."""
    return replace(model, store=model.store.clone(), hp_mean=model.hp_mean.copy(), hp_std=model.hp_std.copy())
