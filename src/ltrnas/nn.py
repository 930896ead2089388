"""Differentiable ranking model over encoded architecture graphs.

The encoder stacks directed graph-convolution layers (row-normalized
propagation along edge direction, tanh), reads the node features out through
sort-pooling, and runs a node-wise 1-D convolution over the pooled rows.
Cell embeddings are concatenated with a projection of the standardized
hyper-parameters, and four independent two-layer perceptron heads (rank,
ws, flops, params) each emit one scalar per item.

Everything is double precision and the backward pass is exact reverse-mode
differentiation of the fixed operator set above, so finite differences can
be used as a hard oracle. Forward in eval mode is a pure function of
(parameters, input); train mode adds seeded inverted dropout inside the
heads.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, asdict, field
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
    """Named float64 parameter tensors with matching gradient accumulators
    and Adam state. Iteration order is sorted by name everywhere."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.params = {k: params[k] for k in sorted(params)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.moment1 = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.moment2 = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.step = 0
        self.version = 0

    def names(self) -> list[str]:
        return list(self.params)

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def num_params(self) -> int:
        return sum(v.size for v in self.params.values())

    def clone(self) -> "ParamStore":
        """Copy of the parameter values with fresh gradient/optimizer state."""
        return ParamStore({k: v.copy() for k, v in self.params.items()})


@dataclass
class RankingModel:
    config: ModelConfig
    store: ParamStore
    hp_mean: np.ndarray = field(default_factory=lambda: np.zeros(0))
    hp_std: np.ndarray = field(default_factory=lambda: np.ones(0))
    hp_fitted: bool = False


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


def build_model(cfg: ModelConfig) -> RankingModel:
    """Initialize parameters deterministically from the config seed with
    uniform fan-in scaling: every tensor ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in))
    with fan_in taken from its layer (biases included, which also keeps the
    padded sort-pool rows off the ReLU kink at initialization)."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x1217]))
    params = {}
    for name, shape, fan_in in _param_specs(cfg):
        bound = 1.0 / math.sqrt(fan_in)
        params[name] = rng.uniform(-bound, bound, size=shape)
    hp_dim = cfg.hparam_dim
    return RankingModel(
        config=cfg,
        store=ParamStore(params),
        hp_mean=np.zeros(hp_dim),
        hp_std=np.ones(hp_dim),
    )


def set_hparam_stats(model: RankingModel, encs: Sequence[EncodedArch]) -> None:
    """Fit the standardization constants for the hyper-parameter features
    (population mean/std over the given training encodings)."""
    if model.config.hparam_dim == 0:
        model.hp_fitted = True
        return
    h = np.stack([e.hparams for e in encs])
    std = h.std(axis=0)
    std[std == 0.0] = 1.0
    model.hp_mean = h.mean(axis=0)
    model.hp_std = std
    model.hp_fitted = True


# ---------------------------------------------------------------------------
# sort-pooling
# ---------------------------------------------------------------------------

def sort_pool(node_features: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows descending by the last channel (ties: remaining channels
    descending, then original row index), keep the top k, zero-pad below.

    Returns (pooled k x c matrix, indices of the selected source rows);
    gradients route only to the selected rows.
    """
    if k <= 0:
        raise ValueError(f"sort-pool node count must be positive, got {k}")
    pooled, selected = _sort_pool(np.asarray(node_features, dtype=np.float64)[None], k)
    return pooled[0], selected[0]


def _sort_pool(h: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched sort-pooling of (B, n, c) features: (B, k, c) pooled rows and
    the (B, min(n, k)) selected source rows, in the order of `sort_pool`.

    A stable argsort on the last channel is already the full order unless
    two rows tie there but differ elsewhere; only items with such a pair are
    re-sorted on every channel. Identical tied rows keep index order, and
    -0.0 ties with 0.0.
    """
    batch_n, n, c = h.shape
    orders = np.argsort(-h[:, :, -1], axis=1, kind="stable")
    ranked = np.take_along_axis(h[:, :, -1], orders, axis=1)
    b, j = np.nonzero(ranked[:, 1:] == ranked[:, :-1])
    differ = np.unique(b[(h[b, orders[b, j]] != h[b, orders[b, j + 1]]).any(axis=1)])
    if differ.size:
        orders[differ] = np.lexsort(-np.moveaxis(h[differ], 2, 0), axis=-1)
    selected = orders[:, : min(n, k)]
    pooled = np.zeros((batch_n, k, c))
    pooled[:, : selected.shape[1]] = np.take_along_axis(h, selected[:, :, None], axis=1)
    return pooled, selected


def _rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w computed one row at a time so each item's result is independent
    of the batch it sits in (BLAS picks different kernels per matrix height)."""
    return (x[:, None, :] @ w)[:, 0, :]


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

@dataclass
class _CellTrace:
    prop: np.ndarray                 # (B, N, N) row-normalized propagation
    layer_inputs: list[np.ndarray]   # inputs to each conv layer, (B, N, c_in)
    layer_outputs: list[np.ndarray]  # tanh outputs per layer, (B, N, c_out)
    selected: np.ndarray             # (B, k_eff) sort-pool source rows
    pooled: np.ndarray               # (B, k, c_last)
    conv_pre: np.ndarray             # (B, k, oc) pre-activation of the 1-D conv


@dataclass
class _GroupTrace:
    index: np.ndarray                # batch positions in this group
    cells: list[_CellTrace]
    hp_norm: np.ndarray | None       # (B, d) standardized hyper-parameters
    hp_out: np.ndarray | None        # (B, proj) tanh projection
    embed: np.ndarray                # (B, E)
    head_pre: dict[str, np.ndarray]
    head_act: dict[str, np.ndarray]  # post-ReLU, pre-dropout
    head_dropped: dict[str, np.ndarray]
    head_mask: dict[str, np.ndarray | None]


@dataclass
class ForwardContext:
    heads: tuple[str, ...]
    train_mode: bool
    batch_size: int
    store_version: int
    groups: list[_GroupTrace]


def forward_heads(
    model: RankingModel,
    batch: Sequence[EncodedArch],
    heads: Sequence[str] = ("rank",),
    train_mode: bool = False,
    dropout_seed: int | None = None,
) -> tuple[dict[str, np.ndarray], ForwardContext]:
    """Score a batch with one encoder pass and the selected heads.

    Items are grouped by per-cell node counts so each group runs as one
    stacked matmul chain; outputs are identical to scoring items one at a
    time. Returns per-head score vectors plus the saved activations needed
    by backward.
    """
    cfg = model.config
    for head in heads:
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}")
    _check_batch(model, batch)
    if train_mode and cfg.dropout > 0.0 and dropout_seed is None:
        raise ValueError("train-mode forward with dropout needs a dropout seed")
    rng = np.random.default_rng(np.random.SeedSequence([0 if dropout_seed is None else dropout_seed, 0xD507]))

    p = model.store.params
    groups: dict[tuple[int, ...], list[int]] = {}
    for pos, enc in enumerate(batch):
        key = tuple(cell.onehot.shape[0] for cell in enc.cells)
        groups.setdefault(key, []).append(pos)

    scores = {h: np.zeros(len(batch)) for h in heads}
    traces = []
    for key in sorted(groups):
        index = np.array(groups[key], dtype=np.intp)
        items = [batch[i] for i in index]
        cell_traces = []
        flats = []
        for c in range(cfg.n_cells):
            onehot = np.stack([it.cells[c].onehot for it in items])
            adj = np.stack([it.cells[c].adjacency for it in items])
            trace, flat = _encode_cell(cfg, p, onehot, adj)
            cell_traces.append(trace)
            flats.append(flat)
        if cfg.hparam_dim > 0:
            h = np.stack([it.hparams for it in items])
            hp_norm = (h - model.hp_mean) / model.hp_std
            hp_out = np.tanh(_rowwise_matmul(hp_norm, p["hproj.weight"]) + p["hproj.bias"])
            embed = np.concatenate(flats + [hp_out], axis=1)
        else:
            hp_norm = hp_out = None
            embed = np.concatenate(flats, axis=1) if len(flats) > 1 else flats[0]

        head_pre, head_act, head_dropped, head_mask = {}, {}, {}, {}
        for head in heads:
            pre = _rowwise_matmul(embed, p[f"head_{head}.w1"]) + p[f"head_{head}.b1"]
            act = np.maximum(pre, 0.0)
            if train_mode and cfg.dropout > 0.0:
                mask = (rng.random(act.shape) >= cfg.dropout).astype(np.float64)
                dropped = act * mask / (1.0 - cfg.dropout)
            else:
                mask = None
                dropped = act
            out = _rowwise_matmul(dropped, p[f"head_{head}.w2"]) + p[f"head_{head}.b2"]
            scores[head][index] = out[:, 0]
            head_pre[head] = pre
            head_act[head] = act
            head_dropped[head] = dropped
            head_mask[head] = mask
        traces.append(
            _GroupTrace(
                index=index,
                cells=cell_traces,
                hp_norm=hp_norm,
                hp_out=hp_out,
                embed=embed,
                head_pre=head_pre,
                head_act=head_act,
                head_dropped=head_dropped,
                head_mask=head_mask,
            )
        )
    for head, vals in scores.items():
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError(f"non-finite scores from head {head!r}")
    ctx = ForwardContext(
        heads=tuple(heads),
        train_mode=train_mode,
        batch_size=len(batch),
        store_version=model.store.version,
        groups=traces,
    )
    return scores, ctx


def forward(
    model: RankingModel,
    batch: Sequence[EncodedArch],
    head: str = "rank",
    train_mode: bool = False,
    dropout_seed: int | None = None,
) -> tuple[np.ndarray, ForwardContext]:
    """Single-head forward: one scalar per batch item plus saved activations."""
    scores, ctx = forward_heads(model, batch, (head,), train_mode, dropout_seed)
    return scores[head], ctx


def _check_batch(model: RankingModel, batch: Sequence[EncodedArch]) -> None:
    cfg = model.config
    if not batch:
        raise ValueError("empty batch")
    for enc in batch:
        if len(enc.cells) != cfg.n_cells:
            raise ValueError(f"encoding has {len(enc.cells)} cells, model expects {cfg.n_cells}")
        for cell in enc.cells:
            if cell.onehot.shape[1] != cfg.vocab_size:
                raise ValueError(
                    f"encoding vocab size {cell.onehot.shape[1]} != model vocab {cfg.vocab_size}"
                )
        if enc.hparams.shape != (cfg.hparam_dim,):
            raise ValueError(f"hparam shape {enc.hparams.shape} != ({cfg.hparam_dim},)")


def _encode_cell(cfg, p, onehot, adj):
    """Run the conv stack + sort-pool + node-wise conv for one stacked cell.

    The propagation matrix sends features along edge direction: row v of
    adj^T selects v's in-neighbors (plus v itself via the self-loop), and
    dividing by the row sum makes each pre-activation a convex combination.
    Per-node features for pooling are the concatenation of every conv
    layer's output (the deep graph-conv readout); the sort key is the last
    channel of the deepest layer.
    """
    incoming = np.transpose(adj, (0, 2, 1))
    prop = incoming / incoming.sum(axis=2, keepdims=True)
    layer_inputs, layer_outputs = [], []
    h = onehot
    for layer in range(len(cfg.conv_channels)):
        layer_inputs.append(h)
        h = np.tanh(prop @ (h @ p[f"conv{layer}.weight"]))
        layer_outputs.append(h)
    h = np.concatenate(layer_outputs, axis=2) if len(layer_outputs) > 1 else h

    pooled, selected = _sort_pool(h, cfg.sortpool_nodes)
    conv_pre = pooled @ p["nodeconv.weight"] + p["nodeconv.bias"]
    flat = np.maximum(conv_pre, 0.0).reshape(len(h), -1)
    trace = _CellTrace(
        prop=prop,
        layer_inputs=layer_inputs,
        layer_outputs=layer_outputs,
        selected=selected,
        pooled=pooled,
        conv_pre=conv_pre,
    )
    return trace, flat


def backward(model: RankingModel, upstream, ctx: ForwardContext) -> None:
    """Accumulate exact gradients of sum(upstream * score) into the store.

    `upstream` is a length-B array for a single-head context, or a mapping
    head -> length-B array covering every head the forward pass ran.
    """
    if not ctx.train_mode:
        raise ValueError("backward needs activations recorded in train mode")
    if ctx.store_version != model.store.version:
        raise ValueError("stale activations: parameters changed since forward")
    if isinstance(upstream, dict):
        ups = {h: np.asarray(upstream[h], dtype=np.float64) for h in ctx.heads}
    else:
        if len(ctx.heads) != 1:
            raise ValueError("array upstream is ambiguous for a multi-head context")
        ups = {ctx.heads[0]: np.asarray(upstream, dtype=np.float64)}
    for h, u in ups.items():
        if u.shape != (ctx.batch_size,):
            raise ValueError(f"upstream for head {h!r} has shape {u.shape}, want ({ctx.batch_size},)")

    cfg = model.config
    p = model.store.params
    g = model.store.grads
    per_cell = cfg.sortpool_nodes * cfg.conv1d_channels
    keep = 1.0 - cfg.dropout

    for group in ctx.groups:
        d_embed = np.zeros_like(group.embed)
        for head in ctx.heads:
            u = ups[head][group.index][:, None]
            dropped = group.head_dropped[head]
            g[f"head_{head}.w2"] += dropped.T @ u
            g[f"head_{head}.b2"] += u.sum(axis=0)
            d_dropped = u @ p[f"head_{head}.w2"].T
            mask = group.head_mask[head]
            d_act = d_dropped if mask is None else d_dropped * mask / keep
            d_pre = d_act * (group.head_pre[head] > 0.0)
            g[f"head_{head}.w1"] += group.embed.T @ d_pre
            g[f"head_{head}.b1"] += d_pre.sum(axis=0)
            d_embed += d_pre @ p[f"head_{head}.w1"].T

        if cfg.hparam_dim > 0:
            d_hp_out = d_embed[:, cfg.n_cells * per_cell :]
            d_hp_pre = d_hp_out * (1.0 - group.hp_out**2)
            g["hproj.weight"] += group.hp_norm.T @ d_hp_pre
            g["hproj.bias"] += d_hp_pre.sum(axis=0)

        for c, trace in enumerate(group.cells):
            d_flat = d_embed[:, c * per_cell : (c + 1) * per_cell]
            _backward_cell(cfg, p, g, trace, d_flat)


def _flat_outer(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """sum over (batch, row) of x_row^T d_row, as one GEMM."""
    return np.ascontiguousarray(x).reshape(-1, x.shape[-1]).T @ np.ascontiguousarray(d).reshape(-1, d.shape[-1])


def _backward_cell(cfg, p, g, trace: _CellTrace, d_flat: np.ndarray) -> None:
    batch_n = d_flat.shape[0]
    k = cfg.sortpool_nodes
    oc = cfg.conv1d_channels
    d_conv = d_flat.reshape(batch_n, k, oc) * (trace.conv_pre > 0.0)
    g["nodeconv.weight"] += _flat_outer(trace.pooled, d_conv)
    g["nodeconv.bias"] += d_conv.sum(axis=(0, 1))
    d_pooled = d_conv @ p["nodeconv.weight"].T

    # Scatter pooled gradients back onto the selected rows of the
    # concatenated per-layer features, then walk the conv stack top-down;
    # each layer's output receives gradient both from its readout segment
    # and from the layer above.
    k_eff = trace.selected.shape[1]
    n = trace.layer_outputs[0].shape[1]
    d_concat = np.zeros((batch_n, n, sum(cfg.conv_channels)))
    rows = np.arange(batch_n)[:, None]
    d_concat[rows, trace.selected] = d_pooled[:, :k_eff]

    bounds = np.cumsum([0, *cfg.conv_channels])
    prop_t = np.transpose(trace.prop, (0, 2, 1))
    d_chain = None
    for layer in range(len(cfg.conv_channels) - 1, -1, -1):
        d_nodes = d_concat[:, :, bounds[layer] : bounds[layer + 1]]
        if d_chain is not None:
            d_nodes = d_nodes + d_chain
        out = trace.layer_outputs[layer]
        d_mixed = d_nodes * (1.0 - out**2)
        d_lin = prop_t @ d_mixed
        g[f"conv{layer}.weight"] += _flat_outer(trace.layer_inputs[layer], d_lin)
        if layer > 0:
            d_chain = d_lin @ p[f"conv{layer}.weight"].T


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

def adam_step(
    store: ParamStore,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
    names: Sequence[str] | None = None,
) -> None:
    """One Adam update over accumulated gradients (L2 added to the gradient),
    with bias correction; clears gradients and bumps the step counter.
    `names` restricts the update to a subset of parameters (frozen parameters
    keep their exact values)."""
    if lr <= 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    store.step += 1
    store.version += 1
    bc1 = 1.0 - beta1**store.step
    bc2 = 1.0 - beta2**store.step
    active = store.names() if names is None else sorted(set(names))
    for name in active:
        grad = store.grads[name]
        if weight_decay:
            grad = grad + weight_decay * store.params[name]
        m = store.moment1[name]
        v = store.moment2[name]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        store.params[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        store.grads[name][...] = 0.0


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
CHECKPOINT_VERSION = 1


def _encode_array(a: np.ndarray) -> dict:
    data = np.ascontiguousarray(a, dtype=np.float64)
    return {"shape": list(a.shape), "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _decode_array(obj: dict) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(obj["data"]), dtype=np.float64)
    return flat.reshape(obj["shape"]).copy()


def checkpoint_bytes(model: RankingModel) -> bytes:
    """Serialize config + parameters + hparam stats; bit-exact round trip."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "hp_mean": _encode_array(model.hp_mean),
        "hp_std": _encode_array(model.hp_std),
        "hp_fitted": model.hp_fitted,
        "params": {name: _encode_array(v) for name, v in model.store.params.items()},
    }
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def save_checkpoint(model: RankingModel, path: str | Path) -> None:
    Path(path).write_bytes(checkpoint_bytes(model))


def load_checkpoint(path: str | Path) -> RankingModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a ranking-model checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    raw = dict(doc["config"])
    raw["conv_channels"] = tuple(raw["conv_channels"])
    cfg = ModelConfig(**raw)
    params = {name: _decode_array(obj) for name, obj in doc["params"].items()}
    expected = {name for name, _, _ in _param_specs(cfg)}
    if set(params) != expected:
        raise ValueError(f"{path}: parameter names do not match the config")
    model = RankingModel(
        config=cfg,
        store=ParamStore(params),
        hp_mean=_decode_array(doc["hp_mean"]),
        hp_std=_decode_array(doc["hp_std"]),
        hp_fitted=bool(doc["hp_fitted"]),
    )
    return model


def clone_model(model: RankingModel) -> RankingModel:
    """Independent copy of parameters and stats (fresh optimizer state)."""
    return RankingModel(
        config=model.config,
        store=model.store.clone(),
        hp_mean=model.hp_mean.copy(),
        hp_std=model.hp_std.copy(),
        hp_fitted=model.hp_fitted,
    )
