"""Architecture search spaces over directed-acyclic cell graphs.

A space is an id-keyed table of records: one or more cell graphs plus a
hyper-parameter vector, together with validation/test accuracy, an optional
weak (super-net style) accuracy label, FLOPs and parameter count.

File format (UTF-8, line-delimited JSON):
  line 1   metadata header  {"name": str, "vocab": [op, ...], "hparam_dim": int}
  line 2+  one record per line:
           {"id": str,
            "cells": [{"nodes": [op, ...], "edges": [[src, dst], ...]}, ...],
            "hparams": [float, ...],
            "val_acc": float, "test_acc": float, "ws_acc": float (optional),
            "flops": float, "params": float}

All types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import metrics

PSEUDO_OPS = ("input", "output", "add", "concatenate")

# Canonical middle-node vocabulary for synthetic spaces; extended with
# numbered ops when a config asks for more.
_SYNTH_MIDDLE_OPS = (
    "add",
    "concatenate",
    "conv1x1",
    "conv3x3",
    "sepconv3x3",
    "maxpool3x3",
    "avgpool3x3",
    "skip",
    "dilconv3x3",
    "conv5x5",
)


class SpaceParseError(ValueError):
    """Malformed space file; message carries the offending line number."""


class SpaceValidationError(ValueError):
    """A record or graph violates a structural invariant."""


class CalibrationError(RuntimeError):
    """Weak-label calibration failed to reach the target rank correlation."""


@dataclass(frozen=True)
class ArchGraph:
    """A directed acyclic cell graph with dense node indices 0..n-1."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Architecture:
    id: str
    cells: tuple[ArchGraph, ...]
    hparams: tuple[float, ...]


@dataclass(frozen=True)
class BenchmarkRecord:
    arch: Architecture
    val_acc: float
    test_acc: float
    ws_acc: float | None
    flops: float
    params: float


@dataclass(frozen=True)
class SpaceMeta:
    name: str
    vocab: tuple[str, ...]
    hparam_dim: int


@dataclass(frozen=True)
class SearchSpace:
    meta: SpaceMeta
    records: dict[str, BenchmarkRecord]

    def __len__(self):
        return len(self.records)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.records.keys())


@dataclass(frozen=True)
class EncodedCell:
    onehot: np.ndarray      # (n, vocab) float64, one 1 per row
    adjacency: np.ndarray   # (n, n) float64, [src, dst] edges plus self-loops


@dataclass(frozen=True)
class EncodedArch:
    cells: tuple[EncodedCell, ...]
    hparams: np.ndarray     # (hparam_dim,) float64


def validate_graph(g: ArchGraph, context: str = "") -> None:
    """Check the cell-graph invariants; raise SpaceValidationError on the
    first violation. `context` (usually the record id) prefixes messages.
    """
    n = len(g.nodes)
    where = f"{context}: " if context else ""
    if n == 0:
        raise SpaceValidationError(f"{where}empty graph")
    if g.nodes.count("input") != 1 or g.nodes.count("output") != 1:
        raise SpaceValidationError(f"{where}graph must contain exactly one input and one output node")
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for s, d in g.edges:
        if not (0 <= s < n and 0 <= d < n):
            raise SpaceValidationError(f"{where}edge ({s}, {d}) out of range for {n} nodes")
        if s == d:
            raise SpaceValidationError(f"{where}self-edge on node {s}")
        succ[s].append(d)
        pred[d].append(s)

    # Kahn topological pass doubles as the cycle check.
    indeg = [len(p) for p in pred]
    queue = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != n:
        raise SpaceValidationError(f"{where}graph contains a cycle")

    def reach(start: int, adj) -> set[int]:
        out = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in out:
                    out.add(w)
                    stack.append(w)
        return out

    src = g.nodes.index("input")
    dst = g.nodes.index("output")
    from_input = reach(src, succ)
    to_output = reach(dst, pred)
    missing = [v for v in range(n) if v != src and v not in from_input]
    if missing:
        raise SpaceValidationError(f"{where}nodes {missing} unreachable from input")
    missing = [v for v in range(n) if v != dst and v not in to_output]
    if missing:
        raise SpaceValidationError(f"{where}nodes {missing} cannot reach output")


def validate_record(rec: BenchmarkRecord, meta: SpaceMeta) -> None:
    rid = rec.arch.id
    if len(rec.arch.hparams) != meta.hparam_dim:
        raise SpaceValidationError(
            f"{rid}: hparam dimensionality {len(rec.arch.hparams)} != declared {meta.hparam_dim}"
        )
    if not rec.arch.cells:
        raise SpaceValidationError(f"{rid}: architecture has no cells")
    vocab = set(meta.vocab)
    for cell in rec.arch.cells:
        validate_graph(cell, context=rid)
        for op in cell.nodes:
            if op not in vocab:
                raise SpaceValidationError(f"{rid}: op {op!r} not in declared vocabulary")
    for name, value in [("val_acc", rec.val_acc), ("test_acc", rec.test_acc)]:
        if not math.isfinite(value):
            raise SpaceValidationError(f"{rid}: {name} is not finite")
        if not 0.0 <= value <= 100.0:
            raise SpaceValidationError(f"{rid}: {name}={value} outside [0, 100]")
    if rec.ws_acc is not None:
        if not math.isfinite(rec.ws_acc) or not 0.0 <= rec.ws_acc <= 100.0:
            raise SpaceValidationError(f"{rid}: ws_acc={rec.ws_acc} outside [0, 100]")
    for name, value in [("flops", rec.flops), ("params", rec.params)]:
        if not math.isfinite(value) or value < 0.0:
            raise SpaceValidationError(f"{rid}: {name}={value} must be finite and nonnegative")


def _build_space(meta: SpaceMeta, records: Iterable[BenchmarkRecord]) -> SearchSpace:
    table: dict[str, BenchmarkRecord] = {}
    cell_count = None
    for rec in records:
        rid = rec.arch.id
        if rid in table:
            raise SpaceValidationError(f"duplicate architecture id {rid!r}")
        validate_record(rec, meta)
        if cell_count is None:
            cell_count = len(rec.arch.cells)
        elif len(rec.arch.cells) != cell_count:
            raise SpaceValidationError(f"{rid}: cell count {len(rec.arch.cells)} != {cell_count}")
        table[rid] = rec
    if not table:
        raise SpaceValidationError("space is empty")
    return SearchSpace(meta=meta, records=table)


def load_space(path: str | Path) -> SearchSpace:
    """Load and validate a line-delimited space file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SpaceParseError(f"{path}: empty file")

    def parse(lineno: int, text: str) -> dict:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise SpaceParseError(f"{path}:{lineno}: {e.msg}") from e
        if not isinstance(obj, dict):
            raise SpaceParseError(f"{path}:{lineno}: expected an object")
        return obj

    header = parse(1, lines[0])
    try:
        meta = SpaceMeta(
            name=str(header["name"]),
            vocab=tuple(str(v) for v in header["vocab"]),
            hparam_dim=int(header["hparam_dim"]),
        )
    except KeyError as e:
        raise SpaceParseError(f"{path}:1: header missing field {e.args[0]!r}") from e

    def record_from(lineno: int, obj: dict) -> BenchmarkRecord:
        try:
            cells = tuple(
                ArchGraph(
                    nodes=tuple(str(op) for op in cell["nodes"]),
                    edges=tuple((int(s), int(d)) for s, d in cell["edges"]),
                )
                for cell in obj["cells"]
            )
            arch = Architecture(
                id=str(obj["id"]),
                cells=cells,
                hparams=tuple(float(h) for h in obj["hparams"]),
            )
            return BenchmarkRecord(
                arch=arch,
                val_acc=float(obj["val_acc"]),
                test_acc=float(obj["test_acc"]),
                ws_acc=float(obj["ws_acc"]) if obj.get("ws_acc") is not None else None,
                flops=float(obj["flops"]),
                params=float(obj["params"]),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise SpaceParseError(f"{path}:{lineno}: malformed record ({e})") from e

    records = [record_from(i + 2, parse(i + 2, text)) for i, text in enumerate(lines[1:]) if text.strip()]
    return _build_space(meta, records)


def save_space(space: SearchSpace, path: str | Path) -> None:
    """Write the space in the line-delimited format; output is deterministic."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "name": space.meta.name,
            "vocab": list(space.meta.vocab),
            "hparam_dim": space.meta.hparam_dim,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in space.records.values():
            obj = {
                "id": rec.arch.id,
                "cells": [
                    {"nodes": list(c.nodes), "edges": [list(e) for e in c.edges]}
                    for c in rec.arch.cells
                ],
                "hparams": list(rec.arch.hparams),
                "val_acc": rec.val_acc,
                "test_acc": rec.test_acc,
                "flops": rec.flops,
                "params": rec.params,
            }
            if rec.ws_acc is not None:
                obj["ws_acc"] = rec.ws_acc
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def encode_architecture(arch: Architecture, vocab: Sequence[str]) -> EncodedArch:
    """Encode each cell as a node one-hot matrix plus adjacency with self-loops.

    Self-loops are added here (they are not stored in space files); the graph
    convolution's row normalization relies on them.
    """
    index = {op: i for i, op in enumerate(vocab)}
    cells = []
    for cell in arch.cells:
        n = len(cell.nodes)
        onehot = np.zeros((n, len(vocab)), dtype=np.float64)
        for row, op in enumerate(cell.nodes):
            if op not in index:
                raise SpaceValidationError(f"{arch.id}: op {op!r} not in vocabulary")
            onehot[row, index[op]] = 1.0
        adj = np.eye(n, dtype=np.float64)
        for s, d in cell.edges:
            adj[s, d] = 1.0
        cells.append(EncodedCell(onehot=onehot, adjacency=adj))
    return EncodedArch(cells=tuple(cells), hparams=np.asarray(arch.hparams, dtype=np.float64))


# ---------------------------------------------------------------------------
# Synthetic spaces with a planted, analytically known landscape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    size: int
    node_range: tuple[int, int] = (5, 8)    # inclusive bounds on nodes per cell
    vocab_size: int = 7                     # total vocabulary incl. input/output
    hparam_dim: int = 2
    n_cells: int = 1
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self):
        if self.size < 2:
            raise ValueError(f"space size must be >= 2, got {self.size}")
        if self.vocab_size < 3:
            raise ValueError(f"vocabulary needs input, output and at least one op, got size {self.vocab_size}")
        lo, hi = self.node_range
        if lo > hi or lo < 3:
            raise ValueError(f"node range {self.node_range} is empty or below the 3-node minimum")
        if self.hparam_dim < 0 or self.n_cells < 1:
            raise ValueError("hparam_dim must be >= 0 and n_cells >= 1")


def _synth_vocab(vocab_size: int) -> tuple[str, ...]:
    middle = list(_SYNTH_MIDDLE_OPS)
    while len(middle) < vocab_size - 2:
        middle.append(f"op{len(middle)}")
    return ("input", "output", *middle[: vocab_size - 2])


def _node_depths(cell: ArchGraph) -> np.ndarray:
    """Longest-path depth of every node from the in-degree-zero frontier."""
    n = len(cell.nodes)
    depth = np.zeros(n)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for s, d in cell.edges:
        succ[s].append(d)
        indeg[d] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    while queue:
        v = queue.pop()
        for w in succ[v]:
            depth[w] = max(depth[w], depth[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return depth


class SyntheticLandscape:
    """Planted scoring function behind a synthetic space.

    Accuracy is a logistic squash of a weighted sum of graph statistics
    (op-type histogram, mean normalized node depth) and a hyper-parameter
    inner product. The shift inside the squash skews the population: most
    architectures land in a dense upper mode with a long tail of poor ones.
    The object is a pure function of the config, so tests can score
    architectures that were never tabled.
    """

    # Squash geometry: mode in the high 80s with a tail reaching the 40s.
    _GAIN_OPS = 5.0
    _GAIN_DEPTH = 2.5
    _GAIN_HPARAMS = 0.5
    _SKEW_SHIFT = 1.3
    _ACC_FLOOR = 40.0
    _ACC_SPAN = 55.0
    NOISE_SD = 0.2  # percent; separates val from test accuracy

    def __init__(self, cfg: SynthConfig):
        self.cfg = cfg
        self.vocab = _synth_vocab(cfg.vocab_size)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9E3779B9]))
        middle = self.vocab[2:]
        # Random per-space op weights around a planted prior: convolution-like
        # ops help accuracy, pooling/skip hurt. Cost metrics count the same
        # conv ops, giving the accuracy/cost correlation real spaces show and
        # making the cheap auxiliary labels informative for ranking.
        prior = np.array(
            [0.9 if op.startswith(("conv", "sepconv", "dilconv")) else -0.45 if op.endswith("pool3x3") or op == "skip" else 0.0 for op in middle]
        )
        self.op_weights = 0.7 * rng.standard_normal(len(middle)) + prior
        self.op_weights -= self.op_weights.mean()
        self.hparam_weights = rng.standard_normal(max(cfg.hparam_dim, 1))

    def sample_architecture(self, arch_id: str, rng: np.random.Generator) -> Architecture:
        lo, hi = self.cfg.node_range
        cells = []
        for _ in range(self.cfg.n_cells):
            n = int(rng.integers(lo, hi + 1))
            nodes = ["input"] + [self.vocab[2 + int(k)] for k in rng.integers(0, len(self.vocab) - 2, size=n - 2)] + ["output"]
            edges = set()
            for v in range(1, n):
                edges.add((int(rng.integers(0, v)), v))
            for v in range(n - 1):
                if not any(s == v for s, _ in edges):
                    edges.add((v, int(rng.integers(v + 1, n))))
            # sprinkle extra forward edges for variety
            for s in range(n - 1):
                for d in range(s + 1, n):
                    if (s, d) not in edges and rng.random() < 1.0 / n:
                        edges.add((s, d))
            cells.append(ArchGraph(nodes=tuple(nodes), edges=tuple(sorted(edges))))
        hparams = tuple(float(x) for x in rng.uniform(-1.0, 1.0, size=self.cfg.hparam_dim))
        return Architecture(id=arch_id, cells=tuple(cells), hparams=hparams)

    def _features(self, arch: Architecture) -> tuple[float, float, float]:
        n_middle_ops = len(self.vocab) - 2
        hist = np.zeros(n_middle_ops)
        depth_terms = []
        for cell in arch.cells:
            for op in cell.nodes:
                if op not in ("input", "output"):
                    hist[self.vocab.index(op) - 2] += 1
            depths = _node_depths(cell)
            depth_terms.append(float(depths.mean() / max(len(cell.nodes) - 1, 1)))
        total_middle = hist.sum()
        if total_middle > 0:
            hist /= total_middle
        op_term = float(hist @ self.op_weights)
        depth_term = float(np.mean(depth_terms))
        if self.cfg.hparam_dim:
            hp = np.asarray(arch.hparams)
            hp_term = float(hp @ self.hparam_weights) / math.sqrt(self.cfg.hparam_dim)
        else:
            hp_term = 0.0
        return op_term, depth_term, hp_term

    def base_accuracy(self, arch: Architecture) -> float:
        """Noise-free planted accuracy in percent (the analytic oracle)."""
        op_term, depth_term, hp_term = self._features(arch)
        z = (
            self._SKEW_SHIFT
            + self._GAIN_OPS * op_term
            + self._GAIN_DEPTH * (depth_term - 0.5)
            + self._GAIN_HPARAMS * hp_term
        )
        return self._ACC_FLOOR + self._ACC_SPAN / (1.0 + math.exp(-z))

    def cost_metrics(self, arch: Architecture) -> tuple[float, float]:
        """Deterministic (flops, params) in millions, increasing in node count.

        Costs depend on node and op counts only: the encoder's row-normalized
        propagation hides raw edge counts, so an edge term would put the cost
        heads' ceiling artificially low.
        """
        n_nodes = sum(len(c.nodes) for c in arch.cells)
        conv_like = sum(
            1 for c in arch.cells for op in c.nodes if op.startswith(("conv", "sepconv", "dilconv"))
        )
        pool_like = sum(1 for c in arch.cells for op in c.nodes if op.endswith("pool3x3"))
        flops = 12.0 * n_nodes + 20.0 * conv_like + 5.0 * pool_like
        params = 0.8 * n_nodes + 1.5 * conv_like + 0.1 * pool_like
        return flops, params


def generate_synthetic_space(cfg: SynthConfig) -> SearchSpace:
    """Generate a deterministic synthetic space from the config and seed."""
    landscape = SyntheticLandscape(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x51A5]))
    width = len(str(cfg.size - 1))
    records = []
    for i in range(cfg.size):
        arch = landscape.sample_architecture(f"arch-{i:0{width}d}", rng)
        base = landscape.base_accuracy(arch)
        val = float(np.clip(base + rng.normal(0.0, landscape.NOISE_SD), 0.0, 100.0))
        test = float(np.clip(base + rng.normal(0.0, landscape.NOISE_SD), 0.0, 100.0))
        flops, params = landscape.cost_metrics(arch)
        records.append(
            BenchmarkRecord(arch=arch, val_acc=val, test_acc=test, ws_acc=None, flops=flops, params=params)
        )
    meta = SpaceMeta(name=cfg.name, vocab=landscape.vocab, hparam_dim=cfg.hparam_dim)
    return _build_space(meta, records)


def calibrate_weak_labels(
    space: SearchSpace,
    target_tau: float,
    seed: int,
    tolerance: float = 0.05,
    max_iters: int = 60,
) -> SearchSpace:
    """Fill ws_acc so its rank correlation with val_acc hits target_tau.

    Weak labels are a logistic rescaling of val_acc plus Gaussian noise; the
    noise amplitude is found by bisection against the measured tau on one
    fixed noise draw, so the result is deterministic per seed. Raises
    CalibrationError when no amplitude within the search bracket lands inside
    the tolerance.
    """
    if not 0.0 <= target_tau <= 1.0:
        raise ValueError(f"target_tau must be in [0, 1], got {target_tau}")
    vals = np.array([r.val_acc for r in space.records.values()])
    center = float(np.median(vals))
    scale = 2.0 * float(np.std(vals))  # gentle squash: keeps the tails distinguishable
    if scale == 0.0:
        raise CalibrationError("val_acc has zero variance; weak labels cannot be calibrated")
    base = 100.0 / (1.0 + np.exp(-(vals - center) / scale))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA11]))
    noise = rng.standard_normal(vals.size)
    base_sd = float(np.std(base))

    def measured_tau(amplitude: float) -> tuple[float, np.ndarray]:
        ws = np.clip(base + amplitude * noise, 0.0, 100.0)
        return metrics.kendall_tau(ws, vals), ws

    tau0, ws0 = measured_tau(0.0)
    best = (abs(tau0 - target_tau), 0.0, tau0, ws0)
    if abs(tau0 - target_tau) > tolerance:
        lo, hi = 0.0, base_sd
        tau_hi, _ = measured_tau(hi)
        grow = 0
        while tau_hi > target_tau and grow < 40:
            hi *= 2.0
            tau_hi, _ = measured_tau(hi)
            grow += 1
        for _ in range(max_iters):
            mid = 0.5 * (lo + hi)
            tau_mid, ws_mid = measured_tau(mid)
            if abs(tau_mid - target_tau) < best[0]:
                best = (abs(tau_mid - target_tau), mid, tau_mid, ws_mid)
            if best[0] <= tolerance / 4.0:
                break
            if tau_mid > target_tau:
                lo = mid
            else:
                hi = mid
    gap, _, _, ws = best
    if gap > tolerance:
        raise CalibrationError(
            f"calibration stalled: closest tau is {best[2]:.4f} vs target {target_tau:.4f}"
        )
    records = [
        replace(rec, ws_acc=float(w)) for rec, w in zip(space.records.values(), ws)
    ]
    return _build_space(space.meta, records)
