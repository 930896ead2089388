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


@dataclass(frozen=True, slots=True)
class ArchGraph:
    """A directed acyclic cell graph with dense node indices 0..n-1."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class Architecture:
    id: str
    cells: tuple[ArchGraph, ...]
    hparams: tuple[float, ...]


@dataclass(frozen=True, slots=True)
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

    @property
    def n_cells(self) -> int:
        """Cells per architecture, the same for every record (`_build_space`)."""
        return len(next(iter(self.records.values())).arch.cells)


@dataclass(frozen=True, slots=True)
class EncodedArch:
    ops: tuple[tuple[int, ...], ...]                # per cell, each node's vocabulary index
    edges: tuple[tuple[tuple[int, int], ...], ...]  # per cell, its own [src, dst] pairs
    hparams: tuple[float, ...]
    vocab_size: int


def _validate_graph(g: ArchGraph, context: str = "") -> None:
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
    indeg = [0] * n
    for s, d in g.edges:
        if not (0 <= s < n and 0 <= d < n):
            raise SpaceValidationError(f"{where}edge ({s}, {d}) out of range for {n} nodes")
        if s == d:
            raise SpaceValidationError(f"{where}self-edge on node {s}")
        succ[s].append(d)
        indeg[d] += 1

    # Kahn topological pass doubles as the cycle check: `order` grows while
    # it is walked, and holds every node exactly when there is no cycle.
    sources = [v for v in range(n) if not indeg[v]]
    order = sources.copy()
    for v in order:
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    if len(order) != n:
        raise SpaceValidationError(f"{where}graph contains a cycle")

    # In a DAG every node descends from a source and leads to a sink, so all
    # nodes are reachable from input exactly when input is the only source,
    # and all reach output exactly when output is the only sink. The walks
    # only name the offending nodes.
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
    if sources != [src]:
        from_input = reach(src, succ)
        missing = [v for v in range(n) if v != src and v not in from_input]
        raise SpaceValidationError(f"{where}nodes {missing} unreachable from input")
    if [v for v in range(n) if not succ[v]] != [dst]:
        pred = [[] for _ in range(n)]
        for s, d in g.edges:
            pred[d].append(s)
        to_output = reach(dst, pred)
        missing = [v for v in range(n) if v != dst and v not in to_output]
        raise SpaceValidationError(f"{where}nodes {missing} cannot reach output")


def _validate_record(rec: BenchmarkRecord, meta: SpaceMeta) -> None:
    rid = rec.arch.id
    if len(rec.arch.hparams) != meta.hparam_dim:
        raise SpaceValidationError(
            f"{rid}: hparam dimensionality {len(rec.arch.hparams)} != declared {meta.hparam_dim}"
        )
    for i, h in enumerate(rec.arch.hparams):
        if not math.isfinite(h):
            raise SpaceValidationError(f"{rid}: hparams[{i}]={h} is not finite")
    if not rec.arch.cells:
        raise SpaceValidationError(f"{rid}: architecture has no cells")
    for cell in rec.arch.cells:
        _validate_graph(cell, context=rid)
        for op in cell.nodes:
            if op not in meta.vocab:
                raise SpaceValidationError(f"{rid}: op {op!r} not in declared vocabulary")
    for name, value in (("val_acc", rec.val_acc), ("test_acc", rec.test_acc)):
        if not math.isfinite(value):
            raise SpaceValidationError(f"{rid}: {name} is not finite")
        if not 0.0 <= value <= 100.0:
            raise SpaceValidationError(f"{rid}: {name}={value} outside [0, 100]")
    if rec.ws_acc is not None:
        if not math.isfinite(rec.ws_acc) or not 0.0 <= rec.ws_acc <= 100.0:
            raise SpaceValidationError(f"{rid}: ws_acc={rec.ws_acc} outside [0, 100]")
    for name, value in (("flops", rec.flops), ("params", rec.params)):
        if not math.isfinite(value) or value < 0.0:
            raise SpaceValidationError(f"{rid}: {name}={value} must be finite and nonnegative")


def _build_space(meta: SpaceMeta, records: Iterable[BenchmarkRecord]) -> SearchSpace:
    table: dict[str, BenchmarkRecord] = {}
    cell_count = None
    for rec in records:
        rid = rec.arch.id
        if rid in table:
            raise SpaceValidationError(f"duplicate architecture id {rid!r}")
        _validate_record(rec, meta)
        if cell_count is None:
            cell_count = len(rec.arch.cells)
        elif len(rec.arch.cells) != cell_count:
            raise SpaceValidationError(f"{rid}: cell count {len(rec.arch.cells)} != {cell_count}")
        table[rid] = rec
    if not table:
        raise SpaceValidationError("space is empty")
    return SearchSpace(meta=meta, records=table)


def load_space(path: str | Path) -> SearchSpace:
    """Load and validate a line-delimited space file. Records share one string
    per op name (the header's) and one tuple per distinct edge pair; edge
    endpoints and `hparam_dim` must be JSON integers, and accuracies, costs
    and hyper-parameters JSON numbers (not booleans)."""
    path = Path(path)

    def parse(lineno: int, text: str) -> dict:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise SpaceParseError(f"{path}:{lineno}: {e.msg}") from e
        if not isinstance(obj, dict):
            raise SpaceParseError(f"{path}:{lineno}: expected an object")
        return obj

    with path.open("r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise SpaceParseError(f"{path}: empty file")
        header = parse(1, first)
        try:
            meta = SpaceMeta(name=str(header["name"]), vocab=tuple(str(v) for v in header["vocab"]),
                             hparam_dim=header["hparam_dim"])
        except KeyError as e:
            raise SpaceParseError(f"{path}:1: header missing field {e.args[0]!r}") from e
        if type(meta.hparam_dim) is not int:
            raise SpaceParseError(f"{path}:1: hparam_dim {meta.hparam_dim!r} is not an integer")
        ops = {op: op for op in meta.vocab}
        pairs: dict[tuple[int, int], tuple[int, int]] = {}

        def cell_from(cell: dict) -> ArchGraph:
            edges = []
            for s, d in cell["edges"]:
                if type(s) is not int or type(d) is not int:
                    raise TypeError(f"edge [{s!r}, {d!r}] has a non-integer endpoint")
                pair = (s, d)
                edges.append(pairs.setdefault(pair, pair))
            return ArchGraph(nodes=tuple(ops.get(op) or str(op) for op in cell["nodes"]), edges=tuple(edges))

        def number(name: str, value) -> float:
            if type(value) not in (int, float):  # float() would take true as 1.0, "85" as 85.0
                raise TypeError(f"{name} {json.dumps(value)} is not a JSON number")
            return float(value)

        def record_from(lineno: int, obj: dict) -> BenchmarkRecord:
            try:
                arch = Architecture(
                    id=str(obj["id"]),
                    cells=tuple(cell_from(cell) for cell in obj["cells"]),
                    hparams=tuple(number("hparams", h) for h in obj["hparams"]),
                )
                return BenchmarkRecord(
                    arch=arch,
                    val_acc=number("val_acc", obj["val_acc"]),
                    test_acc=number("test_acc", obj["test_acc"]),
                    ws_acc=number("ws_acc", obj["ws_acc"]) if obj.get("ws_acc") is not None else None,
                    flops=number("flops", obj["flops"]),
                    params=number("params", obj["params"]),
                )
            except (KeyError, TypeError, ValueError) as e:
                raise SpaceParseError(f"{path}:{lineno}: malformed record ({e})") from e

        records = (record_from(n, parse(n, text)) for n, text in enumerate(fh, start=2) if text.strip())
        return _build_space(meta, records)


def save_space(space: SearchSpace, path: str | Path) -> None:
    """Write the space in the line-delimited format; output is deterministic.
    Every line is `json.dumps(obj, sort_keys=True)`; tuples encode as lists."""
    encode = json.JSONEncoder(sort_keys=True).encode
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "name": space.meta.name,
            "vocab": space.meta.vocab,
            "hparam_dim": space.meta.hparam_dim,
        }
        fh.write(encode(header) + "\n")
        for rec in space.records.values():
            obj = {
                "id": rec.arch.id,
                "cells": [{"nodes": c.nodes, "edges": c.edges} for c in rec.arch.cells],
                "hparams": rec.arch.hparams,
                "val_acc": rec.val_acc,
                "test_acc": rec.test_acc,
                "flops": rec.flops,
                "params": rec.params,
            }
            if rec.ws_acc is not None:
                obj["ws_acc"] = rec.ws_acc
            fh.write(encode(obj) + "\n")


def draw_ids(rng: np.random.Generator, ids: Sequence[str], n: int) -> list[str]:
    """n distinct ids drawn uniformly, in their order in `ids`."""
    return [ids[i] for i in sorted(rng.choice(len(ids), size=n, replace=False).tolist())]


def encode_architecture(arch: Architecture, vocab: Sequence[str]) -> EncodedArch:
    """Encode each cell as the vocabulary index of every node's op, sharing
    the cells' edge tuples and the hyper-parameter tuple. `nn.pack` turns the
    edges into adjacency, adding the self-loops that the graph convolution's
    row normalization relies on."""
    index = {op: i for i, op in enumerate(vocab)}
    try:
        ops = tuple(tuple(map(index.__getitem__, cell.nodes)) for cell in arch.cells)
    except KeyError as e:
        raise SpaceValidationError(f"{arch.id}: op {e.args[0]!r} not in vocabulary") from None
    return EncodedArch(ops, tuple(cell.edges for cell in arch.cells), arch.hparams, len(vocab))


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


def _node_depths(cell: ArchGraph) -> list[int]:
    """Longest-path depth of every node from the in-degree-zero frontier."""
    n = len(cell.nodes)
    depth = [0] * n
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for s, d in cell.edges:
        succ[s].append(d)
        indeg[d] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    while queue:
        v = queue.pop()
        below = depth[v] + 1
        for w in succ[v]:
            if depth[w] < below:
                depth[w] = below
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
        self._slot = {op: i for i, op in enumerate(self.vocab)}
        # per node count n, every (src, dst) pair with src < dst, in row order
        self._forward_pairs = {n: tuple((s, d) for s in range(n - 1) for d in range(s + 1, n))
                               for n in range(cfg.node_range[0], cfg.node_range[1] + 1)}

    def sample_architecture(self, arch_id: str, rng: np.random.Generator) -> Architecture:
        """Draw one architecture. The calls on `rng`, their order and their
        arguments are part of the space file format: each record's draws
        start where the previous record's ended, so changing any call changes
        the bytes of every synthetic space."""
        integers = rng.integers
        lo, hi = self.cfg.node_range
        middle = self.vocab[2:]
        cells = []
        for _ in range(self.cfg.n_cells):
            n = int(integers(lo, hi + 1))
            nodes = ("input", *[middle[k] for k in integers(0, len(middle), size=n - 2).tolist()], "output")
            sources = [int(integers(0, v)) for v in range(1, n)]
            edges = set(zip(sources, range(1, n)))
            has_successor = set(sources)
            edges.update([(v, int(integers(v + 1, n))) for v in range(n - 1) if v not in has_successor])
            # sprinkle extra forward edges for variety: one uniform per free pair
            # (every pair not yet an edge, all edges being forward), in row order
            pairs = self._forward_pairs[n]
            u = iter(rng.random(len(pairs) - len(edges)).tolist())
            p = 1.0 / n
            cells.append(ArchGraph(nodes=nodes, edges=tuple([e for e in pairs if e in edges or next(u) < p])))
        hparams = tuple(rng.uniform(-1.0, 1.0, size=self.cfg.hparam_dim).tolist())
        return Architecture(id=arch_id, cells=tuple(cells), hparams=hparams)

    def _features(self, arch: Architecture) -> tuple[float, float, float]:
        # Op counts and depths are ints, so their sums and means are exact;
        # the dot products keep numpy's summation order.
        slot = self._slot
        counts = [0] * len(self.vocab)
        depth_sum = 0.0
        for cell in arch.cells:
            for op in cell.nodes:
                counts[slot[op]] += 1
            n = len(cell.nodes)
            depth_sum += sum(_node_depths(cell)) / n / max(n - 1, 1)
        hist = counts[2:]
        total_middle = sum(hist)
        if total_middle > 0:
            hist = [c / total_middle for c in hist]
        op_term = float(np.array(hist, dtype=float) @ self.op_weights)
        depth_term = depth_sum / len(arch.cells)
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
        val = min(max(base + rng.normal(0.0, landscape.NOISE_SD), 0.0), 100.0)
        test = min(max(base + rng.normal(0.0, landscape.NOISE_SD), 0.0), 100.0)
        flops, params = landscape.cost_metrics(arch)
        records.append(
            BenchmarkRecord(arch=arch, val_acc=val, test_acc=test, ws_acc=None, flops=flops, params=params)
        )
    meta = SpaceMeta(name=cfg.name, vocab=landscape.vocab, hparam_dim=cfg.hparam_dim)
    return _build_space(meta, records)


# Calibration accepts a tau within _CALIBRATION_TOLERANCE of the target and
# bisects the noise amplitude at most _CALIBRATION_ITERS times.
_CALIBRATION_TOLERANCE = 0.05
_CALIBRATION_ITERS = 60


def calibrate_weak_labels(space: SearchSpace, target_tau: float, seed: int) -> SearchSpace:
    """Fill ws_acc so its rank correlation with val_acc hits target_tau.

    Weak labels are a logistic rescaling of val_acc plus Gaussian noise; the
    noise amplitude is found by bisection against the measured tau on one
    fixed noise draw, so the result is deterministic per seed. Raises
    CalibrationError, naming the size and the target, when no amplitude in
    the search bracket lands inside the tolerance (a tiny space may have none).
    """
    if not 0.0 <= target_tau <= 1.0:
        raise ValueError(f"target_tau must be in [0, 1], got {target_tau}")

    def failed(reason: str) -> CalibrationError:
        return CalibrationError(f"cannot calibrate weak labels of {len(space)} records to tau {target_tau}: {reason}")

    vals = np.array([r.val_acc for r in space.records.values()])
    center = float(np.median(vals))
    scale = 2.0 * float(np.std(vals))  # gentle squash: keeps the tails distinguishable
    if scale == 0.0:
        raise failed("val_acc has zero variance")
    base = 100.0 / (1.0 + np.exp(-(vals - center) / scale))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA11]))
    noise = rng.standard_normal(vals.size)
    base_sd = float(np.std(base))

    def measured_tau(amplitude: float) -> tuple[float, np.ndarray]:
        ws = np.clip(base + amplitude * noise, 0.0, 100.0)
        try:
            return metrics.kendall_tau(ws, vals), ws
        except ValueError as e:  # on a tiny space every label can clip to one bound
            raise failed(f"at noise amplitude {amplitude:.4g}, {e}") from e

    tau0, ws0 = measured_tau(0.0)
    best = (abs(tau0 - target_tau), 0.0, tau0, ws0)
    if abs(tau0 - target_tau) > _CALIBRATION_TOLERANCE:
        lo, hi = 0.0, base_sd
        tau_hi, _ = measured_tau(hi)
        grow = 0
        while tau_hi > target_tau and grow < 40:
            hi *= 2.0
            tau_hi, _ = measured_tau(hi)
            grow += 1
        for _ in range(_CALIBRATION_ITERS):
            mid = 0.5 * (lo + hi)
            tau_mid, ws_mid = measured_tau(mid)
            if abs(tau_mid - target_tau) < best[0]:
                best = (abs(tau_mid - target_tau), mid, tau_mid, ws_mid)
            if best[0] <= _CALIBRATION_TOLERANCE / 4.0:
                break
            if tau_mid > target_tau:
                lo = mid
            else:
                hi = mid
    gap, _, _, ws = best
    if gap > _CALIBRATION_TOLERANCE:
        raise failed(f"the closest tau reached is {best[2]:.4f}")
    # only ws_acc changes, and it is finite and clipped to [0, 100]: no record needs validating again
    calibrated = {rid: replace(rec, ws_acc=float(w)) for (rid, rec), w in zip(space.records.items(), ws)}
    return SearchSpace(space.meta, calibrated)
