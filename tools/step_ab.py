"""In-process A/B of one train step of the bench model between two source trees.

Usage, from the root of a checkout:

    python3 tools/step_ab.py PARENT_SRC CHANGE_SRC [--blocks 150]
        [--heads ws,flops,params] [--json OUT.json]

PARENT_SRC and CHANGE_SRC are `src/` directories (for the parent, unpack it
first, e.g. `git archive HEAD~1 src | tar -x -C ../parent`). Both copies of
the package are imported into this one process under different names, so
they share the interpreter, the BLAS build and the allocator. Each side
builds the bench's model (4 conv layers of 64, sort-pool 12, conv1d 16,
hparam projection 8, head hidden 64, dropout 0.1) on the same synthetic
5-11-node space, and 20 batches of 20 items. A block runs every
batch once on each side: a train-mode forward of `--heads` (by default the
three pretraining heads), a backward of fixed random upstreams, and an Adam
step on every parameter but the rank head's, as `ltr.pretrain` takes them.
Blocks alternate which side goes first. The script prints, per side, the
median wall time (`time.perf_counter`) per batch of each stage and of the
whole step, in milliseconds, and the change's ratio to the parent.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BATCH = 20
N_BATCHES = 20
SEED = 4
STAGES = ("forward", "backward", "adam", "step")


def load(src: Path, alias: str):
    """Import the `ltrnas` package under `src` as the top-level package `alias`."""
    pkg = src / "ltrnas"
    spec = importlib.util.spec_from_file_location(alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One source tree's model, batches and upstreams, and its stage timings."""

    def __init__(self, pkg, heads: tuple[str, ...]):
        self.nn, space = pkg.nn, pkg.space
        synth = space.SynthConfig(size=BATCH * N_BATCHES, node_range=(5, 11), vocab_size=9, seed=SEED)
        sp = space.generate_synthetic_space(synth)
        packed = self.nn.pack([space.encode_architecture(r.arch, sp.meta.vocab) for r in sp.records.values()])
        cfg = self.nn.ModelConfig(vocab_size=9, hparam_dim=packed.hparams.shape[1], conv_channels=(64,) * 4,
                                  sortpool_nodes=12, conv1d_channels=16, hparam_proj=8, head_hidden=64, seed=SEED)
        self.model = self.nn.build_model(cfg)
        self.nn.set_hparam_stats(self.model, packed.hparams)
        self.batches = [packed.select(np.arange(i, i + BATCH)) for i in range(0, BATCH * N_BATCHES, BATCH)]
        rng = np.random.default_rng(SEED)
        self.ups = [{h: rng.standard_normal(BATCH) for h in heads} for _ in self.batches]
        self.heads = heads
        self.trainable = [n for n in self.model.store.names() if not n.startswith("head_rank")]
        self.times = {stage: [] for stage in STAGES}

    def block(self) -> None:
        nn, model = self.nn, self.model
        for i, (batch, ups) in enumerate(zip(self.batches, self.ups)):
            t0 = time.perf_counter()
            _, ctx = nn.forward_heads(model, batch, self.heads, train_mode=True, dropout_seed=i)
            t1 = time.perf_counter()
            nn.backward(model, ups, ctx)
            t2 = time.perf_counter()
            nn.adam_step(model.store, 1e-4, self.trainable)
            t3 = time.perf_counter()
            for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
                self.times[stage].append(1e3 * dt)

    def medians(self) -> dict[str, float]:
        return {stage: round(statistics.median(v), 4) for stage, v in self.times.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--blocks", type=int, default=150)
    ap.add_argument("--heads", default="ws,flops,params")
    ap.add_argument("--json", type=Path, help="also write the medians here")
    args = ap.parse_args(argv)
    if args.blocks < 1:
        ap.error("--blocks must be >= 1")
    heads = tuple(args.heads.split(","))

    parent, change = load(args.parent_src.resolve(), "ltrnas_parent"), load(args.change_src.resolve(), "ltrnas_change")
    importlib.import_module("ltrnas_parent.cli")._pin_malloc_thresholds()
    sides = {"parent": Side(parent, heads), "change": Side(change, heads)}
    for side in sides.values():  # warm-up, not timed
        side.block()
        side.times = {stage: [] for stage in STAGES}
    for b in range(args.blocks):
        for name in (("parent", "change") if b % 2 == 0 else ("change", "parent")):
            sides[name].block()

    result = {
        "how": f"tools/step_ab.py: {args.blocks} alternating blocks of {N_BATCHES} batches of {BATCH} items, "
               f"heads {','.join(heads)}, wall-time medians per batch",
        "parent_ms": sides["parent"].medians(),
        "change_ms": sides["change"].medians(),
    }
    result["ratio"] = {s: round(result["change_ms"][s] / result["parent_ms"][s], 4) for s in STAGES}
    for stage in STAGES:
        print(f"{stage:9s} parent {result['parent_ms'][stage]:8.4f} ms  change {result['change_ms'][stage]:8.4f} ms"
              f"  ratio {result['ratio'][stage]:.4f}")
    if args.json:
        args.json.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
