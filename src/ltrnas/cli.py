"""Command-line surface: generate spaces, pretrain, search, and aggregate runs.

Every command persists its fully resolved configuration (run_config.json)
into its output directory, so a run is reproducible from its artifacts
alone. Outputs contain no timestamps: identical invocations produce
byte-identical files. Each file is written next to its final name and
renamed into place, and the command's report (summary.json,
pretrain_report.json, synth_report.json) is written last, so a run that
dies halfway leaves no report for `report` to aggregate.

Exit codes: 0 success, 2 configuration/validation error, 3 I/O error,
4 runtime failure (any other error, internal bugs included).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import os
import sys
import traceback
from collections.abc import Collection
from contextlib import contextmanager
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import ltr, metrics, nn, search, space as space_mod

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_RUNTIME = 4


class CliConfigError(Exception):
    pass


class CliIoError(Exception):
    pass


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _prepare_out_dir(path_str: str | None) -> Path:
    """An empty output directory, made if its parent exists. One that holds
    anything is refused, so no earlier run's files end up next to this one's."""
    if not path_str:
        raise CliConfigError("--out is required")
    path = Path(path_str)
    if path.is_dir():
        if any(path.iterdir()):
            raise CliIoError(f"output directory {path} is not empty")
        return path
    if path.exists():
        raise CliIoError(f"output path {path} exists and is not a directory")
    if not path.parent.is_dir():
        raise CliIoError(f"output directory {path} does not exist (missing parent {path.parent})")
    path.mkdir()
    return path


def _checked(make_config, **fields):
    """Build a config object; its validation errors are configuration errors."""
    try:
        return make_config(**fields)
    except ValueError as e:
        raise CliConfigError(str(e)) from e


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise CliConfigError(f"--{name.replace('_', '-')} is required (flag or config file)")


def _load_space(path_str: str) -> space_mod.SearchSpace:
    path = Path(path_str)
    if not path.is_file():
        raise CliIoError(f"space file {path} does not exist")
    return space_mod.load_space(path)


def _run_config(args, out: Path, groups: Collection[str] = ()) -> dict:
    """The parsed flags the run reads (config file folded in) plus the output
    directory; written as run_config.json. A flag in one of the command's
    argument groups (`flag_groups`) is read only where `groups` names it."""
    unread = {dest for title, dests in getattr(args, "flag_groups", {}).items() if title not in groups
              for dest in dests}
    cfg = {k: v for k, v in vars(args).items() if k not in {"config", "func", "flag_groups", *unread}}
    cfg["out"] = str(out)
    return cfg


def _config_hash(cfg: dict) -> str:
    reduced = {k: v for k, v in cfg.items() if k not in ("seed", "out")}
    digest = hashlib.sha256(json.dumps(reduced, sort_keys=True).encode("utf-8")).hexdigest()
    return digest[:12]


@contextmanager
def _output(path: Path):
    """Yield a temporary path next to `path` for the block to write; then
    rename it onto `path`, so `path` is either absent, the old file or the
    whole new one. On failure the temporary file is removed."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, doc) -> None:
    with _output(path) as tmp:
        tmp.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with _output(path) as tmp, tmp.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _write_records(path: Path, record_type, records: list) -> None:
    """A CSV of dataclass records, one column per field of `record_type`."""
    _write_csv(path, [f.name for f in fields(record_type)], [list(astuple(r)) for r in records])


def _model_config_from_args(args, bench: space_mod.SearchSpace, seed: int) -> nn.ModelConfig:
    return _checked(
        nn.ModelConfig,
        vocab_size=len(bench.meta.vocab),
        hparam_dim=bench.meta.hparam_dim,
        n_cells=bench.n_cells,
        conv_channels=tuple([args.hidden] * args.layers),
        sortpool_nodes=args.sortpool,
        conv1d_channels=args.conv1d,
        hparam_proj=args.hparam_proj,
        head_hidden=args.head_hidden,
        dropout=args.dropout,
        seed=seed,
    )


def _add_model_flags(parser: argparse._ActionsContainer) -> None:
    parser.add_argument("--hidden", type=int, default=128, help="graph conv width")
    parser.add_argument("--layers", type=int, default=4, help="graph conv depth")
    parser.add_argument("--sortpool", type=int, default=16, help="sort-pooling node count")
    parser.add_argument("--conv1d", type=int, default=32, help="node-wise conv channels")
    parser.add_argument("--hparam-proj", type=int, default=16, help="hyper-parameter projection width")
    parser.add_argument("--head-hidden", type=int, default=128, help="prediction head width")
    parser.add_argument("--dropout", type=float, default=0.1)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    _require(args, "seed", "out")
    out = _prepare_out_dir(args.out)
    if not 0.0 <= args.tau <= 1.0:
        raise CliConfigError(f"--tau must be in [0, 1], got {args.tau}")
    cfg = _checked(space_mod.SynthConfig, size=args.size, node_range=(args.nodes_min, args.nodes_max),
                   vocab_size=args.vocab_size, hparam_dim=args.hparam_dim, n_cells=args.cells,
                   seed=args.seed, name=args.name)
    run_cfg = _run_config(args, out)

    generated = space_mod.generate_synthetic_space(cfg)
    calibrated = space_mod.calibrate_weak_labels(generated, target_tau=args.tau, seed=args.seed)
    with _output(out / "space.jsonl") as tmp:
        space_mod.save_space(calibrated, tmp)

    vals = np.array([r.val_acc for r in calibrated.records.values()])
    ws = np.array([r.ws_acc for r in calibrated.records.values()])
    measured_tau = metrics.kendall_tau(ws, vals)
    counts, edges = np.histogram(vals, bins=30)
    _write_csv(
        out / "acc_histogram.csv",
        ["bin_left", "bin_right", "count"],
        [[float(edges[i]), float(edges[i + 1]), int(counts[i])] for i in range(len(counts))],
    )
    _write_json(out / "run_config.json", run_cfg)
    _write_json(
        out / "synth_report.json",
        {
            "config_hash": _config_hash(run_cfg),
            "size": len(calibrated),
            "target_tau": args.tau,
            "measured_tau": measured_tau,
            "val_acc_min": float(vals.min()),
            "val_acc_mean": float(vals.mean()),
            "val_acc_max": float(vals.max()),
        },
    )
    print(f"synth: wrote {len(calibrated)} records, measured tau {measured_tau:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def cmd_pretrain(args) -> int:
    _require(args, "seed", "out", "space")
    if args.sample < 2:
        raise CliConfigError(f"--sample must be >= 2, got {args.sample}")
    tcfg = _checked(ltr.TrainConfig, batch_size=args.batch_size, epochs=args.epochs,
                    lr0=args.lr, weight_decay=args.weight_decay, seed=args.seed)
    bench = _load_space(args.space)
    model = nn.build_model(_model_config_from_args(args, bench, seed=args.seed), bench.meta.vocab)
    out = _prepare_out_dir(args.out)
    run_cfg = _run_config(args, out)

    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0x7EE7]))
    take = min(args.sample, len(bench))
    packed, weak = ltr.weak_view(bench, space_mod.draw_ids(rng, bench.ids, take))
    result = ltr.pretrain(model, packed, weak, tcfg)

    with _output(out / "checkpoint.json") as tmp:
        nn.save_checkpoint(result.model, tmp)
    _write_records(out / "curves.csv", ltr.CurveRow, result.curve)
    _write_json(out / "run_config.json", run_cfg)
    r2 = {ch: None if np.isnan(v) else v for ch, v in result.r2.items()}
    report = {"config_hash": _config_hash(run_cfg), "sample": take, **{f"r2_{ch}": r2[ch] for ch in ltr.CHANNELS}}
    _write_json(out / "pretrain_report.json", report)
    print("pretrain: r2 " + " ".join(f"{ch}={'n/a' if r2[ch] is None else f'{r2[ch]:.4f}'}" for ch in ltr.CHANNELS))
    return EXIT_OK


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _best_so_far_curve(trace: search.SearchTrace, bench: space_mod.SearchSpace) -> list[list]:
    """Per round: the budget spent so far, the best val_acc so far and the
    test accuracy of its holder (`SearchTrace.best`)."""
    rows = []
    for rnd in sorted({e.round for e in trace.entries}):
        best = trace.best(rnd)
        spent = sum(e.round <= rnd for e in trace.entries)
        rows.append([rnd, spent, best.val_acc, bench.records[best.arch_id].test_acc])
    return rows


def _load_pretrained(path_str: str, bench: space_mod.SearchSpace) -> nn.RankingModel:
    """The --checkpoint model, refused unless it was trained for `bench`'s op
    vocabulary, cell count and hyper-parameter width."""
    if not Path(path_str).is_file():
        raise CliIoError(f"checkpoint {path_str} does not exist")
    try:
        model = nn.load_checkpoint(path_str)
    except (ValueError, KeyError, TypeError) as e:
        raise CliConfigError(f"checkpoint {path_str}: {e}") from e
    if model.vocab != bench.meta.vocab:
        raise CliConfigError(f"checkpoint was trained on op vocabulary {list(model.vocab)}, "
                             f"the space has {list(bench.meta.vocab)}")
    shape = (bench.n_cells, bench.meta.hparam_dim)
    if (model.config.n_cells, model.config.hparam_dim) != shape:
        raise CliConfigError(f"checkpoint was trained for {model.config.n_cells} cell(s) and hparam_dim "
                             f"{model.config.hparam_dim}, the space has {shape[0]} and {shape[1]}")
    return model


def cmd_search(args) -> int:
    _require(args, "seed", "out", "space")
    method = search.METHODS[args.baseline]
    start = method.starting_model(pretrained=not args.no_pretrain)
    # The flag groups the run reads: the round loop's unless a selector replaces
    # it, the finetune flags and those of the starting model where a model
    # trains, and --no-pretrain where the method can start from the checkpoint.
    read = (set() if method.select else {"round loop"}) | ({"finetune", start} if start else set())
    if method.start == "checkpoint":
        read.add("pretraining")
    for flag, least, group in (("budget", 1, None), ("rounds", 1, "round loop"),
                               ("probe-size", 0, "finetune"), ("patience", 0, "finetune")):
        value = getattr(args, flag.replace("-", "_"))
        if group in read | {None} and value < least:
            raise CliConfigError(f"--{flag} must be >= {least}, got {value}")
    if "round loop" in read and args.budget % args.rounds != 0:
        raise CliConfigError(f"budget {args.budget} is not divisible by rounds {args.rounds}")
    if start and args.budget // args.rounds < 2:
        raise CliConfigError(f"budget {args.budget} in {args.rounds} rounds reveals {args.budget // args.rounds} "
                             "architecture(s) per round; finetuning needs at least 2")
    scfg = None if method.select else _checked(
        search.SearchConfig, per_round=args.budget // args.rounds, rounds=args.rounds,
        exploit_fraction=args.alpha if start else 0.0, top_k=args.topk, seed=args.seed)
    tcfg = None if start is None else _checked(
        ltr.TrainConfig, batch_size=args.batch_size, epochs=args.epochs, lr0=args.lr,
        weight_decay=args.weight_decay, sigma=args.sigma, seed=args.seed,
        early_stop_patience=args.patience if args.patience > 0 else None)
    if tcfg is not None and ltr.FINETUNE_LOSSES[method.loss] is not None and tcfg.batch_size < 2:
        raise CliConfigError(f"--batch-size {tcfg.batch_size} makes one-item lists, "
                             f"which the pairwise {method.loss} loss cannot rank")
    if start == "checkpoint" and not args.checkpoint:
        raise CliConfigError("--checkpoint is required (or pass --no-pretrain)")
    bench = _load_space(args.space)
    needs_budget = args.budget if scfg is None else scfg.budget
    if needs_budget > len(bench):
        raise CliConfigError(f"budget {needs_budget} exceeds space size {len(bench)}")
    fresh = _model_config_from_args(args, bench, seed=args.seed) if start == "fresh" else None
    pretrained = _load_pretrained(args.checkpoint, bench) if start == "checkpoint" else None
    out = _prepare_out_dir(args.out)
    run_cfg = _run_config(args, out, read)

    final_model, trace = search.run_method(method, bench, budget=args.budget, cfg=scfg, pretrained=pretrained,
                                           fresh=fresh, train_cfg=tcfg, probe_size=args.probe_size)

    arch, test_acc = search.finalize(trace, bench)
    summary = _summarize(trace, bench, run_cfg)
    _write_json(out / "run_config.json", run_cfg)
    with _output(out / "trace.jsonl") as tmp, tmp.open("w", encoding="utf-8") as fh:
        for e in trace.entries:
            fh.write(json.dumps(asdict(e), sort_keys=True) + "\n")
    _write_records(out / "round_metrics.csv", search.RoundMetrics, trace.round_metrics)
    _write_csv(
        out / "budget_curve.csv",
        ["round", "budget", "best_val_so_far", "test_acc_of_best_val"],
        _best_so_far_curve(trace, bench),
    )
    if final_model is not None:
        with _output(out / "final_model.json") as tmp:
            nn.save_checkpoint(final_model, tmp)
    _write_json(out / "summary.json", summary)
    print(f"search[{args.baseline}]: chose {arch.id} with test accuracy {test_acc:.3f}")
    return EXIT_OK


def _summarize(trace: search.SearchTrace, bench: space_mod.SearchSpace, run_cfg: dict) -> dict:
    best_val_space = max(r.val_acc for r in bench.records.values())
    best = trace.best()
    chosen = bench.records[best.arch_id]
    top = [bench.records[rid] for rid in trace.final_top_k]
    best_val_iter = max(e.val_acc for e in trace.entries if e.origin != "topk")
    last = trace.round_metrics[-1] if trace.round_metrics else None
    return {
        "config_hash": _config_hash(run_cfg),
        "baseline": run_cfg["baseline"],
        "seed": run_cfg["seed"],
        "chosen_id": best.arch_id,
        "final_test_acc": chosen.test_acc,
        "chosen_test_regret": metrics.top_k_regret([chosen], bench, 1),
        "topk_best_test_acc": max(r.test_acc for r in top) if top else None,
        "topk_test_regret": metrics.top_k_regret(top, bench, len(top)) if top else None,
        "val_regret_iterative": best_val_space - best_val_iter,
        "val_regret_final": best_val_space - best.val_acc,
        "final_ndcg": None if last is None else last.ndcg,
        "final_tau": None if last is None else last.tau,
        "final_top_k": list(trace.final_top_k),
        "n_sampled": len(trace.entries),
        "rounds": [asdict(m) for m in trace.round_metrics],
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

# The summary keys that `report` aggregates per config group, in column
# order, each with whether the std is reported next to the mean.
REPORT_COLUMNS = (("final_test_acc", True), ("topk_test_regret", True), ("val_regret_iterative", True),
                  ("final_ndcg", False), ("final_tau", False))


def cmd_report(args) -> int:
    _require(args, "out")
    out = _prepare_out_dir(args.out)
    summaries = []
    for run_dir in args.runs:
        path = Path(run_dir) / "summary.json"
        if not path.is_file():
            raise CliIoError(f"run directory {run_dir} has no summary.json")
        try:
            summary = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise CliIoError(f"{path}: malformed summary ({e.msg})") from e
        if not isinstance(summary, dict) or not {"config_hash", "baseline"} <= summary.keys():
            raise CliIoError(f"{path}: malformed summary (no config_hash or baseline)")
        summaries.append(summary)
    if not summaries:
        raise CliConfigError("no run directories given")

    groups: dict[str, list[dict]] = {}
    for s in summaries:
        groups.setdefault(s["config_hash"], []).append(s)

    def agg(runs: list[dict], key: str, stats: tuple[str, ...]) -> list[float | None]:
        vals = np.array([r[key] for r in runs if r.get(key) is not None], dtype=np.float64)
        return [float(getattr(vals, stat)()) if vals.size else None for stat in stats]

    columns = [(key, ("mean", "std") if with_std else ("mean",)) for key, with_std in REPORT_COLUMNS]
    header = ["config_hash", "baseline", "n_runs", *(f"{stat}_{key}" for key, stats in columns for stat in stats)]
    rows = [[chash, runs[0]["baseline"], len(runs), *(v for key, stats in columns for v in agg(runs, key, stats))]
            for chash, runs in sorted(groups.items())]
    _write_csv(out / "aggregate.csv", header, rows)

    if len(summaries) >= 10:
        keys = ("topk_best_test_acc", "final_ndcg", "final_tau")
        paired = [s for s in summaries if all(s.get(k) is not None for k in keys)]
        corr_rows = []
        if len(paired) >= 10:
            acc = [s["topk_best_test_acc"] for s in paired]
            for metric_name in ("final_ndcg", "final_tau"):
                vals = [s[metric_name] for s in paired]
                try:
                    r = metrics.pearson(vals, acc)
                except ValueError:
                    r = None
                corr_rows.append([metric_name, r, len(paired)])
        _write_csv(out / "correlation.csv", ["metric", "pearson_vs_topk_best_test_acc", "n_runs"], corr_rows)
    print(f"report: {len(summaries)} runs in {len(groups)} config groups")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="ltrnas", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    def common(p):
        p.add_argument("--config", help="JSON file with defaults; explicit flags win")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")

    p = subs.add_parser("synth", help="generate a synthetic space with calibrated weak labels")
    common(p)
    p.add_argument("--size", type=int, default=5000)
    p.add_argument("--tau", type=float, default=0.6, help="target rank correlation of weak labels")
    p.add_argument("--nodes-min", type=int, default=5)
    p.add_argument("--nodes-max", type=int, default=8)
    p.add_argument("--vocab-size", type=int, default=7)
    p.add_argument("--hparam-dim", type=int, default=2)
    p.add_argument("--cells", type=int, default=1)
    p.add_argument("--name", default="synthetic")
    p.set_defaults(func=cmd_synth)
    registry["synth"] = p

    p = subs.add_parser("pretrain", help="pretrain the ranking model on weak labels")
    common(p)
    p.add_argument("--space", default=None)
    p.add_argument("--sample", type=int, default=4000, help="weak labels drawn for pretraining")
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--batch-size", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--weight-decay", type=float, default=1e-5)
    _add_model_flags(p)
    p.set_defaults(func=cmd_pretrain)
    registry["pretrain"] = p

    p = subs.add_parser("search", help="run the iterative search or a baseline")
    common(p)
    p.add_argument("--space", default=None)
    p.add_argument("--budget", type=int, default=100, help="iterative samples (split into rounds)")
    methods = list(search.METHODS)
    p.add_argument("--baseline", default=methods[0], choices=methods)
    # Flags only some methods read; cmd_search names the groups a run reads.
    loop = p.add_argument_group("round loop", "read by a method that runs the round loop")
    loop.add_argument("--rounds", type=int, default=5)
    loop.add_argument("--topk", type=int, default=10)
    pretraining = p.add_argument_group("pretraining", "read by a method that starts from the pretrained model")
    pretraining.add_argument("--no-pretrain", action="store_true", help="start from a fresh model")
    checkpoint = p.add_argument_group("checkpoint", "read by a run that starts from the pretrained model")
    checkpoint.add_argument("--checkpoint", default=None, help="pretrained model checkpoint")
    fresh = p.add_argument_group("fresh", "read by a run that starts from a fresh model")
    _add_model_flags(fresh)
    finetune = p.add_argument_group("finetune", "read by a run that finetunes a model")
    finetune.add_argument("--alpha", type=float, default=0.5, help="exploit fraction per round")
    finetune.add_argument("--epochs", type=int, default=300)
    finetune.add_argument("--batch-size", type=int, default=20)
    finetune.add_argument("--lr", type=float, default=0.005)
    finetune.add_argument("--weight-decay", type=float, default=0.0005)
    finetune.add_argument("--patience", type=int, default=50, help="early stop patience; 0 disables")
    finetune.add_argument("--sigma", type=float, default=1.0)
    finetune.add_argument("--probe-size", type=int, default=512, help="measurement probe size; 0 disables")
    groups = (loop, pretraining, checkpoint, fresh, finetune)
    p.set_defaults(func=cmd_search, flag_groups={g.title: [a.dest for a in g._group_actions] for g in groups})
    registry["search"] = p

    p = subs.add_parser("report", help="aggregate finished runs into CSV tables")
    p.add_argument("runs", nargs="+", help="run directories with summary.json")
    p.add_argument("--config", help="JSON file with defaults; explicit flags win")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_report)
    registry["report"] = p

    return parser, registry


def _apply_config_file(parser, registry, argv) -> argparse.Namespace:
    args = parser.parse_args(argv)
    config_path = getattr(args, "config", None)
    if not config_path:
        return args
    path = Path(config_path)
    if not path.is_file():
        raise CliIoError(f"config file {path} does not exist")
    try:
        overrides = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise CliConfigError(f"{path}: invalid JSON ({e.msg})") from e
    if not isinstance(overrides, dict):
        raise CliConfigError(f"{path}: config must be a JSON object")
    command = overrides.pop("command", args.command)  # every run_config.json records it
    if command != args.command:
        raise CliConfigError(f"{path}: config is for command {command!r}, not {args.command!r}")
    sub = registry[args.command]
    actions = {a.dest: a for a in sub._actions if a.dest != "help"}
    unknown = sorted(set(overrides) - set(actions))
    if unknown:
        raise CliConfigError(f"{path}: unknown config keys {unknown}")
    sub.set_defaults(**{key: _config_value(path, actions[key], value) for key, value in overrides.items()})
    return parser.parse_args(argv)


def _config_value(path: Path, action: argparse.Action, value):
    """A config-file value checked against its flag, since argparse does not
    type-check defaults: an int flag takes a JSON integer, a float flag a
    number, a store_true flag a boolean and any other flag a string, one of
    its choices where it has them. A boolean is never a number; null is
    allowed where the flag defaults to it."""
    if value is None and action.default is None:
        return None
    if isinstance(action, argparse._StoreTrueAction):
        kind, ok = "a boolean", isinstance(value, bool)
    elif action.type in (int, float):
        kind = "an integer" if action.type is int else "a number"
        ok = isinstance(value, int if action.type is int else (int, float)) and not isinstance(value, bool)
    else:
        kind, ok = "a string", isinstance(value, str)
    if not ok:
        raise CliConfigError(f"{path}: config key {action.dest!r} must be {kind}, got {json.dumps(value)}")
    if action.choices is not None and value not in action.choices:
        raise CliConfigError(f"{path}: config key {action.dest!r} must be one of "
                             f"{json.dumps(list(action.choices))}, got {json.dumps(value)}")
    return action.type(value) if action.type in (int, float) else value


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap (32 MB) and trim (64 MB) thresholds. Left dynamic, the
    mmap threshold rises to the largest block freed so far, so whether pool
    scoring's 0.5-2 MB chunk temporaries are reused from the heap, or mapped,
    faulted in and unmapped per chunk, would depend on what the process freed
    before. Other C libraries are left as they are."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    _pin_malloc_thresholds()
    parser, registry = build_parser()
    try:
        args = _apply_config_file(parser, registry, argv)
        return args.func(args)
    except (CliConfigError, space_mod.SpaceParseError, space_mod.SpaceValidationError,
            space_mod.CalibrationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (CliIoError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except Exception as e:  # noqa: BLE001 - boundary: map anything else to a runtime exit code
        traceback.print_exc(file=sys.stderr)
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
