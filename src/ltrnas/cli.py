"""Command-line surface: generate spaces, pretrain, search, and aggregate runs.

Every command persists its fully resolved configuration (run_config.json)
into its output directory, so a run is reproducible from its artifacts
alone. Outputs contain no timestamps: identical invocations produce
byte-identical files.

Exit codes: 0 success, 2 configuration/validation error, 3 I/O error,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict
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
    if not path_str:
        raise CliConfigError("--out is required")
    path = Path(path_str)
    if path.is_dir():
        return path
    if path.exists():
        raise CliIoError(f"output path {path} exists and is not a directory")
    if not path.parent.is_dir():
        raise CliIoError(f"output directory {path} does not exist (missing parent {path.parent})")
    path.mkdir()
    return path


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise CliConfigError(f"--{name.replace('_', '-')} is required (flag or config file)")


def _load_space(path_str: str) -> space_mod.SearchSpace:
    path = Path(path_str)
    if not path.is_file():
        raise CliIoError(f"space file {path} does not exist")
    return space_mod.load_space(path)


def _run_config(args, out: Path, **resolved) -> dict:
    """Every parsed flag (config file folded in) plus the output directory and
    the values the command resolves itself; written as run_config.json."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("config", "func")}
    cfg.update(out=str(out), **resolved)
    return cfg


def _config_hash(cfg: dict) -> str:
    reduced = {k: v for k, v in cfg.items() if k not in ("seed", "out")}
    digest = hashlib.sha256(json.dumps(reduced, sort_keys=True).encode("utf-8")).hexdigest()
    return digest[:12]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _curve_rows(curve: list[ltr.CurveRow]) -> list[list]:
    return [
        [r.epoch, r.split, r.loss, r.ndcg, r.r2_ws, r.r2_flops, r.r2_params, r.lr]
        for r in curve
    ]


CURVE_HEADER = ["epoch", "split", "loss", "ndcg", "r2_ws", "r2_flops", "r2_params", "lr"]


def _model_config_from_args(args, meta: space_mod.SpaceMeta, n_cells: int, seed: int) -> nn.ModelConfig:
    return nn.ModelConfig(
        vocab_size=len(meta.vocab),
        hparam_dim=meta.hparam_dim,
        n_cells=n_cells,
        conv_channels=tuple([args.hidden] * args.layers),
        sortpool_nodes=args.sortpool,
        conv1d_channels=args.conv1d,
        hparam_proj=args.hparam_proj,
        head_hidden=args.head_hidden,
        dropout=args.dropout,
        seed=seed,
    )


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
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
    cfg = space_mod.SynthConfig(
        size=args.size,
        node_range=(args.nodes_min, args.nodes_max),
        vocab_size=args.vocab_size,
        hparam_dim=args.hparam_dim,
        n_cells=args.cells,
        seed=args.seed,
        name=args.name,
    )
    run_cfg = _run_config(args, out)

    generated = space_mod.generate_synthetic_space(cfg)
    calibrated = space_mod.calibrate_weak_labels(generated, target_tau=args.tau, seed=args.seed)
    space_mod.save_space(calibrated, out / "space.jsonl")

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
    out = _prepare_out_dir(args.out)
    bench = _load_space(args.space)
    run_cfg = _run_config(args, out)

    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0x7EE7]))
    take = min(args.sample, len(bench))
    chosen = sorted(rng.choice(len(bench), size=take, replace=False).tolist())
    ids = [bench.ids[i] for i in chosen]
    records = ltr.weak_view(bench, ids)

    n_cells = len(next(iter(bench.records.values())).arch.cells)
    model_cfg = _model_config_from_args(args, bench.meta, n_cells, seed=args.seed)
    model = nn.build_model(model_cfg)
    tcfg = ltr.TrainConfig.pretrain_defaults(
        batch_size=args.batch_size,
        epochs=args.epochs,
        lr0=args.lr,
        weight_decay=args.weight_decay,
        seed=args.seed,
    )
    result = ltr.pretrain(model, records, tcfg)

    nn.save_checkpoint(result.model, out / "checkpoint.json")
    _write_csv(out / "curves.csv", CURVE_HEADER, _curve_rows(result.curve))
    _write_json(out / "run_config.json", run_cfg)
    report = {
        "config_hash": _config_hash(run_cfg),
        "sample": take,
        "r2_ws": None if np.isnan(result.r2["ws"]) else result.r2["ws"],
        "r2_flops": None if np.isnan(result.r2["flops"]) else result.r2["flops"],
        "r2_params": None if np.isnan(result.r2["params"]) else result.r2["params"],
    }
    _write_json(out / "pretrain_report.json", report)
    print(
        "pretrain: r2 ws={r2_ws} flops={r2_flops} params={r2_params}".format(
            **{k: ("n/a" if v is None else f"{v:.4f}") if k.startswith("r2") else v for k, v in report.items()}
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _best_so_far_curve(trace: search.SearchTrace, bench: space_mod.SearchSpace) -> list[list]:
    rows = []
    best_id = None
    best_val = -np.inf
    by_round: dict[int, list[search.TraceEntry]] = {}
    for e in trace.entries:
        by_round.setdefault(e.round, []).append(e)
    budget = 0
    for rnd in sorted(by_round):
        entries = by_round[rnd]
        budget += len(entries)
        for e in entries:
            if e.val_acc > best_val or (e.val_acc == best_val and (best_id is None or e.arch_id < best_id)):
                best_val = e.val_acc
                best_id = e.arch_id
        rows.append([rnd, budget, best_val, bench.records[best_id].test_acc])
    return rows


def cmd_search(args) -> int:
    _require(args, "seed", "out", "space")
    out = _prepare_out_dir(args.out)
    bench = _load_space(args.space)
    if args.budget % args.rounds != 0:
        raise CliConfigError(f"budget {args.budget} is not divisible by rounds {args.rounds}")
    per_round = args.budget // args.rounds
    scfg = search.SearchConfig(
        per_round=per_round,
        rounds=args.rounds,
        exploit_fraction=args.alpha,
        top_k=args.topk,
        seed=args.seed,
    )
    baseline = args.baseline or "full"
    if baseline not in ("full", "vanilla-mse", "ranknet", "ws-greedy", "random"):
        raise CliConfigError(f"unknown baseline {baseline!r}")
    needs_budget = args.budget if baseline == "ws-greedy" else scfg.budget
    if needs_budget > len(bench):
        raise CliConfigError(f"budget {needs_budget} exceeds space size {len(bench)}")
    run_cfg = _run_config(args, out, baseline=baseline, no_pretrain=bool(args.no_pretrain))

    final_model = None
    if baseline == "ws-greedy":
        selected = search.ws_greedy_baseline(bench, args.budget)
        trace = search.SearchTrace(config=scfg)
        for rec in selected:
            trace.entries.append(
                search.TraceEntry(round=1, arch_id=rec.arch.id, origin="ws-greedy", val_acc=rec.val_acc)
            )
    elif baseline == "random":
        _, trace = search.iterative_search(search.SearchView(bench), None, scfg)
    else:
        loss = {"full": "lambdarank", "vanilla-mse": "mse", "ranknet": "ranknet"}[baseline]
        fresh = args.no_pretrain or baseline == "vanilla-mse"
        if fresh:
            n_cells = len(next(iter(bench.records.values())).arch.cells)
            model = nn.build_model(_model_config_from_args(args, bench.meta, n_cells, seed=args.seed))
        else:
            if not args.checkpoint:
                raise CliConfigError("--checkpoint is required (or pass --no-pretrain)")
            if not Path(args.checkpoint).is_file():
                raise CliIoError(f"checkpoint {args.checkpoint} does not exist")
            model = nn.load_checkpoint(args.checkpoint)
            if model.config.vocab_size != len(bench.meta.vocab) or model.config.hparam_dim != bench.meta.hparam_dim:
                raise CliConfigError("checkpoint was trained for a different space shape")
        tcfg = ltr.TrainConfig(
            batch_size=args.batch_size,
            epochs=args.epochs,
            lr0=args.lr,
            weight_decay=args.weight_decay,
            early_stop_patience=args.patience if args.patience > 0 else None,
            sigma=args.sigma,
            seed=args.seed,
        )
        view = search.SearchView(bench)
        probe = search.make_probe(bench, args.probe_size, seed=args.seed) if args.probe_size > 0 else None
        final_model, trace = search.iterative_search(view, model, scfg, tcfg, loss=loss, probe=probe)

    arch, test_acc = search.finalize(trace, bench)
    summary = _summarize(trace, bench, run_cfg, baseline)
    _write_json(out / "run_config.json", run_cfg)
    _write_json(out / "summary.json", summary)
    with (out / "trace.jsonl").open("w", encoding="utf-8") as fh:
        for e in trace.entries:
            fh.write(json.dumps(asdict(e), sort_keys=True) + "\n")
    _write_csv(
        out / "round_metrics.csv",
        ["round", "ndcg", "tau", "best_val_so_far"],
        [[m.round, m.ndcg, m.tau, m.best_val_so_far] for m in trace.round_metrics],
    )
    _write_csv(
        out / "budget_curve.csv",
        ["round", "budget", "best_val_so_far", "test_acc_of_best_val"],
        _best_so_far_curve(trace, bench),
    )
    if final_model is not None:
        nn.save_checkpoint(final_model, out / "final_model.json")
    print(f"search[{baseline}]: chose {arch.id} with test accuracy {test_acc:.3f}")
    return EXIT_OK


def _summarize(trace: search.SearchTrace, bench: space_mod.SearchSpace, run_cfg: dict, baseline: str) -> dict:
    best_val_space = max(r.val_acc for r in bench.records.values())
    chosen = bench.records[trace.chosen_id]
    top = [bench.records[rid] for rid in trace.final_top_k]
    iterative = [e for e in trace.entries if e.origin != "topk"]
    best_val_iter = max(e.val_acc for e in iterative)
    best_val_all = max(e.val_acc for e in trace.entries)
    last = trace.round_metrics[-1] if trace.round_metrics else None
    return {
        "config_hash": _config_hash(run_cfg),
        "baseline": baseline,
        "seed": run_cfg["seed"],
        "chosen_id": trace.chosen_id,
        "final_test_acc": chosen.test_acc,
        "chosen_test_regret": metrics.top_k_regret([chosen], bench, 1),
        "topk_best_test_acc": max(r.test_acc for r in top) if top else None,
        "topk_test_regret": metrics.top_k_regret(top, bench, len(top)) if top else None,
        "val_regret_iterative": best_val_space - best_val_iter,
        "val_regret_final": best_val_space - best_val_all,
        "final_ndcg": None if last is None else last.ndcg,
        "final_tau": None if last is None else last.tau,
        "final_top_k": list(trace.final_top_k),
        "n_sampled": len(trace.entries),
        "rounds": [
            {"round": m.round, "ndcg": m.ndcg, "tau": m.tau, "best_val_so_far": m.best_val_so_far}
            for m in trace.round_metrics
        ],
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    _require(args, "out")
    out = _prepare_out_dir(args.out)
    summaries = []
    for run_dir in args.runs:
        path = Path(run_dir) / "summary.json"
        if not path.is_file():
            raise CliIoError(f"run directory {run_dir} has no summary.json")
        try:
            summaries.append(json.loads(path.read_text(encoding="utf-8")))
        except json.JSONDecodeError as e:
            raise CliIoError(f"{path}: malformed summary ({e.msg})") from e
    if not summaries:
        raise CliConfigError("no run directories given")

    groups: dict[str, list[dict]] = {}
    for s in summaries:
        groups.setdefault(s["config_hash"], []).append(s)

    def agg(rows: list[dict], key: str) -> tuple[float | None, float | None]:
        vals = [r[key] for r in rows if r.get(key) is not None]
        if not vals:
            return None, None
        v = np.array(vals, dtype=np.float64)
        return float(v.mean()), float(v.std())

    header = [
        "config_hash", "baseline", "n_runs",
        "mean_final_test_acc", "std_final_test_acc",
        "mean_topk_test_regret", "std_topk_test_regret",
        "mean_val_regret_iterative", "std_val_regret_iterative",
        "mean_final_ndcg", "mean_final_tau",
    ]
    rows = []
    for chash in sorted(groups):
        runs = groups[chash]
        m_acc, s_acc = agg(runs, "final_test_acc")
        m_reg, s_reg = agg(runs, "topk_test_regret")
        m_vr, s_vr = agg(runs, "val_regret_iterative")
        m_ndcg, _ = agg(runs, "final_ndcg")
        m_tau, _ = agg(runs, "final_tau")
        rows.append([chash, runs[0]["baseline"], len(runs), m_acc, s_acc, m_reg, s_reg, m_vr, s_vr, m_ndcg, m_tau])
    _write_csv(out / "aggregate.csv", header, rows)

    if len(summaries) >= 10:
        paired = [
            s for s in summaries
            if s.get("topk_best_test_acc") is not None
            and s.get("final_ndcg") is not None
            and s.get("final_tau") is not None
        ]
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
    p.add_argument("--checkpoint", default=None, help="pretrained model checkpoint")
    p.add_argument("--no-pretrain", action="store_true", help="start from a fresh model")
    p.add_argument("--budget", type=int, default=100, help="iterative samples (split into rounds)")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--alpha", type=float, default=0.5, help="exploit fraction per round")
    p.add_argument("--topk", type=int, default=10)
    p.add_argument("--baseline", default=None, choices=["vanilla-mse", "ranknet", "ws-greedy", "random"])
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--batch-size", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--weight-decay", type=float, default=0.0005)
    p.add_argument("--patience", type=int, default=50, help="early stop patience; 0 disables")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--probe-size", type=int, default=512, help="measurement probe size; 0 disables")
    _add_model_flags(p)
    p.set_defaults(func=cmd_search)
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
    sub = registry[args.command]
    known = {a.dest for a in sub._actions} - {"help"}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise CliConfigError(f"{path}: unknown config keys {unknown}")
    sub.set_defaults(**overrides)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, registry = build_parser()
    try:
        args = _apply_config_file(parser, registry, argv)
        return args.func(args)
    except CliConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CliIoError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except Exception as e:  # noqa: BLE001 - boundary: map anything else to a runtime exit code
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
