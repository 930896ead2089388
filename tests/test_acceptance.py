"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. The end-to-end experiment (criteria 6-8) builds a
5000-architecture synthetic space with weak labels calibrated to tau 0.6,
pretrains once, and runs four search methods over 20 seeds each.
"""

import itertools
import json
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from ltrnas import cli, ltr, metrics, nn, search, space

# ---------------------------------------------------------------------------
# reporting helper
# ---------------------------------------------------------------------------

def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# criteria 1-5: metric and gradient oracles
# ---------------------------------------------------------------------------

def _ndcg_in_order(rels):
    n = len(rels)
    return metrics.ndcg([float(n - i) for i in range(n)], rels, [f"a{i:02d}" for i in range(n)])


def test_criterion_01_ndcg_oracle_equivalence():
    rng = np.random.default_rng(20260811)
    start = time.monotonic()
    worst = 0.0
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", metrics.DegenerateRelevanceWarning)
        for _ in range(200):
            length = int(rng.integers(2, 8))
            rels = rng.integers(0, 5, size=length).astype(float)
            orderings = list(itertools.permutations(rels))
            ideal = max(metrics.dcg(perm) for perm in orderings)
            for perm in orderings:
                brute = metrics.dcg(perm) / ideal if ideal > 0 else 1.0
                worst = max(worst, abs(_ndcg_in_order(perm) - brute))
                checked += 1
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1e-9 and elapsed < 60.0,
        f"ndcg vs enumeration oracle on {checked} orderings: max err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_dcg_hand_values():
    d = metrics.dcg([3, 1, 2])
    n = _ndcg_in_order([3, 1, 2])
    ok = abs(d - 9.13093) <= 1e-5 and abs(n - 0.97212) <= 1e-5
    report(2, ok, f"dcg([3,1,2])={d:.6f} (want 9.13093), ndcg={n:.6f} (want 0.97212)")


FD_CONFIGS = [
    nn.ModelConfig(vocab_size=4, hparam_dim=2, conv_channels=(5, 4), sortpool_nodes=3,
                   conv1d_channels=3, hparam_proj=3, head_hidden=4, dropout=0.1, seed=101),
    nn.ModelConfig(vocab_size=4, hparam_dim=0, conv_channels=(4, 4, 4), sortpool_nodes=6,
                   conv1d_channels=2, hparam_proj=1, head_hidden=3, dropout=0.2, seed=202),
    nn.ModelConfig(vocab_size=4, hparam_dim=1, conv_channels=(6,), sortpool_nodes=4,
                   conv1d_channels=4, hparam_proj=2, head_hidden=5, dropout=0.0, seed=303),
    nn.ModelConfig(vocab_size=4, hparam_dim=2, conv_channels=(3, 5), sortpool_nodes=8,
                   conv1d_channels=3, hparam_proj=2, head_hidden=4, dropout=0.15, seed=404),
    nn.ModelConfig(vocab_size=4, hparam_dim=3, conv_channels=(4, 3), sortpool_nodes=2,
                   conv1d_channels=2, hparam_proj=4, head_hidden=6, dropout=0.1, seed=505),
]


def test_criterion_03_gradient_integrity():
    start = time.monotonic()
    h = 1e-5
    worst = 0.0
    total_params = 0
    for cfg in FD_CONFIGS:
        scfg = space.SynthConfig(size=6, node_range=(3, 6), vocab_size=4,
                                 hparam_dim=cfg.hparam_dim, seed=cfg.seed)
        sp = space.generate_synthetic_space(scfg)
        batch = nn.pack([space.encode_architecture(r.arch, sp.meta.vocab) for r in list(sp.records.values())[:3]])
        model = nn.build_model(cfg)
        total_params += sum(v.size for v in model.store.params.values())
        rng = np.random.default_rng(cfg.seed + 7)
        ups = {head: rng.standard_normal(len(batch)) for head in nn.HEADS}

        def objective():
            scores, _ = nn.forward_heads(model, batch, nn.HEADS, train_mode=True, dropout_seed=13)
            return sum(float(ups[head] @ scores[head]) for head in nn.HEADS)

        _, ctx = nn.forward_heads(model, batch, nn.HEADS, train_mode=True, dropout_seed=13)
        nn.backward(model, ups, ctx)
        for name in model.store.names():
            param = model.store.params[name]
            grad = model.store.grads[name]
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = param[idx]
                param[idx] = keep + h
                up = objective()
                param[idx] = keep - h
                down = objective()
                param[idx] = keep
                fd = (up - down) / (2 * h)
                rel = abs(grad[idx] - fd) / max(abs(grad[idx]), abs(fd), 1e-6)
                worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(
        3,
        worst < 1e-4 and elapsed < 120.0,
        f"finite differences over {len(FD_CONFIGS)} models / {total_params} params, "
        f"all heads: max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_lambdarank_factorization():
    rng = np.random.default_rng(4)
    sigma = 1.0
    worst_factor = 0.0
    worst_brute = 0.0
    for trial in range(1000):
        n = 20
        scores = rng.standard_normal(n)
        if trial % 2 == 0:
            rels = rng.integers(0, 5, size=n).astype(float)
        else:
            rels = rng.uniform(0.0, 4.0, size=n)
        ids = [f"i{k:02d}" for k in range(n)]
        got = ltr.lambdarank_lambdas(scores, rels, sigma, ids=ids)

        order = sorted(range(n), key=lambda i: (-scores[i], ids[i]))
        pos = np.empty(n, dtype=int)
        pos[order] = np.arange(n)
        ranked_rels = np.asarray([rels[i] for i in order])
        idcg = metrics.dcg(np.sort(ranked_rels)[::-1])

        # (a) per-pair product of the two public factors
        factored = np.zeros(n)
        # (b) loop all pairs recomputing NDCG per swap from scratch
        brute = np.zeros(n)
        base = metrics.dcg(ranked_rels) / idcg if idcg > 0 else 1.0
        for i in range(n):
            for j in range(n):
                if rels[i] > rels[j]:
                    rn = -sigma / (1.0 + np.exp(sigma * (scores[i] - scores[j])))
                    delta = metrics.delta_ndcg(ranked_rels, int(pos[i]), int(pos[j]))
                    factored[i] += rn * delta
                    factored[j] -= rn * delta
                    swapped = ranked_rels.copy()
                    swapped[pos[i]], swapped[pos[j]] = swapped[pos[j]], swapped[pos[i]]
                    full = abs(metrics.dcg(swapped) / idcg - base) if idcg > 0 else 0.0
                    brute[i] += rn * full
                    brute[j] -= rn * full
        worst_factor = max(worst_factor, float(np.max(np.abs(got - factored))))
        worst_brute = max(worst_brute, float(np.max(np.abs(got - brute))))
    report(
        4,
        worst_factor <= 1e-12 and worst_brute <= 1e-9,
        f"1000 lists of 20: factorization err {worst_factor:.2e} (<=1e-12), "
        f"brute-force recompute err {worst_brute:.2e} (<=1e-9)",
    )


def test_criterion_05_relevance_map_conformance():
    m = metrics.fit_relevance_map([0, 25, 50, 75, 100], q=0.2)
    ok = (
        abs(m.lower - 20.0) < 1e-12
        and abs(m.upper - 100.0) < 1e-12
        and m.max_rel == 20.0
        and abs(metrics.map_relevance(m, 60) - 10.0) < 1e-12
        and metrics.map_relevance(m, 20) == 0.0
        and metrics.map_relevance(m, 5) == 0.0
        and abs(metrics.map_relevance(m, 100) - 20.0) < 1e-12
    )
    report(5, ok, f"fit -> (lower {m.lower}, upper {m.upper}, U {m.max_rel}); map(60)={metrics.map_relevance(m, 60)}")


# ---------------------------------------------------------------------------
# criteria 6-8: end-to-end directional reproduction
# ---------------------------------------------------------------------------

ACC_SEEDS = list(range(1000, 1020))
METHODS = ("full", "vanilla-mse", "ranknet", "no-pretrain")


@pytest.fixture(scope="module")
def experiment():
    start = time.monotonic()
    scfg = space.SynthConfig(size=5000, node_range=(5, 11), vocab_size=9, hparam_dim=2,
                             seed=101, name="acceptance")
    sp = space.calibrate_weak_labels(space.generate_synthetic_space(scfg), 0.6, seed=7)
    vals = np.array([r.val_acc for r in sp.records.values()])
    tests = np.array([r.test_acc for r in sp.records.values()])
    ws = np.array([r.ws_acc for r in sp.records.values()])
    measured_tau = metrics.kendall_tau(ws, vals)

    model_cfg = nn.ModelConfig(
        vocab_size=len(sp.meta.vocab), hparam_dim=sp.meta.hparam_dim,
        conv_channels=(64, 64, 64, 64), sortpool_nodes=12, conv1d_channels=16,
        hparam_proj=8, head_hidden=64, dropout=0.1, seed=300,
    )
    rng = np.random.default_rng(55)
    pre_ids = [sp.ids[i] for i in sorted(rng.choice(len(sp), 4000, replace=False))]
    pre = ltr.pretrain(
        nn.build_model(model_cfg),
        *ltr.weak_view(sp, pre_ids),
        ltr.TrainConfig(epochs=40, lr0=0.005, weight_decay=1e-5, seed=55),
    )

    best_test = tests.max()
    best_val = vals.max()
    runs = {m: [] for m in METHODS}
    for method in METHODS:
        # no-pretrain is the full method started from a fresh model
        spec = search.METHODS["full" if method == "no-pretrain" else method]
        for seed in ACC_SEEDS:
            search_cfg = search.SearchConfig(per_round=20, rounds=5, exploit_fraction=0.5,
                                             top_k=10, seed=seed)
            train_cfg = ltr.TrainConfig(epochs=60, early_stop_patience=15, seed=seed)
            _, trace = search.run_method(
                spec, sp, cfg=search_cfg, pretrained=None if method == "no-pretrain" else pre.model,
                fresh=nn.ModelConfig(**{**model_cfg.__dict__, "seed": seed}), train_cfg=train_cfg, probe_size=512,
            )
            topk_best = max(sp.records[rid].test_acc for rid in trace.final_top_k)
            last = trace.round_metrics[-1]
            runs[method].append({
                "topk_test_regret": best_test - topk_best,
                "topk_best_test": topk_best,
                "val_regret_iterative": best_val - max(
                    e.val_acc for e in trace.entries if e.origin != "topk"
                ),
                "ndcg": last.ndcg,
                "tau": last.tau,
            })

    greedy = search.ws_greedy_baseline(sp, 100)
    greedy_val_regret = best_val - max(e.val_acc for e in greedy.entries)
    return {
        "runs": runs,
        "measured_tau": measured_tau,
        "greedy_val_regret": greedy_val_regret,
        "pretrain_r2": pre.r2,
        "elapsed": time.monotonic() - start,
    }


def test_criterion_06_directional_reproduction(experiment):
    ok_tau = abs(experiment["measured_tau"] - 0.60) <= 0.05
    medians = {
        m: float(np.median([r["topk_test_regret"] for r in experiment["runs"][m]]))
        for m in METHODS
    }
    ok_order = all(medians["full"] <= medians[m] for m in ("vanilla-mse", "ranknet", "no-pretrain"))
    ok_time = experiment["elapsed"] < 1800.0
    detail = (
        f"tau={experiment['measured_tau']:.3f}, median top-10 test regret "
        f"full={medians['full']:.3f} vanilla-mse={medians['vanilla-mse']:.3f} "
        f"ranknet={medians['ranknet']:.3f} no-pretrain={medians['no-pretrain']:.3f}, "
        f"{experiment['elapsed']:.0f}s (< 1800s)"
    )
    report(6, ok_tau and ok_order and ok_time, detail)


def test_criterion_07_metric_quality(experiment):
    pool = [r for m in METHODS for r in experiment["runs"][m]
            if r["ndcg"] is not None and r["tau"] is not None]
    acc = [r["topk_best_test"] for r in pool]
    p_ndcg = metrics.pearson([r["ndcg"] for r in pool], acc)
    p_tau = metrics.pearson([r["tau"] for r in pool], acc)
    report(
        7,
        p_ndcg > p_tau,
        f"pooled over {len(pool)} runs: pearson(ndcg, top-10 best acc)={p_ndcg:.3f} "
        f"> pearson(tau, top-10 best acc)={p_tau:.3f}",
    )


def test_criterion_08_ws_greedy_comparison(experiment):
    full_median = float(np.median([r["val_regret_iterative"] for r in experiment["runs"]["full"]]))
    greedy = experiment["greedy_val_regret"]
    report(
        8,
        full_median < greedy,
        f"median top-1 val regret at budget 100: full={full_median:.3f} < ws-greedy={greedy:.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 9: CLI determinism
# ---------------------------------------------------------------------------

SMALL_MODEL_FLAGS = [
    "--hidden", "16", "--layers", "2", "--sortpool", "8",
    "--conv1d", "6", "--hparam-proj", "4", "--head-hidden", "16",
]


def test_criterion_09_cli_determinism(tmp_path):
    def synth(out):
        code = cli.main(["synth", "--out", str(out), "--seed", "12", "--size", "300", "--tau", "0.7"])
        assert code == 0
        return (out / "space.jsonl").read_bytes()

    s1 = synth(tmp_path / "s1")
    s2 = synth(tmp_path / "s2")

    def pretrain(out):
        code = cli.main([
            "pretrain", "--out", str(out), "--seed", "13", "--space", str(tmp_path / "s1" / "space.jsonl"),
            "--sample", "80", "--epochs", "3", *SMALL_MODEL_FLAGS,
        ])
        assert code == 0
        return (out / "checkpoint.json").read_bytes()

    p1 = pretrain(tmp_path / "p1")
    p2 = pretrain(tmp_path / "p2")

    def run_search(out):
        code = cli.main([
            "search", "--out", str(out), "--seed", "14", "--space", str(tmp_path / "s1" / "space.jsonl"),
            "--checkpoint", str(tmp_path / "p1" / "checkpoint.json"),
            "--budget", "20", "--rounds", "2", "--topk", "3", "--epochs", "4",
            "--patience", "0", "--probe-size", "40", *SMALL_MODEL_FLAGS,
        ])
        assert code == 0
        return (
            (out / "trace.jsonl").read_bytes(),
            (out / "summary.json").read_bytes(),
        )

    t1 = run_search(tmp_path / "r1")
    t2 = run_search(tmp_path / "r2")
    ok = s1 == s2 and p1 == p2 and t1 == t2
    report(9, ok, "cmd_synth, cmd_pretrain, cmd_search byte-identical across repeated invocations")


# ---------------------------------------------------------------------------
# criterion 10: optional benchmark-file check (skipped without data)
# ---------------------------------------------------------------------------

NB201_PATH = Path(os.environ.get("LTRNAS_NB201_SPACE", "data/nas-bench-201-cifar100.jsonl"))


def test_criterion_10_benchmark_file_optional():
    if not NB201_PATH.is_file():
        print(f"\nCRITERION 10: SKIPPED - no benchmark space file at {NB201_PATH}")
        pytest.skip(f"benchmark space file {NB201_PATH} not present")
    bench = space.load_space(NB201_PATH)
    if any(r.ws_acc is None for r in bench.records.values()):
        bench = space.calibrate_weak_labels(bench, 0.6, seed=7)
    model_cfg = nn.ModelConfig(
        vocab_size=len(bench.meta.vocab), hparam_dim=bench.meta.hparam_dim, n_cells=bench.n_cells,
        conv_channels=(64, 64, 64, 64), sortpool_nodes=12, conv1d_channels=16,
        hparam_proj=8, head_hidden=64, dropout=0.1, seed=300,
    )
    rng = np.random.default_rng(55)
    pre_ids = [bench.ids[i] for i in sorted(rng.choice(len(bench), min(4000, len(bench)), replace=False))]
    pre = ltr.pretrain(
        nn.build_model(model_cfg), *ltr.weak_view(bench, pre_ids),
        ltr.TrainConfig(epochs=40, lr0=0.005, weight_decay=1e-5, seed=55),
    )
    finals = []
    for seed in range(1000, 1010):
        search_cfg = search.SearchConfig(per_round=20, rounds=5, exploit_fraction=0.5, top_k=10, seed=seed)
        train_cfg = ltr.TrainConfig(epochs=60, early_stop_patience=15, seed=seed)
        _, trace = search.run_method(search.METHODS["full"], bench, cfg=search_cfg, pretrained=pre.model,
                                     train_cfg=train_cfg)
        _, test_acc = search.finalize(trace, bench)
        finals.append(test_acc)
    mean_acc = float(np.mean(finals))
    report(10, mean_acc >= 73.0, f"budget 110 over 10 seeds: mean test accuracy {mean_acc:.2f} >= 73.0")
