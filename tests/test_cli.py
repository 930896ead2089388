"""CLI tests: artifacts, determinism, exit codes, config precedence."""

import csv
import json

import pytest

from ltrnas import cli
from ltrnas.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main

SMALL_MODEL = [
    "--hidden", "16", "--layers", "2", "--sortpool", "8",
    "--conv1d", "6", "--hparam-proj", "4", "--head-hidden", "16",
]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def space_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run("synth", "--out", out, "--seed", "3", "--size", "80", "--tau", "0.8")
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def pretrain_dir(tmp_path_factory, space_dir):
    out = tmp_path_factory.mktemp("pretrain")
    code = run(
        "pretrain", "--out", out, "--seed", "4", "--space", space_dir / "space.jsonl",
        "--sample", "60", "--epochs", "3", *SMALL_MODEL,
    )
    assert code == EXIT_OK
    return out


def search_args(space_dir, pretrain_dir, out, seed=5, **extra):
    argv = [
        "search", "--out", out, "--seed", seed, "--space", space_dir / "space.jsonl",
        "--checkpoint", pretrain_dir / "checkpoint.json",
        "--budget", "20", "--rounds", "2", "--topk", "3",
        "--epochs", "4", "--patience", "0", "--probe-size", "30", *SMALL_MODEL,
    ]
    for flag, value in extra.items():
        argv += [f"--{flag}", value] if value is not None else [f"--{flag}"]
    return argv


class TestSynth:
    def test_artifacts(self, space_dir):
        for name in ("space.jsonl", "synth_report.json", "acc_histogram.csv", "run_config.json"):
            assert (space_dir / name).is_file()
        report = json.loads((space_dir / "synth_report.json").read_text())
        assert abs(report["measured_tau"] - 0.8) <= 0.05
        assert report["size"] == 80

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--out", out, "--seed", "11", "--size", "40") == EXIT_OK
        assert (a / "space.jsonl").read_bytes() == (b / "space.jsonl").read_bytes()
        assert (a / "synth_report.json").read_bytes() == (b / "synth_report.json").read_bytes()

    def test_missing_out_dir_is_io_error(self, tmp_path, capsys):
        missing = tmp_path / "not" / "created" / "here"
        assert run("synth", "--out", missing, "--seed", "1", "--size", "10") == EXIT_IO
        assert str(missing) in capsys.readouterr().err

    def test_tau_one_reports_exactly_one(self, tmp_path):
        out = tmp_path / "perfect"
        assert run("synth", "--out", out, "--seed", "5", "--size", "40", "--tau", "1.0") == EXIT_OK
        report = json.loads((out / "synth_report.json").read_text())
        assert report["measured_tau"] == 1.0

    def test_missing_seed_is_config_error(self, tmp_path):
        assert run("synth", "--out", tmp_path, "--size", "10") == EXIT_CONFIG

    def test_degenerate_config(self, tmp_path):
        assert run("synth", "--out", tmp_path, "--seed", "1", "--size", "1") == EXIT_CONFIG


class TestPretrain:
    def test_artifacts(self, pretrain_dir):
        for name in ("checkpoint.json", "curves.csv", "pretrain_report.json", "run_config.json"):
            assert (pretrain_dir / name).is_file()
        with (pretrain_dir / "curves.csv").open() as fh:
            header = next(csv.reader(fh))
        assert header == ["epoch", "split", "loss", "ndcg", "r2_ws", "r2_flops", "r2_params", "lr"]

    def test_deterministic_checkpoints(self, tmp_path, space_dir):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run("pretrain", "--out", out, "--seed", "9", "--space", space_dir / "space.jsonl",
                       "--sample", "40", "--epochs", "2", *SMALL_MODEL)
            assert code == EXIT_OK
        assert (a / "checkpoint.json").read_bytes() == (b / "checkpoint.json").read_bytes()

    def test_space_without_weak_labels_fails(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        # tau 0 still fills ws, so build a space file missing ws by hand
        assert run("synth", "--out", plain, "--seed", "2", "--size", "30") == EXIT_OK
        lines = (plain / "space.jsonl").read_text().splitlines()
        stripped = [lines[0]]
        for line in lines[1:]:
            obj = json.loads(line)
            obj.pop("ws_acc", None)
            stripped.append(json.dumps(obj))
        bare = tmp_path / "bare.jsonl"
        bare.write_text("\n".join(stripped) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        assert run("pretrain", "--out", out, "--seed", "1", "--space", bare, "--epochs", "1", *SMALL_MODEL) == EXIT_CONFIG


class TestSearch:
    def test_artifacts_and_budget(self, tmp_path, space_dir, pretrain_dir):
        out = tmp_path / "run"
        assert run(*search_args(space_dir, pretrain_dir, out)) == EXIT_OK
        trace = [json.loads(l) for l in (out / "trace.jsonl").read_text().splitlines()]
        ids = [t["id"] if "id" in t else t["arch_id"] for t in trace]
        assert len(ids) == 20 + 3
        assert len(set(ids)) == 23
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_sampled"] == 23
        assert summary["baseline"] == "full"
        assert (out / "round_metrics.csv").is_file()
        assert (out / "budget_curve.csv").is_file()
        assert (out / "final_model.json").is_file()

    @pytest.mark.parametrize("baseline", ["full", "random", "ws-greedy"])
    def test_identical_invocations_identical_bytes(self, tmp_path, space_dir, pretrain_dir, baseline):
        extra = {} if baseline == "full" else {"baseline": baseline}
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(*search_args(space_dir, pretrain_dir, out, seed=6, **extra)) == EXIT_OK
        for name in ("trace.jsonl", "round_metrics.csv", "budget_curve.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        assert sa == sb

    def test_random_baseline_origins(self, tmp_path, space_dir, pretrain_dir):
        out = tmp_path / "rand"
        argv = search_args(space_dir, pretrain_dir, out, seed=7)
        argv += ["--baseline", "random"]
        assert run(*argv) == EXIT_OK
        trace = [json.loads(l) for l in (out / "trace.jsonl").read_text().splitlines()]
        assert {t["origin"] for t in trace} <= {"random", "topk"}

    def test_ws_greedy_baseline(self, tmp_path, space_dir, pretrain_dir):
        out = tmp_path / "greedy"
        argv = search_args(space_dir, pretrain_dir, out, seed=8)
        argv += ["--baseline", "ws-greedy"]
        assert run(*argv) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["baseline"] == "ws-greedy"
        assert summary["topk_best_test_acc"] is None

    def test_no_pretrain_needs_no_checkpoint(self, tmp_path, space_dir):
        out = tmp_path / "fresh"
        argv = [
            "search", "--out", out, "--seed", "5", "--space", space_dir / "space.jsonl",
            "--no-pretrain", "--budget", "10", "--rounds", "2", "--topk", "2",
            "--epochs", "2", "--patience", "0", "--probe-size", "0", *SMALL_MODEL,
        ]
        assert run(*argv) == EXIT_OK

    def test_checkpoint_required_without_flag(self, tmp_path, space_dir):
        out = tmp_path / "nockpt"
        argv = [
            "search", "--out", out, "--seed", "5", "--space", space_dir / "space.jsonl",
            "--budget", "10", "--rounds", "2", "--topk", "2", "--epochs", "2", *SMALL_MODEL,
        ]
        assert run(*argv) == EXIT_CONFIG

    def test_budget_exceeding_space(self, tmp_path, space_dir, pretrain_dir):
        out = tmp_path / "big"
        argv = search_args(space_dir, pretrain_dir, out)
        argv[argv.index("--budget") + 1] = "200"
        assert run(*argv) == EXIT_CONFIG

    def test_indivisible_budget(self, tmp_path, space_dir, pretrain_dir):
        out = tmp_path / "odd"
        argv = search_args(space_dir, pretrain_dir, out)
        argv[argv.index("--budget") + 1] = "21"
        assert run(*argv) == EXIT_CONFIG


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory, space_dir, pretrain_dir):
    runs = []
    for seed in (21, 22):
        out = tmp_path_factory.mktemp(f"run{seed}")
        assert run(*search_args(space_dir, pretrain_dir, out, seed=seed)) == EXIT_OK
        runs.append(out)
    return runs


class TestRunConfig:
    @pytest.mark.parametrize("command", ["synth", "pretrain", "search"])
    def test_keys_are_the_parsed_flags(self, command, space_dir, pretrain_dir, two_runs):
        run_dir = {"synth": space_dir, "pretrain": pretrain_dir, "search": two_runs[0]}[command]
        _, registry = cli.build_parser()
        dests = {a.dest for a in registry[command]._actions} - {"config", "help"}
        run_cfg = json.loads((run_dir / "run_config.json").read_text())
        assert set(run_cfg) == dests | {"command"}
        assert run_cfg["command"] == command


class TestReport:
    def test_single_run_std_zero(self, tmp_path, two_runs):
        out = tmp_path / "rep1"
        assert run("report", two_runs[0], "--out", out) == EXIT_OK
        with (out / "aggregate.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["std_final_test_acc"]) == 0.0
        assert int(rows[0]["n_runs"]) == 1

    def test_same_config_grouped(self, tmp_path, two_runs):
        out = tmp_path / "rep2"
        assert run("report", *two_runs, "--out", out) == EXIT_OK
        with (out / "aggregate.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert int(rows[0]["n_runs"]) == 2
        assert not (out / "correlation.csv").exists()  # fewer than 10 runs

    def test_mixed_configs_make_separate_rows(self, tmp_path, space_dir, pretrain_dir, two_runs):
        other = tmp_path / "other"
        argv = search_args(space_dir, pretrain_dir, other, seed=23)
        argv[argv.index("--topk") + 1] = "2"
        assert run(*argv) == EXIT_OK
        out = tmp_path / "rep3"
        assert run("report", *two_runs, other, "--out", out) == EXIT_OK
        with (out / "aggregate.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

    def test_malformed_run_dir(self, tmp_path):
        bogus = tmp_path / "bogus"
        bogus.mkdir()
        out = tmp_path / "rep4"
        assert run("report", bogus, "--out", out) == EXIT_IO

    def test_correlation_block_at_ten_runs(self, tmp_path):
        # the block appears only once ten runs with metrics are pooled
        rng_vals = [(0.6 + 0.03 * i, 0.3 + 0.02 * i, 90.0 + 0.1 * i) for i in range(10)]
        dirs = []
        for i, (ndcg, tau, acc) in enumerate(rng_vals):
            d = tmp_path / f"fake{i}"
            d.mkdir()
            (d / "summary.json").write_text(json.dumps({
                "config_hash": "cafe00000000", "baseline": "full", "seed": i,
                "final_test_acc": acc, "chosen_test_regret": 0.1,
                "topk_best_test_acc": acc, "topk_test_regret": 0.1,
                "val_regret_iterative": 0.2, "val_regret_final": 0.1,
                "final_ndcg": ndcg, "final_tau": tau,
            }))
            dirs.append(d)
        out = tmp_path / "rep10"
        assert run("report", *dirs, "--out", out) == EXIT_OK
        with (out / "correlation.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        metrics_seen = {r["metric"] for r in rows}
        assert metrics_seen == {"final_ndcg", "final_tau"}
        for r in rows:
            assert abs(float(r["pearson_vs_topk_best_test_acc"]) - 1.0) < 1e-9


class TestConfigFile:
    def test_flags_override_config_over_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"size": 30, "tau": 0.9}))
        out = tmp_path / "out"
        assert run("synth", "--out", out, "--seed", "1", "--config", cfg, "--tau", "0.7") == EXIT_OK
        run_cfg = json.loads((out / "run_config.json").read_text())
        assert run_cfg["size"] == 30      # from config file
        assert run_cfg["tau"] == 0.7      # flag wins
        assert run_cfg["nodes_min"] == 5  # default preserved

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sizes": 30}))
        assert run("synth", "--out", tmp_path, "--seed", "1", "--config", cfg) == EXIT_CONFIG

    def test_help_is_not_a_config_key(self, tmp_path):
        # every accepted key lands in run_config.json; argparse's help is not a setting
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"help": True}))
        assert run("synth", "--out", tmp_path, "--seed", "1", "--config", cfg) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert run("synth", "--out", tmp_path, "--seed", "1", "--config", tmp_path / "nope.json") == EXIT_IO
