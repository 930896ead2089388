"""CLI tests: artifacts, determinism, exit codes, config precedence."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ltrnas import cli, ltr, search, space
from ltrnas.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, main

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

    def test_tau_out_of_range_is_config_error(self, tmp_path):
        assert run("synth", "--out", tmp_path, "--seed", "1", "--size", "10", "--tau", "1.5") == EXIT_CONFIG

    @pytest.mark.parametrize("size, tau", [("2", "0.6"), ("3", "0.5")])
    def test_unreachable_tau_on_tiny_space_is_config_error(self, tmp_path, capsys, size, tau):
        assert run("synth", "--out", tmp_path, "--seed", "1", "--size", size, "--tau", tau) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot calibrate weak labels of {size} records to tau {tau}:")
        assert err.count("\n") == 1

    def test_internal_value_error_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        # a ValueError raised inside the pipeline is a bug, not a user's configuration error
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli.space_mod, "calibrate_weak_labels", broken)
        assert run("synth", "--out", tmp_path, "--seed", "1", "--size", "10") == EXIT_RUNTIME
        assert "runtime error: ValueError" in capsys.readouterr().err


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

    def test_too_small_sample_is_config_error(self, tmp_path, space_dir):
        argv = ["pretrain", "--out", tmp_path, "--seed", "1", "--space", space_dir / "space.jsonl", "--sample", "1"]
        assert run(*argv, *SMALL_MODEL) == EXIT_CONFIG

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

    def test_non_finite_hparams_is_config_error(self, tmp_path, space_dir, capsys):
        lines = (space_dir / "space.jsonl").read_text().splitlines()
        obj = json.loads(lines[1])
        obj["hparams"][0] = float("nan")
        bad = tmp_path / "nan.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(obj), *lines[2:]]) + "\n")
        argv = ["pretrain", "--out", tmp_path / "out", "--seed", "1", "--space", bad, "--epochs", "1"]
        assert run(*argv, *SMALL_MODEL) == EXIT_CONFIG
        assert f"{obj['id']}: hparams[0]=nan is not finite" in capsys.readouterr().err

    def test_boolean_accuracy_is_config_error(self, tmp_path, space_dir, capsys):
        lines = (space_dir / "space.jsonl").read_text().splitlines()
        obj = json.loads(lines[2])
        obj["val_acc"] = True
        bad = tmp_path / "bool.jsonl"
        bad.write_text("\n".join([*lines[:2], json.dumps(obj), *lines[3:]]) + "\n")
        argv = ["pretrain", "--out", tmp_path / "out", "--seed", "1", "--space", bad, "--epochs", "1"]
        assert run(*argv, *SMALL_MODEL) == EXIT_CONFIG
        assert ":3: malformed record (val_acc true is not a JSON number)" in capsys.readouterr().err


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

    def test_baseline_full_flag_is_the_default(self, tmp_path, space_dir, pretrain_dir):
        # the value every full run records is one the flag accepts; spelled out,
        # it changes no byte (both runs write into the same path, so even out matches)
        out = tmp_path / "run"
        assert run(*search_args(space_dir, pretrain_dir, out, seed=6)) == EXIT_OK
        out.rename(tmp_path / "default")
        assert run(*search_args(space_dir, pretrain_dir, out, seed=6, baseline="full")) == EXIT_OK
        assert json.loads((out / "run_config.json").read_text())["baseline"] == "full"
        assert json.loads((out / "summary.json").read_text())["config_hash"] == \
            json.loads((tmp_path / "default" / "summary.json").read_text())["config_hash"]
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in (tmp_path / "default").iterdir())
        for path in out.iterdir():
            assert path.read_bytes() == (tmp_path / "default" / path.name).read_bytes(), path.name

    @pytest.mark.parametrize("first, second", [
        (["--baseline", "ws-greedy", "--epochs", "5"], ["--epochs", "6"]),
        (["--baseline", "random", "--lr", "0.005"], ["--lr", "0.01"]),
        (["--baseline", "vanilla-mse"], ["--checkpoint", "pre"]),
        (["--no-pretrain"], ["--checkpoint", "pre"]),
        (["--baseline", "ws-greedy", "--topk", "3"], ["--topk", "4"]),
        (["--baseline", "ws-greedy"], ["--rounds", "3"]),
        (["--baseline", "random", "--alpha", "0.5"], ["--alpha", "0.9"]),
    ], ids=["ws-greedy-epochs", "random-lr", "vanilla-mse-checkpoint", "no-pretrain-checkpoint", "ws-greedy-topk",
            "ws-greedy-rounds", "random-alpha"])
    def test_unread_flag_changes_no_byte(self, tmp_path, space_dir, pretrain_dir, first, second):
        # a flag the method never reads is neither recorded nor hashed: the two runs
        # share config_hash and every byte but the recorded out, and either replays the other
        argv = search_args(space_dir, pretrain_dir, None, seed=6)[3:]
        del argv[argv.index("--checkpoint"):argv.index("--checkpoint") + 2]
        second = [pretrain_dir / "checkpoint.json" if v == "pre" else v for v in second]
        a, b, replay = tmp_path / "a", tmp_path / "b", tmp_path / "replay"
        assert run("search", "--out", a, *argv, *first) == EXIT_OK
        assert run("search", "--out", b, *argv, *first, *second) == EXIT_OK
        assert run("search", "--config", b / "run_config.json", "--out", replay) == EXIT_OK
        assert second[0].lstrip("-").replace("-", "_") not in json.loads((b / "run_config.json").read_text())
        names = sorted(p.name for p in a.iterdir())
        for other in (b, replay):
            assert sorted(p.name for p in other.iterdir()) == names
            for name in names:
                if name == "run_config.json":
                    cfgs = [json.loads((d / name).read_text()) for d in (a, other)]
                    assert [c.pop("out") for c in cfgs] == [str(a), str(other)]
                    assert cfgs[0] == cfgs[1]
                else:
                    assert (other / name).read_bytes() == (a / name).read_bytes(), name

    @pytest.mark.parametrize("flag, value", [("budget", "7"), ("patience", "-1"), ("probe-size", "-5"),
                                             ("rounds", "0"), ("topk", "0"), ("alpha", "2"), ("epochs", "0")])
    def test_ws_greedy_ignores_round_and_finetune_flags(self, tmp_path, space_dir, pretrain_dir, flag, value):
        # ws-greedy reads only the budget: a round or finetune flag it ignores is
        # neither range-checked nor recorded, and its run_config.json replays it
        out, replay = tmp_path / "run", tmp_path / "replay"
        argv = search_args(space_dir, pretrain_dir, out, seed=6, baseline="ws-greedy")
        assert run(*argv, f"--{flag}", value) == EXIT_OK
        assert len((out / "trace.jsonl").read_text().splitlines()) == (7 if flag == "budget" else 20)
        assert run("search", "--config", out / "run_config.json", "--out", replay) == EXIT_OK
        assert (replay / "trace.jsonl").read_bytes() == (out / "trace.jsonl").read_bytes()

    def test_random_baseline_origins(self, tmp_path, space_dir, pretrain_dir):
        out = tmp_path / "rand"
        argv = search_args(space_dir, pretrain_dir, out, seed=7)
        argv += ["--baseline", "random"]
        assert run(*argv) == EXIT_OK
        trace = [json.loads(l) for l in (out / "trace.jsonl").read_text().splitlines()]
        assert {t["origin"] for t in trace} <= {"random", "topk"}

    def test_budget_curve_ties_pick_lowest_id(self, tmp_path):
        # every val_acc equal: each round's best is the lowest id seen so far
        sp = space.generate_synthetic_space(space.SynthConfig(size=60, seed=9))
        flat = {rid: dataclasses.replace(rec, val_acc=50.0) for rid, rec in sp.records.items()}
        space.save_space(space.SearchSpace(meta=sp.meta, records=flat), tmp_path / "flat.jsonl")
        out = tmp_path / "run"
        argv = ["search", "--out", out, "--seed", "5", "--space", tmp_path / "flat.jsonl",
                "--baseline", "random", "--budget", "30", "--rounds", "3", "--topk", "3"]
        assert run(*argv) == EXIT_OK
        trace = [json.loads(l) for l in (out / "trace.jsonl").read_text().splitlines()]
        with (out / "budget_curve.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["round"]) for r in rows] == [1, 2, 3, 4]
        for row in rows:
            seen = [t["arch_id"] for t in trace if t["round"] <= int(row["round"])]
            assert int(row["budget"]) == len(seen)
            assert float(row["best_val_so_far"]) == 50.0
            assert float(row["test_acc_of_best_val"]) == flat[min(seen)].test_acc

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

    def test_corrupt_checkpoint_is_config_error(self, tmp_path, space_dir, pretrain_dir):
        doc = json.loads((pretrain_dir / "checkpoint.json").read_text())
        doc["params"]["conv0.weight"]["shape"] = doc["params"]["conv0.weight"]["shape"][::-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = search_args(space_dir, pretrain_dir, tmp_path / "bad-ckpt")
        argv[argv.index("--checkpoint") + 1] = bad
        assert run(*argv) == EXIT_CONFIG

    def test_non_object_checkpoint_is_config_error(self, tmp_path, space_dir, pretrain_dir, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        argv = search_args(space_dir, pretrain_dir, tmp_path / "list")
        argv[argv.index("--checkpoint") + 1] = bad
        assert run(*argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "not a ranking-model checkpoint" in err and "Traceback" not in err

    def test_permuted_vocabulary_is_config_error(self, tmp_path, space_dir, pretrain_dir, capsys):
        # same ops and vocabulary size, another order: the checkpoint's op
        # indices would name other ops, so the search refuses it
        header, *records = (space_dir / "space.jsonl").read_text().splitlines(keepends=True)
        meta = json.loads(header)
        meta["vocab"] = meta["vocab"][::-1]
        permuted = tmp_path / "permuted.jsonl"
        permuted.write_text(json.dumps(meta) + "\n" + "".join(records))
        argv = search_args(space_dir, pretrain_dir, tmp_path / "permuted")
        argv[argv.index("--space") + 1] = permuted
        assert run(*argv) == EXIT_CONFIG
        assert "op vocabulary" in capsys.readouterr().err

    def test_cell_count_mismatch_is_config_error(self, tmp_path, space_dir, pretrain_dir, capsys):
        # same vocabulary and hparam_dim, two cells per record: the one-cell
        # checkpoint cannot score it
        two_cells = tmp_path / "two-cells"
        assert run("synth", "--out", two_cells, "--seed", "3", "--size", "80", "--cells", "2") == EXIT_OK
        argv = search_args(space_dir, pretrain_dir, tmp_path / "cells")
        argv[argv.index("--space") + 1] = two_cells / "space.jsonl"
        assert run(*argv) == EXIT_CONFIG
        assert "trained for 1 cell(s) and hparam_dim 2, the space has 2 and 2" in capsys.readouterr().err

    def test_version_1_checkpoint_is_config_error(self, tmp_path, space_dir, pretrain_dir, capsys):
        doc = json.loads((pretrain_dir / "checkpoint.json").read_text())
        del doc["vocab"]
        doc["version"] = 1
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(doc))
        argv = search_args(space_dir, pretrain_dir, tmp_path / "v1")
        argv[argv.index("--checkpoint") + 1] = old
        assert run(*argv) == EXIT_CONFIG
        assert "re-run pretrain" in capsys.readouterr().err

    def test_zero_rounds_is_config_error(self, tmp_path, space_dir, pretrain_dir, capsys):
        argv = search_args(space_dir, pretrain_dir, tmp_path / "zero")
        argv[argv.index("--rounds") + 1] = "0"
        assert run(*argv) == EXIT_CONFIG
        assert "--rounds must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,least", [("rounds", "-3", 1), ("probe-size", "-5", 0), ("patience", "-1", 0)])
    def test_out_of_range_flag_is_config_error_naming_it(self, tmp_path, space_dir, pretrain_dir, capsys,
                                                          flag, value, least):
        # a negative probe size used to run without a probe, and a negative
        # patience to turn early stopping off; 0 still disables either
        argv = search_args(space_dir, pretrain_dir, tmp_path / "bad")
        argv[argv.index(f"--{flag}") + 1] = value
        assert run(*argv) == EXIT_CONFIG
        assert f"--{flag} must be >= {least}, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_failed_write_leaves_no_summary(self, tmp_path, space_dir, pretrain_dir, monkeypatch, capsys):
        # summary.json is written last, so `report` never reads a run that died halfway
        def broken(model, path):
            Path(path).write_text("partial")
            raise RuntimeError("disk gone")

        monkeypatch.setattr(cli.nn, "save_checkpoint", broken)
        out = tmp_path / "run"
        assert run(*search_args(space_dir, pretrain_dir, out)) == EXIT_RUNTIME
        assert "runtime error: RuntimeError" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        assert not (out / "final_model.json").exists()
        assert sorted(p.name for p in out.iterdir()) == [
            "budget_curve.csv", "round_metrics.csv", "run_config.json", "trace.jsonl",
        ]

    def test_used_out_dir_is_io_error(self, tmp_path, space_dir, pretrain_dir, capsys):
        # an earlier run's files would survive next to the new ones, and `report` would read them
        out = tmp_path / "run"
        assert run(*search_args(space_dir, pretrain_dir, out)) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(*search_args(space_dir, pretrain_dir, out, seed=6)) == EXIT_IO
        assert "is not empty" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("command, flag, value, field", [
        ("search", "lr", "nan", "lr0"),
        ("search", "lr", "inf", "lr0"),
        ("search", "weight-decay", "nan", "weight_decay"),
        ("search", "sigma", "inf", "sigma"),
        ("pretrain", "lr", "nan", "lr0"),
    ])
    def test_non_finite_training_flag_is_config_error(self, tmp_path, space_dir, pretrain_dir, capsys,
                                                      command, flag, value, field):
        # NaN passes every `<=` check and used to end in a FloatingPointError traceback
        out = tmp_path / "bad"
        if command == "search":
            argv = search_args(space_dir, pretrain_dir, out)
        else:
            argv = ["pretrain", "--out", out, "--seed", "1", "--space", space_dir / "space.jsonl",
                    "--sample", "40", "--epochs", "1", *SMALL_MODEL]
        assert run(*argv, f"--{flag}", value) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{field} must be finite, got {value}" in err
        assert "Traceback" not in err

    # (command, flag, value, message, the search method); one-item lists are
    # refused for every pairwise finetune loss
    BAD_RUN_FLAGS = [
        ("pretrain", "epochs", "0", "epochs must be >= 1", None),
        ("pretrain", "sample", "1", "--sample must be >= 2", None),
        ("search", "epochs", "0", "epochs must be >= 1", "full"),
        ("search", "topk", "0", "top_k must be >= 1", "full"),
        ("search", "rounds", "20", "reveals 1 architecture(s) per round; finetuning needs at least 2", "full"),
        *(("search", "batch-size", "1", f"the pairwise {m.loss} loss cannot rank", name)
          for name, m in search.METHODS.items() if m.loss and ltr.FINETUNE_LOSSES[m.loss] is not None),
    ]

    @pytest.mark.parametrize("command, flag, value, message, baseline",
                             [pytest.param(*case, id="-".join(case[:4])) for case in BAD_RUN_FLAGS])
    def test_bad_run_flag_refused_before_any_output(self, tmp_path, space_dir, pretrain_dir, capsys,
                                                    command, flag, value, message, baseline):
        # refused before the output directory is made or the space is read (a
        # missing space would exit EXIT_IO)
        out = tmp_path / "bad"
        if command == "search":
            argv = search_args(space_dir, pretrain_dir, out, baseline=baseline)
        else:
            argv = ["pretrain", "--out", out, "--seed", "1", "--space", space_dir / "space.jsonl",
                    "--sample", "40", "--epochs", "1", *SMALL_MODEL]
        argv[argv.index("--space") + 1] = tmp_path / "missing.jsonl"
        assert run(*argv, f"--{flag}", value) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("baseline, flag, value, message", [
        ("vanilla-mse", "rounds", "20", "finetuning needs at least 2"),
        ("ranknet", "batch-size", "1", "the pairwise ranknet loss cannot rank"),
    ])
    def test_thin_finetune_refused_for_other_methods(self, tmp_path, space_dir, pretrain_dir, capsys,
                                                     baseline, flag, value, message):
        out = tmp_path / "thin"
        assert run(*search_args(space_dir, pretrain_dir, out, baseline=baseline, **{flag: value})) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_one_architecture_per_round_runs_random(self, tmp_path, space_dir, pretrain_dir):
        out = tmp_path / "random"
        assert run(*search_args(space_dir, pretrain_dir, out, baseline="random", budget=5, rounds=5)) == EXIT_OK
        assert len(json.loads((out / "summary.json").read_text())["rounds"]) == 5

    def test_one_item_lists_run_pointwise_mse(self, tmp_path, space_dir, pretrain_dir):
        # mse is pointwise, so a one-item batch still carries its gradient
        out = tmp_path / "mse"
        argv = search_args(space_dir, pretrain_dir, out, baseline="vanilla-mse", **{"batch-size": 1})
        assert run(*argv) == EXIT_OK
        assert (out / "final_model.json").is_file()

    @pytest.mark.parametrize("case", ["no checkpoint flag", "unreadable checkpoint", "mismatched checkpoint",
                                      "search model flag", "pretrain model flag"])
    def test_refused_before_out_is_made(self, tmp_path, space_dir, pretrain_dir, capsys, case):
        # refusals that need the space read it, and the checkpoint, before --out is made
        out = tmp_path / "out"
        argv = search_args(space_dir, pretrain_dir, out)
        if case == "no checkpoint flag":
            at = argv.index("--checkpoint")
            del argv[at:at + 2]
        elif case == "unreadable checkpoint":
            argv[argv.index("--checkpoint") + 1] = tmp_path / "garbage.json"
            (tmp_path / "garbage.json").write_text("{not json")
        elif case == "mismatched checkpoint":
            assert run("synth", "--out", tmp_path / "wide", "--seed", "3", "--size", "80", "--hparam-dim", "3") == EXIT_OK
            argv[argv.index("--space") + 1] = tmp_path / "wide" / "space.jsonl"
        elif case == "search model flag":
            argv += ["--baseline", "vanilla-mse", "--hidden", "0"]
        else:
            argv = ["pretrain", "--out", out, "--seed", "1", "--space", space_dir / "space.jsonl",
                    "--sample", "40", "--epochs", "1", *SMALL_MODEL, "--hidden", "0"]
        assert run(*argv) == EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

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


@pytest.fixture(scope="module")
def full_run(two_runs):
    return two_runs[0]


@pytest.fixture(scope="module")
def greedy_run(tmp_path_factory, space_dir, pretrain_dir):
    out = tmp_path_factory.mktemp("greedy")
    assert run(*search_args(space_dir, pretrain_dir, out, seed=24), "--baseline", "ws-greedy") == EXIT_OK
    return out


class TestRunConfig:
    @pytest.mark.parametrize("command", ["synth", "pretrain", "search"])
    def test_keys_are_the_parsed_flags(self, command, space_dir, pretrain_dir, two_runs):
        run_dir = {"synth": space_dir, "pretrain": pretrain_dir, "search": two_runs[0]}[command]
        _, registry = cli.build_parser()
        dests = {a.dest for a in registry[command]._actions} - {"config", "help"}
        run_cfg = json.loads((run_dir / "run_config.json").read_text())
        if command == "search":
            # a full run starts from the checkpoint, which carries the model: no model flag is read
            assert search.METHODS[run_cfg["baseline"]].starting_model(pretrained=True) == "checkpoint"
            dests -= set(registry[command].get_default("flag_groups")["fresh"])
        assert set(run_cfg) == dests | {"command"}
        assert run_cfg["command"] == command

    @pytest.mark.parametrize("extra, groups", [
        (["--baseline", "full"], {"round loop", "pretraining", "checkpoint", "finetune"}),
        (["--baseline", "ranknet"], {"round loop", "pretraining", "checkpoint", "finetune"}),
        (["--no-pretrain"], {"round loop", "pretraining", "fresh", "finetune"}),
        (["--baseline", "vanilla-mse"], {"round loop", "fresh", "finetune"}),
        (["--baseline", "random"], {"round loop"}),
        (["--baseline", "ws-greedy"], set()),
    ], ids=["full", "ranknet", "no-pretrain", "vanilla-mse", "random", "ws-greedy"])
    def test_search_keys_are_the_flags_its_method_reads(self, tmp_path, space_dir, pretrain_dir, extra, groups):
        out = tmp_path / "run"
        assert run(*search_args(space_dir, pretrain_dir, out, seed=6), *extra) == EXIT_OK
        _, registry = cli.build_parser()
        flag_groups = registry["search"].get_default("flag_groups")
        unread = {dest for title, dests in flag_groups.items() if title not in groups for dest in dests}
        dests = {a.dest for a in registry["search"]._actions} - {"config", "help"}
        assert set(json.loads((out / "run_config.json").read_text())) == dests - unread | {"command"}


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

    def test_summary_without_config_hash(self, tmp_path):
        bogus = tmp_path / "partial"
        bogus.mkdir()
        (bogus / "summary.json").write_text(json.dumps({"baseline": "full"}))
        assert run("report", bogus, "--out", tmp_path / "rep5") == EXIT_IO

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
        assert run("synth", "--out", tmp_path / "out", "--seed", "1", "--config", cfg) == EXIT_CONFIG

    @pytest.mark.parametrize("command, key, value", [
        ("pretrain", "epochs", 1.5),
        ("synth", "size", 300.0),
        ("search", "budget", True),
        ("synth", "tau", True),
        ("synth", "tau", "0.5"),
        ("synth", "name", 3),
        ("search", "no_pretrain", 1),
        ("synth", "size", None),
        ("search", "probe_size", [512]),
        ("search", "baseline", "bogus"),
    ])
    def test_mistyped_config_value(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(command, "--out", tmp_path / "out", "--seed", "1", "--config", cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(cfg) in err and repr(key) in err and json.dumps(value) in err
        assert key != "baseline" or json.dumps(list(search.METHODS)) in err
        assert not (tmp_path / "out").exists()

    def test_config_values_as_their_flags_parse_them(self, tmp_path):
        # a JSON integer is a number; null stands where the flag defaults to it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"size": 30, "tau": 1, "name": "typed", "out": None}))
        out = tmp_path / "out"
        assert run("synth", "--out", out, "--seed", "1", "--config", cfg) == EXIT_OK
        run_cfg = json.loads((out / "run_config.json").read_text())
        assert (run_cfg["size"], run_cfg["tau"], run_cfg["name"]) == (30, 1.0, "typed")
        assert isinstance(run_cfg["tau"], float)

    def test_help_is_not_a_config_key(self, tmp_path):
        # every accepted key lands in run_config.json; argparse's help is not a setting
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"help": True}))
        assert run("synth", "--out", tmp_path / "out", "--seed", "1", "--config", cfg) == EXIT_CONFIG

    @pytest.mark.parametrize("command, run_dir", [
        ("synth", "space_dir"), ("pretrain", "pretrain_dir"), ("search", "full_run"), ("search", "greedy_run"),
    ])
    def test_run_config_replays_the_run(self, tmp_path, request, command, run_dir):
        # run_config.json records every flag and the command: fed back with
        # another --out, it gives the same files, the recorded out aside
        done = request.getfixturevalue(run_dir)
        replay = tmp_path / "replay"
        assert run(command, "--config", done / "run_config.json", "--out", replay) == EXIT_OK
        names = sorted(p.name for p in done.iterdir())
        assert sorted(p.name for p in replay.iterdir()) == names
        for name in names:
            if name != "run_config.json":
                assert (replay / name).read_bytes() == (done / name).read_bytes(), name
        first, again = (json.loads((d / "run_config.json").read_text()) for d in (done, replay))
        assert again.pop("out") == str(replay)
        first.pop("out")
        assert again == first

    def test_run_config_of_another_command_is_config_error(self, tmp_path, space_dir, capsys):
        argv = ["pretrain", "--config", space_dir / "run_config.json", "--out", tmp_path / "out"]
        assert run(*argv) == EXIT_CONFIG
        assert "config is for command 'synth', not 'pretrain'" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert run("synth", "--out", tmp_path, "--seed", "1", "--config", tmp_path / "nope.json") == EXIT_IO


class TestModuleEntry:
    def test_python_m_imports_cli_once(self):
        # the package must not import cli eagerly, or `python -m ltrnas.cli`
        # runs the module twice and warns on every command
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "ltrnas.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_cli_imports_no_scipy(self):
        # scipy was a dependency for two functions; keep it from creeping back
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "import sys, ltrnas.cli; "
            "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""
