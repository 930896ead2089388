"""End-to-end and per-layer benchmark of the ltrnas pipeline (synth -> pretrain -> search).

Usage, from the root of a checkout:

    python3 bench/run.py --workload search --seed 1 --seconds 50 --trace 0

One process drives the real entry point ``ltrnas.cli.main`` in-process as a
closed loop with one caller: each command starts after the previous one
ends. No threads are started beyond numpy/BLAS defaults. ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` is the
separate traced run that reports per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
state every metric with its base, the machine block and the output digest.
bench/README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench"
# Metric names and units come from the benchmark definition at the repo root.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SPACE_FLAGS = ["--size", "5000", "--nodes-min", "5", "--nodes-max", "11", "--vocab-size", "9", "--tau", "0.6"]
MODEL_FLAGS = [
    "--hidden", "64", "--layers", "4", "--sortpool", "12", "--conv1d", "16",
    "--hparam-proj", "8", "--head-hidden", "64",
]
SEARCH_FLAGS = [
    "--budget", "100", "--rounds", "5", "--topk", "10", "--epochs", "60",
    "--patience", "15", "--probe-size", "512",
]
ROUNDS, BUDGET, TOPK, PROBE = 5, 100, 10, 512
SPACE_SIZE, TARGET_TAU, TAU_TOLERANCE = 5000, 0.6, 0.05
PRETRAIN_SAMPLE, PRETRAIN_EPOCHS, PRETRAIN_BATCH = 4000, 2, 20
# The search checkpoint only has to exist and transfer; a short pretrain keeps set-up small.
SETUP_PRETRAIN_FLAGS = ["--sample", "1000", "--lr", "0.005", "--epochs", "1"]
SETUP_REPEATS = 3
# Distinct command seeds per run. The loop cycles through them, so at least
# one seed repeats and its outputs are compared byte for byte.
SEED_BLOCK = {"search": 6, "pretrain": 8}
MIN_TRACED = 2
SETUP_INVOCATION = -1


def _import_ltrnas():
    if not (SRC / "ltrnas" / "cli.py").is_file():
        print(f"error: {SRC / 'ltrnas'} not found; run from the root of an ltrnas checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ltrnas

    if Path(ltrnas.__file__).resolve().parent != (SRC / "ltrnas").resolve():
        print(f"error: imported ltrnas from {ltrnas.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return ltrnas


ltrnas = _import_ltrnas()
from ltrnas import cli, nn, space  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as tracing  # noqa: E402


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------

def invoke(argv: list[str]) -> tuple[int, float]:
    """Run one ltrnas command in-process; returns (exit code, wall seconds)."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        rc = cli.main(argv)
    return rc, time.perf_counter() - start


@contextlib.contextmanager
def traced(tr: tracing.Tracer | None, invocation: int):
    """Record spans of `invocation` while the block runs (no-op without a tracer)."""
    if tr is None:
        yield
        return
    tr.begin(invocation)
    tr.install()
    try:
        yield
    finally:
        tr.uninstall()


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def fresh(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    return path


def keep_going(count: int, minimum: int, start: float, seconds: float, durations: list[float]) -> bool:
    """Whether to start another command: until `minimum` have run, then while
    the next one (of median length so far) is expected to end within `seconds`."""
    if count < minimum:
        return True
    expected = statistics.median(durations) if durations else 0.0
    return time.perf_counter() - start + expected <= seconds


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_space(out: Path) -> list[str]:
    """`ltrnas synth` output: tau on target and a space that round-trips."""
    problems = []
    tau = _read_json(out / "synth_report.json")["measured_tau"]
    if not abs(tau - TARGET_TAU) <= TAU_TOLERANCE:
        problems.append(f"measured tau {tau} is not within {TAU_TOLERANCE} of {TARGET_TAU}")
    path = out / "space.jsonl"
    loaded = space.load_space(path)
    if len(loaded) != SPACE_SIZE:
        problems.append(f"space has {len(loaded)} records, expected {SPACE_SIZE}")
    copy = out.parent / f"{out.name}.roundtrip.jsonl"
    space.save_space(loaded, copy)
    if copy.read_bytes() != path.read_bytes():
        problems.append("space does not round-trip through load_space/save_space")
    copy.unlink()
    return problems


def check_checkpoint(out: Path) -> list[str]:
    """`ltrnas pretrain` output: a checkpoint that reloads to the same bytes."""
    path = out / "checkpoint.json"
    try:
        model = nn.load_checkpoint(path)
    except (ValueError, KeyError) as e:
        return [f"checkpoint does not reload: {e}"]
    if nn.checkpoint_bytes(model) != path.read_bytes():
        return ["reloaded checkpoint does not serialize to the same bytes"]
    return []


def check_search(out: Path) -> list[str]:
    problems = []
    lines = (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()
    ids = [json.loads(line)["arch_id"] for line in lines]
    if len(ids) != BUDGET + TOPK or len(set(ids)) != BUDGET + TOPK:
        problems.append(f"trace has {len(ids)} entries, {len(set(ids))} distinct; expected {BUDGET + TOPK}")
    summary = _read_json(out / "summary.json")
    for key in ("chosen_test_regret", "topk_test_regret", "val_regret_iterative", "val_regret_final", "final_ndcg"):
        if not _finite(summary.get(key)):
            problems.append(f"summary {key} is {summary.get(key)!r}")
    return problems


def checked(check, out: Path) -> list[str]:
    try:
        return check(out)
    except (OSError, ValueError, KeyError) as e:
        return [f"outputs unreadable: {type(e).__name__}: {e}"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
# Each workload builds its inputs with the CLI (setup_once), then repeats one
# command. Paths passed to the CLI are relative to the work directory, so
# run_config.json (which records them) is identical wherever the run happens.

class Workload:
    name = ""
    command = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.seeds = [seed * 1000 + i for i in range(SEED_BLOCK[self.name])]

    def setup_once(self) -> list[tuple[list[str], Path, object]]:
        """The CLI commands that build the inputs, with their output dirs and checks."""
        raise NotImplementedError

    def argv(self, seed: int, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path) -> list[str]:
        """Problems with one command's outputs (empty when correct)."""
        raise NotImplementedError

    def quality(self, out: Path) -> float:
        raise NotImplementedError

    def regret(self, out: Path) -> float | None:
        """Top-10 test regret, for workloads that search."""
        return None

    def expected_counts(self) -> dict[str, int]:
        """Exact span counts per traced command; a mismatch is a failure."""
        raise NotImplementedError

    def _synth_space(self):
        return (["synth", "--out", "space", "--seed", str(self.seed), *SPACE_FLAGS], Path("space"), check_space)


class SearchWorkload(Workload):
    name, command = "search", "ltrnas search"

    def setup_once(self):
        return [
            self._synth_space(),
            (["pretrain", "--out", "pre", "--seed", str(self.seed), "--space", "space/space.jsonl",
              *SETUP_PRETRAIN_FLAGS, *MODEL_FLAGS], Path("pre"), check_checkpoint),
        ]

    def argv(self, seed, out):
        return ["search", "--out", str(out), "--seed", str(seed), "--space", "space/space.jsonl",
                "--checkpoint", "pre/checkpoint.json", *MODEL_FLAGS, *SEARCH_FLAGS]

    def check(self, out):
        return check_search(out)

    def quality(self, out):
        return _read_json(out / "summary.json")["final_ndcg"]

    def regret(self, out):
        return _read_json(out / "summary.json")["topk_test_regret"]

    def expected_counts(self):
        return {
            "cli.main": 1, "cli.cmd_search": 1, "space.load_space": 1, "nn.load_checkpoint": 1,
            "search.iterative_search": 1, "ltr.finetune": ROUNDS,
            "search.select_top_k": (ROUNDS - 1) + 1, "search.make_probe": 1,
            "space.encode_architecture": SPACE_SIZE + PROBE, "nn.save_checkpoint": 1,
            "space.generate_synthetic_space": 0,
        }


class PretrainWorkload(Workload):
    name, command = "pretrain", "ltrnas pretrain"

    def setup_once(self):
        return [self._synth_space()]

    def argv(self, seed, out):
        return ["pretrain", "--out", str(out), "--seed", str(seed), "--space", "space/space.jsonl",
                "--sample", str(PRETRAIN_SAMPLE), "--lr", "0.005", "--epochs", str(PRETRAIN_EPOCHS),
                *MODEL_FLAGS]

    def check(self, out):
        problems = check_checkpoint(out)
        if not _finite(self.quality(out)):
            problems.append("r2_ws is not finite")
        return problems

    def quality(self, out):
        return _read_json(out / "pretrain_report.json")["r2_ws"]

    def expected_counts(self):
        train = PRETRAIN_SAMPLE - round(0.1 * PRETRAIN_SAMPLE)
        return {
            "cli.main": 1, "cli.cmd_pretrain": 1, "space.load_space": 1, "ltr.pretrain": 1,
            "space.encode_architecture": PRETRAIN_SAMPLE, "nn.save_checkpoint": 1,
            "nn.adam_step": PRETRAIN_EPOCHS * -(-train // PRETRAIN_BATCH),
            "search.select_top_k": 0, "ltr.lambdarank_lambdas": 0,
        }


WORKLOADS = {w.name: w for w in (SearchWorkload, PretrainWorkload)}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.quality: dict[int, float] = {}
        self.regret: dict[int, float] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def setup(self, tr: tracing.Tracer | None = None) -> list[float]:
        """Build the inputs SETUP_REPEATS times; every repeat must give the same
        bytes. With a tracer, the last repeat is traced."""
        times, first = [], None
        for rep in range(SETUP_REPEATS):
            total, outs = 0.0, []
            with traced(tr if rep == SETUP_REPEATS - 1 else None, SETUP_INVOCATION):
                for argv, out, _ in self.wl.setup_once():
                    fresh(out)
                    self.attempted += 1
                    rc, dt = invoke(argv)
                    total += dt
                    if rc != 0:
                        self.fail(f"set-up `ltrnas {argv[0]}` exited {rc}")
                    outs.append(digest_dir(out))
            times.append(total)
            if first is None:
                first = outs
                for argv, out, check in self.wl.setup_once():
                    for p in checked(check, out):
                        self.fail(f"set-up `ltrnas {argv[0]}`: {p}")
            elif outs != first:
                self.fail("set-up outputs differ between repeats of one seed")
        return times

    def command(self, seed: int, tr: tracing.Tracer | None = None, invocation: int = 0) -> float | None:
        """Run the workload command once for `seed` and check its outputs."""
        Path("out").mkdir(exist_ok=True)
        out = fresh(Path("out") / str(seed))
        self.attempted += 1
        with traced(tr, invocation):
            rc, dt = invoke(self.wl.argv(seed, out))
        if rc != 0:
            self.fail(f"`{self.wl.command}` seed {seed} exited {rc}")
            return None
        digest = digest_dir(out)
        if seed not in self.digests:
            problems = checked(self.wl.check, out)
            for p in problems:
                self.fail(f"seed {seed}: {p}")
            if problems:
                return None
            self.digests[seed] = digest
            self.quality[seed] = self.wl.quality(out)
            regret = self.wl.regret(out)
            if regret is not None:
                self.regret[seed] = regret
        elif digest != self.digests[seed]:
            self.fail(f"seed {seed}: outputs are not byte-identical to the earlier run of this seed")
            return None
        return dt

    def output_digest(self) -> str:
        """Short digest of each seed's outputs, so a change in output bytes shows."""
        return " ".join(f"{seed}:{self.digests[seed][:12]}" for seed in self.wl.seeds if seed in self.digests)


def machine_block() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        get_threads = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        get_threads.restype = ctypes.c_int
        threads = get_threads()
    lines = nonblank = 0
    for f in sorted(SRC.rglob("*.py")):
        text = f.read_text(encoding="utf-8").splitlines()
        lines += len(text)
        nonblank += sum(1 for t in text if t.strip() and not t.strip().startswith("#"))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "src_lines": lines,
        "src_code_lines": nonblank,
    }


def measure(run: Run, seconds: float) -> dict[str, float]:
    """Untraced closed loop over the seed block for `seconds` (at least one repeat)."""
    wl = run.wl
    by_seed: dict[int, list[float]] = {}
    spent: list[float] = []
    start = time.perf_counter()
    i = 0
    while keep_going(i, len(wl.seeds) + 1, start, seconds, spent):
        seed = wl.seeds[i % len(wl.seeds)]
        began = time.perf_counter()
        dt = run.command(seed)
        spent.append(time.perf_counter() - began)
        if dt is not None:
            by_seed.setdefault(seed, []).append(dt)
        i += 1
    times = [t for ts in by_seed.values() for t in ts]
    if not times:
        return {}
    print(f"{wl.name}_s {statistics.median(times):.4f} s (median of n={len(times)} `{wl.command}`; per seed: "
          + "; ".join(f"{seed}: " + ", ".join(f"{t:.3f}" for t in ts) for seed, ts in by_seed.items()) + ")")
    return {"command_s": statistics.median(times)}


def measure_traced(run: Run, seconds: float, tr: tracing.Tracer) -> dict[str, float]:
    """Pairs of one untraced and one traced command on the same seed, for `seconds` (at least MIN_TRACED pairs)."""
    wl = run.wl
    per_inv, steps, overheads, traced_wall = [], [], [], []
    spent: list[float] = []
    start = time.perf_counter()
    i = 0
    while keep_going(i, MIN_TRACED, start, seconds, spent):
        seed = wl.seeds[i % len(wl.seeds)]
        began = time.perf_counter()
        # Alternate which side of the pair runs first, so warm-up favours neither.
        if i % 2 == 0:
            plain = run.command(seed)
            with_spans = run.command(seed, tr, invocation=i)
        else:
            with_spans = run.command(seed, tr, invocation=i)
            plain = run.command(seed)
        spans = tr.invocations[i]
        spent.append(time.perf_counter() - began)
        i += 1
        if plain is None or with_spans is None:
            continue
        counts = tracing.span_counts(spans)
        wrong = {k: (counts.get(k, 0), v) for k, v in wl.expected_counts().items() if counts.get(k, 0) != v}
        if wrong:
            run.fail(f"seed {seed}: span counts (seen, expected) {wrong}")
            continue
        m, s = tracing.layer_metrics(spans)
        per_inv.append(m)
        steps.extend(s)
        overheads.append(with_spans - plain)
        traced_wall.append(with_spans)
    if not per_inv:
        return {}
    metrics = {k: statistics.median(m[k] for m in per_inv) for k in per_inv[0]}
    # Step percentiles pool every traced command of the run.
    metrics["nn.step_ms_p50"] = tracing.percentile(steps, 0.50)
    metrics["nn.step_ms_p99"] = tracing.percentile(steps, 0.99)
    metrics["trace.command_s"] = statistics.median(traced_wall)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / (metrics["trace.command_s"] - metrics["trace.overhead_s"])
    setup_layers, _ = tracing.layer_metrics(tr.invocations[SETUP_INVOCATION])
    metrics.update({f"setup.{k}": setup_layers[k] for k in SETUP_LAYERS})
    print(f"traced {len(per_inv)} `{wl.command}` (each paired with an untraced run of the same seed); "
          f"{len(steps)} train steps pooled for nn.step_ms_*; set-up traced once")
    return metrics


# Layers of the set-up commands (synth, and pretrain on `search`), reported
# from the traced set-up with a `setup.` prefix.
SETUP_LAYERS = (
    "space.generate_s", "space.calibrate_s", "space.save_space_s", "space.load_space_s",
    "space.encode_s", "metrics.kendall_tau_s", "metrics.kendall_tau_calls",
    "ltr.pretrain_s", "nn.checkpoint_s", "cli.self_s",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    wl = WORKLOADS[args.workload](args.seed)
    run = Run(wl)
    machine = machine_block()
    work = STATE / f"work-{args.workload}-{os.getpid()}"
    fresh(work).mkdir(parents=True)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    cwd = os.getcwd()
    os.chdir(work)
    try:
        if args.trace:
            tr = tracing.Tracer()
            setup_times = run.setup(tr)
            metrics = measure_traced(run, args.seconds, tr)
            tr.write(results / f"{stem}-spans.jsonl")
        else:
            setup_times = run.setup()
            metrics = measure(run, args.seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    quality = statistics.median(run.quality.values()) if run.quality else float("nan")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace and metrics:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["quality"] = quality
        metrics["peak_rss_mb"] = peak_rss_mb
    print(f"setup_s {statistics.median(setup_times):.4f} s (median of {SETUP_REPEATS} set-ups: "
          + ", ".join(f"{t:.4f}" for t in setup_times) + ")")
    quality_name = {"search": "final_ndcg", "pretrain": "pretrain_r2_ws"}[wl.name]
    print(f"quality = {quality_name} {quality:.6f} (median over {len(run.quality)} seeds)")
    if run.regret:
        print(f"regret_top10 {statistics.median(run.regret.values()):.6f} (median over {len(run.regret)} seeds)")
    print(f"failed_frac {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    print(f"peak_rss_mb {peak_rss_mb:.1f}")
    print(f"digest {wl.name} {run.output_digest()}")
    print("machine " + json.dumps(machine, sort_keys=True))

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if metrics and set(metrics) != set(declared):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in sorted(metrics.items())},
    }
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  digest=run.output_digest(), machine=machine)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
