"""Run one ltrnas command N times, each in a fresh child process, and report
its wall time, peak RSS and minor page faults.

usage: python3 tools/fresh_run.py [-n N] [--src SRC_DIR] -- COMMAND [FLAGS...]

    python3 tools/fresh_run.py -n 5 -- search --space space/space.jsonl \\
        --checkpoint pre/checkpoint.json --seed 3 --probe-size 512

The package is imported from SRC_DIR (default: this checkout's src/). Each
run gets `--out` set to a new directory under a temporary root that is
removed at the end, so leave `--out` out of the flags. Paths in the flags
are relative to the current directory.

The in-process bench (bench/run.py) runs every command in one long-lived
process, so it cannot see costs that depend on a process's history, such
as the C allocator's mmap threshold or heap that an earlier command left
behind. This tool measures what a user who runs the CLI once pays. Resource
use is read per child from `os.wait4`: `ru_maxrss` (KiB on Linux) and
`ru_minflt`. One line per run, then a summary, then one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(argv: list[str], env: dict[str, str]) -> dict:
    """Spawn `python -m ltrnas.cli argv` with stdout discarded; wait for it
    with wait4 and return its exit code, wall seconds, peak RSS and faults."""
    args = [sys.executable, "-m", "ltrnas.cli", *argv]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, args, env,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    scale = 1.0 if sys.platform == "darwin" else 1024.0  # ru_maxrss is bytes on macOS, KiB elsewhere
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "max_rss_mb": usage.ru_maxrss * scale / 2**20,
        "minflt": usage.ru_minflt,
        "majflt": usage.ru_majflt,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", type=int, default=5, help="number of fresh runs")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the ltrnas package")
    ap.add_argument("command", nargs=argparse.REMAINDER, help="the ltrnas command and its flags, after --")
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if args.n < 1 or not command:
        ap.error("need -n >= 1 and a command after --")
    if "--out" in command:
        ap.error("leave --out out: each run gets its own output directory")
    src = Path(args.src).resolve()
    if not (src / "ltrnas" / "cli.py").is_file():
        ap.error(f"{src} has no ltrnas/cli.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    runs = []
    with tempfile.TemporaryDirectory(prefix="fresh_run-") as root:
        for i in range(args.n):
            r = run_once([*command, "--out", str(Path(root) / f"run{i}")], env)
            runs.append(r)
            print(f"run {i}: exit {r['exit']}, {r['wall_s']:.3f} s, max RSS {r['max_rss_mb']:.1f} MB, "
                  f"{r['minflt']} minor faults, {r['majflt']} major")
    failed = sum(r["exit"] != 0 for r in runs)
    summary = {
        "command": command[0],
        "runs": args.n,
        "failed": failed,
        "wall_s_median": statistics.median(r["wall_s"] for r in runs),
        "max_rss_mb_median": statistics.median(r["max_rss_mb"] for r in runs),
        "max_rss_mb_max": max(r["max_rss_mb"] for r in runs),
        "minflt_median": statistics.median(r["minflt"] for r in runs),
    }
    print(f"{args.n} fresh `ltrnas {command[0]}`: median wall {summary['wall_s_median']:.3f} s, max RSS "
          f"{summary['max_rss_mb_median']:.1f} MB median / {summary['max_rss_mb_max']:.1f} MB max, "
          f"{summary['minflt_median']:.0f} minor faults median, {failed} failed")
    print(json.dumps({**summary, "per_run": runs}, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
