"""Wall time of the README's command lines, each in a fresh process, for two
source trees side by side.

Each round runs every command once per tree, the two trees alternating
which goes first.  ``--cache none`` runs with no bytecode cache
(PYTHONDONTWRITEBYTECODE=1), so every module is compiled from source;
``--cache warm`` gives each tree its own PYTHONPYCACHEPREFIX, written by
one untimed run of every command and then only read, as an installed
package runs.  Prints the median per command, then the mean per command
of each round: medians, interquartile ranges, the rounds the second tree
won and the paired ratios.

Run from the repository root, with a second checkout of the parent:
    python tools/start_times.py ../parent . --cache warm --rounds 30
"""

from __future__ import annotations

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = (
    "g2 number:1 coherent:2 chaotic:0.5 --oracle",
    "classical --law exponential --samples 20000",
    "--seed 7 cascade --sweep --gates 1000000",
    "cascade --n-omega 0.1 --f-target 0.9 --gates 100000",
    "beables --region 1 --check",
    "beables --region 2 --sweep --check",
    "photodetect --phi 0 --time 20",
)


def _seconds(root: Path, line: str, scratch: Path, cache: str, write: bool = False) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    if cache == "warm":
        env["PYTHONPYCACHEPREFIX"] = str(scratch / "pycache")
        if write:
            del env["PYTHONDONTWRITEBYTECODE"]
    with tempfile.TemporaryDirectory(dir=scratch) as out:
        env["GRALAB_OUT_DIR"] = out
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gralab.cli", *shlex.split(line)], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {line}: exit {proc.returncode}\n{proc.stderr}")
    return elapsed


def _spread(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.1f} ms, IQR {q3 - q1:.1f}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path, help="root of the first tree")
    parser.add_argument("after", type=Path, help="root of the second tree")
    parser.add_argument("--cache", choices=("none", "warm"), default="warm")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()
    roots = (args.before.resolve(), args.after.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        scratch = [Path(tmp) / "before", Path(tmp) / "after"]
        for root, dir_ in zip(roots, scratch):
            dir_.mkdir()
            if args.cache == "warm":
                for line in COMMANDS:
                    _seconds(root, line, dir_, args.cache, write=True)
        per_command = [{line: [] for line in COMMANDS} for _ in roots]
        per_round: list[list[float]] = [[], []]
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for line in COMMANDS:
                for side in order:
                    per_command[side][line].append(1e3 * _seconds(roots[side], line, scratch[side], args.cache))
            for side in (0, 1):
                per_round[side].append(statistics.fmean(times[-1] for times in per_command[side].values()))
    print(f"cache {args.cache}, {args.rounds} rounds; median ms, before -> after")
    for line in COMMANDS:
        before, after = (statistics.median(side[line]) for side in per_command)
        print(f"  {line:52s} {before:6.1f} -> {after:6.1f}")
    ratios = sorted(a / b for b, a in zip(*per_round))
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"mean per command and round: before {_spread(per_round[0])}; after {_spread(per_round[1])}")
    print(f"after faster in {wins} of {args.rounds} rounds; paired ratios "
          f"{ratios[0]:.3f}-{ratios[-1]:.3f}, median {statistics.median(ratios):.3f}")


if __name__ == "__main__":
    main()
