#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout against a change.

    python3 scripts/bench_pairs.py --parent DIR --workload NAME
        [--pairs 10] [--seed 3] [--seconds 8] [--out BENCH_<workload>.json]

The change is the checkout holding this script; make the parent checkout
with, for example, ``git archive HEAD~1 | tar -x -C DIR``.  Each checkout
runs its own, unmodified ``perfbench/run.py --trace 0`` in a fresh process,
one run at a time.  Pair i (from 0) runs the parent first when i is even
and the change first when i is odd, so slow drift of the machine falls on
both sides alike.  The output file defaults to ``BENCH_<workload>.json``
at the root of the change.

For every end-to-end metric of ``BENCHMARK.json`` the output file holds
each side's runs, median and quartiles, the number of pairs the change won
(ties count for neither side), the change of the median relative to the
parent's, and ``gain_shown``: the change won at least nine pairs in ten and
its median is better than the parent's by more than the parent's
interquartile distance, and ``within_bound``: the change's median is no
worse than the parent's by more than the metric's ``bound``, read as a
fraction of the parent's median.  Every run must report ``correct``; a run
that fails or misses its oracle stops the script with exit code 1.  So does
a parent whose ``BENCHMARK.json`` or any file under ``perfbench/`` (outside
``perfbench/work/`` and ``__pycache__``) differs from the change's: the
script names the first such file and runs nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent, change, better: str) -> dict:
    """Paired statistics of one metric; ``parent[i]`` and ``change[i]`` are
    the values of pair i, and ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3, "runs": list(parent)},
        "change": {"median": cm, "q1": c1, "q3": c3, "runs": list(change)},
        "change_wins": wins,
        "ties": ties,
        "relative_change": (cm - pm) / pm if pm else None,
        "gain_shown": 10 * wins >= 9 * len(parent) and sign * (pm - cm) > p3 - p1,
    }


def within_bound(parent_median: float, change_median: float, better: str, bound: float) -> bool:
    """Whether the change's median is no worse than the parent's by more
    than ``bound`` times the parent's median."""
    sign = 1 if better == "lower" else -1
    return sign * (change_median - parent_median) <= bound * abs(parent_median)


def benchmark_files(root: Path) -> set[str]:
    """``BENCHMARK.json`` and the files under ``perfbench/`` of a checkout,
    relative to it, without ``perfbench/work/`` and ``__pycache__``."""
    found = {"BENCHMARK.json"} if (root / "BENCHMARK.json").is_file() else set()
    for path in (root / "perfbench").rglob("*"):
        parts = path.relative_to(root).parts
        if path.is_file() and parts[1] != "work" and "__pycache__" not in parts:
            found.add("/".join(parts))
    return found


def first_difference(parent: Path, change: Path) -> str | None:
    """The first benchmark file, in sorted order, that one checkout lacks or
    that differs between the two; None when they agree."""
    for name in sorted(benchmark_files(parent) | benchmark_files(change)):
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            return name
    return None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one ``perfbench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{checkout}: exit {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {result['failed']} answers missed the oracle")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    differs = first_difference(args.parent, ROOT)
    if differs is not None:
        raise RuntimeError(f"the parent's benchmark differs from the change's at {differs}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else ROOT
            runs[side].append(run_once(checkout, args.workload, args.seed, args.seconds))
        line = " ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]:.4f}/{runs['change'][-1][m['name']]:.4f}"
            for m in spec
        )
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): parent/change {line}", flush=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "system": platform.system(),
        },
        "metrics": {},
    }
    for m in spec:
        stats = compare([r[m["name"]] for r in runs["parent"]],
                        [r[m["name"]] for r in runs["change"]], m["better"])
        ok = within_bound(stats["parent"]["median"], stats["change"]["median"],
                          m["better"], m["bound"])
        stats.update(unit=m["unit"], better=m["better"], bound=m["bound"], within_bound=ok)
        report["metrics"][m["name"]] = stats
        print(f"{m['name']}: parent median {stats['parent']['median']:.4f} "
              f"change median {stats['change']['median']:.4f} "
              f"wins {stats['change_wins']}/{args.pairs} gain_shown {stats['gain_shown']} "
              f"within_bound {ok}")
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        sys.stderr.write(f"bench_pairs: {exc}\n")
        sys.exit(1)
