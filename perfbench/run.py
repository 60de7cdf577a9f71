#!/usr/bin/env python3
"""Run one workload of the wittlab benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout the command runs in.
Set-up (a fresh import of the program plus the workload's inputs) is
repeated nine times; then whole passes run, one after another in this
process and thread, while the next pass is expected to end within
``--seconds`` (at least one pass).  Every answer of every pass is checked
against the workload's oracle.  The first pass in a fresh process is the
slowest, as the heap grows; with three passes or more the median is a
later one.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: median
set-up time, median pass time, and the process's peak resident memory.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of BENCHMARK.json from the traced ones (medians), plus
the tracing overhead; the spans of the last traced pass are written to
``perfbench/work/spans-<workload>.jsonl``.  The last line of stdout
is the JSON result.  Exit code 2 means the checkout holds no program to
measure; nothing is printed on stdout then.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, aggregate  # noqa: E402
from workloads import ROOT, WORKLOADS, MissingProgram, Program  # noqa: E402

WORK = Path(__file__).resolve().parent / "work"
SETUPS = 9
FINDINGS_SHOWN = 20


class Recorder:
    """Times the ops of one pass and counts the answers that miss the oracle."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.busy = 0.0
        self.checked = 0
        self.failed = 0
        self.findings: list[str] = []

    @contextlib.contextmanager
    def op(self, op_id: str):
        close = self.tracer.root("bench.op", op_id) if self.tracer else None
        start = time.perf_counter()
        try:
            yield
        finally:
            self.busy += time.perf_counter() - start
            if close:
                close()

    def expect(self, op_id: str, got, want) -> None:
        self.checked += 1
        if got != want:
            self.failed += 1
            self.findings.append(f"{op_id}: got {got!r}, expected {want!r}")

    def expect_member(self, op_id: str, got, pool) -> None:
        """``got`` must be one of the expected answers still in ``pool``."""
        self.checked += 1
        if pool[got] > 0:
            pool[got] -= 1
        else:
            self.failed += 1
            self.findings.append(f"{op_id}: unexpected answer {got}")


def run_pass(workload, tracer: Tracer | None = None):
    """One pass: (seconds in the program, ops attempted, ops failed, findings)."""
    rec = Recorder(tracer)
    try:
        workload.run(rec)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        rec.findings.append(f"pass ended by {type(exc).__name__}: {exc}")
    failed = rec.failed + max(0, workload.expected_ops - rec.checked)
    return rec.busy, max(workload.expected_ops, rec.checked), failed, rec.findings


def layer_values(tracer: Tracer, busy: float, names) -> dict:
    stats = aggregate(tracer.spans)
    counts = tracer.counts()
    out = {"trace.wall_s": busy}
    out["trace.unattributed_s"] = stats.get("bench.op", {}).get("self_s", 0.0)
    for name in names:
        if name in out or name == "trace_overhead_s":
            continue
        span, stat = name.rsplit(".", 1)
        if stat in ("calls", "s", "self_s"):
            out[name] = stats.get(span, {}).get(stat, 0)
        else:
            out[name] = counts.get((span, stat), 0)
    return out


def absent_functions(prog: Program, names) -> list[str]:
    mods = prog.traced_modules()
    missing = set()
    for name in names:
        parts = name.split(".")
        if len(parts) == 3 and parts[0] in mods and not hasattr(mods[parts[0]], parts[1]):
            missing.add(f"{parts[0]}.{parts[1]}")
    return sorted(missing)


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Set up and run one workload; returns (result, report lines)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = bench["per_layer"] if trace else bench["end_to_end"]
    names = [m["name"] for m in metrics_spec]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        setups = []
        for i in range(SETUPS):
            start = time.perf_counter()
            prog = Program()
            workdir = Path(tmp) / f"setup{i}"
            workdir.mkdir()
            workload = WORKLOADS[name](prog, seed, size, workdir)
            setups.append(time.perf_counter() - start)

        plain, traced, samples = [], [], []
        attempted = failed = passes = 0
        findings: list[str] = []
        last_tracer = None
        longest = 0.0
        began = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            tracer = Tracer() if trace and passes % 2 else None
            if tracer:
                tracer.install(prog.namespaces(), prog.traced_modules())
            try:
                busy, n, bad, msgs = run_pass(workload, tracer)
            finally:
                if tracer:
                    tracer.uninstall(prog.namespaces())
            if tracer:
                traced.append(busy)
                samples.append(layer_values(tracer, busy, names))
                last_tracer = tracer
            else:
                plain.append(busy)
            attempted += n
            failed += bad
            findings += [f"pass {passes}: {m}" for m in msgs]
            passes += 1
            longest = max(longest, time.perf_counter() - pass_start)
            if time.perf_counter() - began + longest > seconds and passes > int(trace):
                break

    lines = []
    if trace:
        values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
        values["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
        lines += [f"absent: {fn} (its metrics read 0)" for fn in absent_functions(prog, names)]
        spans_path = WORK / f"spans-{name}.jsonl"
        last_tracer.dump(spans_path)
        summary = (
            f"traced wall_s={values['trace.wall_s']:.4f} "
            f"unattributed_s={values['trace.unattributed_s']:.4f} "
            f"trace_overhead_s={values['trace_overhead_s']:.4f} spans in {spans_path.name}"
        )
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        summary = " ".join(f"{k}={values[k]:.4f}" for k in ("setup_s", "wall_s", "peak_rss_mb"))
    lines += [f"finding (seed {seed}) {f}" for f in findings[:FINDINGS_SHOWN]]
    if len(findings) > FINDINGS_SHOWN:
        lines.append(f"... {len(findings) - FINDINGS_SHOWN} more findings")
    lines.append(
        f"{name} seed {seed}: {summary} ops_failed={failed} ops_total={attempted} "
        f"passes={passes}"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        Program()
    except MissingProgram as exc:
        sys.stderr.write(f"perfbench: cannot run: {exc}\n")
        return 2
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
