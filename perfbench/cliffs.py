#!/usr/bin/env python3
"""One-shot cliff list: inputs just past what the workloads can afford.

    python3 perfbench/cliffs.py [--cap SECONDS]

Not a workload and not repeated.  Each member runs once, in its own child
process, under a wall-clock cap; it is recorded as seconds and peak memory,
or as ``timeout``.  One JSON object per member is printed as it finishes.
Members can become workloads once they fit in a run.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402

WORK = Path(__file__).resolve().parent / "work"

# name -> what is timed; group files are parsed, realised and bundled.
MEMBERS = {
    "g64xz2": "invariant_bundle of g64 x Z2 (normal_subgroups)",
    "z2x2x2x2x2x2": inputs.abelian_text("z2x2x2x2x2x2", [2] * 6),
    "z128": inputs.abelian_text("z128", [128]),
    "d512": inputs.dihedral_text("d512", 512),
    "q512": inputs.dicyclic_text("q512", 512),
    "a7_parse": inputs.alternating_text("a7", 7),
}


def run_member(name: str) -> dict:
    from workloads import Program, call_cli

    prog = Program()
    start = time.perf_counter()
    if name == "g64xz2":
        G = prog.groups.direct_product(prog.deform.izumi_kosaki()[0], prog.groups.cyclic(2))
        answer = len(prog.screen.invariant_bundle(G, name=name).degrees)
    elif name == "a7_parse":
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            path = Path(tmp) / "a7.grp"
            path.write_text(MEMBERS[name], encoding="utf-8")
            rc, out = call_cli(prog, ["parse", str(path)])
        answer = out.split("\n", 1)[0] if rc == 0 else f"exit {rc}"
    else:
        pres = prog.presentations
        G = pres.realize(pres.parse_group_file(MEMBERS[name]))
        answer = len(prog.screen.invariant_bundle(G, name=name).degrees)
    return {
        "member": name,
        "seconds": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "answer": answer,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cap", type=float, default=120.0, help="wall-clock cap per member")
    ap.add_argument("--member", choices=sorted(MEMBERS), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.member:
        print(json.dumps(run_member(args.member)))
        return 0
    for name in MEMBERS:
        cmd = [sys.executable, __file__, "--member", name]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=args.cap)
        except subprocess.TimeoutExpired:
            record = {"member": name, "seconds": "timeout", "cap": args.cap}
        else:
            if done.returncode == 0:
                record = json.loads(done.stdout.splitlines()[-1])
            else:
                record = {"member": name, "error": done.stderr.strip().splitlines()[-1:]}
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
