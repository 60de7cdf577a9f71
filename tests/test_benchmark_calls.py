"""One pass of every benchmark workload at its smallest size.

The benchmark (``perfbench/``) calls ``compare_bundles``, ``compare_pair``,
``invariant_bundle``, ``chartab.self_dual_count``, ``witt.grothendieck_ring``
and ``cli.main``; a change that breaks one of those calls fails here.  The
benchmark imports ``src/wittlab`` afresh and replaces its modules in
``sys.modules``, so the pass runs in a child process and leaves the modules
the other tests hold alone.
"""

import json
import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")

ONE_PASS = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run, workloads
out = {}
for name, build in sorted(workloads.WORKLOADS.items()):
    workdir = Path(sys.argv[2]) / name
    workdir.mkdir()
    _, attempted, failed, findings = run.run_pass(build(workloads.Program(), 0, "min", workdir))
    out[name] = {"attempted": attempted, "failed": failed, "findings": findings}
print(json.dumps(out))
"""


def test_every_workload_passes_at_its_smallest_size(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", ONE_PASS, PERFBENCH, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    passes = json.loads(proc.stdout)
    assert sorted(passes) == ["corpus_screen", "ladder", "realize", "survey32"]
    for name, result in passes.items():
        assert result["attempted"] > 0, name
        assert (result["failed"], result["findings"]) == (0, []), name
