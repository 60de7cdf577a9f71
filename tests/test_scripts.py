import contextlib
import importlib.util
import io
import os
import re
import shutil
import subprocess
import sys

import pytest

from wittlab.deform import h2_transversal

SURVEY = os.path.join(os.path.dirname(__file__), "..", "scripts", "survey_order32.py")
SURVEY_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "survey_order32.txt")


def _load_survey():
    spec = importlib.util.spec_from_file_location("survey_order32", SURVEY)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    return survey


def survey_multiset(text):
    """The survey's table rows and pair lines without class ids or timings,
    sorted.  A row keeps class count, self-dual count, Witt rank and order
    profile; a pair line names its two members by their rows."""
    rows = {}
    for line in text.splitlines():
        m = re.fullmatch(r"\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+\^.*)", line)
        if m:
            rows[m[1]] = " ".join(m.groups()[1:])
    pairs = []
    for line in text.splitlines():
        m = re.fullmatch(r"\s*#(\d+) vs #(\d+) (.*)", line)
        if m:
            a, b = sorted((rows[m[1]], rows[m[2]]))
            pairs.append(f"pair {a} | {b} {m[3]}")
    return sorted(f"row {r}" for r in rows.values()) + sorted(pairs)


def test_survey_script_classifies_order_16(corpus_groups):
    """The survey script, loaded by path as the benchmark loads it, exposes
    ``central_extensions`` and ``classify``.  The five groups of order 8
    have 86 classes of H^2(H, Z2) in 21 Aut(H)-orbits, one extension built
    per orbit; they fall into the 14 classes of order 16, which have 1,278
    classes in 95 orbits, whose extensions fall into the 51 classes of
    order 32."""
    survey = _load_survey()
    order8 = [corpus_groups[n] for n in ("z8", "z4x2", "z2x2x2", "d8", "q8")]
    extensions = [E for H in order8 for E in survey.central_extensions(H)]
    assert len(extensions) == 21
    assert sum(2 ** len(h2_transversal(H)[0]) for H in order8) == 86
    reps = survey.classify(extensions)
    assert len(reps) == 14
    extensions = [E for H in reps for E in survey.central_extensions(H)]
    assert len(extensions) == 95
    assert sum(2 ** len(h2_transversal(H)[0]) for H in reps) == 1278
    assert len(survey.classify(extensions)) == 51


@pytest.fixture(scope="module")
def survey_runs():
    """(stdout, stderr) of two runs of the survey's ``main``."""
    runs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert _load_survey().main() == 0
        runs.append((out.getvalue(), err.getvalue()))
    return runs


def test_survey_output_matches_the_pinned_multiset(survey_runs):
    """The 51 rows and 5 pair lines of the order-32 survey, ids and timings
    stripped.  Class ids follow the order in which ``classify`` first sees
    each class, so only the multiset is pinned."""
    got = survey_multiset(survey_runs[0][0])
    with open(SURVEY_GOLDEN, encoding="utf-8") as fh:
        assert got == fh.read().splitlines()
    assert sum(line.startswith("row ") for line in got) == 51
    assert sum(line.startswith("pair ") for line in got) == 5


def test_survey_stdout_is_byte_stable(survey_runs):
    """Timings go to stderr, so two runs print the same stdout."""
    (out1, err1), (out2, _) = survey_runs
    assert out1 == out2
    assert not re.search(r"\d\.\ds", out1)
    assert out1.startswith("order 16: 14 isomorphism classes\norder 32: 51 isomorphism classes\n")
    assert re.fullmatch(r"order 16: \d+\.\ds\norder 32: \d+\.\ds\ntotal \d+\.\ds\n", err1)


MAKE_CORPUS = os.path.join(os.path.dirname(__file__), "..", "scripts", "make_corpus.py")
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def test_make_corpus_reproduces_the_bundled_corpus(tmp_path, monkeypatch):
    """The corpus script, which cross-checks its groups through
    ``semidirect_product``, ``abelian_group`` and ``izumi_kosaki``, writes
    every file of ``corpus/`` byte for byte."""
    spec = importlib.util.spec_from_file_location("make_corpus", MAKE_CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.argv", ["make_corpus.py", str(tmp_path)])
    with contextlib.redirect_stdout(io.StringIO()):
        assert module.main() == 0
    names = sorted(os.listdir(CORPUS))
    assert len(names) == 39 and sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(CORPUS, name), "rb") as want:
            assert (tmp_path / name).read_bytes() == want.read(), name


BENCH_PAIRS = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_pairs.py")


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_statistics_on_fixed_numbers():
    bp = _bench_pairs()
    assert bp.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert bp.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    parent = [4.0, 3.6, 3.8, 4.1, 3.7, 3.9, 4.0, 3.5, 3.8, 3.9]
    change = [2.0, 2.1, 1.9, 2.2, 3.7, 2.0, 1.8, 2.1, 2.0, 2.0]
    stats = bp.compare(parent, change, "lower")
    assert stats["change_wins"] == 9 and stats["ties"] == 1
    assert stats["parent"]["median"] == pytest.approx(3.85)
    assert stats["change"]["median"] == 2.0
    assert stats["parent"]["q1"] == pytest.approx(3.725)
    assert stats["parent"]["q3"] == pytest.approx(3.975)
    assert stats["relative_change"] == pytest.approx((2.0 - 3.85) / 3.85)
    assert stats["gain_shown"]
    # eight wins in ten are too few, however large the gap
    stats = bp.compare(parent, change[:4] + [1.0] + change[5:8] + [9.0, 9.0], "lower")
    assert stats["change_wins"] == 8 and not stats["gain_shown"]
    # every pair won, but by less than the parent's interquartile distance
    assert not bp.compare(parent, [p - 0.1 for p in parent], "lower")["gain_shown"]
    # "higher" metrics win the other way round
    assert bp.compare(change, parent, "higher")["change_wins"] == 9


def test_bench_pairs_within_bound_on_fixed_numbers():
    bp = _bench_pairs()
    assert bp.within_bound(1.0, 1.25, "lower", 0.25)
    assert not bp.within_bound(1.0, 1.26, "lower", 0.25)
    assert bp.within_bound(1.0, 0.5, "lower", 0.25)
    assert bp.within_bound(10.0, 9.0, "higher", 0.1)
    assert not bp.within_bound(10.0, 8.9, "higher", 0.1)
    assert bp.within_bound(0.0, 0.0, "lower", 0.25)


def _benchmark_tree(root):
    """A checkout holding only this repository's benchmark files, with a
    run directory and bytecode caches that the comparison skips."""
    repo = os.path.join(os.path.dirname(__file__), "..")
    root.mkdir()
    shutil.copy(os.path.join(repo, "BENCHMARK.json"), root / "BENCHMARK.json")
    shutil.copytree(os.path.join(repo, "perfbench"), root / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    for junk in ("work/spans.jsonl", "__pycache__/run.pyc", "expected/__pycache__/x.pyc"):
        (root / "perfbench" / junk).parent.mkdir(parents=True, exist_ok=True)
        (root / "perfbench" / junk).write_text(str(root))
    return root


def test_bench_pairs_names_the_first_benchmark_file_that_differs(tmp_path):
    bp = _bench_pairs()
    parent = _benchmark_tree(tmp_path / "parent")
    change = _benchmark_tree(tmp_path / "change")
    assert bp.first_difference(parent, change) is None
    with open(change / "perfbench" / "workloads.py", "a", encoding="utf-8") as fh:
        fh.write("# changed\n")
    (parent / "perfbench" / "run.py").unlink()
    assert bp.first_difference(parent, change) == "perfbench/run.py"
    (change / "perfbench" / "run.py").unlink()
    assert bp.first_difference(parent, change) == "perfbench/workloads.py"
    (change / "BENCHMARK.json").write_text("{}")
    assert bp.first_difference(parent, change) == "BENCHMARK.json"


def test_bench_pairs_exits_1_before_running_a_differing_parent(tmp_path):
    parent = _benchmark_tree(tmp_path / "parent")
    (parent / "perfbench" / "inputs.py").write_text("")
    done = subprocess.run(
        [sys.executable, BENCH_PAIRS, "--parent", str(parent), "--workload", "realize",
         "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, check=False, timeout=60,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == (
        "bench_pairs: the parent's benchmark differs from the change's at perfbench/inputs.py\n"
    )
    assert not (tmp_path / "out.json").exists()
