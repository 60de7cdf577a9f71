import importlib.util
import os

import pytest

SURVEY = os.path.join(os.path.dirname(__file__), "..", "scripts", "survey_order32.py")


def test_survey_script_classifies_order_16(corpus_groups):
    """The survey script, loaded by path as the benchmark loads it, exposes
    ``central_extensions`` and ``classify``, and its central extensions of
    the five groups of order 8 fall into the 14 classes of order 16."""
    spec = importlib.util.spec_from_file_location("survey_order32", SURVEY)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    order8 = [corpus_groups[n] for n in ("z8", "z4x2", "z2x2x2", "d8", "q8")]
    extensions = [E for H in order8 for E in survey.central_extensions(H)]
    assert len(survey.classify(extensions)) == 14


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
