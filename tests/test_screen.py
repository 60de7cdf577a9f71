import os

import pytest

from wittlab import chartab, screen, witt
from wittlab.groups import cyclic
from wittlab.screen import (
    NOT_ISOCATEGORICAL,
    UNDECIDED,
    ScreenError,
    compare_bundles,
    compare_pair,
    rigidity_screen,
    invariant_bundle,
    render_report,
    report_json,
    screen_corpus,
)


def test_rigidity_screen_q8_empty(corpus_groups):
    ev = rigidity_screen(corpus_groups["q8"])
    assert ev.rigid
    assert ev.candidates == ()


def test_rigidity_screen_odd_order_empty(corpus_groups):
    for name in ("z3", "z5", "z7", "z9", "z3x3", "z15"):
        assert rigidity_screen(corpus_groups[name]).rigid


def test_rigidity_screen_g3_klein(corpus_groups):
    ev = rigidity_screen(corpus_groups["g3_16"])
    assert not ev.rigid
    kinds = [c.kind for c in ev.candidates]
    assert (2, 2) in kinds
    klein = next(c for c in ev.candidates if c.kind == (2, 2))
    assert klein.admits_alternating


def test_rigidity_screen_cyclic_four_torsion_rejected():
    # Z4 has an order-4 normal subgroup but no skew-symmetric identification
    assert rigidity_screen(cyclic(4)).rigid
    assert rigidity_screen(cyclic(16)).rigid


def test_rigidity_screen_central_flags(corpus_groups):
    ev = rigidity_screen(corpus_groups["z4x4"])
    assert all(c.central for c in ev.candidates)
    kinds = sorted(c.kind for c in ev.candidates)
    assert kinds == [(2, 2), (4, 4)]


def test_bundle_fields(corpus_groups):
    b = invariant_bundle(corpus_groups["q8"], name="q8")
    assert b.order == 8
    assert b.degrees == (1, 1, 1, 1, 2)
    assert b.self_dual_count == 5
    assert b.witt_ring.rank == 4
    assert b.witt_ring.rank <= b.self_dual_count


def test_bundle_trivial_group():
    b = invariant_bundle(cyclic(1), name="trivial")
    assert b.order == 1 and b.witt_ring.rank == 1


def test_bundle_builds_one_fusion_tensor(corpus_groups, monkeypatch):
    calls = []
    original = chartab.fusion_coefficients

    def counting(t):
        calls.append(t)
        return original(t)

    monkeypatch.setattr(chartab, "fusion_coefficients", counting)
    G = corpus_groups["d8"]
    b = invariant_bundle(G)
    assert len(calls) == 1
    assert b.k0 == witt.grothendieck_ring(chartab.burnside_dixon(G))


def test_compare_d8_q8(corpus_groups):
    v = compare_pair(corpus_groups["d8"], corpus_groups["q8"])
    assert v.verdict == NOT_ISOCATEGORICAL
    assert v.witness == "witt_ring"
    checks = dict(v.checks)
    assert checks["order"] and checks["grothendieck_ring"]
    assert not checks["witt_ring"]


def test_compare_is_symmetric(corpus_groups):
    a = compare_pair(corpus_groups["d8"], corpus_groups["q8"])
    b = compare_pair(corpus_groups["q8"], corpus_groups["d8"])
    assert a.verdict == b.verdict and a.witness == b.witness


def test_compare_different_orders(corpus_groups):
    v = compare_pair(corpus_groups["d8"], corpus_groups["d16"])
    assert v.verdict == NOT_ISOCATEGORICAL and v.witness == "order"


def test_compare_32_6_vs_7(corpus_groups):
    v = compare_pair(corpus_groups["smallgroup_32_6"], corpus_groups["smallgroup_32_7"])
    assert v.verdict == NOT_ISOCATEGORICAL
    assert v.witness == "order_profile"
    checks = dict(v.checks)
    assert checks["grothendieck_ring"] and checks["witt_ring"] and checks["self_dual_count"]


def test_compare_32_27_vs_34(corpus_groups):
    v = compare_pair(
        corpus_groups["smallgroup_32_27"], corpus_groups["smallgroup_32_34"]
    )
    assert v.verdict == NOT_ISOCATEGORICAL
    assert "candidate-subgroup" in v.witness
    checks = dict(v.checks)
    assert checks["grothendieck_ring"] and checks["witt_ring"]
    assert checks["self_dual_count"] and checks["order_profile"]
    assert any("central candidates" in n for n in v.notes)


def test_compare_ik_pair_undecided(ik_pair):
    G, _, Gb = ik_pair
    a = invariant_bundle(G, name="g64")
    b = invariant_bundle(Gb, name="g64_b")
    v = compare_bundles(a, b)
    assert v.verdict == UNDECIDED
    assert all(ok for _, ok in v.checks)


def test_compare_self_is_undecided(corpus_groups):
    v = compare_pair(corpus_groups["q8"], corpus_groups["q8"])
    assert v.verdict == UNDECIDED


def test_screen_corpus_full(corpus_dir):
    report = screen_corpus(corpus_dir)
    assert report.summary["errors"] == 0
    assert report.summary["groups"] == 39
    undecided = [p for p in report.pairs if p.verdict == UNDECIDED]
    assert [(p.left, p.right) for p in undecided] == [("g64", "g64_b")]
    by_name = {e["name"]: e for e in report.entries}
    assert by_name["q8"]["rigid_by_screen"]
    assert by_name["d16"]["rigid_by_screen"]
    assert not by_name["g3_16"]["rigid_by_screen"]


def test_screen_corpus_order_filter(corpus_dir):
    report = screen_corpus(corpus_dir, order=8)
    assert all(e["order"] == 8 for e in report.entries)
    assert report.summary["groups"] == 5
    assert report.summary["pairs"] == 10
    assert report.summary["undecided"] == 0


def test_screen_deterministic(corpus_dir):
    a = screen_corpus(corpus_dir, order=16)
    b = screen_corpus(corpus_dir, order=16)
    assert render_report(a) == render_report(b)
    assert report_json(a) == report_json(b)


def test_screen_malformed_file_reported(tmp_path, corpus_dir):
    with open(os.path.join(corpus_dir, "d8.grp"), encoding="utf-8") as fh:
        (tmp_path / "d8.grp").write_text(fh.read())
    (tmp_path / "broken.grp").write_text("rel a;")
    report = screen_corpus(str(tmp_path))
    assert report.summary["groups"] == 1
    assert report.summary["errors"] == 1
    assert report.errors[0][0] == "broken.grp"


def test_screen_empty_directory(tmp_path):
    with pytest.raises(ScreenError):
        screen_corpus(str(tmp_path))


def test_screen_missing_directory(tmp_path):
    with pytest.raises(ScreenError):
        screen_corpus(str(tmp_path / "nope"))


def test_report_rendering(corpus_dir):
    report = screen_corpus(corpus_dir, order=8)
    text = render_report(report)
    assert "d8 vs q8: not isocategorical (witt_ring)" in text
    js = report_json(report)
    import json

    payload = json.loads(js)
    assert payload["summary"]["groups"] == 5
    assert payload["pairs"][0]["checks"][0][0] == "order"
