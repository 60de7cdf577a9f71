"""Acceptance suite: one test per headline criterion, exact assertions.

Each test prints a single pass/fail line (visible with pytest -s) and
enforces its runtime budget.  All arithmetic is exact, so every comparison
is strict equality.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from wittlab import chartab, deform, groups, screen, witt
from wittlab.chartab import burnside_dixon, fs_vector, lift_to_cyclotomic
from wittlab.groups import (
    abelian_invariants,
    are_isomorphic,
    normal_subgroups,
    order_profile,
)
from wittlab.witt import (
    based_ring_isomorphism,
    double_abelian_witt,
    fusion_data_from_table,
    grothendieck_ring,
    vec_z2_fixture,
    witt_basis,
    witt_ring,
)


@contextmanager
def criterion(label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {label} took {elapsed:.2f}s (budget {budget}s)"
    print(f"criterion {label}: PASS ({elapsed:.2f}s)")


def degree2_row_by_anchor(t, anchor_class, anchor_value):
    rows = [
        i
        for i in range(t.nclasses)
        if t.degrees[i] == 2 and t.values[i][anchor_class] == anchor_value % t.p
    ]
    assert len(rows) >= 1
    return rows


def test_criterion_1_order_8(tables):
    with criterion("1 (order 8)", 1.0):
        td, tq = tables("d8"), tables("q8")
        assert fs_vector(td) == (1, 1, 1, 1, 1)
        assert fs_vector(tq) == (1, 1, 1, 1, -1)
        wd = witt_ring(fusion_data_from_table(td))
        wq = witt_ring(fusion_data_from_table(tq))
        assert wd.rank == 5 and wq.rank == 4
        assert based_ring_isomorphism(wd.ring, wq.ring) is None
        assert based_ring_isomorphism(grothendieck_ring(td), grothendieck_ring(tq)) is not None


def test_criterion_2_order_16_d16_q16(tables, corpus_groups):
    with criterion("2 (d16 vs q16)", 1.0):
        for name, expected in (("d16", (1, 1, 1)), ("q16", (1, -1, -1))):
            t = tables(name)
            G = corpus_groups[name]
            a = G.generators[0]
            a4 = G.power(a, 4)
            lifted = lift_to_cyclotomic(t)
            ka, ka4 = t.classes.class_of[a], t.classes.class_of[a4]
            chi = degree2_row_by_anchor(t, ka4, 2)[0]
            psi = next(
                i for i in range(t.nclasses)
                if t.degrees[i] == 2 and lifted.cyclo[i][ka].mult == ((1, 1), (7, 1))
            )
            kappa = next(
                i for i in range(t.nclasses)
                if t.degrees[i] == 2 and lifted.cyclo[i][ka].mult == ((3, 1), (5, 1))
            )
            got = (
                chartab.fs_indicator(t, chi),
                chartab.fs_indicator(t, psi),
                chartab.fs_indicator(t, kappa),
            )
            assert got == expected
        w1 = witt_ring(fusion_data_from_table(tables("d16")))
        w2 = witt_ring(fusion_data_from_table(tables("q16")))
        assert w1.rank != w2.rank or based_ring_isomorphism(w1.ring, w2.ring) is None


def test_criterion_2_order_16_g3_g4(tables, corpus_groups):
    with criterion("2 (g3 vs g4)", 1.0):
        for name, expected in (("g3_16", (1, -1)), ("g4_16", (1, 1))):
            t = tables(name)
            G = corpus_groups[name]
            a2 = G.power(G.generators[0], 2)
            k2 = t.classes.class_of[a2]
            chi = degree2_row_by_anchor(t, k2, 2)[0]
            psi = degree2_row_by_anchor(t, k2, -2)[0]
            assert (chartab.fs_indicator(t, chi), chartab.fs_indicator(t, psi)) == expected
        w3 = witt_ring(fusion_data_from_table(tables("g3_16")))
        w4 = witt_ring(fusion_data_from_table(tables("g4_16")))
        assert w3.rank != w4.rank or based_ring_isomorphism(w3.ring, w4.ring) is None


def test_criterion_3_order_32_profile_pair(tables, corpus_groups):
    with criterion("3 (order-32 profile pair)", 5.0):
        t6, t7 = tables("smallgroup_32_6"), tables("smallgroup_32_7")
        assert based_ring_isomorphism(grothendieck_ring(t6), grothendieck_ring(t7)) is not None
        w6 = witt_ring(fusion_data_from_table(t6))
        w7 = witt_ring(fusion_data_from_table(t7))
        assert w6.rank == w7.rank
        assert based_ring_isomorphism(w6.ring, w7.ring) is not None
        assert chartab.self_dual_count(t6) == chartab.self_dual_count(t7) == 7
        g6, g7 = corpus_groups["smallgroup_32_6"], corpus_groups["smallgroup_32_7"]
        assert order_profile(g6)[4] == 20
        assert order_profile(g7)[4] == 4
        verdict = screen.compare_pair(g6, g7)
        assert verdict.verdict == screen.NOT_ISOCATEGORICAL
        assert verdict.witness == "order_profile"


def test_criterion_4_order_32_candidate_pair(tables, corpus_groups):
    with criterion("4 (order-32 candidate pair)", 10.0):
        t27, t34 = tables("smallgroup_32_27"), tables("smallgroup_32_34")
        assert based_ring_isomorphism(grothendieck_ring(t27), grothendieck_ring(t34)) is not None
        w27 = witt_ring(fusion_data_from_table(t27))
        w34 = witt_ring(fusion_data_from_table(t34))
        assert w27.rank == w34.rank
        assert based_ring_isomorphism(w27.ring, w34.ring) is not None
        assert chartab.self_dual_count(t27) == chartab.self_dual_count(t34)
        g27, g34 = corpus_groups["smallgroup_32_27"], corpus_groups["smallgroup_32_34"]
        assert order_profile(g27) == order_profile(g34)
        ev27, ev34 = screen.rigidity_screen(g27), screen.rigidity_screen(g34)
        big27 = [c for c in ev27.candidates if not c.central and c.subgroup.order == 16]
        big34 = [c for c in ev34.candidates if not c.central and c.subgroup.order == 16]
        assert len(big27) == 1 and big27[0].kind == (2, 2, 2, 2)
        assert len(big34) == 1 and big34[0].kind == (4, 4)
        verdict = screen.compare_pair(g27, g34)
        assert verdict.verdict == screen.NOT_ISOCATEGORICAL
        assert "candidate-subgroup" in verdict.witness


def test_criterion_4_self_dual_count_as_stated(tables):
    """The stated count of self-dual irreducibles for the order-32 candidate
    pair is 10 = 10; the groups defined by the bundled presentations
    provably carry 14 = 14 (every character is real).  The counts do agree,
    just not at the stated value: enumerating all 51 groups of order 32
    (scripts/survey_order32.py) shows no pair satisfies this count together
    with the candidate-type clause of the previous test, so this assertion
    fails and is kept as stated rather than loosened.
    """
    sd27 = chartab.self_dual_count(tables("smallgroup_32_27"))
    sd34 = chartab.self_dual_count(tables("smallgroup_32_34"))
    assert sd27 == sd34  # the screening-relevant equality: holds
    with criterion("4b (self-dual count as stated)", 10.0):
        assert sd27 == 10 and sd34 == 10


def test_criterion_5_order_64_pair(ik_pair):
    with criterion("5 (order-64 deformation pair)", 30.0):
        G, cocycle, Gb = ik_pair
        assert G.order == 64 and Gb.order == 64
        ok, _ = deform.verify_cocycle(cocycle)
        assert ok
        assert are_isomorphic(G, Gb) is None
        a = screen.invariant_bundle(G, name="g64")
        b = screen.invariant_bundle(Gb, name="g64_b")
        verdict = screen.compare_bundles(a, b)
        assert all(ok for _, ok in verdict.checks)
        assert verdict.verdict == screen.UNDECIDED


def test_criterion_6_graded_line_fixtures():
    with criterion("6 (graded-line fixtures)", 0.1):
        sizes = [len(witt_basis(vec_z2_fixture(w))) for w in ("b0", "b1", "bi", "b-i")]
        assert sizes == [2, 1, 1, 1]
        assert not vec_z2_fixture("bi").weakly_symmetric(1)


def test_criterion_7_abelian_double_ranks():
    with criterion("7 (abelian double ranks)", 0.1):
        # independent oracle: exhaustive enumeration of (element, character)
        # pairs with both square conditions and the evaluation condition
        def oracle(factors):
            import math

            N = math.lcm(*factors) if factors else 1
            count = 0
            for g in itertools.product(*(range(d) for d in factors)):
                if any((2 * gi) % d for gi, d in zip(g, factors)):
                    continue
                for chi in itertools.product(*(range(d) for d in factors)):
                    if any((2 * e) % d for e, d in zip(chi, factors)):
                        continue
                    pairing = sum(e * gi * (N // d) for e, gi, d in zip(chi, g, factors))
                    if pairing % N == 0:
                        count += 1
            return count

        for factors, expect in (((2,), 3), ((3,), 1), ((2, 2), 10)):
            assert oracle(factors) == expect
            G = groups.abelian_group(factors)
            struct = abelian_invariants(G, range(G.order))
            assert double_abelian_witt(struct).rank == expect


def test_criterion_8_rigidity_screen(corpus_groups):
    with criterion("8 (rigidity screen)", 1.0 * len(corpus_groups)):
        per_group_budget = 1.0
        assert screen.rigidity_screen(corpus_groups["q8"]).rigid
        for name, G in corpus_groups.items():
            if G.order % 2 == 0:
                continue
            start = time.perf_counter()
            assert screen.rigidity_screen(G).rigid, name
            assert time.perf_counter() - start < per_group_budget
        ev = screen.rigidity_screen(corpus_groups["g3_16"])
        assert not ev.rigid
        assert any(c.kind == (2, 2) for c in ev.candidates)


def test_criterion_9_property_suites(corpus_groups, tables, ik_pair):
    with criterion("9 (property suites)", 60.0):
        for name, G in sorted(corpus_groups.items()):
            t = tables(name)
            n, r, p, cc = G.order, t.nclasses, t.p, t.classes
            assert sum(d * d for d in t.degrees) == n
            for i in range(r):
                for j in range(r):
                    tot = sum(
                        cc.sizes[k] * t.values[i][k] * t.values[j][cc.inverse_class[k]]
                        for k in range(r)
                    ) % p
                    assert tot == (n % p if i == j else 0)
            # fusion-tensor associativity (full check up to rank 20)
            ring = grothendieck_ring(t)
            witt.assert_associative(ring, limit=20)
            # Witt product is the projected fusion product mod 2
            fd = fusion_data_from_table(t)
            wr = witt_ring(fd)
            for bi, i in enumerate(wr.basis):
                for bj, j in enumerate(wr.basis):
                    for bk, k in enumerate(wr.basis):
                        assert wr.ring.constants[bi][bj][bk] == fd.tensor[i][j][k] % 2
            # Frobenius-Schur indicators against the brute-force complex sum
            if n <= 16:
                lifted = lift_to_cyclotomic(t)
                for i in range(r):
                    acc = 0j
                    for g in range(n):
                        acc += lifted.cyclo[i][cc.class_of[G.cayley[g][g]]].to_complex()
                    assert abs(acc / n - chartab.fs_indicator(t, i)) < 1e-9
        # deformation by the trivial cocycle is the identity on Cayley tables
        G64, cocycle, _ = ik_pair
        triv = deform.cocycle_from_table(
            G64, cocycle.subgroup, [[0] * 4 for _ in range(4)]
        )
        assert deform.deform_by_cocycle(G64, cocycle.subgroup, triv).cayley == G64.cayley


def test_criterion_10_bundled_corpus_screen(corpus_dir):
    with criterion("10 (bundled corpus screen)", 90.0):
        report = screen.screen_corpus(corpus_dir)
        assert report.summary["errors"] == 0
        undecided = [
            (p.left, p.right) for p in report.pairs if p.verdict == screen.UNDECIDED
        ]
        assert undecided == [("g64", "g64_b")]
        resolved_with = {}
        for p in report.pairs:
            if p.verdict == screen.NOT_ISOCATEGORICAL:
                resolved_with.setdefault(p.left, []).append(p.right)
                resolved_with.setdefault(p.right, []).append(p.left)
        same_order = {}
        for e in report.entries:
            same_order.setdefault(e["order"], []).append(e["name"])
        for e in report.entries:
            peers = [n for n in same_order[e["order"]] if n != e["name"]]
            distinguished = all(n in resolved_with.get(e["name"], []) for n in peers)
            if e["name"] in ("g64", "g64_b"):
                # the deliberately isocategorical pair stays undecided
                continue
            assert e["rigid_by_screen"] or distinguished, e["name"]
