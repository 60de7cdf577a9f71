import itertools
import os

import pytest

from wittlab import chartab, screen, witt
from wittlab.groups import (
    _is_p_power,
    abelian_coordinates,
    abelian_group,
    abelian_invariants,
    cyclic,
    direct_product,
    normal_subgroups,
)
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

from conftest import generated_subgroup


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


def test_rigidity_screen_cyclic_four_torsion_rejected():
    # Z4 has an order-4 normal subgroup but no nondegenerate alternating form
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


def test_screen_corpus_order_bundles_only_that_order(corpus_dir, monkeypatch):
    """With ``order``, only the groups of that order get an invariant
    bundle."""
    orders = []

    def bundle(G, name=""):
        orders.append(G.order)
        return invariant_bundle(G, name=name)

    monkeypatch.setattr(screen, "invariant_bundle", bundle)
    assert screen_corpus(corpus_dir, order=8).summary["groups"] == 5
    assert orders == [8] * 5


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


# ------------------------------------------- the former skew-form enumeration


def _reference_dual_action_matrix(G, struct, coords, g):
    """Matrix of the contragredient action of g on characters, columns =
    images of the dual basis characters, entries mod the row factor."""
    k = len(struct.factors)
    N = struct.factors[-1]
    ginv = G.inverse[g]
    conj_coords = [coords[G.conj(ginv, struct.generators[i])] for i in range(k)]
    D = [[0] * k for _ in range(k)]
    for j in range(k):  # image of the j-th dual basis character
        for i in range(k):
            # value of (g . delta_j) on gen_i is zeta_N ** t
            t = (conj_coords[i][j] * (N // struct.factors[j])) % N
            step = N // struct.factors[i]
            if t % step:
                raise RuntimeError("dual action failed to land in the lattice")
            D[i][j] = (t // step) % struct.factors[i]
    return D


def _reference_conj_action_matrix(G, struct, coords, g):
    k = len(struct.factors)
    C = [[0] * k for _ in range(k)]
    for j in range(k):
        img = coords[G.conj(g, struct.generators[j])]
        for i in range(k):
            C[i][j] = img[i] % struct.factors[i]
    return C


def _reference_mat_mul_mod(A, B, factors):
    k = len(factors)
    return [
        [sum(A[i][t] * B[t][j] for t in range(k)) % factors[i] for j in range(k)]
        for i in range(k)
    ]


def _reference_skew_isomorphisms(G, struct):
    """Yield (matrix, alternating?) for every skew-symmetric equivariant
    isomorphism from the character group onto the subgroup: the diagonal
    and upper-triangle enumeration the invariant-form kernel replaced."""
    d = struct.factors
    k = len(d)
    N = d[-1]
    coords = abelian_coordinates(G, struct)
    element_of = {c: x for x, c in coords.items()}
    Cs = [_reference_conj_action_matrix(G, struct, coords, g) for g in G.generators]
    Ds = [_reference_dual_action_matrix(G, struct, coords, g) for g in G.generators]

    diag_choices = []
    for i in range(k):
        # 2 * M[i][i] * (N / d_i) = 0 (mod N), i.e. M[i][i] in {0, d_i/2}
        opts = [0]
        if d[i] % 2 == 0:
            opts.append(d[i] // 2)
        diag_choices.append(opts)

    upper = [(i, j) for i in range(k) for j in range(i + 1, k)]

    def hom_ok(i, j, v):
        return (v * d[j]) % d[i] == 0

    upper_choices = []
    for i, j in upper:
        pairs = []
        for v in range(d[i]):
            if not hom_ok(i, j, v):
                continue
            # solve M[j][i] * (N/d_j) = -v * (N/d_i)  (mod N)
            t = (-v * (N // d[i])) % N
            c = N // d[j]
            if t % c:
                continue
            w = (t // c) % d[j]
            if hom_ok(j, i, w):
                pairs.append((v, w))
        upper_choices.append(pairs)

    for diag in itertools.product(*diag_choices):
        for ups in itertools.product(*upper_choices):
            M = [[0] * k for _ in range(k)]
            for i in range(k):
                M[i][i] = diag[i]
            for (i, j), (v, w) in zip(upper, ups):
                M[i][j] = v
                M[j][i] = w
            if any(
                _reference_mat_mul_mod(M, D, d) != _reference_mat_mul_mod(C, M, d)
                for C, D in zip(Cs, Ds)
            ):
                continue
            # bijectivity: the columns must generate the whole subgroup
            cols = [element_of[tuple(row[j] for row in M)] for j in range(k)]
            if len(generated_subgroup(G, cols)) != struct.order:
                continue
            yield M, all(diag[i] == 0 for i in range(k))


def _four_power_subgroups(G):
    """The normal abelian subgroups of order 4^m (m >= 1), with structure."""
    for sub in normal_subgroups(G):
        n = sub.order
        if sub.abelian and n >= 4 and _is_p_power(n, 4):
            yield sub, abelian_invariants(G, sub)


def test_screen_matches_the_reference_enumeration(corpus_groups, survey_reps):
    """The candidates are the subgroups with an alternating isomorphism in
    the reference enumeration, on the corpus, five larger groups and the
    survey representatives of orders 2 to 32; none of these subgroups has a
    skew isomorphism but no alternating one."""
    d8 = corpus_groups["d8"]
    cases = dict(corpus_groups)
    cases["z2^5"] = abelian_group([2] * 5)
    cases["z2^6"] = abelian_group([2] * 6)
    cases["d8xd8"] = direct_product(d8, d8)
    cases["z4^2xz2^2"] = abelian_group([4, 4, 2, 2])
    cases["z8^2"] = abelian_group([8, 8])
    for order, reps in survey_reps.items():
        for i, G in enumerate(reps):
            cases[f"survey{order}#{i}"] = G
    tested = skew_only = 0
    for name, G in cases.items():
        expected = []
        for sub, struct in _four_power_subgroups(G):
            tested += 1
            admits = alternating = False
            for _, alt in _reference_skew_isomorphisms(G, struct):
                admits = True
                if alt:
                    alternating = True
                    break
            if alternating:
                expected.append(sub.elements)
            skew_only += admits and not alternating
        got = [c.subgroup.elements for c in rigidity_screen(G).candidates]
        assert got == expected, name
    assert tested == 1800 + 743
    assert skew_only == 0


def _brute_forms(G, struct, alternating):
    """Every exponent matrix E over Z/N of a G-invariant skew form on A,
    by trying all upper triangles and evaluating b on A's elements."""
    d = struct.factors
    k = len(d)
    N = d[-1]
    coords = abelian_coordinates(G, struct)
    conj = [[coords[G.conj(g, a)] for a in struct.generators] for g in G.generators]
    upper = [(i, j) for i in range(k) for j in range(i, k)]
    for values in itertools.product(range(N), repeat=len(upper)):
        E = [[0] * k for _ in range(k)]
        for (i, j), v in zip(upper, values):
            E[i][j], E[j][i] = v, -v % N
        if any(d[i] * E[i][j] % N for i, j in upper):
            continue
        if any((E[i][i] if alternating else 2 * E[i][i] % N) for i in range(k)):
            continue

        def b(x, y):
            return sum(x[i] * y[j] * E[i][j] for i in range(k) for j in range(k)) % N

        if all(b(img[i], img[j]) == E[i][j] for img in conj for i, j in upper):
            yield E


def _brute_nondegenerate(G, struct, E):
    """No element of A but 1 pairs trivially with every generator of A."""
    k = len(struct.factors)
    N = struct.factors[-1]
    return not any(
        all(sum(x[i] * E[i][j] for i in range(k)) % N == 0 for j in range(k))
        for x in itertools.product(*(range(dd) for dd in struct.factors))
        if any(x)
    )


def test_invariant_forms_are_every_form_once(corpus_groups):
    """On every small candidate of the corpus groups of order <= 32, the
    kernel walk lists each invariant alternating form exactly once, and the
    radical test agrees with a search of A."""
    tested = 0
    for name, G in corpus_groups.items():
        if G.order > 32:
            continue
        for _, struct in _four_power_subgroups(G):
            k = len(struct.factors)
            if struct.factors[-1] ** (k * (k + 1) // 2) > 4096:
                continue
            got = list(screen._invariant_forms(G, struct))
            want = list(_brute_forms(G, struct, True))
            assert sorted(got) == sorted(want), name
            assert len({str(E) for E in got}) == len(got), name
            for E in want:
                assert screen._nondegenerate(E, struct) == _brute_nondegenerate(G, struct, E)
            tested += 1
    assert tested >= 50
