import pytest

from wittlab import chartab, deform, groups, witt
from wittlab.deform import (
    CocycleData,
    cocycle_from_table,
    deform_by_cocycle,
    izumi_kosaki,
    quotient_data,
    verify_cocycle,
)
from wittlab.groups import (
    GroupError,
    are_isomorphic,
    normal_subgroups,
    order_profile,
)


def a_elem(i, j):
    # abelian_group([4,4]) indexes a1^i a2^j as 4*i + j
    return 4 * (i % 4) + (j % 4)


def test_quotient_data_klein(ik_pair):
    G, c, _ = ik_pair
    Q, coset_of, section = quotient_data(G, c.subgroup.elements)
    assert Q.order == 4
    assert Q.exponent() == 2
    assert section[0] == 0
    assert all(coset_of[s] == q for q, s in enumerate(section))


def test_quotient_rejects_non_normal(corpus_groups):
    d8 = corpus_groups["d8"]
    b = d8.generators[1]
    sub = groups.generated_subgroup(d8, [b])
    with pytest.raises(GroupError, match="normal"):
        quotient_data(d8, sub)


def test_verify_trivial_cocycle(ik_pair):
    G, c, _ = ik_pair
    triv = cocycle_from_table(G, c.subgroup, [[0] * 4 for _ in range(4)])
    ok, witness = verify_cocycle(triv)
    assert ok and witness is None


def test_verify_bundled_cocycle(ik_pair):
    _, c, _ = ik_pair
    ok, witness = verify_cocycle(c)
    assert ok and witness is None


def test_unsquared_corner_values_violate_the_identity(ik_pair):
    """Deformation values must be central here: generator-valued corners fail."""
    G, c, _ = ik_pair
    table = [[0] * 4 for _ in range(4)]
    for t1 in range(2):
        for t2 in range(2):
            for r1 in range(2):
                for r2 in range(2):
                    table[2 * t1 + t2][2 * r1 + r2] = a_elem(t1 * r1, t2 * r2)
    bad = cocycle_from_table(G, c.subgroup, table)
    ok, witness = verify_cocycle(bad)
    assert not ok and witness is not None


def test_mutated_table_fails_with_witness(ik_pair):
    G, c, _ = ik_pair
    table = [list(row) for row in c.table]
    table[1][2] = a_elem(1, 0)  # a generator of the subgroup
    bad = cocycle_from_table(G, c.subgroup, table)
    ok, witness = verify_cocycle(bad)
    assert not ok
    p, q, r = witness
    # the witness triple genuinely violates the identity
    Q = bad.quotient
    lhs = G.cayley[bad.action[p][bad.table[q][r]]][bad.table[p][Q.cayley[q][r]]]
    rhs = G.cayley[bad.table[Q.cayley[p][q]][r]][bad.table[p][q]]
    assert lhs != rhs


def test_trivial_deformation_is_identity(ik_pair):
    G, c, _ = ik_pair
    triv = cocycle_from_table(G, c.subgroup, [[0] * 4 for _ in range(4)])
    assert deform_by_cocycle(G, c.subgroup, triv).cayley == G.cayley


def test_deformation_preserves_order(ik_pair):
    G, _, Gb = ik_pair
    assert G.order == Gb.order == 64


def test_deform_rejects_invalid_cocycle(ik_pair):
    G, c, _ = ik_pair
    table = [list(row) for row in c.table]
    table[1][2] = a_elem(1, 0)
    bad = cocycle_from_table(G, c.subgroup, table)
    with pytest.raises(GroupError, match="cocycle identity"):
        deform_by_cocycle(G, c.subgroup, bad)


def test_deform_rejects_nonabelian_subgroup(corpus_groups):
    G = corpus_groups["d16"]
    full = normal_subgroups(G)[-1]
    assert not full.abelian
    with pytest.raises(GroupError):
        deform_by_cocycle(G, full, None)


def test_pair_not_isomorphic(ik_pair):
    G, _, Gb = ik_pair
    assert are_isomorphic(G, Gb) is None


def test_pair_shares_bundle_invariants(ik_pair):
    G, _, Gb = ik_pair
    assert order_profile(G) == order_profile(Gb)
    tG, tGb = chartab.burnside_dixon(G), chartab.burnside_dixon(Gb)
    assert tG.degrees == tGb.degrees
    assert chartab.self_dual_count(tG) == chartab.self_dual_count(tGb)
    assert witt.based_ring_isomorphism(
        witt.grothendieck_ring(tG), witt.grothendieck_ring(tGb)
    ) is not None
    wG = witt.witt_ring(witt.fusion_data_from_table(tG))
    wGb = witt.witt_ring(witt.fusion_data_from_table(tGb))
    assert wG.rank == wGb.rank
    assert witt.based_ring_isomorphism(wG.ring, wGb.ring) is not None


def test_coboundary_perturbation_gives_isomorphic_group(ik_pair):
    """b and b * (coboundary of a one-cochain) deform to isomorphic groups."""
    G, c, Gb = ik_pair
    Q = c.quotient
    mul = G.cayley
    inv = G.inverse
    # a normalized one-cochain Q -> A with assorted nontrivial values
    ch = [0, a_elem(1, 2), a_elem(3, 1), a_elem(2, 3)]
    perturbed = []
    for p in range(4):
        row = []
        for q in range(4):
            db = mul[mul[c.action[p][ch[q]]][inv[ch[Q.cayley[p][q]]]]][ch[p]]
            row.append(mul[c.table[p][q]][db])
        perturbed.append(row)
    c2 = cocycle_from_table(G, c.subgroup, perturbed)
    ok, _ = verify_cocycle(c2)
    assert ok
    Gb2 = deform_by_cocycle(G, c.subgroup, c2)
    assert are_isomorphic(Gb2, Gb) is not None


def test_deformed_conjugation_on_subgroup_unchanged(ik_pair):
    """Central values leave the conjugation action on the subgroup alone."""
    G, c, Gb = ik_pair
    for q in range(1, 4):
        s = c.section[q]
        for x in c.subgroup.elements:
            assert G.conj(s, x) == Gb.conj(s, x)


def _double_dimension_multiset(G):
    """Dimensions of the simples of the quantum double: one block per
    conjugacy class, sized (class length) x (centralizer irreducible degree)."""
    cc = groups.conjugacy_classes(G)
    dims = []
    for k, rep in enumerate(cc.reps):
        cz = [x for x in range(G.order) if G.cayley[x][rep] == G.cayley[rep][x]]
        idx = {x: i for i, x in enumerate(cz)}
        rows = [[idx[G.cayley[x][y]] for y in cz] for x in cz]
        C = groups.make_group(rows)
        for d in chartab.burnside_dixon(C).degrees:
            dims.append(cc.sizes[k] * d)
    return sorted(dims)


def test_pair_has_equal_double_dimension_multisets(ik_pair):
    """A monoidal equivalence transports the double, so the dimension
    multisets of the doubles must agree even though the conjugacy class
    sizes of the pair do not."""
    G, _, Gb = ik_pair
    ccG, ccGb = groups.conjugacy_classes(G), groups.conjugacy_classes(Gb)
    shapeG = sorted(zip(ccG.rep_orders, ccG.sizes))
    shapeGb = sorted(zip(ccGb.rep_orders, ccGb.sizes))
    assert shapeG != shapeGb
    dG = _double_dimension_multiset(G)
    dGb = _double_dimension_multiset(Gb)
    assert dG == dGb
    assert len(dG) == 484
    assert sum(d * d for d in dG) == 64 * 64
