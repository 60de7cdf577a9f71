import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wittlab import chartab, groups, witt
from wittlab.groups import abelian_group, abelian_invariants, cyclic, order_profile
from wittlab.witt import (
    MINUS_ONE,
    ONE,
    FusionError,
    based_ring_isomorphism,
    double_abelian_witt,
    fusion_data_from_table,
    grothendieck_ring,
    make_based_ring,
    root_of_unity,
    vec_z2_fixture,
    witt_basis,
    witt_ring,
)


def klein_group_ring_mod2():
    consts = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for (x1, y1), (x2, y2) in itertools.product(
        itertools.product(range(2), range(2)), repeat=2
    ):
        i, j = 2 * x1 + y1, 2 * x2 + y2
        k = 2 * ((x1 + x2) % 2) + (y1 + y2) % 2
        consts[i][j][k] = 1
    return make_based_ring("Z2", ("e", "u", "v", "uv"), 0, consts)


# ----------------------------------------------------------- roots of unity


def test_root_of_unity_arithmetic():
    i = root_of_unity(1, 4)
    assert i * i == MINUS_ONE
    assert i * i * i == root_of_unity(3, 4)
    assert (i * i * i * i).is_one
    assert root_of_unity(2, 4) == MINUS_ONE
    assert str(MINUS_ONE) == "-1" and str(ONE) == "1"


@given(st.integers(0, 7), st.sampled_from([1, 2, 4]), st.integers(0, 7),
       st.sampled_from([1, 2, 4]))
@settings(max_examples=50, deadline=None)
def test_root_of_unity_mul_matches_complex(a, m, b, l):
    import cmath

    x = root_of_unity(a, m)
    y = root_of_unity(b, l)
    expect = cmath.exp(2j * cmath.pi * (a / m + b / l))
    got = x * y
    assert abs(cmath.exp(2j * cmath.pi * got.num / got.order) - expect) < 1e-9


# ----------------------------------------------------------------- fixtures


def test_vec_fixture_bases():
    assert witt_basis(vec_z2_fixture("b0")) == (0, 1)
    assert witt_basis(vec_z2_fixture("b1")) == (0,)
    assert witt_basis(vec_z2_fixture("bi")) == (0,)
    assert witt_basis(vec_z2_fixture("b-i")) == (0,)


def test_vec_fixture_weak_symmetry():
    assert vec_z2_fixture("b0").weakly_symmetric(1)
    assert vec_z2_fixture("b1").weakly_symmetric(1)
    assert not vec_z2_fixture("bi").weakly_symmetric(1)
    assert not vec_z2_fixture("b-i").weakly_symmetric(1)
    with pytest.raises(FusionError):
        vec_z2_fixture("nope")


def test_vec_fixture_group_only_when_braided():
    assert witt_ring(vec_z2_fixture("bi")).group_only
    assert not witt_ring(vec_z2_fixture("b0")).group_only


# ---------------------------------------------------------------- Witt rings


def test_witt_basis_d8_q8(tables):
    fd8 = fusion_data_from_table(tables("d8"))
    fq8 = fusion_data_from_table(tables("q8"))
    assert len(witt_basis(fd8)) == 5
    assert len(witt_basis(fq8)) == 4
    assert all(fd8.scalars[i] == ONE for i in range(5))
    assert fq8.scalars[4] == MINUS_ONE


def test_witt_unit_law(tables):
    wr = witt_ring(fusion_data_from_table(tables("d8")))
    ring = wr.ring
    for j in range(ring.rank):
        assert ring.constants[ring.unit][j][j] == 1


def test_witt_product_is_projected_fusion(tables):
    """The literal product rule: fusion mod 2, non-basis components dropped."""
    for name in ("d8", "q8", "g3_16", "smallgroup_32_7"):
        t = tables(name)
        fd = fusion_data_from_table(t)
        wr = witt_ring(fd)
        basis = wr.basis
        for bi, i in enumerate(basis):
            for bj, j in enumerate(basis):
                for bk, k in enumerate(basis):
                    assert wr.ring.constants[bi][bj][bk] == fd.tensor[i][j][k] % 2


def test_witt_d8_degree2_square(tables):
    t = tables("d8")
    wr = witt_ring(fusion_data_from_table(t))
    deg2 = next(b for b, i in enumerate(wr.basis) if t.degrees[i] == 2)
    row = wr.ring.constants[deg2][deg2]
    assert sum(row) == 4 and row[deg2] == 0


def test_witt_q8_is_klein_group_ring(tables):
    wr = witt_ring(fusion_data_from_table(tables("q8")))
    assert based_ring_isomorphism(wr.ring, klein_group_ring_mod2()) is not None


def test_witt_rings_associative_and_commutative(tables):
    for name in ("d8", "q16", "smallgroup_32_34"):
        wr = witt_ring(fusion_data_from_table(tables(name)))
        c = wr.ring.constants
        assert all(c[i][j] == c[j][i] for i in range(wr.ring.rank) for j in range(wr.ring.rank))
        assert witt.assert_associative(wr.ring)


def test_witt_abelian_is_two_torsion_of_dual(corpus_groups, tables):
    """For abelian groups the basis is the 2-torsion of the character group."""
    for name, G in corpus_groups.items():
        if G.order > 16 or not G.is_abelian():
            continue
        fd = fusion_data_from_table(tables(name))
        two_torsion = sum(1 for x in range(G.order) if G.cayley[x][x] == 0)
        assert len(witt_basis(fd)) == two_torsion


def test_witt_basis_is_positive_indicator_locus(tables):
    from wittlab.chartab import fs_vector

    for name in ("d8", "q16", "g3_16", "smallgroup_32_6", "z4x4"):
        t = tables(name)
        fd = fusion_data_from_table(t)
        expect = tuple(i for i, v in enumerate(fs_vector(t)) if v == 1)
        assert witt_basis(fd) == expect


# ------------------------------------------------------------ twisted braiding


def test_twist_by_identity_matches_untwisted(tables, corpus_groups):
    t = tables("q8")
    assert fusion_data_from_table(t, u=0) == fusion_data_from_table(t)


def test_twist_q8_by_central_square(corpus_groups):
    q8 = corpus_groups["q8"]
    a2 = q8.power(q8.generators[0], 2)
    t = chartab.burnside_dixon(q8)
    fd = fusion_data_from_table(t, u=a2)
    assert len(witt_basis(fd)) == 5
    # u acts by -1 on the degree-2 simple: chi5(a^2) = -2
    k = t.classes.class_of[a2]
    assert t.values[4][k] == t.p - 2


def test_twist_scalars_square_to_one(corpus_groups):
    q8 = corpus_groups["q8"]
    a2 = q8.power(q8.generators[0], 2)
    fd = fusion_data_from_table(chartab.burnside_dixon(q8), u=a2)
    for i in range(fd.rank):
        assert (fd.scalars[i] * fd.scalars[i]).is_one


def test_twist_rejects_noncentral_or_noninvolution(corpus_groups):
    d8 = corpus_groups["d8"]
    t = chartab.burnside_dixon(d8)
    with pytest.raises(FusionError):
        fusion_data_from_table(t, u=d8.generators[1])  # order 2 but not central
    with pytest.raises(FusionError):
        fusion_data_from_table(t, u=d8.generators[0])  # central test fails first anyway


# ------------------------------------------------------- based ring isomorphism


def test_based_ring_isomorphism_reflexive_symmetric(tables):
    K = grothendieck_ring(tables("d16"))
    sigma = based_ring_isomorphism(K, K)
    assert sigma is not None
    L = grothendieck_ring(tables("q16"))
    forward = based_ring_isomorphism(K, L)
    backward = based_ring_isomorphism(L, K)
    assert forward is not None and backward is not None


def test_k0_d8_q8_isomorphic(tables):
    assert based_ring_isomorphism(
        grothendieck_ring(tables("d8")), grothendieck_ring(tables("q8"))
    ) is not None


def test_k0_z2_is_group_ring():
    t = chartab.burnside_dixon(cyclic(2))
    K = grothendieck_ring(t)
    assert K.rank == 2 and K.constants[1][1][0] == 1


def test_k0_distinguishes_abelian(tables):
    assert based_ring_isomorphism(
        grothendieck_ring(tables("z8")), grothendieck_ring(tables("z4x2"))
    ) is None


def test_witt_d8_q8_not_isomorphic(tables):
    w1 = witt_ring(fusion_data_from_table(tables("d8")))
    w2 = witt_ring(fusion_data_from_table(tables("q8")))
    assert w1.rank == 5 and w2.rank == 4
    assert based_ring_isomorphism(w1.ring, w2.ring) is None


def test_make_based_ring_rejects_noncommutative_constants():
    consts = [[list(row) for row in plane] for plane in klein_group_ring_mod2().constants]
    consts[1][2] = [1, 0, 0, 0]  # u * v = e, while v * u = uv
    with pytest.raises(FusionError, match="not commutative"):
        make_based_ring("Z2", ("e", "u", "v", "uv"), 0, consts)


def _former_constants(coeff, constants):
    """A verbatim copy of the former normalisation and sign test of
    make_based_ring."""
    constants = tuple(
        tuple(tuple(int(v) % 2 if coeff == "Z2" else int(v) for v in row) for row in plane)
        for plane in constants
    )
    if any(v < 0 for plane in constants for row in plane for v in row):
        raise FusionError("structure constants must be nonnegative")
    return constants


def _z2_group_ring(one, zero):
    """The group ring of Z2 with the entries 1 and 0 spelled as given."""
    return [[[one, zero], [zero, one]], [[zero, one], [one, zero]]]


@pytest.mark.parametrize("coeff", ["Z", "Z2"])
@pytest.mark.parametrize(
    "consts",
    [
        _z2_group_ring(True, False),
        _z2_group_ring(1.0, 0.0),
        _z2_group_ring(1.9, -0.5),  # int() truncates to 1 and 0
        _z2_group_ring(3, 2),  # the group ring mod 2, not over Z
        _z2_group_ring(-1, 0),
        _z2_group_ring(1, -2),
        _z2_group_ring(-1.5, 0),
        _z2_group_ring(True, -0.0),
    ],
)
def test_make_based_ring_normalises_constants_as_before(coeff, consts):
    def outcome(constants):
        try:
            return make_based_ring(coeff, ("e", "u"), 0, constants).constants
        except FusionError as exc:
            return str(exc)

    try:
        expect = outcome(_former_constants(coeff, consts))
    except FusionError as exc:
        expect = str(exc)
    got = outcome(consts)
    assert got == expect
    if not isinstance(got, str):
        assert {type(v) for plane in got for row in plane for v in row} == {int}
        assert {type(row) for plane in got for row in plane} == {tuple}


def test_make_based_ring_rejects_negative_constants():
    for i, j, k in itertools.product(range(2), repeat=3):
        consts = _z2_group_ring(1, 0)
        consts[i][j][k] = -1
        with pytest.raises(FusionError, match="^structure constants must be nonnegative$"):
            make_based_ring("Z", ("e", "u"), 0, consts)


def test_based_ring_isomorphism_requires_same_coeff(tables):
    K = grothendieck_ring(tables("d8"))
    W = witt_ring(fusion_data_from_table(tables("d8"))).ring
    with pytest.raises(FusionError):
        based_ring_isomorphism(K, W)


@given(rnd=st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_based_ring_isomorphism_finds_relabelings(tables, rnd):
    """A unit-fixing basis shuffle is always recognised, and the returned
    map transports all structure constants."""
    K = grothendieck_ring(tables("q16"))
    r = K.rank
    perm = list(range(1, r))
    rnd.shuffle(perm)
    perm = [0] + perm  # keep the unit at position 0
    inv = [0] * r
    for i, p in enumerate(perm):
        inv[p] = i
    consts = [
        [
            [K.constants[perm[i]][perm[j]][perm[k]] for k in range(r)]
            for j in range(r)
        ]
        for i in range(r)
    ]
    shuffled = make_based_ring("Z", tuple(K.labels[p] for p in perm), 0, consts)
    sigma = based_ring_isomorphism(K, shuffled)
    assert sigma is not None
    for i in range(r):
        for j in range(r):
            for k in range(r):
                assert K.constants[i][j][k] == shuffled.constants[sigma[i]][sigma[j]][sigma[k]]


# ------------------------------------------------------------ abelian doubles


def double_rank_oracle(name, corpus_groups, tables):
    """Independent route: count pairs via the character table mod p."""
    G = corpus_groups[name]
    t = tables(name)
    cc = t.classes
    p = t.p
    count = 0
    for g in range(G.order):
        if G.cayley[g][g] != 0:
            continue
        kg = cc.class_of[g]
        for i in range(t.nclasses):
            if any(pow(t.values[i][k], 2, p) != 1 for k in range(t.nclasses)):
                continue
            if t.values[i][kg] == 1:
                count += 1
    return count


def test_double_ranks(corpus_groups, tables):
    for name, expect in (("z2", 3), ("z3", 1), ("z2x2", 10)):
        G = corpus_groups[name]
        struct = abelian_invariants(G, range(G.order))
        res = double_abelian_witt(struct)
        assert res.rank == expect
        assert res.group_only
        assert res.rank == double_rank_oracle(name, corpus_groups, tables)


def test_double_excluded_pair():
    struct = abelian_invariants(cyclic(2), range(2))
    res = double_abelian_witt(struct)
    assert ((1,), (1,)) not in res.pairs  # the antisymmetric pair (u, chi)
    assert len(res.pairs) == 3


def test_double_trivial_group():
    struct = abelian_invariants(cyclic(1), [0])
    assert double_abelian_witt(struct).rank == 1


@given(st.lists(st.sampled_from([2, 3, 4, 5, 8]), min_size=0, max_size=3))
@settings(max_examples=40, deadline=None)
def test_double_rank_closed_form(factors):
    """Factors d = 2 (mod 4) pair nondegenerately on two-torsion (each
    nontrivial involution halves the character side); factors divisible by
    four pair trivially there and contribute a free factor of 4."""
    G = abelian_group(factors) if factors else cyclic(1)
    struct = abelian_invariants(G, range(G.order))
    k2 = sum(1 for d in struct.factors if d % 4 == 2)
    k4 = sum(1 for d in struct.factors if d % 4 == 0)
    core = 2**k2 + (2**k2 - 1) * 2 ** (k2 - 1) if k2 else 1
    assert double_abelian_witt(struct).rank == 4**k4 * core
