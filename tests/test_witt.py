import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wittlab import chartab, groups, witt
from wittlab.deform import central_extensions
from wittlab.groups import abelian_group, abelian_invariants, cyclic, order_profile
from wittlab.witt import (
    MINUS_ONE,
    ONE,
    BasedRing,
    FusionError,
    _colours,
    based_ring_isomorphism,
    double_abelian_witt,
    fusion_data_from_table,
    fusion_ring,
    grothendieck_ring,
    make_based_ring,
    make_fusion_data,
    root_of_unity,
    witt_basis,
    witt_ring,
)

from conftest import vec_z2_fixture


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


def test_witt_constants_are_the_fusion_tensor_mod_2_on_the_corpus(corpus_groups, tables):
    """The same on every corpus group, odd orders (a basis of the unit
    alone) included."""
    for name in corpus_groups:
        fd = fusion_data_from_table(tables(name))
        wr = witt_ring(fd)
        want = tuple(
            tuple(tuple(fd.tensor[i][j][k] % 2 for k in wr.basis) for j in wr.basis)
            for i in wr.basis
        )
        assert wr.ring.constants == want, name
    assert witt_ring(fusion_data_from_table(tables("z3"))).basis == (0,)


@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_z2_constants_are_reduced_like_mod_2(entries):
    """Any ints, negative ones too, reduce as v % 2: the Z2 ring of the
    group Z2 with its constants shifted by even amounts is the same ring.
    A numeric string is not an integer and raises FusionError."""
    a, b, c, d = (2 * x for x in entries)
    consts = [[[1 + a, b], [c, 1 + d]], [[b, 1 - a], [1 - c, -d]]]
    ring = make_based_ring("Z2", ("e", "g"), 0, consts)
    assert ring.constants == (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    consts[1][1][1] = str(-d)
    with pytest.raises(FusionError, match="^structure constants must be integers$"):
        make_based_ring("Z2", ("e", "g"), 0, consts)


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
        _z2_group_ring(1.9, -0.5),  # not integers: FusionError
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
    if any(v != int(v) for plane in consts for row in plane for v in row):
        expect = "structure constants must be integers"  # the former code truncated
    got = outcome(consts)
    assert got == expect
    if not isinstance(got, str):
        assert {type(v) for plane in got for row in plane for v in row} == {int}
        assert {type(row) for plane in got for row in plane} == {tuple}


def test_fusion_ring_shares_the_fusion_tensor_rows(corpus_groups, tables):
    """Exact-int rows pass ``make_based_ring`` uncopied, so the Grothendieck
    ring holds the fusion data's own rows."""
    for name in corpus_groups:
        fd = fusion_data_from_table(tables(name))
        K = fusion_ring(fd)
        assert all(K.constants[i][j] is fd.tensor[i][j] for i in range(fd.rank) for j in range(fd.rank))


def test_make_fusion_data_takes_dual_by_the_exact_rule():
    tensor = (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    fd = make_fusion_data(("1", "x"), 0, (0.0, 1.0), (ONE, ONE), tensor, True)
    assert fd.dual == (0, 1) and {type(v) for v in fd.dual} == {int}
    with pytest.raises(FusionError, match="duality holds an entry that is not an integer"):
        make_fusion_data(("1", "x"), 0, (0.5, 1), (ONE, ONE), tensor, True)


_Z2_TENSOR = _z2_group_ring(1, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_fusion_data("1x", 0, (0,), (ONE, ONE), _Z2_TENSOR, True),
        lambda: make_fusion_data("1x", 0, (0, 2), (ONE, ONE), _Z2_TENSOR, True),
        lambda: make_fusion_data("1x", 0, (0, -1), (ONE, ONE), _Z2_TENSOR, True),
        lambda: make_fusion_data("1x", 0, (0, 1), (ONE,), _Z2_TENSOR, True),
        lambda: make_fusion_data("1x", 5, (0, 1), (ONE, ONE), _Z2_TENSOR, True),
        lambda: make_fusion_data("1x", 0, (0, 1), (ONE, ONE), _Z2_TENSOR[:1], True),
        lambda: make_based_ring("Z", "eu", 0, [[(1, 0), (0, 1)], [(0, 1), (1,)]]),
        lambda: make_based_ring("Z", "eu", 0, _Z2_TENSOR[:1]),
        lambda: make_based_ring("Z2", "eu", 3, _Z2_TENSOR),
        lambda: make_based_ring("Z", "eu", 0, [[row + [0] for row in p] for p in _Z2_TENSOR]),
    ],
    ids=[
        "fusion dual too short", "fusion dual out of range", "fusion dual negative",
        "fusion scalars too short", "fusion unit out of range", "fusion plane missing",
        "ring row too short", "ring plane missing", "ring unit out of range",
        "ring rows too long",
    ],
)
def test_constructors_reject_a_wrong_shape(build):
    with pytest.raises(FusionError):
        build()


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


def _transports(R1, R2, sigma):
    """Whether the basis map sigma carries every constant of R1 to R2."""
    r = R1.rank
    return all(
        R1.constants[i][j][k] == R2.constants[sigma[i]][sigma[j]][sigma[k]]
        for i in range(r)
        for j in range(r)
        for k in range(r)
    )


RELABELLED = {
    "K0(q16)": lambda tables: grothendieck_ring(tables("q16")),
    "K0(z4x4)": lambda tables: grothendieck_ring(tables("z4x4")),
    "W(g64)": lambda tables: witt_ring(fusion_data_from_table(tables("g64"))).ring,
}


@given(rnd=st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_based_ring_isomorphism_finds_relabelings(tables, rnd):
    """A unit-fixing basis shuffle of each ring in RELABELLED is always
    recognised, and the returned map transports all structure constants."""
    for ring in sorted(RELABELLED):
        K = RELABELLED[ring](tables)
        r = K.rank
        perm = list(range(1, r))
        rnd.shuffle(perm)
        perm = [0] + perm  # keep the unit at position 0
        consts = [
            [
                [K.constants[perm[i]][perm[j]][perm[k]] for k in range(r)]
                for j in range(r)
            ]
            for i in range(r)
        ]
        shuffled = make_based_ring(K.coeff, tuple(K.labels[p] for p in perm), 0, consts)
        sigma = based_ring_isomorphism(K, shuffled)
        assert sigma is not None, ring
        assert _transports(K, shuffled, sigma), ring


# ------------------------------- the former based-ring search, kept verbatim


def _former_refine_fingerprints(ring: BasedRing) -> tuple:
    r = ring.rank
    c = ring.constants
    fp = [(i == ring.unit,) for i in range(r)]
    for _ in range(r):
        nxt = []
        for i in range(r):
            left = sorted(
                (c[i][j][k], fp[j], fp[k])
                for j in range(r)
                for k in range(r)
                if c[i][j][k]
            )
            right = sorted(
                (c[j][i][k], fp[j], fp[k])
                for j in range(r)
                for k in range(r)
                if c[j][i][k]
            )
            result = sorted(
                (c[j][k][i], fp[j], fp[k])
                for j in range(r)
                for k in range(r)
                if c[j][k][i]
            )
            nxt.append((fp[i], tuple(left), tuple(right), tuple(result)))
        canon = sorted(set(nxt))
        new_fp = [(canon.index(k),) for k in nxt]
        if new_fp == fp:
            break
        fp = new_fp
    return tuple(fp)


def _former_based_ring_isomorphism(
    R1: BasedRing, R2: BasedRing
) -> tuple[int, ...] | None:
    """A basis bijection preserving the unit and all structure constants.

    Exhaustive depth-first search over fingerprint-compatible images with
    incremental consistency checking; None after exhausting the search.
    """
    if R1.coeff != R2.coeff:
        raise FusionError("cannot compare based rings over different coefficients")
    r = R1.rank
    if r != R2.rank:
        return None
    fp1 = _former_refine_fingerprints(R1)
    fp2 = _former_refine_fingerprints(R2)
    if sorted(fp1) != sorted(fp2):
        return None
    cands = {i: [j for j in range(r) if fp2[j] == fp1[i]] for i in range(r)}
    order = sorted(range(r), key=lambda i: (len(cands[i]), i))
    if order[0] != R1.unit:
        order.remove(R1.unit)
        order.insert(0, R1.unit)
    c1, c2 = R1.constants, R2.constants
    sigma = [-1] * r
    used = [False] * r

    def consistent(t: int) -> bool:
        # only triples involving the newly assigned index need rechecking
        i = order[t]
        assigned = [order[s] for s in range(t + 1)]
        for a in assigned:
            for b in assigned:
                if c1[a][b][i] != c2[sigma[a]][sigma[b]][sigma[i]]:
                    return False
                if c1[a][i][b] != c2[sigma[a]][sigma[i]][sigma[b]]:
                    return False
                if c1[i][a][b] != c2[sigma[i]][sigma[a]][sigma[b]]:
                    return False
        return True

    def dfs(t: int):
        if t == r:
            return tuple(sigma)
        i = order[t]
        pool = [R2.unit] if i == R1.unit else cands[i]
        for j in pool:
            if used[j]:
                continue
            sigma[i] = j
            used[j] = True
            if consistent(t):
                got = dfs(t + 1)
                if got is not None:
                    return got
            used[j] = False
            sigma[i] = -1
        return None

    result = dfs(0)
    if result is None:
        return None
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if c1[i][j][k] != c2[result[i]][result[j]][result[k]]:
                    raise FusionError("isomorphism search returned a bad map")
    return result


def _k0_and_witt(t):
    fd = fusion_data_from_table(t)
    return fusion_ring(fd), witt_ring(fd).ring


@pytest.fixture(scope="module")
def survey_bucket_pairs(corpus_groups):
    """The K0 and Witt rings of the pairs of groups of order 32 that the
    survey script compares: those agreeing in class count, self-dual count
    and order profile."""
    order8 = [corpus_groups[n] for n in ("z8", "z4x2", "z2x2x2", "d8", "q8")]
    reps16 = groups.classify([E for H in order8 for E in central_extensions(H)])
    reps32 = groups.classify([E for H in reps16 for E in central_extensions(H)])
    buckets = {}
    for G in reps32:
        t = chartab.burnside_dixon(G)
        key = (t.nclasses, chartab.self_dual_count(t), tuple(sorted(order_profile(G).items())))
        buckets.setdefault(key, []).append(_k0_and_witt(t))
    return [
        (x, y)
        for members in buckets.values()
        for a, b in itertools.combinations(members, 2)
        for x, y in zip(a, b)
    ]


def test_based_ring_isomorphism_answers_as_the_former_search(
    corpus_groups, tables, survey_bucket_pairs
):
    """On the K0 and Witt rings of every same-order pair of corpus groups
    and of the survey's pairs, the search finds a map exactly when the
    former search does, and every map transports all constants."""
    pairs = list(survey_bucket_pairs)
    assert len(pairs) == 2 * 5
    names = sorted(corpus_groups)
    for a, b in itertools.combinations(names, 2):
        if corpus_groups[a].order == corpus_groups[b].order:
            pairs += zip(_k0_and_witt(tables(a)), _k0_and_witt(tables(b)))
    found = 0
    for R1, R2 in pairs:
        sigma = based_ring_isomorphism(R1, R2)
        assert (sigma is None) == (_former_based_ring_isomorphism(R1, R2) is None)
        if sigma is not None:
            found += 1
            assert _transports(R1, R2, sigma)
    assert found == 6 + 15


def _commutative_loop(m, rnd):
    """The table of a random commutative loop on range(m) with identity 0:
    a symmetric Latin square, filled by backtracking in a random order."""
    L = [[x or y if 0 in (x, y) else None for y in range(m)] for x in range(m)]
    cells = [(i, j) for i in range(1, m) for j in range(i, m)]

    def fill(t):
        if t == len(cells):
            return True
        i, j = cells[t]
        taken = set(L[i]) | set(L[j])
        for v in rnd.sample(range(m), m):
            if v not in taken:
                L[i][j] = L[j][i] = v
                if fill(t + 1):
                    return True
                L[i][j] = L[j][i] = None
        return False

    assert fill(0)
    assert all(sorted(row) == list(range(m)) for row in L)
    return L


def _loop_ring(L):
    """The loop ring over Z: the loop is the basis, 0 the unit and
    x * y = xy.  It is not associative in general, so it is built without
    make_based_ring's associativity check; the search reads only the
    constants."""
    m = len(L)
    constants = tuple(tuple(tuple(int(x == k) for k in range(m)) for x in row) for row in L)
    return BasedRing("Z", tuple(map(str, range(m))), 0, constants)


def test_based_ring_isomorphism_matches_brute_force_on_loop_rings():
    """In a commutative loop ring the basis elements other than the unit
    can all keep one colour, so the search tries many bijections, and it
    must check each product of two assigned elements that lands on the
    newest one.  On the rings of random commutative loops of order 6 and
    relabelled copies, it finds a map exactly when one of the 120
    unit-fixing bijections is an isomorphism."""
    rnd = random.Random(0)
    loops = [_commutative_loop(6, rnd) for _ in range(8)]
    for L in loops[:4]:
        perm = [0] + rnd.sample(range(1, 6), 5)
        inv = [perm.index(x) for x in range(6)]
        loops.append([[perm[L[inv[x]][inv[y]]] for y in range(6)] for x in range(6)])
    found = 0
    for A, B in itertools.combinations(map(_loop_ring, loops), 2):
        sigma = based_ring_isomorphism(A, B)
        brute = any(
            _transports(A, B, (0,) + p) for p in itertools.permutations(range(1, 6))
        )
        assert (sigma is not None) == brute
        if sigma is not None:
            found += 1
            assert _transports(A, B, sigma)
    assert found >= 4  # each copy is isomorphic to its source


def _reference_assert_associative(ring: BasedRing, limit: int = 20) -> bool:
    """Full associativity check of the structure constants (rank <= limit).

    Verbatim copy of the former ``witt.assert_associative``, a triple loop
    over support lists.

    Uses support lists, so group-like tensors cost ~rank^3 instead of rank^5.
    Returns False when the rank exceeds the limit (check skipped).
    """
    r = ring.rank
    if r > limit:
        return False
    mod2 = ring.coeff == "Z2"
    c = ring.constants
    support = [
        [[(m, c[i][j][m]) for m in range(r) if c[i][j][m]] for j in range(r)]
        for i in range(r)
    ]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                lhs = [0] * r
                for m, cm in support[i][j]:
                    for l, cl in support[m][k]:
                        lhs[l] += cm * cl
                rhs = [0] * r
                for m, cm in support[j][k]:
                    for l, cl in support[i][m]:
                        rhs[l] += cm * cl
                if mod2:
                    lhs = [v % 2 for v in lhs]
                    rhs = [v % 2 for v in rhs]
                if lhs != rhs:
                    raise FusionError(f"associativity fails at ({i}, {j}, {k})")
    return True


def _verdict(check, ring):
    """True, False (rank over the limit) or the message a check raises."""
    try:
        return check(ring, limit=12)
    except FusionError as exc:
        return str(exc)


def _group_ring(L, coeff="Z"):
    """The ring of a multiplication table L on range(m), built directly."""
    m = len(L)
    constants = tuple(tuple(tuple(int(x == k) for k in range(m)) for x in row) for row in L)
    return BasedRing(coeff, tuple(map(str, range(m))), 0, constants)


@pytest.fixture(scope="module")
def source_rings(corpus_groups, tables):
    """Associative rings of rank 1 to 12 over Z and Z2 (group rings, and
    the Grothendieck and Witt rings of the corpus), and the non-associative
    rings of random commutative loops of orders 5 to 8."""
    rings = [_group_ring(G.cayley, coeff) for G in corpus_groups.values() if G.order <= 12
             for coeff in ("Z", "Z2")]
    for name in sorted(corpus_groups):
        fd = fusion_data_from_table(tables(name))
        if fd.rank <= 12:
            rings.append(fusion_ring(fd))
        wr = witt_ring(fd)
        if wr.rank <= 12:
            rings.append(wr.ring)
    rnd = random.Random(1)
    rings += [_group_ring(_commutative_loop(m, rnd), coeff)
              for m in (5, 6, 7, 8) for coeff in ("Z", "Z2")]
    assert {R.rank for R in rings} == set(range(1, 13))
    return rings


def _mutant(ring, coeff, scale, noise, edits, rnd):
    """``ring`` over ``coeff`` built directly: each constant times
    ``scale`` plus ``noise`` times a random multiple of 2 (which keeps a Z2
    ring associative), then ``edits`` entries set at random in -3..3."""
    r = ring.rank
    c = [[[scale * v + noise * 2 * rnd.randint(-1, 1) for v in row] for row in plane]
         for plane in ring.constants]
    for _ in range(edits):
        c[rnd.randrange(r)][rnd.randrange(r)][rnd.randrange(r)] = rnd.randint(-3, 3)
    return BasedRing(coeff, ring.labels, ring.unit, tuple(tuple(map(tuple, plane)) for plane in c))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_associativity_check_answers_as_the_support_list_routine(source_rings, data):
    """Packed products accept and reject as the support lists do, and name
    the same least failing triple, on rings over Z and Z2 of rank 1 to 12
    built directly: scaled by a negative or a large factor, with even
    noise (unreduced Z2 entries), and with a few entries edited."""
    ring = data.draw(st.sampled_from(source_rings))
    coeff = data.draw(st.sampled_from(["Z", "Z2"]))
    scale = data.draw(st.sampled_from([1, -1, 2, -3, 5]))
    noise = data.draw(st.sampled_from([0, 1]))
    edits = data.draw(st.integers(0, 3))
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    R = _mutant(ring, coeff, scale, noise, edits, rnd)
    assert _verdict(witt.assert_associative, R) == _verdict(_reference_assert_associative, R)


def test_associativity_check_names_the_triples_of_the_support_list_routine(source_rings):
    """Every source ring, and five mutants of each over Z and Z2: the same
    verdicts, with many rejections at many triples."""
    rnd = random.Random(7)
    verdicts = []
    for ring in source_rings:
        cases = [ring]
        for coeff in ("Z", "Z2"):
            cases += [_mutant(ring, coeff, rnd.choice([1, -1, 3]), rnd.randint(0, 1),
                              rnd.randint(1, 2), rnd) for _ in range(5)]
        for R in cases:
            verdicts.append(_verdict(witt.assert_associative, R))
            assert verdicts[-1] == _verdict(_reference_assert_associative, R)
    failures = [v for v in verdicts if isinstance(v, str)]
    assert verdicts.count(True) > 100 and len(failures) > 200
    assert len(set(failures)) > 50 and all(v.startswith("associativity fails at") for v in failures)


def test_associativity_check_names_the_least_k_on_random_tensors():
    """Random constants fail at many k of the first failing pair; the
    least is named, over Z and over Z2."""
    rnd = random.Random(11)
    for r in range(1, 13):
        for coeff in ("Z", "Z2"):
            c = tuple(tuple(tuple(rnd.randint(-2, 3) for _ in range(r)) for _ in range(r))
                      for _ in range(r))
            R = BasedRing(coeff, tuple(map(str, range(r))), 0, c)
            assert _verdict(witt.assert_associative, R) == _verdict(_reference_assert_associative, R)


@pytest.mark.parametrize(
    "constants",
    [
        (((0, -1, 1), (-1, 1, 1), (1, -1, 0)),
         ((1, 1, 1), (-1, 0, 1), (-1, -1, 1)),
         ((-1, 0, 0), (-1, 1, 1), (0, 1, 0))),
        (((0, -2), (0, -2)), ((0, 0), (-1, -2))),
    ],
)
def test_associativity_lanes_hold_signed_sums(constants):
    """Two rings over Z with negative constants, both failing first at the
    pair (0, 0).  Lanes one bit narrower (no sign bit) would read that pair
    of the first as equal, and lanes sized by the largest constant rather
    than the largest absolute value would do so on the second."""
    r = len(constants)
    R = BasedRing("Z", tuple(map(str, range(r))), 0, constants)
    message = _verdict(_reference_assert_associative, R)
    assert message.startswith("associativity fails at (0, 0,")
    assert _verdict(witt.assert_associative, R) == message


def test_make_based_ring_rejects_a_nonassociative_commutative_ring():
    """A commutative loop ring passes the unit and commutativity checks and
    fails associativity at the triple the support lists name."""
    L = _commutative_loop(6, random.Random(3))
    loop = _group_ring(L)
    message = _verdict(_reference_assert_associative, loop)
    assert message.startswith("associativity fails at")
    with pytest.raises(FusionError) as err:
        make_based_ring("Z", loop.labels, 0, loop.constants)
    assert str(err.value) == message
    with pytest.raises(FusionError) as err:
        make_based_ring("Z2", loop.labels, 0, loop.constants)
    assert str(err.value) == _verdict(_reference_assert_associative, _group_ring(L, "Z2"))


def test_associativity_check_skips_ranks_over_the_limit(tables):
    R = grothendieck_ring(tables("d16"))
    assert witt.assert_associative(R, limit=R.rank - 1) is False
    assert witt.assert_associative(R, limit=R.rank) is True


ABELIAN_16 = ("z16", "z8x2", "z4x4", "z4x2x2", "z2x2x2x2")


def test_colours_tell_the_abelian_k0_rings_of_order_16_apart(tables):
    """The joint colours separate the Grothendieck rings of the five abelian
    groups of order 16, so no search runs; the former fingerprints of all
    five have one multiset."""
    rings = [grothendieck_ring(tables(name)) for name in ABELIAN_16]
    for R1, R2 in itertools.combinations(rings, 2):
        col1, col2 = _colours(R1, R2)
        assert sorted(col1) != sorted(col2)
    assert len({tuple(sorted(_former_refine_fingerprints(R))) for R in rings}) == 1


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
