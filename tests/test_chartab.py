import dataclasses
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittlab import chartab, groups
from wittlab.chartab import (
    burnside_dixon,
    charpoly_modp,
    class_mult_coeffs,
    dixon_prime,
    dual_involution,
    fs_indicator,
    fs_vector,
    fusion_coefficients,
    lift_to_cyclotomic,
    poly_roots_modp,
    self_dual_count,
)
from wittlab.groups import abelian_group, conjugacy_classes, cyclic

from conftest import group_from_source

# the classical 5x5 character table of the dihedral group of order 8, used as
# an independent oracle: rows chi1..chi5, columns 1, r^2, r, s, rs
D8_TABLE = [
    [1, 1, 1, 1, 1],
    [1, 1, 1, -1, -1],
    [1, 1, -1, 1, -1],
    [1, 1, -1, -1, 1],
    [2, -2, 0, 0, 0],
]
D8_SIZES = [1, 1, 2, 2, 2]


def brute_charpoly(M, p):
    """Characteristic polynomial by determinant interpolation (oracle)."""
    m = len(M)
    pts = list(range(m + 1))
    vals = []
    for x in pts:
        A = [[((x if i == j else 0) - M[i][j]) % p for j in range(m)] for i in range(m)]
        det = 1
        for col in range(m):
            piv = next((r for r in range(col, m) if A[r][col]), None)
            if piv is None:
                det = 0
                break
            if piv != col:
                A[col], A[piv] = A[piv], A[col]
                det = -det
            det = det * A[col][col] % p
            inv = pow(A[col][col], -1, p)
            for r in range(col + 1, m):
                c = A[r][col] * inv % p
                A[r] = [(a - c * b) % p for a, b in zip(A[r], A[col])]
        vals.append(det % p)
    coeffs = [0] * (m + 1)
    for i, xi in enumerate(pts):
        num = [1]
        den = 1
        for j, xj in enumerate(pts):
            if i == j:
                continue
            num = [(a - xj * b) % p for a, b in zip([0] + num, num + [0])]
            den = den * (xi - xj) % p
        c = vals[i] * pow(den, -1, p) % p
        for k, nk in enumerate(num):
            coeffs[k] = (coeffs[k] + c * nk) % p
    return coeffs


@given(st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_charpoly_matches_determinant_oracle(m, data):
    p = 101
    M = [[data.draw(st.integers(0, p - 1)) for _ in range(m)] for _ in range(m)]
    assert charpoly_modp(M, p) == brute_charpoly(M, p)


ROOT_PRIMES = (2, 3, 5, 7, 67, 641, 3329)


def test_poly_roots():
    # x^2 - 1 over F_7
    assert poly_roots_modp([6, 0, 1], 7) == [1, 6]
    for p in ROOT_PRIMES:
        everything = list(range(p))
        assert poly_roots_modp([], p) == everything
        assert poly_roots_modp([0, 0, p], p) == everything
        assert poly_roots_modp([1], p) == []
        assert poly_roots_modp([-1, 0, 0], p) == []
        assert poly_roots_modp([3, 1, 0], p) == [(-3) % p]
        assert poly_roots_modp([1, 2, 1, 0], p) == [p - 1]  # (x + 1)^2
    assert poly_roots_modp([1, 1, 1], 2) == []
    assert poly_roots_modp([2, 0, 1], 3) == [1, 2]


def _scan_roots(coeffs, p):
    """A verbatim copy of the former poly_roots_modp: every residue by
    Horner's rule."""
    roots = []
    for lam in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * lam + c) % p
        if acc == 0:
            roots.append(lam)
    return roots


def _times_linear(poly, root, p):
    """poly * (x - root) mod p, coefficients from the constant term up."""
    out = [0] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] = (out[i + 1] + c) % p
        out[i] = (out[i] - root * c) % p
    return out


@st.composite
def root_problems(draw):
    """(coefficients, p): arbitrary integer coefficients of degree 0 to 8,
    products of linear factors with repeated roots, irreducible quadratics,
    each with up to two leading zeros; the zero polynomial is among them."""
    p = draw(st.sampled_from(ROOT_PRIMES))
    kind = draw(st.sampled_from(("any", "split", "irreducible")))
    if kind == "any":
        coeffs = draw(st.lists(st.integers(-3 * p, 3 * p), max_size=9))
    elif kind == "split":
        roots = draw(st.lists(st.integers(0, p - 1), max_size=8))
        roots += roots[: draw(st.integers(0, len(roots)))]  # repeat some
        coeffs = [draw(st.integers(1, p - 1))]
        for root in roots[:8]:
            coeffs = _times_linear(coeffs, root, p)
    else:
        # x^2 + x + 1 over F_2; a (x^2 - n) with n a non-residue otherwise
        if p == 2:
            coeffs = [1, 1, 1]
        else:
            n = draw(st.integers(1, p - 1).filter(lambda n: pow(n, (p - 1) // 2, p) == p - 1))
            a = draw(st.integers(1, p - 1))
            coeffs = [(-a * n) % p, 0, a]
        if draw(st.booleans()):  # substitute x -> x + shift
            shift = draw(st.integers(0, p - 1))
            c0, c1, c2 = coeffs
            coeffs = [(c0 + c1 * shift + c2 * shift * shift) % p, (c1 + 2 * c2 * shift) % p, c2]
    return coeffs + [draw(st.sampled_from((0, p, -p)))] * draw(st.integers(0, 2)), p


@given(root_problems())
@settings(max_examples=400, deadline=None)
def test_poly_roots_match_the_scan(problem):
    coeffs, p = problem
    assert poly_roots_modp(coeffs, p) == _scan_roots(coeffs, p)


def test_dixon_prime_conditions():
    for n, e in ((8, 4), (16, 8), (64, 4), (1, 1)):
        p = dixon_prime(n, e)
        assert p > 2 * n and (p - 1) % e == 0


def test_class_mult_identity_row(corpus_groups):
    G = corpus_groups["d8"]
    cc = conjugacy_classes(G)
    a = class_mult_coeffs(G, cc)
    r = len(cc.reps)
    for j in range(r):
        for k in range(r):
            assert a[0][j][k] == (1 if j == k else 0)


def test_class_mult_total_count(corpus_groups):
    G = corpus_groups["q8"]
    cc = conjugacy_classes(G)
    a = class_mult_coeffs(G, cc)
    r = len(cc.reps)
    for i in range(r):
        for j in range(r):
            assert sum(a[i][j][k] * cc.sizes[k] for k in range(r)) == cc.sizes[i] * cc.sizes[j]


def test_class_mult_coefficients_are_below_the_dixon_prime(corpus_groups, tables):
    """burnside_dixon takes the class multiplication coefficients as
    matrices mod p without reducing them: a[i][j][k] <= |C_i| <= |G| < p."""
    for name, G in corpus_groups.items():
        t = tables(name)
        a = class_mult_coeffs(G, t.classes)
        assert max(v for plane in a for row in plane for v in row) < t.p


def test_class_mult_z2():
    G = cyclic(2)
    cc = conjugacy_classes(G)
    a = class_mult_coeffs(G, cc)
    assert a[1][1][0] == 1


def test_class_mult_representative_independent(corpus_groups):
    # recount against one alternate representative per class
    G = corpus_groups["d16"]
    cc = conjugacy_classes(G)
    a = class_mult_coeffs(G, cc)
    members = {}
    for x in range(G.order):
        members.setdefault(cc.class_of[x], []).append(x)
    for k, mem in members.items():
        z = mem[-1]  # not necessarily the canonical representative
        for i in range(len(cc.reps)):
            for j in range(len(cc.reps)):
                count = sum(
                    1 for x in members[i] if cc.class_of[G.cayley[G.inverse[x]][z]] == j
                )
                assert count == a[i][j][k]


def test_degrees(corpus_groups, tables):
    assert burnside_dixon(cyclic(2)).degrees == (1, 1)
    assert tables("d8").degrees == (1, 1, 1, 1, 2)
    assert tables("q8").degrees == (1, 1, 1, 1, 2)


def test_table_invariants_on_corpus(corpus_groups, tables):
    for name in ("d8", "q8", "d16", "g3_16", "z4x4", "smallgroup_32_34"):
        t = tables(name)
        n = corpus_groups[name].order
        r = t.nclasses
        assert sum(d * d for d in t.degrees) == n
        assert all(n % d == 0 for d in t.degrees)
        cc = t.classes
        p = t.p
        # column orthogonality: sum_i chi_i(k) chi_i(l^-1) = delta_kl |G|/|C_k|
        for k in range(r):
            for l in range(r):
                tot = sum(
                    t.values[i][k] * t.values[i][cc.inverse_class[l]] for i in range(r)
                ) % p
                expect = (n // cc.sizes[k]) % p if k == l else 0
                assert tot == expect


def test_fs_examples(tables):
    assert fs_vector(tables("d8")) == (1, 1, 1, 1, 1)
    assert fs_vector(tables("q8")) == (1, 1, 1, 1, -1)
    t3 = burnside_dixon(cyclic(3))
    assert sorted(fs_vector(t3)) == [0, 0, 1]


def test_fs_zero_iff_not_self_dual(tables):
    for name in ("q8", "g3_16", "smallgroup_32_6"):
        t = tables(name)
        dual = dual_involution(t)
        for i in range(t.nclasses):
            assert (fs_indicator(t, i) == 0) == (dual[i] != i)


def test_fs_brute_force_oracle(corpus_groups, tables):
    """Indicator equals the complex sum over squares, from lifted values."""
    for name, G in corpus_groups.items():
        if G.order > 16:
            continue
        t = tables(name)
        lifted = lift_to_cyclotomic(t)
        cc = t.classes
        for i in range(t.nclasses):
            acc = 0j
            for g in range(G.order):
                sq = cc.class_of[G.cayley[g][g]]
                acc += lifted.cyclo[i][sq].to_complex()
            val = acc / G.order
            assert abs(val - fs_indicator(t, i)) < 1e-9


def test_dual_involution_examples(tables):
    assert dual_involution(tables("d8")) == (0, 1, 2, 3, 4)
    t3 = burnside_dixon(cyclic(3))
    assert dual_involution(t3) == (0, 2, 1)
    assert dual_involution(burnside_dixon(cyclic(1))) == (0,)


def test_self_dual_counts(tables):
    assert self_dual_count(tables("smallgroup_32_6")) == 7
    assert self_dual_count(tables("smallgroup_32_7")) == 7


def test_lift_values(tables, corpus_groups):
    t = tables("d16")
    lifted = lift_to_cyclotomic(t)
    # trivial character lifts to all ones
    assert all(cv.mult == ((0, 1),) for cv in lifted.cyclo[0])
    # the degree-2 character values at the class of a are 0, sqrt2, -sqrt2
    G = corpus_groups["d16"]
    ka = t.classes.class_of[G.generators[0]]
    got = sorted(
        round(lifted.cyclo[i][ka].to_complex().real, 6)
        for i in range(t.nclasses)
        if t.degrees[i] == 2
    )
    assert got == [round(-math.sqrt(2), 6), 0.0, round(math.sqrt(2), 6)]
    # sqrt2 as an exact sum of eighth roots of unity
    for i in range(t.nclasses):
        if t.degrees[i] == 2 and lifted.cyclo[i][ka].mult == ((1, 1), (7, 1)):
            break
    else:
        pytest.fail("no character with value zeta8 + zeta8^-1")


def test_lift_z4_faithful():
    t = burnside_dixon(cyclic(4))
    lifted = lift_to_cyclotomic(t)
    k = t.classes.class_of[1]
    faithful = [
        lifted.cyclo[i][k].mult for i in range(4) if lifted.cyclo[i][k].order == 4
    ]
    assert ((1, 1),) in faithful


def test_abelian_table_matches_pairing(corpus_groups, tables):
    """For abelian groups the table rows are exactly the dual pairing rows."""
    for name in ("z4x2", "z3x3"):
        G = corpus_groups[name]
        t = tables(name)
        struct = groups.abelian_invariants(G, range(G.order))
        coords = groups.abelian_coordinates(G, struct)
        N = struct.factors[-1]
        zeta = pow(t.z, (t.p - 1) // N, t.p)
        cc = t.classes
        expected_rows = set()
        for chi in itertools.product(*(range(d) for d in struct.factors)):
            row = []
            for k in range(t.nclasses):
                a = coords[cc.reps[k]]
                e = sum(c * x * (N // d) for c, x, d in zip(chi, a, struct.factors))
                row.append(pow(zeta, e % N, t.p))
            expected_rows.add(tuple(row))
        assert set(t.values) == expected_rows
        assert all(d == 1 for d in t.degrees)


def test_fusion_unit_row(tables):
    t = tables("q8")
    N = fusion_coefficients(t)
    for j in range(t.nclasses):
        for k in range(t.nclasses):
            assert N[0][j][k] == (1 if j == k else 0)


def test_fusion_symmetry(tables):
    t = tables("d16")
    N = fusion_coefficients(t)
    r = t.nclasses
    for i in range(r):
        for j in range(r):
            assert N[i][j] == N[j][i]


def _reference_fusion(t):
    """N[i][j][k] by the plain triple loop over all (i, j, k)."""
    cc = t.classes
    r, p = t.nclasses, t.p
    n_inv = pow(t.group.order, -1, p)
    conj = [[t.values[k][cc.inverse_class[l]] for l in range(r)] for k in range(r)]
    N = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(r):
            prod = [cc.sizes[l] * t.values[i][l] * t.values[j][l] for l in range(r)]
            for k in range(r):
                N[i][j][k] = (sum(map(operator.mul, prod, conj[k])) * n_inv) % p
    return N


# groups beyond the corpus: F21 and Heis27 have a dual pair of nonlinear
# characters beside their linear ones
F21 = "gens a b; rel a^7; rel b^3; rel b^-1 a b = a^2;\n"
HEIS27 = (
    "gens a b c; rel a^3; rel b^3; rel c^3;"
    " rel a^-1 b^-1 a b = c; rel a^-1 c^-1 a c; rel b^-1 c^-1 b c;\n"
)
Z8X8 = "gens a b; rel a^8; rel b^8; rel a^-1 b^-1 a b;\n"
DIH64 = "gens a b; rel a^32; rel b^2; rel b^-1 a b a;\n"


@pytest.fixture(scope="module")
def beyond_tables():
    return {
        name: burnside_dixon(group_from_source(text))
        for name, text in (("f21", F21), ("heis27", HEIS27), ("z8x8", Z8X8), ("dih64", DIH64))
    }


def test_beyond_tables_mix_linear_and_dual_nonlinear(beyond_tables):
    for name, linear, nonlinear_self_dual in (("f21", 3, 0), ("heis27", 9, 0), ("dih64", 4, 15)):
        t = beyond_tables[name]
        dual = dual_involution(t)
        nonlinear = [i for i in range(t.nclasses) if t.degrees[i] > 1]
        assert t.degrees.count(1) == linear, name
        assert sum(dual[i] == i for i in nonlinear) == nonlinear_self_dual, name
    assert beyond_tables["z8x8"].degrees == (1,) * 64


def test_fusion_matches_triple_loop(tables, beyond_tables):
    # z8 has non-real characters, so chi_k(g^-1) differs from chi_k(g)
    for name in ("d16", "q16", "z4x4", "smallgroup_32_27", "z8"):
        t = tables(name)
        assert fusion_coefficients(t) == _reference_fusion(t), name
    for name, t in beyond_tables.items():
        assert fusion_coefficients(t) == _reference_fusion(t), name


def test_fusion_linear_planes_are_permutation_matrices(tables, beyond_tables):
    for t in [tables(name) for name in ("d8", "q16", "z8", "g64")] + list(beyond_tables.values()):
        N = fusion_coefficients(t)
        r = t.nclasses
        for i in range(r):
            if t.degrees[i] == 1:
                assert sorted(map(sorted, N[i])) == [[0] * (r - 1) + [1]] * r
                assert sorted(map(sorted, zip(*N[i]))) == [[0] * (r - 1) + [1]] * r


def test_fusion_rejects_a_missing_linear_product(tables):
    """chi_1 is replaced by a real vector that is no character: the duality
    still holds, but chi_1 chi_2 is no row of the table."""
    t = tables("z2x2")
    bad = (t.values[0], (1,) + (t.p - 1,) * 3) + t.values[2:]
    assert bad[1] not in t.values
    with pytest.raises(chartab.TableError, match="linear character missing"):
        fusion_coefficients(dataclasses.replace(t, values=bad))


def test_fusion_d8_squares_to_linear_sum(tables):
    """chi5 (x) chi5 decomposes as the sum of the four linear characters.

    Frozen from the classical table by exact rational arithmetic.
    """
    # oracle: N[4][4][k] = (1/8) sum |C| chi5 chi5 chi_k (real table)
    expect = []
    for k in range(5):
        tot = sum(
            Fraction(D8_SIZES[c] * D8_TABLE[4][c] ** 2 * D8_TABLE[k][c], 8)
            for c in range(5)
        )
        assert tot.denominator == 1
        expect.append(int(tot))
    assert expect == [1, 1, 1, 1, 0]

    t = tables("d8")
    N = fusion_coefficients(t)
    deg2 = next(i for i in range(5) if t.degrees[i] == 2)
    assert N[deg2][deg2] == [1, 1, 1, 1, 0]


def test_fusion_associative_sparse(tables):
    from wittlab import witt

    for name in ("d8", "q16", "z4x4"):
        ring = witt.grothendieck_ring(tables(name))
        assert witt.assert_associative(ring)


def _reference_rref(rows, p):
    """Reduced row echelon form over F_p; returns (rows, pivot columns).
    A verbatim copy of the routine the split loop used before the Z/p^e
    echelon replaced it."""
    rows = [r[:] for r in rows]
    pivots = []
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col] % p
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def _reference_kernel(M, p):
    """Basis of the right kernel of the m x m matrix M over F_p (verbatim
    copy of the former routine, like ``_reference_rref``)."""
    m = len(M)
    red, pivots = _reference_rref([row[:] for row in M], p)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * m
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][fc]) % p
        basis.append(v)
    return basis


def _reference_burnside_dixon(G):
    """The split loop as it was before the pivot-row restriction: it
    reduces every basis, computes all r rows of A_i B^T and lifts kernel
    vectors entry by entry."""
    _rref, _kernel = _reference_rref, _reference_kernel
    cc = conjugacy_classes(G)
    r = len(cc.reps)
    n = G.order
    p = dixon_prime(n, cc.exponent)
    z = chartab.primitive_root(p)
    a = class_mult_coeffs(G, cc)
    mats = [[[a[i][j][k] % p for k in range(r)] for j in range(r)] for i in range(r)]
    spaces = [[[1 if c == t else 0 for c in range(r)] for t in range(r)]]
    if r == 1:
        spaces = [[[1]]]
    for i in range(1, r):
        if all(len(B) == 1 for B in spaces):
            break
        new_spaces = []
        for B in spaces:
            m = len(B)
            if m == 1:
                new_spaces.append(B)
                continue
            Bred, pivots = _rref(B, p)
            AB = [
                [sum(Bred[t][kk] * mats[i][j][kk] for kk in range(r)) % p for t in range(m)]
                for j in range(r)
            ]
            M = [[AB[pivots[s]][t] for t in range(m)] for s in range(m)]
            for lam in poly_roots_modp(charpoly_modp(M, p), p):
                shifted = [
                    [(M[s][t] - (lam if s == t else 0)) % p for t in range(m)]
                    for s in range(m)
                ]
                full = [
                    [sum(vec[t] * Bred[t][c] for t in range(m)) % p for c in range(r)]
                    for vec in _kernel(shifted, p)
                ]
                new_spaces.append(_rref(full, p)[0])
        spaces = new_spaces
    assert all(len(B) == 1 for B in spaces) and len(spaces) == r
    inv_sizes = [pow(s, -1, p) for s in cc.sizes]
    rows = []
    for B in spaces:
        v = B[0]
        norm = pow(v[0], -1, p)
        omega = [(x * norm) % p for x in v]
        s = sum(omega[k] * omega[cc.inverse_class[k]] * inv_sizes[k] for k in range(r)) % p
        d = math.isqrt((n * pow(s, -1, p)) % p)
        rows.append((d, tuple((d * omega[k] * inv_sizes[k]) % p for k in range(r))))
    rows.sort(key=lambda t: (t[0], t[1]))
    return p, z, tuple(d for d, _ in rows), tuple(chi for _, chi in rows)


def test_burnside_dixon_matches_reference(corpus_groups):
    cases = {
        name: G for name, G in corpus_groups.items() if G.order <= 32
    }
    cases["dih32"] = group_from_source("gens a b; rel a^16; rel b^2; rel b a b a;")
    cases["q32"] = group_from_source("gens a b; rel a^16; rel b^2 a^-8; rel b^-1 a b a;")
    cases["z4x4x2"] = abelian_group([4, 4, 2])
    cases["s5"] = group_from_source(
        'group "s5" permutations degree 5 { gen (1 2); gen (1 2 3 4 5); }'
    )
    assert cases["dih32"].order == cases["q32"].order == 32
    for name, G in cases.items():
        t = burnside_dixon(G)
        assert (t.p, t.z, t.degrees, t.values) == _reference_burnside_dixon(G), name


@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_span_lists_each_solution_once(p, e, m, data):
    """The Howell basis of the kernel over Z/p^e, with its coefficient
    ranges, spans exactly the brute-force solution set, each solution once.
    Up to 4 unknowns, as many as keep the brute force to 7,000 vectors."""
    q = p**e
    n = data.draw(st.integers(1, max(t for t in range(1, 5) if q**t <= 7000)))
    rows = [[data.draw(st.integers(0, q - 1)) for _ in range(n)] for _ in range(m)]
    solutions = {
        x for x in itertools.product(range(q), repeat=n)
        if all(sum(a * b for a, b in zip(row, x)) % q == 0 for row in rows)
    }
    basis = chartab.kernel(rows, n, p, e)
    spanned = [
        tuple(sum(c * b[t] for c, (b, _) in zip(cs, basis)) % q for t in range(n))
        for cs in itertools.product(*(range(r) for _, r in basis))
    ]
    assert len(spanned) == len(set(spanned)) == len(solutions)
    assert set(spanned) == solutions


@given(st.integers(1, 5), st.integers(1, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_echelon_mod_p_is_the_reference_rref(m, n, data):
    p = 7
    rows = [[data.draw(st.integers(0, 3)) for _ in range(n)] for _ in range(m)]
    assert chartab.echelon(rows, p) == _reference_rref(rows, p)


def _parent_kernel(rows, n, p, e=1):
    """Verbatim copy of ``kernel`` as it was before its e = 1 path: the
    Howell form of [rows^T | I] at every e."""
    m, q = len(rows), p**e
    aug = [[row[j] % q for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    red, pivots = chartab.echelon(aug, p, e)
    return [(row[m:], q // row[c]) for row, c in zip(red, pivots) if c >= m]


@given(st.sampled_from([2, 3, 73]), st.integers(0, 5), st.integers(0, 6), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_at_e1_is_the_former_basis(p, m, n, zero, data):
    """The free-column basis at e = 1 is the former one, vector for vector,
    on any rows: none, all zero, or entries outside [0, p)."""
    entry = st.just(0) if zero else st.integers(-2 * p, 2 * p)
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    assert chartab.kernel(rows, n, p) == _parent_kernel(rows, n, p)


def _parent_burnside_dixon(G):
    """Verbatim copy of ``burnside_dixon`` before it kept the spaces on
    which a class matrix is a scalar, calling ``_parent_kernel``."""
    cc = conjugacy_classes(G)
    r = len(cc.reps)
    n = G.order
    p = dixon_prime(n, cc.exponent)
    z = chartab.primitive_root(p)
    a = class_mult_coeffs(G, cc)  # each coefficient is at most |G| < p

    spaces = [[[1 if c == t else 0 for c in range(r)] for t in range(r)]]
    for i in range(1, r):
        if all(len(B) == 1 for B in spaces):
            break
        new_spaces = []
        for B in spaces:
            m = len(B)
            if m == 1:
                new_spaces.append(B)
                continue
            # B is in reduced row echelon form.  A_i maps the span of its
            # rows into itself, and an image is fixed by its pivot
            # coordinates, so only the m pivot rows of A_i B^T are needed.
            if m == r:  # the whole space: B is the identity
                M = a[i]
            else:
                pivots = [next(c for c, v in enumerate(row) if v) for row in B]
                M = [
                    [sum(map(operator.mul, b, a[i][pc])) % p for b in B]
                    for pc in pivots
                ]
            for lam in poly_roots_modp(charpoly_modp(M, p), p):
                shifted = [
                    [(M[s][t] - (lam if s == t else 0)) % p for t in range(m)]
                    for s in range(m)
                ]
                full = []
                for vec, _ in _parent_kernel(shifted, m, p):
                    acc = [0] * r
                    for coef, b in zip(vec, B):
                        if coef:
                            acc = [u + coef * v for u, v in zip(acc, b)]
                    full.append([u % p for u in acc])
                red, _ = chartab.echelon(full, p)
                new_spaces.append(red)
        spaces = new_spaces
    if not all(len(B) == 1 for B in spaces) or len(spaces) != r:
        raise chartab.TableError("eigenspace splitting failed to fully diagonalise")

    inv_sizes = [pow(s, -1, p) for s in cc.sizes]
    rows = []
    for B in spaces:
        v = B[0]
        if v[0] % p == 0:
            raise chartab.TableError("eigenvector vanishes at the identity class")
        norm = pow(v[0], -1, p)
        omega = [(x * norm) % p for x in v]
        s = sum(omega[k] * omega[cc.inverse_class[k]] * inv_sizes[k] for k in range(r)) % p
        if s == 0:
            raise chartab.TableError("degree denominator vanished")
        d2 = (n * pow(s, -1, p)) % p
        if d2 > n:
            raise chartab.TableError("degree square lift out of range")
        d = math.isqrt(d2)
        if d * d != d2 or d == 0:
            raise chartab.TableError("degree is not a perfect square lift")
        if n % d:
            raise chartab.TableError("degree does not divide the group order")
        chi = tuple((d * omega[k] * inv_sizes[k]) % p for k in range(r))
        rows.append((d, chi))
    rows.sort(key=lambda t: (t[0], t[1]))
    degrees = tuple(d for d, _ in rows)
    values = tuple(chi for _, chi in rows)
    if sum(d * d for d in degrees) != n:
        raise chartab.TableError("degrees fail sum of squares")
    if values[0] != tuple([1] * r):
        raise chartab.TableError("trivial character is not the first row")
    # row orthogonality: sum_k |C_k| chi_i(k) chi_j(k*) = delta_ij |G|
    conj_rows = [[chi[l] for l in cc.inverse_class] for chi in values]
    for i in range(r):
        weighted = list(map(operator.mul, cc.sizes, values[i]))
        for j in range(r):
            tot = sum(map(operator.mul, weighted, conj_rows[j])) % p
            if tot != (n % p if i == j else 0):
                raise chartab.TableError("row orthogonality fails")
    return chartab.CharacterTableModP(
        group=G, classes=cc, p=p, z=z, degrees=degrees, values=values
    )


def test_burnside_dixon_matches_the_former_split_loop(corpus_groups, survey_reps):
    """Keeping the spaces on which a class matrix is a scalar changes no
    table: every corpus group and the 14 + 51 survey groups of orders 16
    and 32."""
    cases = list(corpus_groups.values()) + survey_reps[16] + survey_reps[32]
    assert len(cases) == len(corpus_groups) + 65
    for G in cases:
        assert burnside_dixon(G) == _parent_burnside_dixon(G), G.name


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_burnside_dixon_matches_the_former_split_loop_relabelled(corpus_groups, data):
    """The same on corpus groups (order <= 32) with their elements
    renumbered, which permutes the classes and so the split order."""
    name = data.draw(st.sampled_from(sorted(n for n, H in corpus_groups.items() if H.order <= 32)))
    G = corpus_groups[name]
    perm = [0] + data.draw(st.permutations(range(1, G.order)))
    rows = [[0] * G.order for _ in range(G.order)]
    for x in range(G.order):
        for y in range(G.order):
            rows[perm[x]][perm[y]] = perm[G.cayley[x][y]]
    H = groups.make_group(rows)
    assert burnside_dixon(H) == _parent_burnside_dixon(H)


def test_burnside_dixon_skips_the_scalar_restrictions(survey_reps, monkeypatch):
    """A class matrix that is a scalar on a space cannot split it, so no
    characteristic polynomial is taken there: 844 on the 51 groups of
    order 32, where the former loop took 2,756."""
    calls = []

    def counted(M, p):
        calls.append(len(M))
        return charpoly_modp(M, p)

    monkeypatch.setattr(chartab, "charpoly_modp", counted)
    for G in survey_reps[32]:
        burnside_dixon(G)
    assert 0 < len(calls) <= 900


# ------------------------------------------- the packed mod-p dot products


@given(st.sampled_from([2, 73, 641, 65537, 1000003]), st.integers(1, 9), st.integers(0, 9),
       st.data())
@settings(max_examples=200, deadline=None)
def test_packed_dot_products_are_the_scalar_ones(p, n, r, data):
    """Every lane of a packed sum is the exact scalar dot product, at
    4-byte lanes (r (p - 1)^2 < 2^32) and at 8-byte ones (p >= 65537)."""
    entry = st.integers(0, p - 1)
    rows = [[data.draw(entry) for _ in range(r)] for _ in range(n)]
    vec = [data.draw(entry) for _ in range(r)]
    bound = r * (p - 1) ** 2
    cols, code = chartab._pack(zip(*rows), bound)
    lanes = chartab._lanes(sum(map(operator.mul, vec, cols)), n, code)
    assert list(lanes) == [sum(map(operator.mul, vec, row)) for row in rows]
    assert chartab.array(code).itemsize == (4 if bound < 1 << 32 else 8)


@pytest.mark.parametrize("p, r, width", [(641, 9, 4), (65537, 1, 8), (1000003, 131, 8)])
def test_packed_lanes_hold_their_bound(p, r, width):
    """All entries p - 1, so every lane sum is r (p - 1)^2, the bound: at
    p = 65537 each single product is already 2^32."""
    n = 5
    cols, code = chartab._pack([[p - 1] * n for _ in range(r)], r * (p - 1) ** 2)
    lanes = chartab._lanes(sum(map(operator.mul, [p - 1] * r, cols)), n, code)
    assert list(lanes) == [r * (p - 1) ** 2] * n
    assert chartab.array(code).itemsize == width


def test_packed_lanes_refuse_a_bound_beyond_64_bits():
    with pytest.raises(chartab.TableError, match="overflow"):
        chartab._pack([[1]], 1 << 64)
    chartab._pack([[1]], (1 << 64) - 1)


# ------------------------------- parent references for the packed kernel


def _parent_lift_to_cyclotomic(t):
    """Verbatim copy of ``lift_to_cyclotomic`` before the packed DFT."""
    cc = t.classes
    p = t.p
    r = t.nclasses
    dft = {}  # m -> (m^-1, kernel[l][j] = theta^(-jl), [theta^l])
    per_class = []
    for k in range(r):
        m = cc.rep_orders[k]
        if m not in dft:
            theta = pow(t.z, (p - 1) // m, p)
            theta_inv = pow(theta, -1, p)
            powers = [1] * m
            for e in range(1, m):
                powers[e] = (powers[e - 1] * theta_inv) % p
            kernel = [[powers[(j * l) % m] for j in range(m)] for l in range(m)]
            dft[m] = (pow(m, -1, p), kernel, [powers[-l % m] for l in range(m)])
        gj = [cc.power_map[k][j % cc.exponent] for j in range(m)]
        per_class.append((m, *dft[m], gj))
    cyclo_rows = []
    for i in range(r):
        values = t.values[i]
        row = []
        for k, (m, minv, kernel, theta_pows, gj) in enumerate(per_class):
            chi_gj = [values[c] for c in gj]
            mult = []
            for l, twiddle in enumerate(kernel):
                mu = (sum(map(operator.mul, chi_gj, twiddle)) * minv) % p
                if mu > t.degrees[i]:
                    raise chartab.TableError("cyclotomic multiplicity out of range")
                if mu:
                    mult.append((l, mu))
            check = sum(mu * theta_pows[l] for l, mu in mult) % p
            if check != values[k]:
                raise chartab.TableError("cyclotomic lift does not reduce to the table")
            row.append(chartab.CycloValue(order=m, mult=tuple(mult)))
        cyclo_rows.append(tuple(row))
    table = chartab.CharacterTable(modp=t, cyclo=tuple(cyclo_rows))
    for i in range(r):
        ident = table.cyclo[i][0]
        if ident.mult != ((0, t.degrees[i]),):
            raise chartab.TableError("value at the identity is not the degree")
    return table


def _parent_fusion_coefficients(t):
    """Verbatim copy of ``fusion_coefficients`` before the packed sums."""
    p = t.p
    r = t.nclasses
    values = t.values
    dual = dual_involution(t)
    n_inv = pow(t.group.order % p, -1, p)
    half = (p + 1) // 2
    N = [[[0] * r for _ in range(r)] for _ in range(r)]

    def put(i, j, k, v):
        N[i][j][dual[k]] = N[j][i][dual[k]] = N[i][k][dual[j]] = v
        N[k][i][dual[j]] = N[j][k][dual[i]] = N[k][j][dual[i]] = v
    index = {chi: m for m, chi in enumerate(values)}
    nonlinear = [i for i, d in enumerate(t.degrees) if d > 1]
    for i in range(nonlinear[0] if nonlinear else r):  # rows are sorted by degree
        for j in range(r):
            m = index.get(tuple((u * v) % p for u, v in zip(values[i], values[j])))
            if m is None:
                raise chartab.TableError("product with a linear character missing from the table")
            put(i, j, dual[m], 1)
    for a, i in enumerate(nonlinear):
        for b, j in enumerate(nonlinear[a:], a):
            prod = [(s * u * v) % p for s, u, v in zip(t.classes.sizes, values[i], values[j])]
            for k in nonlinear[b:]:
                val = (sum(map(operator.mul, prod, values[k])) * n_inv) % p
                if val >= half:
                    raise chartab.TableError("fusion coefficient lift out of range")
                if val:
                    put(i, j, k, val)
    return N


def _full_linear_loop_fusion_coefficients(t):
    """Tensor product multiplicities N[i][j][k] = T[i][j][k*] of the irreducibles.

    Verbatim copy of ``fusion_coefficients`` while its loop over the linear
    characters i ran j over every character.

    T[i][j][k] = |G|^-1 sum_l |C_l| chi_i chi_j chi_k (g_l) is symmetric in
    (i, j, k).  A triple with a linear chi_i is looked up: chi_i chi_j is the
    irreducible chi_m, so T[i][j][k] is 1 for k = m* and 0 otherwise.  For
    nonlinear i <= j <= k one inner product is computed mod p, lifted to
    [0, p/2) and range-checked; the other five orders are copies.
    """
    p = t.p
    r = t.nclasses
    values = t.values
    dual = dual_involution(t)
    n_inv = pow(t.group.order % p, -1, p)
    half = (p + 1) // 2
    N = [[[0] * r for _ in range(r)] for _ in range(r)]

    def put(i, j, k, v):
        N[i][j][dual[k]] = N[j][i][dual[k]] = N[i][k][dual[j]] = v
        N[k][i][dual[j]] = N[j][k][dual[i]] = N[k][j][dual[i]] = v
    index = {chi: m for m, chi in enumerate(values)}
    nonlinear = [i for i, d in enumerate(t.degrees) if d > 1]
    for i in range(nonlinear[0] if nonlinear else r):  # rows are sorted by degree
        for j in range(r):
            m = index.get(tuple([u * v % p for u, v in zip(values[i], values[j])]))
            if m is None:
                raise chartab.TableError("product with a linear character missing from the table")
            put(i, j, dual[m], 1)
    cols, code = chartab._pack(zip(*(values[k] for k in nonlinear)), r * (p - 1) ** 2)
    for a, i in enumerate(nonlinear):
        weighted = [(s * n_inv * u) % p for s, u in zip(t.classes.sizes, values[i])]
        for b, j in enumerate(nonlinear[a:], a):
            prod = [(w * v) % p for w, v in zip(weighted, values[j])]
            lanes = chartab._lanes(sum(map(operator.mul, prod, cols)), len(nonlinear), code)
            vals = [x % p for x in lanes[b:]]
            if max(vals) >= half:
                raise chartab.TableError("fusion coefficient lift out of range")
            for k, val in zip(nonlinear[b:], vals):
                if val:
                    put(i, j, k, val)
    return N


@pytest.fixture(scope="module")
def dih256_table(ladder_groups):
    return burnside_dixon(ladder_groups["dih256"])


def test_burnside_dixon_matches_the_former_split_loop_on_the_ladder(ladder_groups):
    """The ladder members, and A5, where G' = G leaves one linear character."""
    a5 = group_from_source('group "a5" permutations degree 5 { gen (1 2 3); gen (1 2 3 4 5); }\n')
    for name, G in [*ladder_groups.items(), ("a5", a5)]:
        assert burnside_dixon(G) == _parent_burnside_dixon(G), name
    assert burnside_dixon(a5).degrees == (1, 3, 3, 4, 5)


ABELIAN_FACTORS = st.lists(st.sampled_from([2, 3, 4, 6, 8]), min_size=1, max_size=3)


@given(ABELIAN_FACTORS.filter(lambda f: math.prod(f) <= 96), st.data())
@settings(max_examples=25, deadline=None)
def test_burnside_dixon_matches_the_former_split_loop_on_relabelled_abelian_groups(factors, data):
    """Abelian groups, elements renumbered: every character is linear, so
    the table is read off G/G' = G with no split at all."""
    G = abelian_group(factors)
    perm = [0] + data.draw(st.permutations(range(1, G.order)))
    rows = [[0] * G.order for _ in range(G.order)]
    for x in range(G.order):
        for y in range(G.order):
            rows[perm[x]][perm[y]] = perm[G.cayley[x][y]]
    H = groups.make_group(rows)
    assert burnside_dixon(H) == _parent_burnside_dixon(H)


def test_fusion_and_lift_match_their_parent_copies(corpus_groups, tables, survey_reps,
                                                   ladder_groups, dih256_table):
    """The corpus, the survey's representatives of orders 2 to 32 and the
    four ladder members (the dihedral group of order 256 among them).  The
    tensor is also that of the loop that looked each linear product up for
    every j, not once per pair i <= j."""
    cases = [tables(name) for name in sorted(corpus_groups)]
    cases += [burnside_dixon(G) for order in sorted(survey_reps) for G in survey_reps[order]]
    cases += [burnside_dixon(G) for name, G in ladder_groups.items() if name != "dih256"]
    cases.append(dih256_table)
    for t in cases:
        N = _full_linear_loop_fusion_coefficients(t)
        assert fusion_coefficients(t) == _parent_fusion_coefficients(t) == N, t.group.name
        assert lift_to_cyclotomic(t) == _parent_lift_to_cyclotomic(t), t.group.name


# ------------------------------------------------- linear characters first


def test_linear_characters_number_the_index_of_the_derived_subgroup(corpus_groups, survey_reps):
    cases = list(corpus_groups.values()) + [G for reps in survey_reps.values() for G in reps]
    for G in cases:
        t = burnside_dixon(G)
        assert t.degrees.count(1) * len(groups.derived_subgroup(G)) == G.order, G.name


def test_abelian_groups_skip_the_class_coefficients(corpus_groups, survey_reps, monkeypatch):
    """Every character of an abelian group is linear: no class matrix is
    built.  A nonabelian group builds them once."""
    calls = []

    def counted(G, cc):
        calls.append(G.order)
        return class_mult_coeffs(G, cc)

    monkeypatch.setattr(chartab, "class_mult_coeffs", counted)
    cases = list(corpus_groups.values()) + [G for reps in survey_reps.values() for G in reps]
    abelian = [G for G in cases if G.is_abelian()]
    assert len(abelian) == 25 + 18
    for G in abelian:
        burnside_dixon(G)
    assert calls == []
    burnside_dixon(corpus_groups["d16"])
    assert calls == [16]


def test_a_wrong_linear_character_raises(corpus_groups, monkeypatch):
    """The last element of G/G' takes the coordinates of the identity, so
    its lambda-values are no homomorphism: the final checks reject it."""
    original = groups.abelian_coordinates

    def corrupted(G, A):
        coords = dict(original(G, A))
        coords[max(coords)] = coords[0]
        return coords

    monkeypatch.setattr(chartab, "abelian_coordinates", corrupted)
    for name, G in corpus_groups.items():
        if G.order > 1:
            with pytest.raises(chartab.TableError):
                burnside_dixon(G)
