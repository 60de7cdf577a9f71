import itertools
import operator
import random
from collections import Counter
from collections.abc import Callable

import pytest

from wittlab import chartab, deform, groups, witt
from wittlab.chartab import echelon, kernel
from wittlab.deform import (
    CocycleData,
    _gf2_echelon,
    central_extension,
    central_extensions,
    cocycle_from_table,
    deform_by_cocycle,
    h2_orbits,
    h2_transversal,
    izumi_kosaki,
    quotient_data,
    verify_cocycle,
)
from wittlab.groups import (
    FiniteGroup,
    GroupError,
    _fold,
    are_isomorphic,
    classify,
    make_group,
    normal_subgroups,
    order_profile,
)

from conftest import center, generated_subgroup


def a_elem(i, j):
    # abelian_group([4,4]) indexes a1^i a2^j as 4*i + j
    return 4 * (i % 4) + (j % 4)


def test_quotient_data_klein(ik_pair):
    G, c, _ = ik_pair
    Q, coset_of, section = quotient_data(G, c.subgroup.elements)
    assert Q.order == 4
    assert groups.conjugacy_classes(Q).exponent == 2
    assert section[0] == 0
    assert all(coset_of[s] == q for q, s in enumerate(section))


def test_quotient_rejects_non_normal(corpus_groups):
    d8 = corpus_groups["d8"]
    b = d8.generators[1]
    sub = generated_subgroup(d8, [b])
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


def test_deform_rejects_data_built_over_another_subgroup_or_group(ik_pair):
    G, c, Gb = ik_pair
    other = next(
        s for s in normal_subgroups(G)
        if s.abelian and s.order > 1 and s.elements != c.subgroup.elements
    )
    nq = G.order // other.order
    elsewhere = cocycle_from_table(G, other, [[0] * nq for _ in range(nq)])
    with pytest.raises(GroupError, match="does not match"):
        deform_by_cocycle(G, c.subgroup, elsewhere)
    with pytest.raises(GroupError, match="does not match"):
        deform_by_cocycle(G, other, c)
    with pytest.raises(GroupError, match="does not match"):
        deform_by_cocycle(Gb, c.subgroup, c)


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


# ------------------------------------------------------- central extensions

# |H^2(G, Z2)| = |Hom(M(G), Z2)| |Ext(G^ab, Z2)| (universal coefficients,
# trivial action), with the known Schur multipliers M(G): 0 for cyclic
# groups and Q8, Z2 for Z2^2, Z4 x Z2 and D8, Z3 for Z3^2, Z2^3 for Z2^3.
# Ext(G^ab, Z2) has one Z2 per even invariant factor of G^ab.
UCT_ORDERS = {
    **{f"z{n}": (1, 2 if n % 2 == 0 else 1) for n in range(2, 17)},
    "trivial": (1, 1),
    "z2x2": (2, 4),
    "z3x3": (1, 1),
    "z4x2": (2, 4),
    "z2x2x2": (8, 8),
    "d8": (2, 4),
    "q8": (1, 4),
}
ORDER_8 = ("z8", "z4x2", "z2x2x2", "d8", "q8")


def _classes(basis, n):
    """The cocycle of every class of the transversal: class i is the sum of
    the basis cocycles at the set bits of i."""
    cocycles = [[0] * (n * n)]
    for t in basis:
        cocycles += [[(a + d) % 2 for a, d in zip(old, t)] for old in cocycles]
    return cocycles


@pytest.mark.parametrize("name", sorted(UCT_ORDERS))
def test_central_extensions_count_h2_classes(corpus_groups, name):
    """The transversal has as many classes as the universal coefficient
    theorem counts.  Each class's extension is a Z2-extension of H along
    x -> x // 2 whose cocycle reads back from its table; ``index_of``
    finds the class again, also after a random coboundary is added; and
    the cocycles are pairwise not cohomologous (checked against every
    coboundary while |H| <= 8).  ``central_extensions`` builds the classes
    that are least in their Aut(H)-orbits, the same tables on every call."""
    H = corpus_groups[name]
    n = H.order
    hom, ext = UCT_ORDERS[name]
    basis, index_of = h2_transversal(H)
    cocycles = _classes(basis, n)
    assert len(cocycles) == hom * ext
    rng = random.Random(name)
    for i, c in enumerate(cocycles):
        E = central_extension(H, c)
        assert E.order == 2 * n
        lifts = {2 * g for g in H.generators}
        assert lifts <= set(E.generators) <= lifts | {1}
        spanned = generated_subgroup(E, lifts)
        assert (1 in E.generators) == (len(spanned) < E.order)
        assert E.element_order(1) == 2 and 1 in center(E)
        assert all(E.cayley[2 * x][2 * y] // 2 == H.cayley[x][y] for x in range(n) for y in range(n))
        assert [E.cayley[2 * x][2 * y] % 2 for x in range(n) for y in range(n)] == c
        f = [0] + [rng.randrange(2) for _ in range(n - 1)]
        df = [(f[x] + f[y] + f[H.cayley[x][y]]) % 2 for x in range(n) for y in range(n)]
        assert index_of(c) == i == index_of([(a + d) % 2 for a, d in zip(c, df)])
    _, least = h2_orbits(H)
    extensions = central_extensions(H)
    minima = [cocycles[i] for i, r in enumerate(least) if r == i]
    assert [E.cayley for E in extensions] == [central_extension(H, c).cayley for c in minima]
    assert [E.cayley for E in central_extensions(H)] == [E.cayley for E in extensions]
    if n <= 8:
        coboundaries = set()
        for f in itertools.product((0, 1), repeat=n - 1):
            f = (0, *f)
            coboundaries.add(
                tuple((f[x] + f[y] + f[H.cayley[x][y]]) % 2 for x in range(n) for y in range(n))
            )
        classes = {
            min(tuple((a + d) % 2 for a, d in zip(c, db)) for db in coboundaries)
            for c in cocycles
        }
        assert len(classes) == len(cocycles)


@pytest.mark.parametrize("name", ["z2x2x2", "d8", "q8"])
def test_central_extensions_hand_the_kernel_distinct_rows(corpus_groups, name, monkeypatch):
    """Repeated equations are dropped before the kernel's elimination (the
    call in decreasing column order), which returns the same reduced rows
    with or without them."""
    seen = []

    def eliminate(rows, descending):
        if descending:
            seen.append(rows)
        return _gf2_echelon(rows, descending)

    monkeypatch.setattr(deform, "_gf2_echelon", eliminate)
    H = corpus_groups[name]
    basis, _ = h2_transversal(H)
    (rows,) = seen
    assert len(set(rows)) == len(rows)
    assert _gf2_echelon(rows * 2, True) == _gf2_echelon(rows, True)
    assert 2 ** len(basis) == UCT_ORDERS[name][0] * UCT_ORDERS[name][1]


def test_survey_representatives_carry_d_generators(survey_reps):
    """Grown from the trivial group, every representative of orders 2 to
    32 carries log2 |G : <x^2>| generators, which for a 2-group is the
    least number that generate it (Burnside's basis theorem)."""
    counts = {}
    for order, reps in survey_reps.items():
        counts[order] = len(reps)
        for G in reps:
            squares = generated_subgroup(G, [G.cayley[x][x] for x in range(G.order)])
            assert 2 ** len(G.generators) == G.order // len(squares)
    assert counts == {2: 1, 4: 2, 8: 5, 16: 14, 32: 51}


def test_order_16_hands_the_kernel_few_rows(survey_reps, monkeypatch):
    """With d(H) generators per group the H^2 kernel of the 14 groups of
    order 16 gets 793 distinct rows, where n generators gave 2,206."""
    seen = []

    def counted(rows, descending):
        if descending:
            seen.append(len(rows))
        return _gf2_echelon(rows, descending)

    monkeypatch.setattr(deform, "_gf2_echelon", counted)
    for H in survey_reps[16]:
        h2_transversal(H)
    assert len(seen) == 14 and sum(seen) <= 800


@pytest.mark.parametrize(
    "name, orbits",
    [("z8", 2), ("z4x2", 6), ("z2x2x2", 5), ("d8", 6), ("q8", 2)],
)
def test_each_class_extension_is_isomorphic_to_its_orbit_minimum(corpus_groups, name, orbits):
    """The extension of every class of H^2(H, Z2) is isomorphic to the
    extension of the least class of its Aut(H)-orbit."""
    H = corpus_groups[name]
    basis, least = h2_orbits(H)
    every = [central_extension(H, c) for c in _classes(basis, H.order)]
    assert len(set(least)) == orbits
    for i, r in enumerate(least):
        assert least[r] == r <= i
        assert are_isomorphic(every[i], every[r]) is not None


def _reference_h2_transversal(H: FiniteGroup) -> tuple[list[list[int]], Callable[[list[int]], int]]:
    """A transversal of H^2(H, Z2), the action trivial: (basis, index_of).

    Verbatim copy of the former ``deform.h2_transversal``, which wrote the
    equations of each non-tree edge of the walk for every x in H."""
    n, cay, gens = H.order, H.cayley, H.generators
    k = len(gens)
    m = n * k  # u(x, s) is unknown x k + s

    def unit(*cols):
        v = [0] * m
        for c in cols:
            v[c] = 1
        return v

    b = [[unit() for _ in range(n)] for _ in range(n)]  # b(x, y) in the unknowns
    rows = [unit(s) for s in range(k)]  # u(0, s) = 0
    for level in _fold(cay, gens, [0])[1]:
        for y1, s, y, first in level:
            for x in range(n):
                v = b[x][y1][:]
                v[cay[x][y1] * k + s] += 1
                v[y1 * k + s] -= 1
                if first:
                    b[x][y] = [a % 2 for a in v]
                elif any(row := [(a - w) % 2 for a, w in zip(v, b[x][y])]):
                    rows.append(row)
    coboundaries = [
        [((x == t) + (g == t) - (cay[x][g] == t)) % 2 for x in range(n) for g in gens]
        for t in range(1, n)
    ]
    cob_rows, cob_pivots = echelon(coboundaries, 2)
    rows += [unit(c) for c in cob_pivots]
    rows = list(dict.fromkeys(map(tuple, rows)))  # many edges repeat an equation
    vectors = [vec for vec, _ in kernel(rows, m, 2)]
    basis = [[sum(map(operator.mul, w, vec)) % 2 for row in b for w in row] for vec in vectors]
    pivots = [vec.index(1) for vec in vectors]

    def index_of(c: list[int]) -> int:
        u = [c[x * n + g] for x in range(n) for g in gens]
        for row, col in zip(cob_rows, cob_pivots):
            if u[col]:
                u = list(map(operator.xor, u, row))
        return sum(u[col] << j for j, col in enumerate(pivots))

    return basis, index_of


def _reference_list_h2_transversal(H: FiniteGroup) -> tuple[list[list[int]], Callable[[list[int]], int]]:
    """A transversal of H^2(H, Z2), the action trivial: (basis, index_of).

    Verbatim copy of the former ``deform.h2_transversal``, which held the
    equations as lists of 0s and 1s and solved them with ``chartab.echelon``
    and ``chartab.kernel`` at p = 2.

    ``basis`` lists normalised 2-cocycles as flat tables, b(x, y) at
    x |H| + y; class i of the 2^len(basis) classes is the sum of the basis
    cocycles at the set bits of i.  ``index_of`` maps any normalised
    cocycle table to the index of its class.

    A normalised 2-cocycle b is fixed by its values u(x, s) = b(x, g_s) on
    the generators g_s of H, with u(0, s) = 0.  With val_x(w) the sum of u
    along a walk w read from x and T_y the tree path to y in the walk of
    the generators from 0, b(x, y) = val_x(T_y) - val_0(T_y).  Each non-tree
    edge e says val_x(C_e) = val_0(C_e) on its fundamental cycle, for the
    generators x only.  As val_x is additive on closed walks from 0, which
    the C_e generate, such an x has val_x = val_0 on all of them, and with
    g_s so has x g_s (a step that uses neither Z2 nor the trivial action):
    val_{x g_s}(w) = val_x(g_s w g_s^-1) = val_0(g_s w g_s^-1) =
    val_{g_s}(w) = val_0(w).  Every x is a product of generators, so b is
    path independent, hence a cocycle.  Each class has one cocycle that is
    0 at the pivot columns of the coboundaries b = df, f(0) = 0, so the
    kernel of the equations, the pins and those zeros is a transversal.
    ``index_of`` reduces u modulo the echelon rows of the coboundaries and
    reads the coordinates off at the kernel's pivot columns.
    """
    n, cay, gens = H.order, H.cayley, H.generators
    k = len(gens)
    m = n * k  # u(x, s) is unknown x k + s

    def unit(*cols):
        v = [0] * m
        for c in cols:
            v[c] = 1
        return v

    b = [[unit() for _ in range(n)] for _ in range(n)]  # b(x, y) in the unknowns
    rows = [unit(s) for s in range(k)]  # u(0, s) = 0
    for level in _fold(cay, gens, [0])[1]:
        for y1, s, y, first in level:
            for x in range(n) if first else gens:
                v = b[x][y1][:]
                v[cay[x][y1] * k + s] += 1
                v[y1 * k + s] -= 1
                if first:
                    b[x][y] = [a % 2 for a in v]
                elif any(row := [(a - w) % 2 for a, w in zip(v, b[x][y])]):
                    rows.append(row)
    coboundaries = [
        [((x == t) + (g == t) - (cay[x][g] == t)) % 2 for x in range(n) for g in gens]
        for t in range(1, n)
    ]
    cob_rows, cob_pivots = echelon(coboundaries, 2)
    rows += [unit(c) for c in cob_pivots]
    rows = list(dict.fromkeys(map(tuple, rows)))  # many edges repeat an equation
    vectors = [vec for vec, _ in kernel(rows, m, 2)]
    basis = [[sum(map(operator.mul, w, vec)) % 2 for row in b for w in row] for vec in vectors]
    pivots = [vec.index(1) for vec in vectors]

    def index_of(c: list[int]) -> int:
        u = [c[x * n + g] for x in range(n) for g in gens]
        for row, col in zip(cob_rows, cob_pivots):
            if u[col]:
                u = list(map(operator.xor, u, row))
        return sum(u[col] << j for j, col in enumerate(pivots))

    return basis, index_of


def test_h2_transversal_matches_the_list_routine(corpus_groups, survey_reps):
    """The bitmask solver gives the basis and ``index_of`` of the list
    routine on the corpus groups and the 73 survey representatives of
    orders 2 to 32.  ``index_of`` is compared on each basis cocycle, on
    every class of a group with at most 2^8 classes and on the 2^8 classes
    spanned by the first eight basis cocycles of a group with more (up to
    2^15), each class also shifted by a random coboundary, and on random
    0/1 tables.  Both maps are linear, so this pins them on every class."""
    cases = [*corpus_groups.values(), *(G for order in sorted(survey_reps) for G in survey_reps[order])]
    assert len(cases) == len(corpus_groups) + 73
    rng = random.Random(30)
    for H in cases:
        n = H.order
        basis, index_of = h2_transversal(H)
        ref_basis, ref_index_of = _reference_list_h2_transversal(H)
        assert basis == ref_basis, H.name
        for j, t in enumerate(basis):
            assert index_of(t) == ref_index_of(t) == 1 << j
        cob = [[0] * (n * n)]
        for t in range(1, n):  # d of the indicator of t
            cob.append([(x == t) ^ (y == t) ^ (H.cayley[x][y] == t) for x in range(n) for y in range(n)])
        c = [0] * (n * n)
        for i in range(1 << min(len(basis), 8)):  # Gray code: class i ^ (i >> 1)
            if i:
                c = list(map(operator.xor, c, basis[(i & -i).bit_length() - 1]))
            shift = list(map(operator.xor, c, rng.choice(cob)))
            assert index_of(c) == ref_index_of(c) == index_of(shift) == ref_index_of(shift) == i ^ (i >> 1)
        for _ in range(8):
            table = [rng.randrange(2) for _ in range(n * n)]
            assert index_of(table) == ref_index_of(table), H.name


@pytest.fixture(scope="module")
def order16(corpus_groups):
    """The 14 groups of order 16, built from the corpus groups of order 8."""
    return classify([E for name in ORDER_8 for E in central_extensions(corpus_groups[name])])


def test_h2_transversal_matches_the_every_translate_routine(corpus_groups, order16, monkeypatch):
    """Equations at the generator translates only give the same basis and
    the same index of every class as equations at every translate, on each
    corpus group of order <= 16 and on the 14 groups of order 16.  Those
    14 hand the kernel at most 1,400 distinct rows (the reference: 5,092)."""
    assert len(order16) == 14
    for H in [G for G in corpus_groups.values() if G.order <= 16] + order16:
        basis, index_of = h2_transversal(H)
        ref_basis, ref_index_of = _reference_h2_transversal(H)
        assert basis == ref_basis
        for i, c in enumerate(_classes(basis, H.order)):
            assert index_of(c) == ref_index_of(c) == i
    rows = []

    def eliminate(r, descending):
        if descending:
            rows.extend(r)
        return _gf2_echelon(r, descending)

    monkeypatch.setattr(deform, "_gf2_echelon", eliminate)
    for H in order16:
        h2_transversal(H)
    assert len(rows) <= 1400


def _reference_reduce(basis, v):
    """Reduce the F2 vector v (a bitmask) against ``basis``, which maps each
    pivot's top bit to its row; a nonzero remainder joins the basis.
    Returns the remainder."""
    while v:
        top = v.bit_length() - 1
        if top not in basis:
            basis[top] = v
            break
        v ^= basis[top]
    return v


def _reference_central_extensions(H):
    """One extension group of H by a central Z2 per 2-cohomology class.

    Verbatim copy of the bitmask routine of ``scripts/survey_order32.py``
    that ``deform.central_extensions`` replaced."""
    n = H.order
    nv = (n - 1) * (n - 1)

    def var(x, y):
        if x == 0 or y == 0:
            return None  # normalised cocycles vanish on the identity
        return (x - 1) * (n - 1) + (y - 1)

    rows = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                mask = 0
                for v in (
                    var(x, y),
                    var(H.cayley[x][y], z),
                    var(y, z),
                    var(x, H.cayley[y][z]),
                ):
                    if v is not None:
                        mask ^= 1 << v
                if mask:
                    rows.append(mask)
    pivots = {}
    for r in rows:
        _reference_reduce(pivots, r)
    pivot_cols = set(pivots)
    free_cols = [c for c in range(nv) if c not in pivot_cols]

    def solve(assign):
        vec = 0
        for c, bit in zip(free_cols, assign):
            if bit:
                vec |= 1 << c
        # increasing pivot order: all non-top bits are already assigned
        for top in sorted(pivots):
            row = pivots[top]
            rest = row & ~(1 << top)
            if (rest & vec).bit_count() % 2:
                vec |= 1 << top
        return vec

    kernel_basis = []
    for i in range(len(free_cols)):
        assign = [0] * len(free_cols)
        assign[i] = 1
        kernel_basis.append(solve(assign))

    cob = []
    for t in range(1, n):
        vec = 0
        for x in range(1, n):
            for y in range(1, n):
                if (x == t) ^ (y == t) ^ (H.cayley[x][y] == t):
                    vec |= 1 << var(x, y)
        cob.append(vec)
    basis = {}
    for v in cob:
        _reference_reduce(basis, v)
    h2_gens = [red for v in kernel_basis if (red := _reference_reduce(basis, v))]

    out = []
    for combo in itertools.product((0, 1), repeat=len(h2_gens)):
        vec = 0
        for bit, g in zip(combo, h2_gens):
            if bit:
                vec ^= g
        rows2 = [[0] * (2 * n) for _ in range(2 * n)]
        for x in range(n):
            for e1 in range(2):
                row = rows2[x * 2 + e1]
                for y in range(n):
                    v = var(x, y)
                    b = 0 if v is None else (vec >> v) & 1
                    for e2 in range(2):
                        row[y * 2 + e2] = H.cayley[x][y] * 2 + ((e1 + e2 + b) % 2)
        out.append(make_group(rows2))
    return out


def _relabel(G, rng):
    """G with its elements renumbered by a random bijection fixing 0."""
    n = G.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = perm[G.cayley[x][y]]
    return make_group(rows)


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_central_extensions_match_the_bitmask_routine(corpus_groups, seed):
    """On the groups of order 8, as given and relabelled: the extensions of
    all classes of the transversal fall into the isomorphism classes of
    the former bitmask routine with the same multiplicities, and the
    orbit minima that ``central_extensions`` builds reach every one of
    them; 86 classes and 21 orbits in 14 isomorphism classes in all."""
    rng = random.Random(seed)
    total_every, total_built = [], []
    for name in ORDER_8:
        H = corpus_groups[name]
        if seed is not None:
            H = _relabel(H, rng)
        basis, _ = h2_transversal(H)
        every = [central_extension(H, c) for c in _classes(basis, H.order)]
        built, old = central_extensions(H), _reference_central_extensions(H)
        assert len(every) == len(old)
        reps = classify(old + every)

        def counts(exts):
            return Counter(
                next(i for i, R in enumerate(reps) if are_isomorphic(E, R)) for E in exts
            )

        assert counts(every) == counts(old)
        assert set(counts(built)) == set(counts(old))
        total_every += every
        total_built += built
    assert (len(total_every), len(total_built)) == (86, 21)
    assert len(classify(total_every)) == len(classify(total_built)) == 14


def test_quotient_normality_on_generators_is_exact(corpus_groups):
    """Every cyclic subgroup of the nonabelian corpus groups of order 16
    or less: rejected as not normal exactly when some element of G, not
    only a generator, conjugates it out of itself."""
    checked = 0
    for G in corpus_groups.values():
        if G.order > 16 or G.is_abelian():
            continue
        for x in range(G.order):
            sub = generated_subgroup(G, [x])
            normal = all(G.conj(g, y) in sub for g in range(G.order) for y in sub)
            if normal:
                Q, _, _ = quotient_data(G, sub)
                assert Q.order * len(sub) == G.order
            else:
                with pytest.raises(GroupError, match="subgroup is not normal"):
                    quotient_data(G, sub)
            checked += not normal
    assert checked > 0
