import collections
import io
import itertools
import math
import operator
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from wittlab import groups, presentations as pres
from wittlab.groups import (
    GroupError,
    abelian_coordinates,
    abelian_group,
    abelian_invariants,
    are_isomorphic,
    conjugacy_classes,
    cyclic,
    direct_product,
    format_group_dump,
    make_group,
    minimal_generating_sequence,
    normal_subgroups,
    order_profile,
    semidirect_product,
)
from wittlab.deform import cocycle_from_table
from wittlab.witt import ONE, FusionError, make_based_ring, make_fusion_data

from conftest import generated_subgroup, group_from_source, isomorphisms_iter
from test_golden_digests import BEYOND_CORPUS

D8 = "gens a b; rel a^4; rel b^2; rel b^-1 a b a;"
Q8 = "gens a b; rel a^4; rel b^2 a^-2; rel b^-1 a b a;"


def test_invalid_tables_rejected():
    with pytest.raises(GroupError):
        make_group([[0, 1], [1, 1]])  # row not a permutation
    with pytest.raises(GroupError):
        make_group([[1, 0], [0, 1]])  # 0 not the identity
    # a latin square with identity and two-sided inverses that is not a group
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError, match="associativity"):
        make_group(loop)


def test_identity_inverse_and_power():
    G = cyclic(6)
    assert G.inverse[1] == 5
    assert G.power(1, 4) == 4
    assert G.power(1, -1) == 5
    assert G.element_order(2) == 3
    assert conjugacy_classes(G).exponent == 6


def test_conjugacy_classes_d8_q8(corpus_groups):
    cc = conjugacy_classes(corpus_groups["d8"])
    assert len(cc.reps) == 5
    assert cc.sizes == (1, 1, 2, 2, 2)
    assert len(conjugacy_classes(corpus_groups["q8"]).reps) == 5


def test_conjugacy_classes_abelian_singletons():
    for n in (1, 5, 8):
        cc = conjugacy_classes(cyclic(n))
        assert cc.sizes == tuple([1] * n)


def test_conjugacy_class_invariants(corpus_groups):
    for name in ("d8", "q8", "d16", "smallgroup_32_7"):
        G = corpus_groups[name]
        cc = conjugacy_classes(G)
        assert sum(cc.sizes) == G.order
        assert all(G.order % s == 0 for s in cc.sizes)
        assert cc.class_of[0] == 0 and cc.sizes[0] == 1
        assert all(cc.inverse_class[cc.inverse_class[k]] == k for k in range(len(cc.reps)))
        # power map consistency
        for k, r in enumerate(cc.reps):
            acc = 0
            for m in range(cc.exponent):
                assert cc.power_map[k][m] == cc.class_of[acc]
                acc = G.cayley[acc][r]


def test_order_profile_counts(corpus_groups):
    assert order_profile(corpus_groups["d8"]) == {1: 1, 2: 5, 4: 2}
    assert order_profile(corpus_groups["q8"]) == {1: 1, 2: 1, 4: 6}
    assert order_profile(cyclic(1)) == {1: 1}
    assert order_profile(corpus_groups["smallgroup_32_6"])[4] == 20
    assert order_profile(corpus_groups["smallgroup_32_7"])[4] == 4


def test_order_profile_isomorphism_invariant(corpus_groups):
    G = corpus_groups["d8"]
    H = semidirect_product(
        cyclic(4), cyclic(2), [tuple(range(4)), tuple((-i) % 4 for i in range(4))]
    )
    phi = are_isomorphic(H, G)
    assert phi is not None
    assert order_profile(G) == order_profile(H)


def test_direct_product_klein():
    K = direct_product(cyclic(2), cyclic(2))
    assert K.order == 4
    assert conjugacy_classes(K).exponent == 2


def test_semidirect_inversion_is_dihedral(corpus_groups):
    H = semidirect_product(
        cyclic(4), cyclic(2), [tuple(range(4)), tuple((-i) % 4 for i in range(4))]
    )
    assert H.order == 8
    assert are_isomorphic(H, corpus_groups["d8"]) is not None


def test_semidirect_rejects_bad_action():
    # the map x -> x+1 on Z4 is a bijection but not an automorphism
    with pytest.raises(GroupError):
        semidirect_product(cyclic(4), cyclic(2), [tuple(range(4)), (1, 2, 3, 0)])
    # valid automorphism but the assignment ignores Q's multiplication
    inv = tuple((-i) % 4 for i in range(4))
    with pytest.raises(GroupError):
        semidirect_product(cyclic(4), abelian_group([2, 2]),
                           [tuple(range(4)), inv, tuple(range(4)), tuple(range(4))])


def test_klein_on_z4_squared_gives_order_64(ik_pair):
    G, _, _ = ik_pair
    assert G.order == 64


def test_normal_subgroups_q8(corpus_groups):
    q8 = corpus_groups["q8"]
    ns = normal_subgroups(q8)
    assert ns[0].elements == (0,)
    assert ns[-1].order == 8
    for sub in ns:
        if sub.order == 4:
            assert abelian_invariants(q8, sub).factors == (4,)


def test_normal_subgroups_prime_cyclic():
    ns = normal_subgroups(cyclic(7))
    assert [s.order for s in ns] == [1, 7]


def test_normal_subgroups_closure_properties(corpus_groups):
    G = corpus_groups["d16"]
    ns = normal_subgroups(G)
    sets = [set(s.elements) for s in ns]
    assert {0} in sets and set(range(G.order)) in sets
    for a, b in itertools.combinations(sets, 2):
        assert (a & b) in sets
        assert set(generated_subgroup(G, a | b)) in sets


def _reference_normal_subgroups(G):
    """The join closure of single-element normal closures, as sets."""

    gens = set(G.generators) | {G.inverse[g] for g in G.generators}

    def closure(x):
        orbit = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for g in gens:
                    z = G.conj(g, y)
                    if z not in orbit:
                        orbit.add(z)
                        nxt.append(z)
            frontier = nxt
        return generated_subgroup(G, orbit)

    found = {(0,)} | {closure(x) for x in range(1, G.order)}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(found), 2):
            if set(a) <= set(b) or set(b) <= set(a):
                continue
            join = generated_subgroup(G, set(a) | set(b))
            if join not in found:
                found.add(join)
                changed = True
    return sorted(found, key=lambda t: (len(t), t))


def test_normal_subgroups_match_join_closure(corpus_groups):
    names = [n for n, G in corpus_groups.items() if G.order <= 32] + ["g64"]
    for name in names:
        G = corpus_groups[name]
        ns = normal_subgroups(G)
        assert [s.elements for s in ns] == _reference_normal_subgroups(G), name


def test_normal_subgroup_counts_closed_form():
    # subspaces of F_2^k: 2, 5, 16, 67, 374
    for k, count in zip(range(1, 6), (2, 5, 16, 67, 374)):
        assert len(normal_subgroups(abelian_group([2] * k))) == count
    s4 = group_from_source('group "s4" permutations degree 4 { gen (1 2); gen (1 2 3 4); }')
    assert s4.order == 24
    assert [s.order for s in normal_subgroups(s4)] == [1, 4, 12, 24]


def test_normal_subgroup_32_34_unique_abelian_16(corpus_groups):
    G = corpus_groups["smallgroup_32_34"]
    ab16 = [s for s in normal_subgroups(G) if s.order == 16 and s.abelian]
    assert len(ab16) == 1
    assert abelian_invariants(G, ab16[0]).factors == (4, 4)
    assert not ab16[0].central
    # and it is generated by the two order-4 presentation generators
    a, b = G.generators[0], G.generators[1]
    assert set(generated_subgroup(G, (a, b))) == set(ab16[0].elements)


def test_abelian_invariants_examples(corpus_groups):
    g27 = corpus_groups["smallgroup_32_27"]
    ab16 = [s for s in normal_subgroups(g27) if s.order == 16 and s.abelian]
    assert len(ab16) == 1
    assert abelian_invariants(g27, ab16[0]).factors == (2, 2, 2, 2)
    assert abelian_invariants(cyclic(5), [0]).factors == ()
    assert abelian_invariants(abelian_group([4, 4]), range(16)).factors == (4, 4)


def test_abelian_invariants_rejects_nonabelian(corpus_groups):
    with pytest.raises(GroupError):
        abelian_invariants(corpus_groups["d8"], range(8))


@given(st.lists(st.sampled_from([2, 2, 3, 4, 5, 8, 9]), min_size=0, max_size=3))
@settings(max_examples=40, deadline=None)
def test_abelian_invariants_roundtrip(factors):
    G = abelian_group(factors) if factors else cyclic(1)
    struct = abelian_invariants(G, range(G.order))
    assert struct.order == G.order
    for i in range(len(struct.factors) - 1):
        assert struct.factors[i + 1] % struct.factors[i] == 0
    coords = abelian_coordinates(G, struct)
    assert len(coords) == G.order
    # generators realise their factors exactly
    for g, d in zip(struct.generators, struct.factors):
        assert G.element_order(g) == d


def test_are_isomorphic_identity(corpus_groups):
    G = corpus_groups["d8"]
    phi = are_isomorphic(G, G)
    assert phi is not None


def test_are_isomorphic_transports_cayley(corpus_groups):
    G = corpus_groups["d8"]
    H = semidirect_product(
        cyclic(4), cyclic(2), [tuple(range(4)), tuple((-i) % 4 for i in range(4))]
    )
    phi = are_isomorphic(G, H)
    assert phi is not None
    for x in range(G.order):
        for y in range(G.order):
            assert H.cayley[phi[x]][phi[y]] == phi[G.cayley[x][y]]


def test_d8_q8_not_isomorphic(corpus_groups):
    assert are_isomorphic(corpus_groups["d8"], corpus_groups["q8"]) is None


def test_abelian_isomorphism_fast_path():
    A = abelian_group([4, 2])
    B = direct_product(cyclic(2), cyclic(4))
    phi = are_isomorphic(A, B)
    assert phi is not None
    for x in range(8):
        for y in range(8):
            assert B.cayley[phi[x]][phi[y]] == phi[A.cayley[x][y]]
    assert are_isomorphic(abelian_group([8]), abelian_group([4, 2])) is None


def _relabelled(G, perm):
    """G with each element x renamed perm[x] (perm fixes 0); the copy gets
    its own generating sequence."""
    n = G.order
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = perm[G.cayley[x][y]]
    return make_group(rows)


def _small_corpus(corpus_groups):
    return [G for _, G in sorted(corpus_groups.items()) if G.order <= 32]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_relabelled_corpus_group_is_found_isomorphic(corpus_groups, data):
    """Abelian or not, every corpus group of order <= 32 goes through the
    one search, which maps a relabelled copy across in both directions."""
    G = data.draw(st.sampled_from(_small_corpus(corpus_groups)))
    H = _relabelled(G, [0] + data.draw(st.permutations(range(1, G.order))))
    for A, B in ((G, H), (H, G)):
        phi = are_isomorphic(A, B)
        assert phi is not None and sorted(phi) == list(range(B.order))
        for x in range(A.order):
            for y in range(A.order):
                assert B.cayley[phi[x]][phi[y]] == phi[A.cayley[x][y]]


def test_classify_keeps_first_seen_representatives(corpus_groups):
    originals = _small_corpus(corpus_groups)
    assert len(originals) == 37
    assert sum(G.is_abelian() for G in originals) == 25
    rng = random.Random(6)
    copies = [
        _relabelled(G, [0] + rng.sample(range(1, G.order), G.order - 1))
        for G in originals
    ]
    reps = groups.classify(originals + copies)
    assert len(reps) == 37
    assert all(r is G for r, G in zip(reps, originals))


def test_minimal_generating_sequence(corpus_groups):
    G = corpus_groups["d16"]
    gens = minimal_generating_sequence(G)
    assert len(generated_subgroup(G, gens)) == G.order
    assert len(gens) == 2


def _reference_conjugacy_orbits(G):
    """The class of each element, closed under conjugation by the
    generators and their inverses, as ``conjugacy_classes`` did before."""
    gens = set(G.generators) | {G.inverse[g] for g in G.generators}
    orbits = {}
    for x in range(G.order):
        if x in orbits:
            continue
        orbit, frontier = {x}, [x]
        for y in frontier:
            for g in gens:
                z = G.conj(g, y)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        for y in orbit:
            orbits[y] = tuple(sorted(orbit))
    return orbits


def test_conjugacy_classes_match_the_closure_under_inverses(corpus_groups):
    """Closing under the generators alone gives the same classes as
    closing under the generators and their inverses, on every corpus
    group and on relabelled copies of the small ones."""
    rng = random.Random(12)
    cases = list(corpus_groups.values())
    cases += [_relabelled(G, [0] + rng.sample(range(1, G.order), G.order - 1))
              for G in _small_corpus(corpus_groups)]
    for G in cases:
        cc = conjugacy_classes(G)
        ref = _reference_conjugacy_orbits(G)
        assert len(cc.reps) == len(set(ref.values())), G.name
        for x in range(G.order):
            members = tuple(y for y in range(G.order) if cc.class_of[y] == cc.class_of[x])
            assert members == ref[x], G.name


def _dump(G):
    out = io.StringIO()
    format_group_dump(G, out)
    return out.getvalue()


def test_group_dump_byte_stable(corpus_groups):
    G = corpus_groups["q8"]
    assert _dump(G) == _dump(G)
    lines = _dump(G).splitlines()
    assert lines[0] == "order 8"
    assert len([l for l in lines if l.startswith("row ")]) == 8


def test_group_dump_lines():
    assert _dump(make_group([[0]], generators=())) == "order 1\ngens \nrow 0\n"
    assert _dump(cyclic(3, name="z3")) == (
        'order 3\nname "z3"\ngens 1\nrow 0 1 2\nrow 1 2 0\nrow 2 0 1\n'
    )


# ------------------------------------------------ table normalisation and checks


def test_exact_int_tuple_rows_are_kept():
    rows = tuple(tuple((x + y) % 12 for y in range(12)) for x in range(12))
    G = make_group(rows)
    assert all(G.cayley[x] is rows[x] for x in range(12))


@pytest.mark.parametrize("convert", [
    lambda row: list(row),
    lambda row: tuple(float(v) for v in row),
    lambda row: [bool(v) if v < 2 else v for v in row],
])
def test_other_rows_are_normalised_to_exact_ints(convert):
    G = cyclic(6)
    rows = [convert(row) for row in G.cayley]
    H = make_group(rows)
    assert H.cayley == G.cayley
    assert all(type(row) is tuple for row in H.cayley)
    assert all(type(v) is int for row in H.cayley for v in row)


def _reference_exact(values):
    """``groups._exact`` as it was when it tested a tuple row with a set of
    the entry types (verbatim)."""
    if type(values) is tuple and set(map(type, values)) <= {int}:
        return values
    values = tuple(values)
    try:
        exact = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        return None
    return exact if exact == values else None


class _Int(int):
    pass


_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.sampled_from((1.0, 1.5, float("nan"), float("inf"), "1", None)),
    st.builds(_Int, st.integers(-3, 3)),
)


@given(st.lists(_ENTRIES, max_size=6), st.booleans())
@settings(max_examples=300, deadline=None)
def test_exact_matches_the_set_of_types_test(entries, as_tuple):
    """Counting the int entries gives what the set of entry types gave, and
    an exact tuple comes back as the same object."""
    values = tuple(entries) if as_tuple else entries
    got, want = groups._exact(values), _reference_exact(values)
    assert got == want
    assert (got is values) == (want is values)


@pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf"), -float("inf"), "1", None])
def test_non_integral_entries_are_rejected(bad):
    """``int`` would truncate 1.5 to 1 (and so accept Z2), or raise its own
    error; every such entry is a GroupError instead."""
    with pytest.raises(GroupError, match="row 0 holds an entry that is not an integer"):
        make_group([[0, bad], [bad, 0]])
    with pytest.raises(GroupError, match="row 1 holds an entry that is not an integer"):
        make_group([(0, 1), [1, bad]])


def _cocycle_row(row):
    """The Q x Q -> A table [(0, 0), row] over Z2 x Z2 and A = {0, 1}."""
    G = abelian_group([2, 2])
    A = next(S for S in normal_subgroups(G) if S.elements == (0, 1))
    return cocycle_from_table(G, A, [(0, 0), row]).table[1]


def _based_ring_row(coeff):
    """The last row of the group ring of Z2, over Z or Z2."""
    def build(row):
        return make_based_ring(coeff, "eu", 0, [[(1, 0), (0, 1)], [(0, 1), row]]).constants[1][1]

    return build


def _dual_row(row):
    tensor = (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    return make_fusion_data("1x", 0, row, (ONE, ONE), tensor, True).dual


# Every constructor that takes integer entries from a caller: (error class,
# an exact row holding a 1, the constructor fed that row, whether it keeps
# the row).
ENTRY_POINTS = {
    "make_group rows": (GroupError, (1, 0), lambda row: make_group([(0, 1), row]).cayley[1], True),
    "make_group generators": (
        GroupError, (1,), lambda row: make_group(((0, 1), (1, 0)), generators=row).generators, True
    ),
    "abelian_group factors": (GroupError, (1, 2), lambda row: abelian_group(row).name, False),
    "semidirect_product action": (
        GroupError, (0, 2, 1),
        lambda row: semidirect_product(cyclic(3), cyclic(2), [(0, 1, 2), row]).cayley, False,
    ),
    "cocycle_from_table": (GroupError, (0, 1), _cocycle_row, True),
    "make_based_ring Z": (FusionError, (1, 0), _based_ring_row("Z"), True),
    "make_based_ring Z2": (FusionError, (1, 0), _based_ring_row("Z2"), False),
    "make_fusion_data dual": (FusionError, (0, 1), _dual_row, True),
}


def _spell(row, one):
    """``row`` with its first 1 written as ``one``."""
    i = row.index(1)
    return row[:i] + (one,) + row[i + 1:]


def _leaf_types(x):
    return [t for y in x for t in _leaf_types(y)] if type(x) is tuple else [type(x)]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_constructor_takes_entries_by_the_one_exact_rule(entry):
    """1.5, nan, inf and "1" raise the constructor's own error; True and
    1.0 normalise to exact ints; an exact-int tuple is kept, not copied."""
    error, row, build, keeps = ENTRY_POINTS[entry]
    for bad in (1.5, float("nan"), float("inf"), "1"):
        with pytest.raises(error, match="integer"):
            build(_spell(row, bad))
    want = build(row)
    for one in (True, 1.0):
        for spelled in (_spell(row, one), list(_spell(row, one))):
            got = build(spelled)
            assert got == want and _leaf_types(got) == _leaf_types(want)
    assert (want is row) == keeps


def test_semidirect_action_needs_one_permutation_per_element():
    with pytest.raises(GroupError, match="one permutation per element of Q"):
        semidirect_product(cyclic(4), cyclic(2), [tuple(range(4))])
    with pytest.raises(GroupError, match="one permutation per element of Q"):
        semidirect_product(cyclic(4), cyclic(2), [tuple(range(4))] * 3)
    with pytest.raises(GroupError, match="not a permutation of 0..3"):
        semidirect_product(cyclic(4), cyclic(2), [tuple(range(4)), (0, 1, 2, 4)])


def _reference_action_ok(N, Q, action):
    """The former automorphism and homomorphism loops of
    ``semidirect_product``, returning False where they raised."""
    nn, nq = N.order, Q.order
    for q in range(nq):
        perm = action[q]
        if sorted(perm) != list(range(nn)) or perm[0] != 0:
            return False
        for x in range(nn):
            for y in range(nn):
                if perm[N.cayley[x][y]] != N.cayley[perm[x]][perm[y]]:
                    return False
    for q1 in range(nq):
        for q2 in range(nq):
            composite = action[Q.cayley[q1][q2]]
            for x in range(nn):
                if composite[x] != action[q1][action[q2][x]]:
                    return False
    return True


@pytest.mark.parametrize("N, Q", [
    (cyclic(3), cyclic(2)),
    (cyclic(3), cyclic(3)),
    (cyclic(4), cyclic(2)),
    (abelian_group([2, 2]), cyclic(2)),
    (cyclic(2), abelian_group([2, 2])),
])
def test_semidirect_product_accepts_exactly_the_actions_the_former_loops_did(N, Q):
    """Every assignment of permutations of N to the elements of Q: the
    product table is a group exactly when the action is a homomorphism
    into Aut(N)."""
    accepted = 0
    for action in itertools.product(itertools.permutations(range(N.order)), repeat=Q.order):
        try:
            G = semidirect_product(N, Q, action)
        except GroupError:
            G = None
        assert (G is not None) == _reference_action_ok(N, Q, action), action
        accepted += G is not None
    assert accepted > 0


def test_bad_rows_and_columns_rejected():
    z4 = [[(x + y) % 4 for y in range(4)] for x in range(4)]
    for bad_row, message in (
        ((0, 1, 1, 3), "element 0 does not act as the identity"),
        ((1, 2, 3, 4), "row 1 is not a permutation"),
        ((1, 2, 3, -1), "row 1 is not a permutation"),
    ):
        rows = [tuple(r) for r in z4]
        rows[1] = bad_row
        with pytest.raises(GroupError, match=message):
            make_group(rows)
    # every row a permutation with identity 0, but columns 2 and 3 repeat 0 and 3:
    # the associativity check fails at the chosen generator
    rows = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 1, 0), (3, 2, 1, 0)]
    with pytest.raises(GroupError, match="associativity fails at"):
        make_group(rows)
    with pytest.raises(GroupError, match="row 0 has length 3"):
        make_group([(0, 1, 2), (1, 2, 0), (2, 0, 1), (3, 0, 1, 2)])


# ----------------------------------------------------- exact associativity


def _brute_associative(rows):
    n = len(rows)
    return all(
        rows[rows[x][y]][z] == rows[x][rows[y][z]]
        for x, y, z in itertools.product(range(n), repeat=3)
    )


@st.composite
def _random_loop(draw):
    """A random latin square of order 1 to 6 with identity 0."""
    n = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    rows = [list(range(n))] + [[x] + [None] * (n - 1) for x in range(1, n)]
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        x, y = cells[k]
        used = set(rows[x][:y]) | {rows[i][y] for i in range(x)}
        cands = [v for v in range(n) if v not in used]
        rng.shuffle(cands)
        for v in cands:
            rows[x][y] = v
            if fill(k + 1):
                return True
        rows[x][y] = None
        return False

    assert fill(0)
    return rows


_SMALL_GROUPS = [
    cyclic(5), cyclic(6), cyclic(8), abelian_group([2, 2, 2]), abelian_group([3, 3]),
    semidirect_product(cyclic(3), cyclic(2), [(0, 1, 2), (0, 2, 1)]),
    semidirect_product(cyclic(4), cyclic(2), [(0, 1, 2, 3), (0, 3, 2, 1)]),
]


@st.composite
def _perturbed_group(draw):
    """A small group table, relabelled, with one intercalate swapped or not."""
    G = draw(st.sampled_from(_SMALL_GROUPS))
    n = G.order
    perm = [0] + draw(st.permutations(range(1, n)))
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = perm[G.cayley[x][y]]
    quads = [
        (x, y, u, v)
        for x, u in itertools.combinations(range(1, n), 2)
        for y, v in itertools.combinations(range(1, n), 2)
        if rows[x][y] == rows[u][v] and rows[x][v] == rows[u][y]
    ]
    k = draw(st.integers(-1, len(quads) - 1))
    if k >= 0:
        x, y, u, v = quads[k]
        rows[x][y], rows[x][v] = rows[x][v], rows[x][y]
        rows[u][y], rows[u][v] = rows[u][v], rows[u][y]
    return rows


@given(st.one_of(_random_loop(), _perturbed_group()))
@settings(max_examples=150, deadline=None)
def test_make_group_accepts_exactly_the_associative_loops(rows):
    n = len(rows)
    want = _brute_associative(rows)
    for gens in (None, tuple(range(1, n))):
        try:
            make_group(rows, generators=gens)
            accepted = True
        except GroupError:
            accepted = False
        assert accepted == want


def test_intercalate_swap_in_z300_is_rejected():
    n = 300
    rows = [[(x + y) % n for y in range(n)] for x in range(n)]
    # the 2x2 subsquare 2, 152 / 152, 2 becomes 152, 2 / 2, 152
    for x, y in ((1, 1), (1, 151), (151, 1), (151, 151)):
        rows[x][y] = (rows[x][y] + 150) % n
    with pytest.raises(GroupError, match="associativity"):
        make_group(rows)
    with pytest.raises(GroupError, match="associativity"):
        make_group(rows, generators=(1,))


# ------------------------------- the validator against the former latin pass


def _reference_check_table(rows: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Verify that a Cayley table of exact ints is a latin square with
    identity 0 and two-sided inverses; return the inverse table.

    A row of length n is a permutation of 0..n-1 iff its set is that range.
    Once every row is, every entry lies in the range, so a column of n
    entries is a permutation iff its n entries are distinct.  Associativity
    needs a generating set, so ``make_group`` checks it afterwards with
    ``_check_associative``.
    """
    n = len(rows)
    if n == 0:
        raise GroupError("a group needs at least the identity element")
    full = set(range(n))
    for x, row in enumerate(rows):
        if len(row) != n:
            raise GroupError(f"row {x} has length {len(row)}, expected {n}")
        if set(row) != full:
            raise GroupError(f"row {x} is not a permutation of 0..{n - 1}")
        if row[0] != x or rows[0][x] != x:
            raise GroupError("element 0 does not act as the identity")
    for y, column in enumerate(zip(*rows)):
        if len(set(column)) != n:
            raise GroupError(f"column {y} is not a permutation of 0..{n - 1}")
    inverse = [0] * n
    for x in range(n):
        inverse[x] = rows[x].index(0)
        if rows[inverse[x]][x] != 0:
            raise GroupError(f"element {x} has no two-sided inverse")
    return tuple(inverse)


def _reference_check_associative(rows, inverse, gens) -> None:
    """Light's associativity test over a generating set; exact at every order.

    For each s in S and S^-1 it checks (x s) z = x (s z) for all x and z,
    one whole row z at a time: row ``x s`` against row x permuted by the
    row of s.  The elements s that pass form a product-closed set, and
    every element is a product of generators and their inverses (``make_group``
    has walked from 0 along them and reached every element), so all
    elements pass, which is associativity.  Cost: n |S| row comparisons.
    """
    for s in sorted(set(gens) | {inverse[g] for g in gens}):
        if s == 0:
            continue
        times_s = operator.itemgetter(*rows[s])
        for x, rx in enumerate(rows):
            left = rows[rx[s]]
            if left != times_s(rx):
                z = next(z for z, v in enumerate(left) if v != rx[rows[s][z]])
                raise GroupError(f"associativity fails at ({x}, {s}, {z})")


def _reference_make_group(rows, generators=None):
    """The former ``make_group`` on a table of exact ints: its inverse table
    and generators, or GroupError."""
    table = tuple(map(tuple, rows))
    inverse = _reference_check_table(table)
    g = groups.FiniteGroup(cayley=table, inverse=inverse, generators=())
    if generators is None:
        gens = minimal_generating_sequence(g)
    else:
        gens = tuple(int(x) for x in generators)
        for x in gens:
            if not 0 <= x < len(table):
                raise GroupError(f"generator index {x} out of range")
        if len(generated_subgroup(g, gens)) != len(table):
            raise GroupError("declared generators do not generate the group")
    _reference_check_associative(table, inverse, gens)
    return inverse, gens


def _outcome(build, rows, gens):
    """(inverse, generators) of an accepted table, or None.  Any exception
    other than GroupError escapes."""
    try:
        built = build(rows, gens)
    except GroupError:
        return None
    return (built.inverse, built.generators) if isinstance(built, groups.FiniteGroup) else built


def test_validator_matches_the_reference_on_groups(corpus_groups, survey_reps, ladder_groups):
    """Same decision, inverse table and generators as the former latin-square
    pass, with the declared generators and with chosen ones."""
    cases = [*corpus_groups.values(), *ladder_groups.values()]
    cases += [G for reps in survey_reps.values() for G in reps]
    for G in cases:
        for gens in (None, G.generators):
            want = _reference_make_group(G.cayley, gens)
            assert _outcome(make_group, G.cayley, gens) == want, G.name
            if gens is not None:
                assert want == (G.inverse, G.generators)


def _brute_group(rows, gens) -> bool:
    """Latin square, identity 0 and associativity by brute force, and
    ``gens`` (None: any) generate it."""
    n = len(rows)
    full = list(range(n))
    if any(sorted(row) != full for row in rows) or any(sorted(c) != full for c in zip(*rows)):
        return False
    if rows[0] != full or [row[0] for row in rows] != full or not _brute_associative(rows):
        return False
    span = {0}
    for _ in range(n):
        span |= {rows[x][g] for x in span for g in (full if gens is None else gens)}
    return len(span) == n


@st.composite
def _broken_table(draw):
    """A relabelled small group with up to three cells overwritten or with
    one intercalate swapped (a latin square that is not a group), or a
    random n x n table; entries lie in [-2, n + 2].  Declared generators
    are the group's own, relabelled, or a random list."""
    kind = draw(st.sampled_from(["overwrite", "intercalate", "random"]))
    if kind != "random":  # a group of odd order has no intercalate
        pool = [G for G in _SMALL_GROUPS if kind == "overwrite" or G.order % 2 == 0]
        G = draw(st.sampled_from(pool))
        n = G.order
        perm = [0] + draw(st.permutations(range(1, n)))
        rows = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                rows[perm[x]][perm[y]] = perm[G.cayley[x][y]]
        declared = [perm[g] for g in G.generators]
    if kind == "overwrite":
        for _ in range(draw(st.integers(0, 3))):
            x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[x][y] = draw(st.integers(-2, n + 2))
    elif kind == "intercalate":
        quads = [
            (x, y, u, v)
            for x, u in itertools.combinations(range(1, n), 2)
            for y, v in itertools.combinations(range(1, n), 2)
            if rows[x][y] == rows[u][v] and rows[x][v] == rows[u][y]
        ]
        x, y, u, v = draw(st.sampled_from(quads))
        rows[x][y], rows[x][v] = rows[x][v], rows[x][y]
        rows[u][y], rows[u][v] = rows[u][v], rows[u][y]
    else:
        n = draw(st.integers(1, 4))
        rows = draw(st.lists(
            st.lists(st.integers(-2, n + 2), min_size=n, max_size=n), min_size=n, max_size=n
        ))
        declared = draw(st.lists(st.integers(0, n - 1), max_size=3))
    return rows, declared


@given(_broken_table())
@settings(max_examples=400, deadline=None)
def test_make_group_accepts_exactly_the_groups(case):
    """Declared, chosen and all-element generators: the table is accepted
    exactly when it is a group they generate, as the former validator
    decided, and every rejection is a GroupError."""
    rows, declared = case
    for gens in (declared, None, list(range(len(rows)))):
        try:
            G = make_group(rows, gens)
        except GroupError as exc:
            _assert_triple_fails(rows, str(exc))
            got = None
        else:
            got = (G.inverse, G.generators)
        assert (got is not None) == _brute_group(rows, gens)
        assert got == _outcome(_reference_make_group, rows, gens)


def _assert_triple_fails(rows, message):
    """A message that names a triple (x, s, z) names one with
    (x s) z != x (s z)."""
    if message.startswith("associativity fails at "):
        x, s, z = map(int, message.removeprefix("associativity fails at ")[1:-1].split(", "))
        assert rows[rows[x][s]][z] != rows[x][rows[s][z]], message


def _conditions(rows, steps):
    """Whether (P) every row of ``steps`` is a permutation and, if so, (C)
    w (x c) = (w x) c for all w and c in ``steps`` and every x, by brute force."""
    n = len(rows)
    perms = all(sorted(rows[w]) == list(range(n)) for w in steps)
    commute = perms and all(
        rows[w][rows[x][c]] == rows[rows[w][x]][c]
        for w in steps for c in steps for x in range(n)
    )
    return perms, commute


def test_mutant_breaking_the_row_check_is_rejected():
    """(P) cannot fail alone on rows within 0..n-1: (C) and (Tr) already
    prove associativity, and an associative table whose every row holds 0
    is a group.  So the mutant puts 7 into row 1 of Z5 at column 2, which
    the walk along W = {1, 4} never reads."""
    rows = [[(x + y) % 5 for y in range(5)] for x in range(5)]
    rows[1][2] = 7
    assert not _conditions(rows, [1, 4])[0]
    for gens in (None, (1,)):
        with pytest.raises(GroupError, match=r"^row 1 is not a permutation of 0\.\.4$"):
            make_group(rows, generators=gens)
    rows[1][2] = 2  # within range the row check still comes first
    with pytest.raises(GroupError, match=r"^row 1 is not a permutation of 0\.\.4$"):
        make_group(rows, generators=(1,))
    assert not _brute_associative(rows)


def test_mutant_breaking_only_the_column_check_is_rejected():
    """Rows 1 = (1 0 2) and 2 = (2 0 1) are permutations, so (P) holds, and
    the walk along W = {1, 2} reaches both straight from 0, so (Tr) holds;
    but (1 2) 1 = 0 != 1 = 1 (2 1)."""
    rows = [(0, 1, 2), (1, 0, 2), (2, 0, 1)]
    levels = groups._fold(rows, [1, 2], [0])[1]
    assert [e for edges in levels for e in edges if e[3]] == [(0, 0, 1, True), (0, 1, 2, True)]
    assert _conditions(rows, [1, 2]) == (True, False)
    with pytest.raises(GroupError, match=r"^associativity fails at \(1, 2, 1\)$") as exc:
        make_group(rows, generators=(1, 2))
    _assert_triple_fails(rows, str(exc.value))
    assert not _brute_group(rows, None)


def test_mutant_breaking_only_the_tree_check_is_rejected():
    """An intercalate swapped in Z8 on rows and columns 2 and 6, outside
    W = {1, 7}: a latin square whose rows and columns of W are those of Z8,
    so (P) and (C) hold, but row 2 is not row 1 composed with row 1."""
    rows = [[(x + y) % 8 for y in range(8)] for x in range(8)]
    for x, y in ((2, 2), (2, 6), (6, 2), (6, 6)):
        rows[x][y] = (rows[x][y] + 4) % 8
    assert all(sorted(c) == list(range(8)) for c in [*rows, *zip(*rows)])
    assert _conditions(rows, [1, 7]) == (True, True)
    for gens in (None, (1,)):
        with pytest.raises(GroupError, match=r"^associativity fails at \(1, 1, 2\)$") as exc:
            make_group(rows, generators=gens)
        _assert_triple_fails(rows, str(exc.value))
    assert not _brute_group(rows, None)


def test_walk_rejects_entries_outside_the_table():
    """Entries below -n or at least n would raise IndexError in the walk,
    and entries in [-n, 0) would read a row from the end; all three are a
    GroupError, with declared and with chosen generators."""
    for bad in (-7, -1, 5):
        rows = [[(x + y) % 5 for y in range(5)] for x in range(5)]
        rows[1][1] = bad
        for gens in (None, (1,)):
            with pytest.raises(GroupError, match="reads an entry outside 0..4"):
                make_group(rows, generators=gens)


def test_group_check_composes_one_row_per_first_edge(monkeypatch):
    """Realising the dihedral group of order 2,048 builds each of its 2,047
    rows other than row 0 once, and no proof composes them again: the 3
    rows of W = {a, a^-1, b} are read off the right regular action and the
    other 2,044 are composed on the tree's edges, each stored as it was
    composed.  (C) adds 2 |W|^2 = 18 column compositions.  Before, the
    build composed those 2,044 rows and ``make_group`` composed all 2,047
    a second time to compare them."""
    composed = []  # (getter items, argument, result) of each whole composition

    def counting_itemgetter(*items):
        getter = operator.itemgetter(*items)
        if len(items) == 1:  # a column read, not a composition
            return getter

        def times(seq):
            composed.append((items, seq, getter(seq)))
            return composed[-1][2]

        return times

    monkeypatch.setattr(groups, "operator", types.SimpleNamespace(itemgetter=counting_itemgetter))
    G = group_from_source("gens a b; rel a^1024; rel b^2; rel b^-1 a b a;")
    assert G.order == 2048 and len(G.generators) == 2
    a, b = G.generators
    steps = (a, G.inverse[a], b)
    assert G.inverse[b] == b and len(set(steps)) == 3
    rows = {G.cayley[w] for w in steps}
    columns = {tuple(row[c] for row in G.cayley) for c in steps}
    assert {items for items, _, _ in composed} == rows | columns
    by_row = [(seq, out) for items, seq, out in composed if items in rows]
    built = [out for seq, out in by_row if seq not in columns]
    assert len(by_row) - len(built) == 3 * 3
    assert sum(items in columns for items, _, _ in composed) == 3 * 3
    others = [x for x in range(1, 2048) if x not in steps]
    assert len(built) == len(others) == 2044
    assert sorted(map(id, built)) == sorted(id(G.cayley[x]) for x in others)


def _tree_edges(parent, via):
    """The positions (x, c) of ``right`` that the action's tree reads."""
    return {(parent[y], via[y]) for y in range(1, len(parent))}


def _right_action(G):
    """G's right regular action on the steps of its generators and their
    inverses, numbered breadth-first, as ``realize`` hands it over."""
    steps = [w for g in G.generators for w in (g, G.inverse[g])]
    return pres._breadth_first(0, lambda x, c: G.cayley[x][steps[c]], len(steps), G.order)


def _uniform_cycles(column) -> bool:
    """Whether ``column`` could be x -> x s in a group for some s != 0: a
    permutation without fixed points whose cycles all have one length."""
    n = len(column)
    if sorted(column) != list(range(n)):
        return False
    lengths, seen = set(), set()
    for x in range(n):
        k = 0
        while x not in seen:
            seen.add(x)
            x, k = column[x], k + 1
        if k:
            lengths.add(k)
    return len(lengths) == 1 and lengths != {1}


def _corrupted_actions(right, parent, via, rnd):
    """Copies of ``right`` with one step column corrupted off the tree, with
    their kind: "changed" changes one entry, so the column is no
    permutation; "swapped" swaps two entries, so that the column has a fixed
    point or cycles of two lengths.  Either way the column is no x -> x s
    of any group, so no group has the corrupted action."""
    n, ncols = len(right), len(right[0])
    tree = _tree_edges(parent, via)
    free = [(x, c) for x in range(1, n) for c in range(ncols) if right[0][c] and (x, c) not in tree]
    for _ in range(3):
        x1, c = rnd.choice(free)
        changed = [list(row) for row in right]
        changed[x1][c] = rnd.choice([v for v in range(n) if v != right[x1][c]])
        yield "changed", changed
        mates = [x for x, d in free if d == c and x != x1]
        for x2 in rnd.sample(mates, len(mates)):
            swapped = [list(row) for row in right]
            swapped[x1][c], swapped[x2][c] = right[x2][c], right[x1][c]
            if not _uniform_cycles([row[c] for row in swapped]):
                yield "swapped", swapped
                break


def test_action_constructor_rejects_a_corrupted_action(corpus_groups):
    """The action constructor is sound: corrupt a valid right regular action
    off its tree, by swapping two entries of a step column or by changing
    one entry, and it raises GroupError, never returns a group."""
    rnd = random.Random(0)
    cases = [G for G in corpus_groups.values() if G.order >= 3]
    cases += [group_from_source(BEYOND_CORPUS[name][0]) for name in ("a5.grp", "dic64.grp")]
    kinds = collections.Counter()
    for G in cases:
        right, parent, via = _right_action(G)
        gens = right[0][0::2]
        assert are_isomorphic(groups.group_from_right_action(right, parent, via, gens), G)
        for kind, corrupted in _corrupted_actions(right, parent, via, rnd):
            kinds[kind] += 1
            with pytest.raises(GroupError):
                groups.group_from_right_action(corrupted, parent, via, gens)
    assert kinds["changed"] == 3 * len(cases) and kinds["swapped"] > len(cases)


def test_action_constructor_rejects_a_tree_the_action_does_not_follow():
    """Every element off the steps must be parent[x] s_via[x], as the action
    reads it, with parent[x] < x and s_via[x] != 0, and the generators must
    be steps that generate; anything else raises GroupError."""
    right, parent, via = [[0, 1], [1, 2], [2, 0]], [0, 0, 1], [0, 1, 1]  # Z3 on the steps 0, 1
    Z3 = groups.group_from_right_action(right, parent, via, (0, 1))
    assert (Z3.cayley, Z3.inverse, Z3.generators) == (cyclic(3).cayley, (0, 2, 1), (0, 1))
    for bad_right, bad_parent, bad_via, message in (
        (right, [0, 0, 2], via, "tree"),  # 2 is its own parent
        (right, parent, [0, 1, 0], "tree"),  # 1 s_0 = 1, not 2
        ([[0, 1], [2, 2], [2, 0]], parent, [0, 1, 0], "tree"),  # 1 s_0 = 2, but s_0 = 0
        (right, parent, [0, 1, 9], "outside"),  # no column 9
        ([[0, 1], [1, 2], [2, 2]], parent, via, "permutation"),  # 2 s_1 = 2, off the tree
    ):
        with pytest.raises(GroupError, match=message):
            groups.group_from_right_action(bad_right, bad_parent, bad_via, (0, 1))
    for gens in ((0,), (0, 1, 2)):
        with pytest.raises(GroupError, match="generate"):
            groups.group_from_right_action(right, parent, via, gens)


def test_is_abelian_matches_all_pairs(corpus_groups, survey_reps):
    cases = [*corpus_groups.values()] + [G for reps in survey_reps.values() for G in reps]
    for G in cases:
        n = G.order
        pairs = all(G.cayley[x][y] == G.cayley[y][x] for x in range(n) for y in range(n))
        assert G.is_abelian() == pairs, G.name
    assert sum(G.is_abelian() for G in survey_reps[32]) == 7


def test_subgroup_abelian_flag_matches_all_pairs(corpus_groups):
    cases = list(corpus_groups.values()) + [abelian_group([2] * 5)]
    for G in cases:
        for s in normal_subgroups(G):
            e = s.elements
            pairs = all(G.cayley[x][y] == G.cayley[y][x] for x in e for y in e)
            assert s.abelian == pairs, (G.name, e)


# ------------------------------------- the walk against the former closures


def _reference_generated_subgroup(G, elements):
    """The breadth-first closure that ``generated_subgroup`` replaced."""
    gens = set()
    for x in elements:
        gens.add(x)
        gens.add(G.inverse[x])
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.cayley[x][g]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def _reference_minimal_generating_sequence(G):
    """The greedy search, rebuilt from 0 per candidate, that
    ``minimal_generating_sequence`` replaced."""
    n = G.order
    gens, current = [], (0,)
    while len(current) < n:
        best_x, best = -1, ()
        for x in range(1, n):
            if x in current:
                continue
            cand = _reference_generated_subgroup(G, gens + [x])
            if len(cand) > len(best):
                best_x, best = x, cand
                if len(best) == n:
                    break
        gens.append(best_x)
        current = best
    return tuple(gens)


def test_walk_closures_match_the_reference_on_the_corpus(corpus_groups):
    rng = random.Random(7)
    cases = [G for G in corpus_groups.values() if G.order <= 64]
    cases += [_relabelled(G, [0] + rng.sample(range(1, G.order), G.order - 1))
              for G in _small_corpus(corpus_groups)]
    for G in cases:
        assert minimal_generating_sequence(G) == _reference_minimal_generating_sequence(G)
        for elements in ([], G.generators, G.generators[:1], range(G.order),
                         rng.sample(range(G.order), min(3, G.order))):
            assert generated_subgroup(G, elements) == _reference_generated_subgroup(G, elements)


@given(st.one_of(_random_loop(), _perturbed_group()), st.data())
@settings(max_examples=150, deadline=None)
def test_generated_subgroup_matches_the_reference_on_loops(rows, data):
    """The walk is exact on tables that are not groups: right inverses stand
    in for inverses, and the span is closed under every element walked."""
    n = len(rows)
    table = tuple(map(tuple, rows))
    G = groups.FiniteGroup(table, tuple(row.index(0) for row in table), ())
    elements = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    for elems in [elements] + [[x] for x in range(n)]:
        assert generated_subgroup(G, elems) == _reference_generated_subgroup(G, elems)


@pytest.mark.parametrize(
    "name, automorphisms",
    [("z8", 4), ("z4x2", 8), ("z2x2x2", 168), ("d8", 8), ("q8", 24),
     ("z3x3", 48), ("d16", 32), ("q16", 32)],
)
def test_isomorphisms_iter_yields_the_automorphism_group(corpus_groups, name, automorphisms):
    """The search yields Aut(G), and ``automorphism_generators`` generate it."""
    G = corpus_groups[name]
    maps = list(isomorphisms_iter(G, G))
    assert len(set(maps)) == len(maps) == automorphisms
    gens = groups.automorphism_generators(G)
    assert set(gens) <= set(maps)
    group, frontier = {tuple(range(G.order))}, [tuple(range(G.order))]
    for phi in frontier:
        for a in gens:
            if (psi := tuple(a[x] for x in phi)) not in group:
                group.add(psi)
                frontier.append(psi)
    assert len(group) == automorphisms
    for phi in maps:
        assert sorted(phi) == list(range(G.order))
        for x in range(G.order):
            for y in range(G.order):
                assert G.cayley[phi[x]][phi[y]] == phi[G.cayley[x][y]]


def test_automorphism_level_orbits_multiply_to_the_automorphism_count(corpus_groups):
    """Level i's automorphisms, those found at levels >= i, fix gens[:i];
    the orbit lengths of gens[i] under them multiply to |Aut(G)|, counted
    by brute force, on every corpus group of order <= 16."""
    small = [G for _, G in sorted(corpus_groups.items()) if G.order <= 16]
    assert len(small) > 20
    for G in small:
        gens = G.generators
        found = groups.automorphism_generators(G)
        product = 1
        for i, g in enumerate(gens):
            level = [a for a in found if all(a[h] == h for h in gens[:i])]
            least = groups.orbit_minima(level, G.order)
            product *= least.count(least[g])
        assert product == sum(1 for _ in isomorphisms_iter(G, G)), G.name


def test_orbit_minima():
    """Orbits of two permutations of range(6): (0 3)(1 4) and (1 4 5)."""
    maps = [(3, 4, 2, 0, 1, 5), (0, 4, 2, 3, 5, 1)]
    assert groups.orbit_minima(maps, 6) == [0, 1, 2, 0, 1, 1]
    assert groups.orbit_minima([], 3) == [0, 1, 2]


# ------------------------------- the abelian pass against the former recursion


def _reference_p_group_basis(elems, mul, order_of, p):
    """Basis of a finite abelian p-group given as (elements, mul, order).

    A cyclic subgroup of maximal order is a direct summand, so one basis
    element of maximal order is chosen, the quotient is handled recursively
    and its basis elements are lifted back with a power-of-g correction.
    """
    m = len(elems)
    if m == 1:
        return []
    ident = next(x for x in elems if order_of(x) == 1)
    g = max(elems, key=lambda x: (order_of(x), -x))
    og = order_of(g)
    if og == m:
        return [g]
    dlog = {ident: 0}
    acc, e = g, 1
    while acc != ident:
        dlog[acc] = e
        acc = mul(acc, g)
        e += 1
    coset_of = {}
    reps = []
    for x in sorted(elems):
        if x in coset_of:
            continue
        members = sorted(mul(x, h) for h in dlog)
        idx = len(reps)
        for y in members:
            coset_of[y] = idx
        reps.append(members[0])
    qident = reps[coset_of[ident]]

    def qmul(a, b):
        return reps[coset_of[mul(a, b)]]

    def qorder(a):
        start = reps[coset_of[a]]
        if start == qident:
            return 1
        k, cur = 1, start
        while cur != qident:
            cur = qmul(cur, start)
            k += 1
        return k

    def power(x, k):
        acc = ident
        for _ in range(k):
            acc = mul(acc, x)
        return acc

    lifted = [g]
    for ybar in _reference_p_group_basis(reps, qmul, qorder, p):
        f = qorder(ybar)
        t = dlog[power(ybar, f)]
        if t % f != 0:
            raise GroupError("abelian basis lift failed")
        y = mul(ybar, power(g, (og - t // f) % og))
        if power(y, f) != ident:
            raise GroupError("abelian basis lift failed")
        lifted.append(y)
    return lifted


def _reference_abelian_invariants(G, subgroup):
    """The recursion on coset quotients and the m^2 input check that
    ``abelian_invariants`` replaced, verbatim apart from names."""
    if isinstance(subgroup, groups.SubgroupSet):
        elems = list(subgroup.elements)
    else:
        elems = sorted(set(subgroup))
    eset = set(elems)
    for x in elems:
        for y in elems:
            if G.cayley[x][y] not in eset:
                raise GroupError("subgroup set is not closed under multiplication")
            if G.cayley[x][y] != G.cayley[y][x]:
                raise GroupError("subgroup is not abelian")
    if 0 not in eset:
        raise GroupError("subgroup must contain the identity")
    m = len(elems)
    if m == 1:
        return groups.AbelianStructure(factors=(), generators=())
    primes = sorted({p for p in range(2, m + 1) if m % p == 0 and groups._is_prime(p)})
    per_prime = {}
    for p in primes:
        part = [x for x in elems if groups._is_p_power(G.element_order(x), p)]
        basis = _reference_p_group_basis(part, lambda x, y: G.cayley[x][y], G.element_order, p)
        per_prime[p] = sorted(
            ((G.element_order(x), x) for x in basis), reverse=True
        )
    width = max(len(v) for v in per_prime.values())
    factors = []
    gens = []
    for i in range(width):
        d = 1
        g = 0
        for p in primes:
            if i < len(per_prime[p]):
                o, x = per_prime[p][i]
                d *= o
                g = G.cayley[g][x]
        factors.append(d)
        gens.append(g)
    factors.reverse()
    gens.reverse()
    for i in range(len(factors) - 1):
        if factors[i + 1] % factors[i]:
            raise GroupError("invariant factors failed the divisibility chain")
    if math.prod(factors) != m:
        raise GroupError("invariant factors do not multiply to the subgroup order")
    return groups.AbelianStructure(factors=tuple(factors), generators=tuple(gens))


def _abelian_cases(G):
    """Every abelian normal subgroup of G, G itself included when abelian."""
    return [s for s in normal_subgroups(G) if s.abelian]


def _assert_matches_reference(G, subgroup):
    new = abelian_invariants(G, subgroup)
    old = _reference_abelian_invariants(G, subgroup)
    assert (new.factors, new.generators) == (old.factors, old.generators), G.name


def test_abelian_invariants_match_the_reference_on_the_corpus(corpus_groups):
    """Corpus groups, (Z2)^5, Z8 x Z8, Z4^3 and Z2 x Z4 x Z8, with relabelled
    copies.  On some subgroups of order 32 and 64 of relabelled Z4^3 and
    Z2 x Z4 x Z8, lifting over all coordinates at once gives other (valid)
    generators than the recursion; the pass matches it by lifting one
    level at a time."""
    rng = random.Random(9)

    def copies(G, k):
        return [_relabelled(G, [0] + rng.sample(range(1, G.order), G.order - 1))
                for _ in range(k)]

    cases = []
    for G in corpus_groups.values():
        cases += [G] + copies(G, 1)
    for factors in ([2] * 5, [8, 8], [4, 4, 4], [2, 4, 8]):
        G = abelian_group(factors)
        cases += [G] + copies(G, 3)
    for G in cases:
        for sub in _abelian_cases(G):
            _assert_matches_reference(G, sub)


@given(
    st.lists(st.sampled_from([2, 3, 4, 5, 8, 9]), max_size=3).filter(
        lambda f: math.prod(f) <= 200
    ),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_abelian_invariants_match_the_reference_on_relabelled_groups(factors, data):
    G = abelian_group(factors)
    G = _relabelled(G, [0] + data.draw(st.permutations(range(1, G.order))))
    _assert_matches_reference(G, range(G.order))
    members = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    _assert_matches_reference(G, generated_subgroup(G, members))


def test_abelian_invariants_reject_what_the_reference_rejects(corpus_groups):
    z4, d8 = cyclic(4), corpus_groups["d8"]
    q8xz2 = corpus_groups["q8xz2"]
    q8 = next(s for s in normal_subgroups(q8xz2) if s.order == 8 and not s.abelian)
    for G, members in [
        (z4, [0, 1]),  # not closed
        (abelian_group([2, 2, 2]), [0, 1, 2, 4]),  # not closed, order 4
        (z4, [1, 2, 3]),  # no identity
        (z4, []),
        (d8, range(8)),  # not abelian
        (q8xz2, q8),
        (q8xz2, range(16)),
    ]:
        with pytest.raises(GroupError):
            abelian_invariants(G, members)
        with pytest.raises(GroupError):
            _reference_abelian_invariants(G, members)
