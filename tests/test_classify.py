"""The refined element colours of the isomorphism search, and ``classify``
against a verbatim copy of the former search data keyed on cheap
invariants."""

import itertools
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from wittlab import groups
from wittlab.deform import central_extension, central_extensions, h2_transversal
from wittlab.groups import FiniteGroup, _fold, conjugacy_classes, make_group

from conftest import center, generated_subgroup, isomorphisms_iter

ORDER_8 = ("z8", "z4x2", "z2x2x2", "d8", "q8")


# ------------------------------------- the former search data, kept verbatim


def _reference_derived_subgroup(G: FiniteGroup) -> tuple[int, ...]:
    """The subgroup generated by all n^2 commutators x^-1 y^-1 x y."""
    cay, inv = G.cayley, G.inverse
    comms = {cay[cay[cay[inv[x]][inv[y]]][x]][y] for x in range(G.order) for y in range(G.order)}
    return generated_subgroup(G, comms)


@dataclass(frozen=True)
class _ReferenceSearchData:
    """What the isomorphism search needs of one group, computed once: the
    cheap invariants as (name, value) pairs (the key of ``classify``), each
    element's colour (element order, class size), the elements of each
    colour in order, and the walk of the generators, one level each."""

    invariants: tuple[tuple[str, object], ...]
    colour: tuple[tuple[int, int], ...]
    by_colour: dict[tuple[int, int], list[int]]
    levels: tuple[list[tuple[int, int, int, bool]], ...]


def _reference_search_data(G: FiniteGroup) -> _ReferenceSearchData:
    cc = conjugacy_classes(G)
    colour = tuple((G.element_order(x), cc.sizes[cc.class_of[x]]) for x in range(G.order))
    by_colour: dict[tuple[int, int], list[int]] = {}
    for x, c in enumerate(colour):
        by_colour.setdefault(c, []).append(x)
    invariants = (
        ("order", G.order),
        ("order profile", tuple(sorted(Counter(m for m, _ in colour).items()))),
        ("conjugacy class shape", tuple(sorted(zip(cc.rep_orders, cc.sizes)))),
        ("center size", len(center(G))),
        ("derived subgroup size", len(_reference_derived_subgroup(G))),
    )
    _, levels = _fold(G.cayley, G.generators, [0])
    return _ReferenceSearchData(invariants, colour, by_colour, tuple(levels))


def _reference_classify(groups_list) -> list[FiniteGroup]:
    """One representative per isomorphism class, in first-seen order.

    Each group's search data is computed once; its cheap invariants are the
    key, and only groups with equal keys are searched for an isomorphism.
    """
    buckets: dict[tuple, list[tuple[FiniteGroup, _ReferenceSearchData]]] = {}
    reps = []
    for G in groups_list:
        dG = _reference_search_data(G)
        bucket = buckets.setdefault(dG.invariants, [])
        if all(next(groups._isomorphisms(G, H, dG, dH), None) is None for H, dH in bucket):
            bucket.append((G, dG))
            reps.append(G)
    return reps


# ------------------------------------------------------------------- tests


def _relabelled(G, perm):
    """G with each element x renamed perm[x] (perm fixes 0); the copy gets
    its own generating sequence."""
    n = G.order
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = perm[G.cayley[x][y]]
    return make_group(rows)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_colours_are_invariant_under_relabelling(corpus_groups, data):
    """A relabelled copy has the same colour multiset and key, and every
    isomorphism the search yields (the first 200 at most) keeps colours."""
    small = [G for _, G in sorted(corpus_groups.items()) if G.order <= 32]
    G = data.draw(st.sampled_from(small))
    H = _relabelled(G, [0] + data.draw(st.permutations(range(1, G.order))))
    dG, dH = groups._search_data(G), groups._search_data(H)
    assert sorted(dG.colour) == sorted(dH.colour)
    assert dG.key == dH.key
    maps = list(itertools.islice(isomorphisms_iter(G, H), 200))
    assert maps
    for phi in maps:
        assert all(dH.colour[phi[x]] == c for x, c in enumerate(dG.colour))


def _every_class(H):
    """The extension of H by every class of the H^2 transversal, class i
    the sum of the basis cocycles at the set bits of i."""
    basis, _ = h2_transversal(H)
    cocycles = [[0] * (H.order * H.order)]
    for t in basis:
        cocycles += [[(a + d) % 2 for a, d in zip(old, t)] for old in cocycles]
    return [central_extension(H, c) for c in cocycles]


@pytest.fixture(scope="module")
def extensions(corpus_groups):
    """The extensions of the 86 classes of H^2 of the groups of order 8 and
    of the 1,278 classes of the 14 classes of order 16 (found by the
    reference ``classify``), and the orbit minima that
    ``central_extensions`` builds of the same groups."""
    order8 = [corpus_groups[name] for name in ORDER_8]
    order16 = [E for H in order8 for E in _every_class(H)]
    reps16 = _reference_classify(order16)
    order32 = [E for H in reps16 for E in _every_class(H)]
    built = [E for H in order8 + reps16 for E in central_extensions(H)]
    return {16: order16, 32: order32, "built": built}


@pytest.mark.parametrize("order, sizes", [(16, (86, 14)), (32, (1278, 51))])
def test_classify_matches_the_reference(extensions, order, sizes):
    """The same representatives, in the same order, as the former key."""
    exts = extensions[order]
    reps, ref = groups.classify(exts), _reference_classify(exts)
    assert (len(exts), len(reps)) == sizes
    assert [G.cayley for G in reps] == [G.cayley for G in ref]
    assert all(a is b for a, b in zip(reps, ref))


@pytest.mark.parametrize("order, classes", [(16, 14), (32, 51)])
def test_every_class_has_its_own_key(extensions, order, classes):
    """The refined colours tell every group of order 16 and 32 apart, so
    ``classify`` never runs a search between groups that are not
    isomorphic; the former key gave 13 and 42 keys."""
    reps = groups.classify(extensions[order])
    assert len({groups._search_data(G).key for G in reps}) == classes
    assert len({_reference_search_data(G).invariants for G in reps}) < classes


def test_orbit_minima_classify_like_every_class(extensions):
    """``classify`` returns the same tables, in the same order, from the
    116 orbit minima as from the extensions of all 1,364 classes: the
    first class of each isomorphism class is the least of its orbit."""
    every = extensions[16] + extensions[32]
    assert (len(every), len(extensions["built"])) == (1364, 116)
    reps, from_minima = groups.classify(every), groups.classify(extensions["built"])
    assert len(reps) == 14 + 51
    assert [G.cayley for G in reps] == [G.cayley for G in from_minima]


def test_derived_subgroup_is_the_subgroup_of_all_commutators(corpus_groups, survey_reps):
    """The normal closure of the generators' commutators is the subgroup
    generated by all n^2 commutators, on the corpus and the survey's
    representatives of orders 2 to 32."""
    cases = list(corpus_groups.values()) + [G for reps in survey_reps.values() for G in reps]
    for G in cases:
        assert groups.derived_subgroup(G) == _reference_derived_subgroup(G), G.name
