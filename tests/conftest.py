import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wittlab import chartab, groups, presentations as pres, witt

REPO = os.path.join(os.path.dirname(__file__), "..")
CORPUS = os.path.join(REPO, "corpus")


def group_from_source(text, max_cosets=65536):
    return pres.realize(pres.parse_group_file(text), max_cosets=max_cosets)


def isomorphisms_iter(G, H):
    """Every isomorphism G -> H, by the search behind ``groups.are_isomorphic``."""
    return groups._isomorphisms(G, H, groups._search_data(G), groups._search_data(H))


def generated_subgroup(G, elements):
    """Sorted element set of the subgroup generated by ``elements``.

    A fold of the walk over each element and its inverse.  Elements already
    in the span are walked too: on a table not known to be associative, a
    span holding x need not be closed under x.
    """
    gens = list(dict.fromkeys(g for x in elements for g in (x, G.inverse[x])))
    return tuple(sorted(groups._fold(G.cayley, gens, [0])[0]))


def center(G):
    """The elements of G that commute with every generator."""
    cay = G.cayley
    return tuple(
        x for x in range(G.order) if all(cay[x][g] == cay[g][x] for g in G.generators)
    )


def vec_z2_fixture(which: str) -> witt.FusionData:
    """Graded vector spaces on Z_2 with one of the four braidings.

    ``b0``/``b1`` are the symmetric braidings on the untwisted category (the
    non-unit simple has scalar +1, resp. -1); ``bi``/``b-i`` are the two
    non-symmetric braidings on the twisted category, with scalar +-i, where
    the non-unit simple is not even weakly symmetric.
    """
    scalars = {
        "b0": (witt.ONE, witt.ONE),
        "b1": (witt.ONE, witt.MINUS_ONE),
        "bi": (witt.ONE, witt.root_of_unity(1, 4)),
        "b-i": (witt.ONE, witt.root_of_unity(3, 4)),
    }.get(which)
    if scalars is None:
        raise witt.FusionError(f"unknown fixture {which!r}")
    tensor = (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    return witt.make_fusion_data(
        labels=("1", "x"),
        unit=0,
        dual=(0, 1),
        scalars=scalars,
        tensor=tensor,
        symmetric=which in ("b0", "b1"),
    )


# Only tests call the fixture, but the acceptance suite imports it from
# ``wittlab.witt``.
witt.vec_z2_fixture = vec_z2_fixture


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


@pytest.fixture(scope="session")
def corpus_groups(corpus_dir):
    """All bundled groups, keyed by file name."""
    out = {}
    for fname in sorted(os.listdir(corpus_dir)):
        if not fname.endswith(".grp"):
            continue
        with open(os.path.join(corpus_dir, fname), encoding="utf-8") as fh:
            parsed = pres.parse_group_file(fh.read(), filename=fname)
        out[fname[: -len(".grp")]] = pres.realize(parsed)
    return out


@pytest.fixture(scope="session")
def ladder_groups():
    """The benchmark's ladder members: (Z2)^5, Z8 x Z8, the dihedral group
    of order 256 and S6."""
    return {
        "z2x2x2x2x2": groups.abelian_group([2] * 5),
        "z8x8": group_from_source("gens a b; rel a^8; rel b^8; rel a^-1 b^-1 a b;\n"),
        "dih256": group_from_source("gens a b; rel a^128; rel b^2; rel b^-1 a b a;\n"),
        "s6": group_from_source('group "s6" permutations degree 6 { gen (1 2); gen (1 2 3 4 5 6); }\n'),
    }


@pytest.fixture(scope="session")
def tables(corpus_groups):
    """Memoised character tables for corpus groups."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = chartab.burnside_dixon(corpus_groups[name])
        return cache[name]

    return get


@pytest.fixture(scope="session")
def ik_pair():
    from wittlab import deform

    return deform.izumi_kosaki()


@pytest.fixture(scope="session")
def survey_reps():
    """The survey's representatives of orders 2 to 32, grown from the
    trivial group as ``scripts/survey_order32.py`` grows them: order -> list."""
    from wittlab.deform import central_extensions
    from wittlab.groups import classify, make_group

    reps, out = [make_group([[0]])], {}
    for order in (2, 4, 8, 16, 32):
        reps = out[order] = classify([E for H in reps for E in central_extensions(H)])
    return out
