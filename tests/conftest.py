import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wittlab import chartab, groups, presentations as pres

REPO = os.path.join(os.path.dirname(__file__), "..")
CORPUS = os.path.join(REPO, "corpus")


def group_from_source(text, max_cosets=65536):
    return pres.realize(pres.parse_group_file(text), max_cosets=max_cosets)


def isomorphisms_iter(G, H):
    """Every isomorphism G -> H, by the search behind ``groups.are_isomorphic``."""
    return groups._isomorphisms(G, H, groups._search_data(G), groups._search_data(H))


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
