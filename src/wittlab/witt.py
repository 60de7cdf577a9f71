"""Fusion data, Grothendieck rings and two-torsion Witt rings.

For a symmetric fusion category the Witt ring has a Z_2 basis consisting of
the self-dual simples whose self-duality pairing is symmetric; products are
the fusion products reduced mod 2 and projected back onto that basis.  For
the representation category of a finite group the selection scalar of a
self-dual simple is its second Frobenius-Schur indicator, so everything is
computed from the character table.

Based rings (a distinguished basis, a unit and integer structure constants)
are compared by basis bijections that preserve the unit and all constants:
one colour refinement of both bases together, then an exhaustive search
over the images of equal colour.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from . import chartab
from .groups import AbelianStructure, _exact

__all__ = [
    "RootOfUnity",
    "ONE",
    "MINUS_ONE",
    "FusionData",
    "BasedRing",
    "WittRing",
    "make_fusion_data",
    "make_based_ring",
    "assert_associative",
    "witt_basis",
    "witt_ring",
    "fusion_ring",
    "grothendieck_ring",
    "based_ring_isomorphism",
    "fusion_data_from_table",
    "double_abelian_witt",
]


class FusionError(ValueError):
    """Structurally invalid fusion or based-ring data."""


# ------------------------------------------------------------- roots of unity


@dataclass(frozen=True)
class RootOfUnity:
    """zeta_order ** num in lowest terms; order is 1, 2 or 4 here."""

    num: int
    order: int

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        n = math.lcm(self.order, other.order)
        return root_of_unity(self.num * (n // self.order) + other.num * (n // other.order), n)

    @property
    def is_one(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        return {(0, 1): "1", (1, 2): "-1", (1, 4): "i", (3, 4): "-i"}.get(
            (self.num, self.order), f"z{self.order}^{self.num}"
        )


def root_of_unity(num: int, order: int) -> RootOfUnity:
    if order < 1:
        raise FusionError("root order must be positive")
    num %= order
    g = math.gcd(num, order)
    if num == 0:
        return RootOfUnity(0, 1)
    return RootOfUnity(num // g, order // g)


ONE = root_of_unity(0, 1)
MINUS_ONE = root_of_unity(1, 2)


def root_of_sign(v: int) -> RootOfUnity:
    if v == 1:
        return ONE
    if v == -1:
        return MINUS_ONE
    raise FusionError(f"{v} is not a sign")


# ----------------------------------------------------------------- fusion data


@dataclass(frozen=True)
class FusionData:
    """Simple-object labels, duality, self-duality scalars and fusion tensor.

    ``scalars[i]`` is the braided self-duality scalar of simple i; it is a
    free choice (set to 1) for non-self-dual simples, where nothing depends
    on it.  ``symmetric`` records whether the source braiding is symmetric.
    """

    labels: tuple[str, ...]
    unit: int
    dual: tuple[int, ...]
    scalars: tuple[RootOfUnity, ...]
    tensor: tuple[tuple[tuple[int, ...], ...], ...]
    symmetric: bool

    @property
    def rank(self) -> int:
        return len(self.labels)

    def weakly_symmetric(self, i: int) -> bool:
        return (self.scalars[i] * self.scalars[self.dual[i]]).is_one


def _check_shape(r: int, unit, tensor) -> None:
    """Raise FusionError unless ``unit`` indexes one of r labels and
    ``tensor`` is r x r x r."""
    if type(unit) is not int or not 0 <= unit < r:
        raise FusionError(f"unit {unit!r} is not the index of one of {r} labels")
    if len(tensor) != r or any(len(plane) != r for plane in tensor) or any(
        len(row) != r for plane in tensor for row in plane
    ):
        raise FusionError(f"structure constants are not {r} x {r} x {r}")


def make_fusion_data(labels, unit, dual, scalars, tensor, symmetric) -> FusionData:
    labels = tuple(labels)
    r = len(labels)
    dual = _exact(dual)
    if dual is None:
        raise FusionError("duality holds an entry that is not an integer")
    if len(dual) != r or any(not 0 <= d < r for d in dual):
        raise FusionError(f"duality is not a map on {r} labels")
    scalars = tuple(scalars)
    if len(scalars) != r:
        raise FusionError(f"{len(scalars)} scalars for {r} labels")
    tensor = tuple(tuple(tuple(row) for row in plane) for plane in tensor)
    _check_shape(r, unit, tensor)
    if dual[unit] != unit:
        raise FusionError("the unit must be self-dual")
    if any(dual[dual[i]] != i for i in range(r)):
        raise FusionError("duality is not an involution")
    for j in range(r):
        for k in range(r):
            if tensor[unit][j][k] != (1 if j == k else 0):
                raise FusionError("unit row violates the unit law")
            if tensor[j][k][unit] != (1 if k == dual[j] else 0):
                raise FusionError("fusion tensor does not respect duality")
    if symmetric:
        for i in range(r):
            if dual[i] == i and scalars[i].order > 2:
                raise FusionError("self-dual scalar must be +-1 for a symmetric braiding")
    return FusionData(
        labels=labels, unit=unit, dual=dual, scalars=scalars, tensor=tensor,
        symmetric=symmetric,
    )


# ----------------------------------------------------------------- based rings


@dataclass(frozen=True)
class BasedRing:
    """Ring with a distinguished basis; constants over Z or Z_2."""

    coeff: str  # "Z" or "Z2"
    labels: tuple[str, ...]
    unit: int
    constants: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def rank(self) -> int:
        return len(self.labels)


def make_based_ring(coeff, labels, unit, constants) -> BasedRing:
    if coeff not in ("Z", "Z2"):
        raise FusionError("coefficient tag must be Z or Z2")
    labels = tuple(labels)
    r = len(labels)
    planes = []
    for plane in constants:  # a streamed Z2 input is never held beside its reduced copy
        plane = tuple(map(_exact, plane))
        if None in plane:
            raise FusionError("structure constants must be integers")
        if coeff == "Z2":
            plane = tuple(tuple(map((1).__and__, row)) for row in plane)
        planes.append(plane)
    constants = tuple(planes)
    _check_shape(r, unit, constants)
    if min((min(row, default=0) for plane in constants for row in plane), default=0) < 0:
        raise FusionError("structure constants must be nonnegative")
    for j in range(r):
        for k in range(r):
            if constants[unit][j][k] != (1 if j == k else 0):
                raise FusionError("unit law fails")
            if constants[j][unit][k] != (1 if j == k else 0):
                raise FusionError("unit law fails on the right")
    for i in range(r):
        for j in range(i):
            if constants[i][j] != constants[j][i]:
                raise FusionError("structure constants are not commutative")
    ring = BasedRing(coeff=coeff, labels=labels, unit=unit, constants=constants)
    assert_associative(ring, limit=12)
    return ring


def assert_associative(ring: BasedRing, limit: int = 20) -> bool:
    """Full associativity check of the structure constants (rank <= limit).

    (e_i e_j) e_k = e_i (e_j e_k) for all k is L_i L_j = L_(e_i e_j): one
    comparison of packed ints per pair (i, j).  P[i][m] packs c[i][m][l]
    over l, S[j][m] c[j][k][m] over k a block of r lanes apart, and L[m]
    c[m][k][l] over (k, l); lane k r + l of sum_m P[i][m] S[j][m] is then
    e_i (e_j e_k) at l, and that of sum_m c[i][j][m] L[m] is (e_i e_j) e_k.
    Lanes one bit wider than r max|c|^2 hold any difference of two, so
    equal ints have equal lanes; Z2 constants are reduced first and the
    lanes' low bits compared.  A failing pair is scanned for its least k.
    Returns False when the rank exceeds the limit (check skipped).
    """
    r = ring.rank
    if r > limit:
        return False
    mod2 = ring.coeff == "Z2"
    c = ring.constants
    if mod2:
        c = [[tuple(map((1).__and__, row)) for row in plane] for plane in c]
    top = max(map(abs, itertools.chain.from_iterable(itertools.chain.from_iterable(c))), default=0)
    w = (r * top * top).bit_length() + 1  # lane width, a sign bit included
    block = r * w

    def pack(values, stride=w):
        return sum(map(operator.lshift, values, itertools.count(0, stride)))

    P = [[pack(row) for row in plane] for plane in c]
    S = [[pack(col, block) for col in zip(*plane)] for plane in c]
    L = [pack(row, block) for row in P]
    odd = 1 if mod2 else -1  # the bits of a lane that are compared
    mask = pack([odd] * (r * r)) if mod2 else odd
    for i in range(r):
        for j in range(r):
            lhs = sum(map(operator.mul, P[i], S[j]))
            rhs = sum(map(operator.mul, c[i][j], L))
            if (lhs ^ rhs) & mask:  # the least k with (e_i e_j) e_k != e_i (e_j e_k)
                k = next(k for k in range(r) if any(
                    (sum(c[i][j][m] * c[m][k][l] for m in range(r))
                     ^ sum(c[j][k][m] * c[i][m][l] for m in range(r))) & odd for l in range(r)))
                raise FusionError(f"associativity fails at ({i}, {j}, {k})")
    return True


@dataclass(frozen=True)
class WittRing:
    """Two-torsion Witt ring of a braided fusion input.

    ``basis`` records the selected simple indices.  When the source
    braiding is not symmetric only the additive group is defined:
    ``group_only`` is set and ``ring`` is None.
    """

    ring: BasedRing | None
    basis: tuple[int, ...]
    group_only: bool

    @property
    def rank(self) -> int:
        return len(self.basis)


def witt_basis(fd: FusionData) -> tuple[int, ...]:
    """Indices of the Z_2 basis: self-dual simples with scalar 1."""
    return tuple(i for i in range(fd.rank) if fd.dual[i] == i and fd.scalars[i].is_one)


def witt_ring(fd: FusionData) -> WittRing:
    """The Witt ring of the fusion input (additive group only if braided).

    For a symmetric braiding the product of basis elements x, y is the full
    fusion product x (x) y reduced mod 2 with all non-basis components
    discarded.
    """
    basis = witt_basis(fd)
    if not fd.symmetric:
        return WittRing(ring=None, basis=basis, group_only=True)
    if fd.unit not in basis:
        raise FusionError("the unit must lie in the Witt basis")
    pos = {b: t for t, b in enumerate(basis)}
    # streamed into make_based_ring, which reduces mod 2; itemgetter of one
    # index returns the bare entry, and a one-element basis is (unit,)
    pick = operator.itemgetter(*basis) if len(basis) > 1 else lambda row: (row[fd.unit],)
    constants = ((pick(fd.tensor[i][j]) for j in basis) for i in basis)
    ring = make_based_ring(
        coeff="Z2",
        labels=tuple(fd.labels[i] for i in basis),
        unit=pos[fd.unit],
        constants=constants,
    )
    return WittRing(ring=ring, basis=basis, group_only=False)


def fusion_ring(fd: FusionData) -> BasedRing:
    """The Grothendieck ring of the fusion input: its fusion tensor as a
    based ring over Z."""
    return make_based_ring(
        coeff="Z", labels=fd.labels, unit=fd.unit, constants=fd.tensor,
    )


def grothendieck_ring(t: chartab.CharacterTableModP) -> BasedRing:
    """The character ring of the group as a based ring over Z."""
    return fusion_ring(fusion_data_from_table(t))


# --------------------------------------------------- based-ring isomorphism


def _colours(R1: BasedRing, R2: BasedRing) -> list[list[int]]:
    """Colours of the bases of two based rings, refined together and
    numbered jointly, so a colour means the same signature in both.

    Colours start as "is the unit".  A round gives element i its own colour
    and three sorted multisets over all index pairs: the constants of i*i,
    of i*j and c[j][k][i], each with the colours of j and k (j = i for the
    square).  The constants are commutative, so k*i repeats i*k.  The
    refinement stops when no class splits, or as soon as the two colour
    multisets differ.  Every isomorphism preserves the colours.
    """
    terms = []
    for R in (R1, R2):
        prod = [
            [(v, j, k) for j, row in enumerate(plane) for k, v in enumerate(row) if v]
            for plane in R.constants
        ]
        res: list[list[tuple[int, int, int]]] = [[] for _ in prod]
        for i, ts in enumerate(prod):
            for v, j, k in ts:
                res[k].append((v, i, j))
        terms.append([([t for t in ts if t[1] == i], ts, res[i]) for i, ts in enumerate(prod)])
    colours = [[int(i == R.unit) for i in range(R.rank)] for R in (R1, R2)]
    classes = len(set(colours[0]) | set(colours[1]))
    while True:
        sigs = [
            [
                (col[i], *(tuple(sorted([(v, col[j], col[k]) for v, j, k in p])) for p in parts))
                for i, parts in enumerate(ts)
            ]
            for ts, col in zip(terms, colours)
        ]
        number = {s: n for n, s in enumerate(sorted(set(sigs[0]) | set(sigs[1])))}
        colours = [[number[s] for s in sig] for sig in sigs]
        if len(number) == classes or sorted(colours[0]) != sorted(colours[1]):
            return colours
        classes = len(number)


def based_ring_isomorphism(
    R1: BasedRing, R2: BasedRing
) -> tuple[int, ...] | None:
    """A basis bijection preserving the unit and all structure constants.

    Exhaustive depth-first search over the images of equal colour (see
    ``_colours``; the unit is a colour of its own), smallest classes first,
    with incremental consistency checking; None after exhausting the search.
    """
    if R1.coeff != R2.coeff:
        raise FusionError("cannot compare based rings over different coefficients")
    r = R1.rank
    if r != R2.rank:
        return None
    col1, col2 = _colours(R1, R2)
    if sorted(col1) != sorted(col2):
        return None
    cands = {k: [j for j in range(r) if col2[j] == k] for k in col1}
    order = sorted(range(r), key=lambda i: (len(cands[col1[i]]), i))
    c1, c2 = R1.constants, R2.constants
    sigma = [-1] * r
    used = [False] * r

    def consistent(t: int) -> bool:
        # only triples involving the newly assigned index i need rechecking,
        # and i*a = a*i
        i = order[t]
        assigned = order[: t + 1]
        return all(
            c1[a][b][i] == c2[sigma[a]][sigma[b]][sigma[i]]
            and c1[a][i][b] == c2[sigma[a]][sigma[i]][sigma[b]]
            for a in assigned
            for b in assigned
        )

    def dfs(t: int):
        if t == r:
            return tuple(sigma)
        i = order[t]
        for j in cands[col1[i]]:
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


# -------------------------------------------------- fusion data from groups


def fusion_data_from_table(
    t: chartab.CharacterTableModP, u: int | None = None
) -> FusionData:
    """Fusion data of the representation category, with its symmetric braiding.

    With a central involution ``u`` the braiding is twisted: the selection
    scalar of a self-dual simple becomes nu_2 * (chi(u) / chi(1)).
    """
    G = t.group
    dual = chartab.dual_involution(t)
    nu = chartab.fs_vector(t)
    r = t.nclasses
    signs = [1] * r
    if u is not None:
        if G.power(u, 2) != 0:
            raise FusionError("twisting element must square to the identity")
        if any(G.cayley[u][x] != G.cayley[x][u] for x in range(G.order)):
            raise FusionError("twisting element must be central")
        ku = t.classes.class_of[u]
        p = t.p
        for i in range(r):
            val = (t.values[i][ku] * pow(t.degrees[i], -1, p)) % p
            if val == 1 % p:
                signs[i] = 1
            elif val == p - 1:
                signs[i] = -1
            else:
                raise FusionError("central involution acts by a non-sign scalar")
    scalars = tuple(
        root_of_sign(nu[i] * signs[i]) if dual[i] == i and nu[i] != 0 else ONE
        for i in range(r)
    )
    labels = tuple(f"chi{i + 1}" for i in range(r))
    return make_fusion_data(
        labels=labels,
        unit=0,
        dual=dual,
        scalars=scalars,
        tensor=chartab.fusion_coefficients(t),
        symmetric=True,
    )


# ------------------------------------------------------------ abelian doubles


@dataclass(frozen=True)
class DoubleWittResult:
    """Witt data of the quantum double of an abelian group.

    Simple objects are pairs (group element, character); the self-dual ones
    with a symmetric pairing are exactly the pairs (g, psi) with g^2 = 1,
    psi^2 = 1 and psi(g) = 1.  The braiding is not symmetric in general, so
    only the additive rank is reported.
    """

    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    rank: int
    group_only: bool = True


def double_abelian_witt(A: AbelianStructure) -> DoubleWittResult:
    """Characters are exponent vectors e in the coordinates of A; e takes
    the value zeta_N ** (sum e_i a_i (N / d_i)) on the element with
    coordinates a, where N is the largest invariant factor d_k."""
    factors = A.factors
    N = factors[-1] if factors else 1
    two_torsion = [
        v
        for v in itertools.product(*(range(d) for d in factors))
        if not any((2 * a) % d for a, d in zip(v, factors))
    ]
    pairs = [
        (g, char)
        for g in two_torsion
        for char in two_torsion
        if sum(e * a * (N // d) for e, a, d in zip(char, g, factors)) % N == 0
    ]
    return DoubleWittResult(pairs=tuple(pairs), rank=len(pairs))
