"""Cocycle deformations of finite groups along normal abelian subgroups.

Given a normal abelian subgroup A of G with quotient Q = G/A and a
2-cocycle b of Q valued in A (for the conjugation action), the deformed
group G_b has the same carrier set and the multiplication

    g *_b h = b(gbar, hbar) * g * h.

The 2-cocycle identity is exactly associativity of the new product, and the
group axioms of the result are re-verified rather than assumed.  The module
also constructs the classical order-64 pair: the smallest non-isomorphic
groups whose representation categories are equivalent as monoidal
categories, obtained by deforming (Z2 x Z2) acting on (Z4 x Z4).

``h2_transversal`` gives a transversal of H^2(H, Z2) under the trivial
action.  The normalised cocycles are the solutions of a linear system over
F_2 in the values b(x, g) on the generators g, one equation per generator
translate and walk edge outside the spanning tree, held as int bitmasks
and solved by a reduced echelon form over F_2 (``_gf2_echelon``).
``h2_orbits`` finds the orbits of Aut(H) on the classes, and
``central_extensions`` builds one extension of H by a central Z2 per
orbit: 21 for the 86 classes of the groups of order 8, 95 for the 1,278
of the groups of order 16.  An extension carries the lifts of the
generators of H, and the central element only where they do not generate
it.  See Holt, Eick and O'Brien, Handbook of Computational Group Theory
(2005), on cocycles and extensions.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable
from dataclasses import dataclass

from .groups import (
    FiniteGroup,
    GroupError,
    SubgroupSet,
    _exact,
    _fold,
    _subgroup_flags,
    abelian_group,
    automorphism_generators,
    make_group,
    orbit_minima,
    quotient_data,
    semidirect_product,
)


@dataclass(frozen=True)
class CocycleData:
    """A 2-cocycle of Q = G/A valued in the normal abelian subgroup A.

    ``coset_of`` maps each element of G to its Q index; ``section`` picks the
    minimal-index representative per coset, with section[0] the identity.
    ``action[q]`` is the automorphism of A given by conjugation with
    section[q], stored as a map on the ambient element indices of A, and
    ``table[p][q]`` is the value b(p, q) as an ambient element of A.
    """

    group: FiniteGroup
    quotient: FiniteGroup
    subgroup: SubgroupSet
    coset_of: tuple[int, ...]
    section: tuple[int, ...]
    action: tuple[dict[int, int], ...]
    table: tuple[tuple[int, ...], ...]


def cocycle_from_table(G: FiniteGroup, A: SubgroupSet, table) -> CocycleData:
    """Package a Q x Q -> A value table as CocycleData over G and A."""
    Q, coset_of, section = quotient_data(G, A.elements)
    nq = Q.order
    table = tuple(map(_exact, table))
    if None in table:
        raise GroupError("cocycle table holds an entry that is not an integer")
    if len(table) != nq or any(len(row) != nq for row in table):
        raise GroupError("cocycle table has the wrong shape")
    aset = set(A.elements)
    if any(v not in aset for row in table for v in row):
        raise GroupError("cocycle values must lie in the subgroup")
    action = tuple(
        {x: G.conj(section[q], x) for x in A.elements} for q in range(nq)
    )
    return CocycleData(
        group=G,
        quotient=Q,
        subgroup=A,
        coset_of=coset_of,
        section=tuple(section),
        action=action,
        table=table,
    )


def verify_cocycle(c: CocycleData) -> tuple[bool, tuple[int, int, int] | None]:
    """Check normalisation and the 2-cocycle identity.

    Returns (True, None) or (False, first violating triple (p, q, r)); the
    identity checked is  p(b(q,r)) * b(p, qr) == b(pq, r) * b(p, q)  with p
    acting through conjugation by its section representative.  Values of b
    are ambient element indices of the subgroup, so products are ambient
    Cayley lookups.
    """
    Q = c.quotient
    nq = Q.order
    b = c.table
    mul = c.group.cayley
    for q in range(nq):
        if b[0][q] != 0 or b[q][0] != 0:
            return False, (0, q, 0)
    for p in range(nq):
        for q in range(nq):
            for r in range(nq):
                lhs = mul[c.action[p][b[q][r]]][b[p][Q.cayley[q][r]]]
                rhs = mul[b[Q.cayley[p][q]][r]][b[p][q]]
                if lhs != rhs:
                    return False, (p, q, r)
    return True, None


def deform_by_cocycle(G: FiniteGroup, A: SubgroupSet, c: CocycleData) -> FiniteGroup:
    """The deformed group G_b on the same carrier set.

    Preconditions: A is abelian, the cocycle data was built over G and A
    (so A is normal: ``cocycle_from_table`` rejects any other subgroup),
    and the table passes verify_cocycle.  The result is validated against
    all the group axioms, so inconsistent data cannot slip through.
    """
    if not A.abelian:
        raise GroupError("deformation needs a normal abelian subgroup")
    if c.group.cayley != G.cayley or c.subgroup.elements != A.elements:
        raise GroupError("cocycle data does not match G/A")
    coset_of = c.coset_of
    ok, witness = verify_cocycle(c)
    if not ok:
        raise GroupError(f"cocycle identity fails at triple {witness}")
    n = G.order
    rows = [[0] * n for _ in range(n)]
    for g in range(n):
        cg = coset_of[g]
        row = rows[g]
        grow = G.cayley[g]
        for h in range(n):
            row[h] = G.cayley[c.table[cg][coset_of[h]]][grow[h]]
    name = f"{G.name}_b" if G.name else "G_b"
    return make_group(rows, name=name)


def izumi_kosaki() -> tuple[FiniteGroup, CocycleData, FiniteGroup]:
    """The order-64 pair: G = (Z2 x Z2) |x (Z4 x Z4) and its deformation.

    The Klein group Q with generators q1, q2 acts on A = <a1> x <a2> by
    q_i(a_i) = a_i and q_i(a_{i+1}) = a_i^2 a_{i+1} (indices mod 2).  The
    deforming cocycle takes the central values

        b(q1^t1 q2^t2, q1^r1 q2^r2) = a1^(2 t1 r1) a2^(2 t2 r2),

    the unique bilinear family compatible with this action: a direct
    computation shows every bilinear 2-cocycle for it is valued in the
    2-torsion <a1^2, a2^2>.  The two groups share every character-theoretic
    invariant computed in this package yet are not isomorphic.
    """
    A = abelian_group([4, 4], name="z4xz4")
    # abelian_group([4,4]) indexes a1^i a2^j as 4*i + j
    def el(i: int, j: int) -> int:
        return 4 * (i % 4) + (j % 4)

    # q1: a1 -> a1, a2 -> a1^2 a2 ; q2: a2 -> a2, a1 -> a2^2 a1
    q1 = [0] * 16
    q2 = [0] * 16
    for i in range(4):
        for j in range(4):
            q1[el(i, j)] = el(i + 2 * j, j)
            q2[el(i, j)] = el(i, j + 2 * i)
    ident = tuple(range(16))
    q12 = tuple(q1[q2[x]] for x in range(16))
    Q = abelian_group([2, 2], name="klein")
    # abelian_group([2,2]) indexes q1^t1 q2^t2 as 2*t1 + t2
    action = [ident, tuple(q2), tuple(q1), q12]
    G = semidirect_product(A, Q, action, name="g64")
    subgroup = _subgroup_flags(G, tuple(range(16)))
    # cocycle over Q = G/A: coset q = (t1, t2) -> b value a1^(2 t1 r1) a2^(2 t2 r2)
    table = [[0] * 4 for _ in range(4)]
    for t1 in range(2):
        for t2 in range(2):
            for r1 in range(2):
                for r2 in range(2):
                    table[2 * t1 + t2][2 * r1 + r2] = el(2 * t1 * r1, 2 * t2 * r2)
    c = cocycle_from_table(G, subgroup, table)
    Gb = deform_by_cocycle(G, subgroup, c)
    return G, c, Gb


def _gf2_echelon(rows: list[int], descending: bool) -> dict[int, int]:
    """Reduced echelon form over F_2 of int bitmask rows, as {pivot bit: row}.
    A row's pivot is its highest set bit when ``descending``, else its
    lowest; the form is unique for that column order."""
    red, pivots = {}, 0
    for r in rows:
        x = r & pivots
        while x:
            low = x & -x
            r ^= red[low]
            x ^= low
        if r:
            bit = 1 << (r.bit_length() - 1) if descending else r & -r
            for p, t in red.items():
                if t & bit:
                    red[p] = t ^ r
            red[bit] = r
            pivots |= bit
    return red


def h2_transversal(H: FiniteGroup) -> tuple[list[list[int]], Callable[[list[int]], int]]:
    """A transversal of H^2(H, Z2), the action trivial: (basis, index_of).

    ``basis`` lists normalised 2-cocycles as flat tables, b(x, y) at
    x |H| + y; class i of the 2^len(basis) classes is the sum of the basis
    cocycles at the set bits of i.  ``index_of`` maps any normalised
    cocycle table of 0s and 1s to the index of its class.

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

    Unknown u(x, s) is bit x k + s of an int, so each b(x, y) and each
    equation is one int.  ``_gf2_echelon`` reduces the coboundaries in
    increasing and the equations in decreasing column order, as
    ``chartab.echelon``/``kernel`` at p = 2 do; reduced forms are unique, so
    the basis (free column f gives the kernel vector that is 1 at f and at
    the pivots whose rows hold f) and ``index_of`` are theirs.
    """
    n, cay, gens = H.order, H.cayley, H.generators
    k = len(gens)
    b = [[0] * n for _ in range(n)]  # b(x, y) as a mask of the unknowns
    rows = [1 << s for s in range(k)]  # u(0, s) = 0
    for level in _fold(cay, gens, [0])[1]:
        for y1, s, y, first in level:
            for x in range(n) if first else gens:
                v = b[x][y1] ^ (1 << (cay[x][y1] * k + s)) ^ (1 << (y1 * k + s))
                if first:
                    b[x][y] = v
                elif v := v ^ b[x][y]:
                    rows.append(v)
    coboundaries = [0] * n  # df for f the indicator of t, at index t
    for x, (s, g) in itertools.product(range(n), enumerate(gens)):
        for t in (x, g, cay[x][g]):
            coboundaries[t] ^= 1 << (x * k + s)
    cob = _gf2_echelon(coboundaries[1:], descending=False)
    rows += cob.keys()  # the pivot bits of the coboundaries are pinned to 0
    rows = list(dict.fromkeys(rows))  # many edges repeat an equation
    red = _gf2_echelon(rows, descending=True)
    free = {1 << f: 1 << f for f in range(n * k) if 1 << f not in red}  # bit -> kernel vector
    for p, row in red.items():
        x = row ^ p
        while x:
            low = x & -x
            free[low] |= p
            x ^= low
    basis = [[(w & vec).bit_count() & 1 for row in b for w in row] for vec in free.values()]

    def index_of(c: list[int]) -> int:
        u = sum(c[x * n + g] << (x * k + s) for x in range(n) for s, g in enumerate(gens))
        for p, row in cob.items():
            if u & p:
                u ^= row
        return sum(bool(u & f) << j for j, f in enumerate(free))

    return basis, index_of


def h2_orbits(H: FiniteGroup) -> tuple[list[list[int]], list[int]]:
    """The transversal basis of ``h2_transversal`` and, for each class
    index, the least index of its orbit under Aut(H).

    An automorphism a acts on cocycles by c -> c(a x, a y), a linear map
    on the classes, read off on the basis with ``index_of``.  Then
    (x, e) -> (a x, e) is an isomorphism from the extension by the image
    to the extension by c, so one class per orbit reaches every
    isomorphism class of extension.
    """
    basis, index_of = h2_transversal(H)
    n, size = H.order, 1 << len(basis)
    maps = []
    for a in automorphism_generators(H):
        cols = [index_of([c[a[x] * n + a[y]] for x in range(n) for y in range(n)]) for c in basis]
        image = [0] * size
        for i in range(1, size):
            low = i & -i
            image[i] = image[i ^ low] ^ cols[low.bit_length() - 1]
        maps.append(image)
    return basis, orbit_minima(maps, size)


def central_extension(H: FiniteGroup, c: list[int]) -> FiniteGroup:
    """The extension of H by a central Z2 along the normalised 2-cocycle c,
    a flat table as in ``h2_transversal``.  It puts (x, e) at 2x + e with
    (x, e)(y, f) = (xy, e + f + c(x, y)), and ``make_group`` checks it on
    the generators it is built with: the lifts 2g where they generate it,
    else the lifts and the central element 1.  Grown from the trivial
    group, a 2-group G so carries d(G) generators (Burnside's basis
    theorem)."""
    n = H.order
    table = []
    for x in range(n):  # the rows (x, 0) and (x, 1)
        even = [2 * v + e for v, e in zip(H.cayley[x], c[x * n : x * n + n])]
        odd = [a ^ 1 for a in even]
        table.append(tuple(itertools.chain.from_iterable(zip(even, odd))))
        table.append(tuple(itertools.chain.from_iterable(zip(odd, even))))
    gens = tuple(2 * g for g in H.generators)
    if len(_fold(table, gens, [0])[0]) < 2 * n:  # a finite group: the subgroup they generate
        gens += (1,)
    return make_group(table, generators=gens)


def central_extensions(H: FiniteGroup) -> list[FiniteGroup]:
    """One extension of H by a central Z2 per Aut(H)-orbit of H^2(H, Z2),
    the action trivial, built from the least class index of each orbit
    (see ``h2_orbits``), in increasing order of that index.  The first
    class of any isomorphism class of extension is the least of its orbit,
    so ``groups.classify`` returns the same representatives, in the same
    order, from these as from one extension per class."""
    basis, least = h2_orbits(H)
    out = []
    for i, r in enumerate(least):
        if r == i:
            c = [0] * (H.order * H.order)
            for j, t in enumerate(basis):
                if i >> j & 1:
                    c = list(map(operator.xor, c, t))
            out.append(central_extension(H, c))
    return out
