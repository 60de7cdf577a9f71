"""Exact irreducible character tables by eigenspace splitting mod p.

The classical Burnside-Dixon method: the class sums K_i span the centre of
the group algebra and satisfy K_i K_j = sum_k a[i][j][k] K_k with integer
class multiplication coefficients.  Working modulo a prime p with
p = 1 (mod exponent) and p > 2|G|, the matrices A_i = (a[i][j][k])_{jk}
share the r one-dimensional eigenspaces spanned by the vectors
w = (omega_1, ..., omega_r), omega_k = |C_k| chi(g_k) / chi(1), one per
irreducible character.  The linear characters are read off G/G'; splitting
the span of the others matrix by matrix recovers every omega-vector exactly;
degrees and character values follow from the orthogonality relations, and
unique integer lifts exist because p exceeds twice every quantity that occurs.

Cyclotomic values are recovered per table entry as root-of-unity
multiplicity vectors via the discrete Fourier transform over F_p, so the
lifted table is exact over Z[zeta].  Every batch of mod-p dot products with
one fixed matrix (restricted class matrices, combinations of a space's rows,
the orthogonality check, the fusion triples, the DFT) is one sum of
Kronecker-packed ints (``_pack``).
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from array import array
from dataclasses import dataclass

from .groups import (
    ConjugacyClasses, FiniteGroup, _is_prime, _prime_factors, abelian_coordinates,
    abelian_invariants, conjugacy_classes, derived_subgroup, quotient_data,
)

__all__ = [
    "CharacterTableModP",
    "CharacterTable",
    "CycloValue",
    "class_mult_coeffs",
    "burnside_dixon",
    "lift_to_cyclotomic",
    "fs_indicator",
    "fs_vector",
    "dual_involution",
    "fusion_coefficients",
    "self_dual_count",
    "echelon",
    "kernel",
]


class TableError(RuntimeError):
    """Internal inconsistency while building a character table."""


# ------------------------------------------------------------- small number theory


def dixon_prime(order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p > 2*order."""
    k = (2 * order) // exponent + 1
    while True:
        p = k * exponent + 1
        if p > 2 * order and _is_prime(p):
            return p
        k += 1


def primitive_root(p: int) -> int:
    facs = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in facs):
            return g
    raise TableError(f"no primitive root mod {p}")


# ---------------------------------------------------- linear algebra mod p^e


def _pack(columns, bound: int) -> tuple[list[int], str]:
    """The columns of a fixed matrix, each as one int with entry s in lane
    s, and the array type code of a lane.

    For a vector vec, sum(map(operator.mul, vec, packed)) holds the dot
    product of vec with row s of the matrix in lane s; ``_lanes`` reads
    them back.  Entries lie in [0, p) and ``bound`` bounds every lane sum
    (r (p - 1)^2 for r products of residues); a lane is 4 bytes below 2^32,
    else 8, so no lane carries into the next.
    """
    if bound >= 1 << 64:
        raise TableError("a packed dot product would overflow 64 bits")
    width = 4 if bound < 1 << 32 else 8
    code = next(c for c in "ILQ" if array(c).itemsize == width)
    return [int.from_bytes(array(code, col).tobytes(), sys.byteorder) for col in columns], code


def _lanes(x: int, n: int, code: str) -> memoryview:
    """The n lanes of a sum of ``_pack`` columns, as ints."""
    return memoryview(x.to_bytes(n * array(code).itemsize, sys.byteorder)).cast(code)


def echelon(
    rows: list[list[int]], p: int, e: int = 1
) -> tuple[list[list[int]], list[int]]:
    """Howell form over Z/p^e of rows with entries in [0, p^e); returns
    (nonzero rows, pivot columns).

    Each column takes as pivot an entry of least p-adic valuation v (the
    first unit, if any), scales its row so the pivot is p^v, clears the
    entries below and reduces those above into [0, p^v).  The row times
    p^(e-v), zero at the pivot, is fed back to the rows still to come, so
    the rows with pivots at or beyond any column span every row-space
    element that vanishes before it.  For e = 1 this is the reduced row
    echelon form over F_p.
    """
    q = p**e
    rows = [row[:] for row in rows]
    pivots: list[int] = []
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot, v = None, e
        for i in range(rank, len(rows)):
            a, w = rows[i][col], 0
            if not a:
                continue
            while a % p == 0:
                a //= p
                w += 1
            if w < v:
                pivot, v = i, w
                if not w:
                    break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = p**v
        top = rows[rank]  # zero before its pivot, so only its tail changes
        inv = pow(top[col] // pv, -1, q)
        tail = top[col:] = [(x * inv) % q for x in top[col:]]
        for i, row in enumerate(rows):
            c = row[col] // pv
            if c and i != rank:
                row[col:] = [(a - c * b) % q for a, b in zip(row[col:], tail)]
        if v:  # p^(e-v) times the pivot row, zero in this column
            fed = [(x * (q // pv)) % q for x in top]
            if any(fed):
                rows.append(fed)
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def kernel(
    rows: list[list[int]], n: int, p: int, e: int = 1
) -> list[tuple[list[int], int]]:
    """Howell basis of {x in (Z/p^e)^n : rows x = 0}, as (vector, range).

    Every solution is sum c_i b_i for exactly one choice of
    0 <= c_i < range_i = p^(e-v_i), where p^(v_i) is the pivot of b_i.
    For e = 1 the rows are brought to reduced echelon form with their
    columns reversed, so a pivot row is zero at the free columns after its
    pivot.  Each free column f gives the solution that is 1 at f, 0 at the
    other free columns and minus column f at the pivot columns, all of them
    after f: these are the reduced echelon basis of the solutions, which is
    unique.  For e > 1 it is read off the Howell form of [rows^T | I]: its
    rows that vanish on the first block.
    """
    m, q = len(rows), p**e
    if e == 1:
        red, pivots = echelon([[x % p for x in row[::-1]] for row in rows], p)
        pivots = [n - 1 - c for c in pivots]
        vectors = []
        for f in sorted(set(range(n)).difference(pivots)):
            v = [int(c == f) for c in range(n)]
            for row, c in zip(red, pivots):
                v[c] = -row[n - 1 - f] % p
            vectors.append((v, p))
        return vectors
    aug = [[row[j] % q for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    red, pivots = echelon(aug, p, e)
    return [(row[m:], q // row[c]) for row, c in zip(red, pivots) if c >= m]


def _hessenberg(M: list[list[int]], p: int) -> list[list[int]]:
    """Similarity-reduce M to upper Hessenberg form over F_p."""
    H = [row[:] for row in M]
    m = len(H)
    for j in range(m - 2):
        pivot = next((i for i in range(j + 1, m) if H[i][j] % p), None)
        if pivot is None:
            continue
        if pivot != j + 1:
            H[j + 1], H[pivot] = H[pivot], H[j + 1]
            for row in H:
                row[j + 1], row[pivot] = row[pivot], row[j + 1]
        inv = pow(H[j + 1][j], -1, p)
        for i in range(j + 2, m):
            c = (H[i][j] * inv) % p
            if c:
                H[i] = [(a - c * b) % p for a, b in zip(H[i], H[j + 1])]
                for row in H:
                    row[j + 1] = (row[j + 1] + c * row[i]) % p
    return H


def charpoly_modp(M: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial of M over F_p, low-degree coefficients first.

    Hessenberg reduction followed by the leading-minor recurrence; O(m^3).
    """
    m = len(M)
    if m == 0:
        return [1]
    H = _hessenberg(M, p)
    # polys[k] = charpoly of the leading k x k block, as coefficient list
    polys: list[list[int]] = [[1]]
    for k in range(1, m + 1):
        # (x - H[k-1][k-1]) * polys[k-1]
        prev = polys[k - 1]
        cur = [0] * (len(prev) + 1)
        for i, c in enumerate(prev):
            cur[i + 1] = (cur[i + 1] + c) % p
            cur[i] = (cur[i] - c * H[k - 1][k - 1]) % p
        beta = 1
        for j in range(1, k):
            beta = (beta * H[k - j][k - j - 1]) % p
            if beta == 0:
                break
            coeff = (H[k - 1 - j][k - 1] * beta) % p
            if coeff:
                lower = polys[k - 1 - j]
                for i, c in enumerate(lower):
                    cur[i] = (cur[i] - coeff * c) % p
        polys.append(cur)
    return polys[m]


def _sqrt_modp(a: int, p: int) -> int:
    """A square root of the nonzero quadratic residue a mod the odd prime p
    (Tonelli-Shanks)."""
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q 2^s with q odd
    q = (p - 1) >> s
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, x = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, (t2 * t2) % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, (b * b) % p
        t, x = (t * c) % p, (x * b) % p
    return x


def poly_roots_modp(coeffs: list[int], p: int) -> list[int]:
    """The sorted distinct roots in F_p of sum coeffs[i] x^i.

    Leading zero coefficients are ignored; every residue is a root of the
    zero polynomial.  Degree 1, and degree 2 for odd p, are solved in closed
    form (the quadratic formula with a Tonelli-Shanks square root); other
    degrees scan all p residues with Horner's rule.
    """
    coeffs = [c % p for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) == 2:
        return [(-coeffs[0] * pow(coeffs[1], -1, p)) % p]
    if len(coeffs) == 3 and p > 2:
        c, b, a = coeffs
        inv = pow(2 * a, -1, p)
        disc = (b * b - 4 * a * c) % p
        if pow(disc, (p - 1) // 2, p) == p - 1:
            return []
        root = _sqrt_modp(disc, p) if disc else 0
        return sorted({((-b + root) * inv) % p, ((-b - root) * inv) % p})
    roots = []
    for lam in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * lam + c) % p
        if acc == 0:
            roots.append(lam)
    return roots


# ------------------------------------------------------------------ the tables


@dataclass(frozen=True)
class CharacterTableModP:
    """Irreducible characters of G as residues mod a Dixon prime.

    Rows are sorted by (degree, value vector); row 0 is always the trivial
    character.  ``values[i][k]`` is chi_i at the class-k representative.
    """

    group: FiniteGroup
    classes: ConjugacyClasses
    p: int
    z: int  # primitive root mod p
    degrees: tuple[int, ...]
    values: tuple[tuple[int, ...], ...]

    @property
    def nclasses(self) -> int:
        return len(self.classes.reps)


@dataclass(frozen=True)
class CycloValue:
    """Exact character value sum_l mult[l] * zeta_order^l."""

    order: int
    mult: tuple[tuple[int, int], ...]  # sorted (exponent, multiplicity), mult > 0

    def to_complex(self) -> complex:
        tau = 2.0 * math.pi / self.order
        return sum(
            m * complex(math.cos(tau * l), math.sin(tau * l)) for l, m in self.mult
        )

    def __str__(self) -> str:
        if not self.mult:
            return "0"
        parts = []
        for l, m in self.mult:
            if l == 0:
                parts.append(str(m))
            elif 2 * l == self.order:
                parts.append(f"-{m}" if m > 1 else "-1")
            else:
                base = f"z{self.order}" if l == 1 else f"z{self.order}^{l}"
                parts.append(base if m == 1 else f"{m}*{base}")
        return "+".join(parts).replace("+-", "-")


@dataclass(frozen=True)
class CharacterTable:
    """Mod-p table plus exact cyclotomic value lifts."""

    modp: CharacterTableModP
    cyclo: tuple[tuple[CycloValue, ...], ...]


def class_mult_coeffs(G: FiniteGroup, cc: ConjugacyClasses) -> list[list[list[int]]]:
    """a[i][j][k] = #{(x, y) in C_i x C_j : x y = z} for fixed z in C_k.

    Independent of the representative z; computed by factoring z = x * y
    with x running over C_i.
    """
    r = len(cc.reps)
    members: list[list[int]] = [[] for _ in range(r)]
    for x in range(G.order):
        members[cc.class_of[x]].append(x)
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k, z in enumerate(cc.reps):
        for i in range(r):
            row = a[i]
            for x in members[i]:
                y = G.cayley[G.inverse[x]][z]
                row[cc.class_of[y]][k] += 1
    return a


def burnside_dixon(G: FiniteGroup) -> CharacterTableModP:
    """Compute the irreducible character table of G modulo a Dixon prime.

    The linear characters come first, from G/G' (Schneider, J. Symbolic
    Comput. 1990): with invariant factors e_i and coordinates x_i there,
    lambda_t(g) = prod zeta_{e_i}^(t_i x_i), zeta_e = z^((p-1)/e), and each
    omega-vector (|C_k| lambda(g_k))_k is a space of its own.  By row
    orthogonality the omega-vectors of the nonlinear characters span the
    kernel of the rows (lambda(g_k^-1))_k, returned in reduced echelon form.
    Only that complement is split, class matrix after class matrix; an
    abelian group needs no split and no class coefficients.  Where A_i
    restricted to a space B is a scalar lam, B is kept as it is: its lam
    eigenspace is all of B, already in reduced echelon form.
    """
    cc = conjugacy_classes(G)
    r = len(cc.reps)
    n = G.order
    p = dixon_prime(n, cc.exponent)
    z = primitive_root(p)
    bound = r * (p - 1) ** 2

    Q, coset_of, _ = quotient_data(G, derived_subgroup(G))
    ab = abelian_invariants(Q, range(Q.order))
    coords = abelian_coordinates(Q, ab)
    # lambda_t(g_k) = z^(sum_i t_i logs[k][i])
    logs = [[(p - 1) // e * x for e, x in zip(ab.factors, coords[coset_of[g]])] for g in cc.reps]
    spaces: list[list[list[int]]] = []  # the one-dimensional common eigenspaces
    inverted = []
    for t in itertools.product(*map(range, ab.factors)):
        lin = [pow(z, sum(map(operator.mul, t, u)), p) for u in logs]
        spaces.append([[(s * v) % p for s, v in zip(cc.sizes, lin)]])
        inverted.append([lin[k] for k in cc.inverse_class])
    todo = []  # (B, its packed columns, lane code) for each space still to split
    if len(spaces) < r:
        rest = [v for v, _ in kernel(inverted, r, p)]
        if len(rest) > 1:
            a = class_mult_coeffs(G, cc)  # each coefficient is at most |G| < p
            todo.append((rest, *_pack(zip(*rest), bound)))
        else:
            spaces.append(rest)
    for i in range(1, r):
        if not todo:
            break
        new_todo = []
        for B, cols, code in todo:
            m = len(B)
            # B is in reduced row echelon form.  A_i maps the span of its
            # rows into itself, and an image is fixed by its pivot
            # coordinates, so only the m pivot rows of A_i B^T are needed.
            pivots = [next(c for c, v in enumerate(row) if v) for row in B]
            M = [
                [x % p for x in _lanes(sum(map(operator.mul, a[i][pc], cols)), m, code)]
                for pc in pivots
            ]
            lam = M[0][0]
            if all(v == lam * (s == t) for s, row in enumerate(M) for t, v in enumerate(row)):
                new_todo.append((B, cols, code))
                continue
            b_rows, b_code = _pack(B, bound)  # a packed sum with them combines B's rows
            for lam in poly_roots_modp(charpoly_modp(M, p), p):
                shifted = [
                    [(M[s][t] - (lam if s == t else 0)) % p for t in range(m)]
                    for s in range(m)
                ]
                full = [
                    [x % p for x in _lanes(sum(map(operator.mul, vec, b_rows)), r, b_code)]
                    for vec, _ in kernel(shifted, m, p)
                ]
                red, _ = echelon(full, p)
                if len(red) > 1:
                    new_todo.append((red, *_pack(zip(*red), bound)))
                else:
                    spaces.append(red)
        todo = new_todo
    if todo or len(spaces) != r:
        raise TableError("eigenspace splitting failed to fully diagonalise")

    inv_sizes = [pow(s, -1, p) for s in cc.sizes]
    rows = []
    for B in spaces:
        v = B[0]
        if v[0] % p == 0:
            raise TableError("eigenvector vanishes at the identity class")
        norm = pow(v[0], -1, p)
        omega = [(x * norm) % p for x in v]
        s = sum(omega[k] * omega[cc.inverse_class[k]] * inv_sizes[k] for k in range(r)) % p
        if s == 0:
            raise TableError("degree denominator vanished")
        d2 = (n * pow(s, -1, p)) % p
        if d2 > n:
            raise TableError("degree square lift out of range")
        d = math.isqrt(d2)
        if d * d != d2 or d == 0:
            raise TableError("degree is not a perfect square lift")
        if n % d:
            raise TableError("degree does not divide the group order")
        chi = tuple((d * omega[k] * inv_sizes[k]) % p for k in range(r))
        rows.append((d, chi))
    rows.sort(key=lambda t: (t[0], t[1]))
    degrees = tuple(d for d, _ in rows)
    values = tuple(chi for _, chi in rows)
    if sum(d * d for d in degrees) != n:
        raise TableError("degrees fail sum of squares")
    if values[0] != tuple([1] * r):
        raise TableError("trivial character is not the first row")
    # row orthogonality: sum_k |C_k| chi_i(k) chi_j(k*) = delta_ij |G|
    cols, code = _pack([[chi[l] for chi in values] for l in cc.inverse_class], bound)
    for i, chi in enumerate(values):
        weighted = [(s * v) % p for s, v in zip(cc.sizes, chi)]
        tots = _lanes(sum(map(operator.mul, weighted, cols)), r, code)
        if any(tot % p != (n % p if i == j else 0) for j, tot in enumerate(tots)):
            raise TableError("row orthogonality fails")
    return CharacterTableModP(
        group=G, classes=cc, p=p, z=z, degrees=degrees, values=values
    )


def lift_to_cyclotomic(t: CharacterTableModP) -> CharacterTable:
    """Recover exact cyclotomic values from the mod-p table.

    For g of order m the value chi(g) is a sum of m-th roots of unity with
    multiplicities in [0, deg chi]; the multiplicity of zeta_m^l is the
    inverse DFT m^-1 sum_j chi(g^j) theta^(-jl) over F_p with
    theta = z^((p-1)/m), and its integer lift is unique.  The DFT kernel is
    tabulated once per element order and the classes of g^j once per class.
    """
    cc = t.classes
    p = t.p
    r = t.nclasses
    dft = {}  # m -> (m^-1, packed DFT kernel, lane code, [theta^l])
    per_class = []
    for k in range(r):
        m = cc.rep_orders[k]
        if m not in dft:
            theta = pow(t.z, (p - 1) // m, p)
            theta_inv = pow(theta, -1, p)
            powers = [1] * m
            for e in range(1, m):
                powers[e] = (powers[e - 1] * theta_inv) % p
            columns = [[powers[(j * l) % m] for l in range(m)] for j in range(m)]
            kernel, code = _pack(columns, m * (p - 1) ** 2)
            dft[m] = (pow(m, -1, p), kernel, code, [powers[-l % m] for l in range(m)])
        gj = [cc.power_map[k][j % cc.exponent] for j in range(m)]
        per_class.append((m, *dft[m], gj))
    cyclo_rows = []
    for i in range(r):
        values = t.values[i]
        scaled = {m: [(v * minv) % p for v in values] for m, (minv, *_) in dft.items()}
        row = []
        for k, (m, _, kernel, code, theta_pows, gj) in enumerate(per_class):
            chi_gj = [scaled[m][c] for c in gj]
            mult = []
            for l, x in enumerate(_lanes(sum(map(operator.mul, chi_gj, kernel)), m, code)):
                mu = x % p
                if mu > t.degrees[i]:
                    raise TableError("cyclotomic multiplicity out of range")
                if mu:
                    mult.append((l, mu))
            check = sum(mu * theta_pows[l] for l, mu in mult) % p
            if check != values[k]:
                raise TableError("cyclotomic lift does not reduce to the table")
            row.append(CycloValue(order=m, mult=tuple(mult)))
        cyclo_rows.append(tuple(row))
    table = CharacterTable(modp=t, cyclo=tuple(cyclo_rows))
    for i in range(r):
        ident = table.cyclo[i][0]
        if ident.mult != ((0, t.degrees[i]),):
            raise TableError("value at the identity is not the degree")
    return table


def fs_indicator(t: CharacterTableModP, i: int) -> int:
    """Second Frobenius-Schur indicator |G|^-1 sum_g chi_i(g^2) in {-1, 0, +1}."""
    cc = t.classes
    p = t.p
    total = 0
    for k in range(t.nclasses):
        sq = cc.power_map[k][2 % cc.exponent] if cc.exponent > 1 else 0
        total = (total + cc.sizes[k] * t.values[i][sq]) % p
    s = (total * pow(t.group.order % p, -1, p)) % p
    if s == 1 % p:
        return 1
    if s == 0:
        return 0
    if s == p - 1:
        return -1
    raise TableError(f"indicator {s} is not 0 or +-1 mod {p}")


def fs_vector(t: CharacterTableModP) -> tuple[int, ...]:
    return tuple(fs_indicator(t, i) for i in range(t.nclasses))


def dual_involution(t: CharacterTableModP) -> tuple[int, ...]:
    """The permutation i -> i* with chi_{i*}(g) = chi_i(g^-1)."""
    cc = t.classes
    r = t.nclasses
    index = {t.values[i]: i for i in range(r)}
    dual = []
    for i in range(r):
        conj = tuple(t.values[i][cc.inverse_class[k]] for k in range(r))
        j = index.get(conj)
        if j is None:
            raise TableError("conjugate character missing from the table")
        dual.append(j)
    for i in range(r):
        if dual[dual[i]] != i:
            raise TableError("duality is not an involution")
    return tuple(dual)


def self_dual_count(t: CharacterTableModP) -> int:
    dual = dual_involution(t)
    return sum(1 for i, j in enumerate(dual) if i == j)


def fusion_coefficients(t: CharacterTableModP) -> list[list[list[int]]]:
    """Tensor product multiplicities N[i][j][k] = T[i][j][k*] of the irreducibles.

    T[i][j][k] = |G|^-1 sum_l |C_l| chi_i chi_j chi_k (g_l) is symmetric in
    (i, j, k).  A triple with a linear chi_i is looked up: chi_i chi_j is the
    irreducible chi_m, so T[i][j][k] is 1 for k = m* and 0 otherwise; it
    is looked up once per pair i <= j.  For nonlinear i <= j <= k one inner
    product is computed mod p, lifted to [0, p/2) and range-checked; the
    other five orders are copies.
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
        for j in range(i, r):  # put(j, i, ...) for a linear j < i wrote the same six
            m = index.get(tuple([u * v % p for u, v in zip(values[i], values[j])]))
            if m is None:
                raise TableError("product with a linear character missing from the table")
            put(i, j, dual[m], 1)
    cols, code = _pack(zip(*(values[k] for k in nonlinear)), r * (p - 1) ** 2)
    for a, i in enumerate(nonlinear):
        weighted = [(s * n_inv * u) % p for s, u in zip(t.classes.sizes, values[i])]
        for b, j in enumerate(nonlinear[a:], a):
            prod = [(w * v) % p for w, v in zip(weighted, values[j])]
            lanes = _lanes(sum(map(operator.mul, prod, cols)), len(nonlinear), code)
            vals = [x % p for x in lanes[b:]]
            if max(vals) >= half:
                raise TableError("fusion coefficient lift out of range")
            for k, val in zip(nonlinear[b:], vals):
                if val:
                    put(i, j, k, val)
    return N
