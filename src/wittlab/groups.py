"""Finite groups as exact Cayley tables.

Everything in this package ultimately reduces to the :class:`FiniteGroup`
record defined here: a multiplication table on ``{0, ..., n-1}`` with 0 as
the identity.  All derived data (conjugacy classes, subgroups, products,
order statistics, isomorphisms) is computed exactly over the integers and
deterministically: the same input always produces byte-identical output.

Groups and all derived records are immutable after construction and safe to
share across threads; every public function here is pure.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, replace
from operator import countOf


class GroupError(ValueError):
    """Input data fails to define a valid group, subgroup or action."""


# --------------------------------------------------------------- FiniteGroup


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on the element set {0, ..., n-1} with identity 0."""

    cayley: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    generators: tuple[int, ...]
    name: str = ""

    @property
    def order(self) -> int:
        return len(self.cayley)

    def conj(self, g: int, x: int) -> int:
        """The conjugate g x g^-1."""
        return self.cayley[self.cayley[g][x]][self.inverse[g]]

    def power(self, x: int, k: int) -> int:
        if k < 0:
            x, k = self.inverse[x], -k
        acc = 0
        for _ in range(k):
            acc = self.cayley[acc][x]
        return acc

    def element_order(self, x: int) -> int:
        k, acc = 1, x
        while acc != 0:
            acc = self.cayley[acc][x]
            k += 1
        return k

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise: then so does everything."""
        cay = self.cayley
        return all(cay[x][y] == cay[y][x] for x, y in itertools.combinations(self.generators, 2))

    def __repr__(self) -> str:  # keep reprs short; tables can be huge
        label = self.name or "?"
        return f"FiniteGroup(order={self.order}, name={label!r})"


def _exact(values) -> tuple[int, ...] | None:
    """``values`` as a tuple of exact ints, or None when ``int`` would change
    an entry (1.0 and True pass; 1.5, nan, inf and "1" do not).  Every
    constructor takes caller entries by this one rule; a tuple of exact
    ints is returned as it is, not copied."""
    if type(values) is tuple and countOf(map(type, values), int) == len(values):
        return values
    values = tuple(values)
    try:
        exact = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        return None
    return exact if exact == values else None


def _check_steps(rows, steps, columns) -> list:
    """Checks (P) and (C) of the proof below on the set W = ``steps``, with
    ``columns[i]`` the column R_c of c = W[i] (x -> x c) as a tuple over x.
    Returns, for each w in W, the map that composes a row with L_w.

    The proof that a table is a group.  Row 0 and column 0 read 0..n-1,
    and edges (x, w, y = x w), each an entry of the table with w in W, form
    a tree from 0 that reaches every element (the first edges of a walk).
    With L_a the row a (z -> a z) and R_c the column c (x -> x c), three
    checks, each a C-level composition of a whole row or column: (P) each
    row of W is a permutation; (C) L_w R_c = R_c L_w for w and c in W, that
    is w (x c) = (w x) c for every x; (Tr) on each tree edge (x, w, y),
    L_y = L_x L_w, that is (x w) z = x (w z) for every z, which
    ``_composed`` gives.  (1) L_0 is the identity, so by (Tr) every row is
    a composition of rows of W.  (2) By (C) every row then commutes with
    each R_c: (y z) c = y (z c) for all y, z and c in W.  (3) The set A of
    c with (y z) c = y (z c) for all y and z holds 0 (column 0 is the
    identity) and W, and for a and b in A, (y z)(a b) = ((y z) a) b =
    (y (z a)) b = y ((z a) b) = y (z (a b)).  The tree writes every element
    as a product (((0 w1) w2) ...) wk, so A is everything: the table is
    associative.  (4) By (1) and (P) every row is a composition of
    permutations, and a finite monoid whose left multiplications are
    bijections is a group (Clifford and Preston 1961, 1.2): x has a right
    inverse x' = row(x).index(0), x' has one x'', and x = x (x' x'') =
    (x x') x'' = x'', so x' x = 0.  A failure of (C) names a triple
    (w, x, c) with (w x) c != w (x c).  Cost: 2 |W|^2 column compositions.
    """
    full = list(range(len(rows)))
    for w in steps:
        if sorted(rows[w]) != full:
            raise GroupError(f"row {w} is not a permutation of 0..{len(rows) - 1}")
    times = [operator.itemgetter(*rows[w]) for w in steps]
    for c, column in zip(steps, columns):
        at_c = operator.itemgetter(*column)
        for w, times_w in zip(steps, times):
            left = times_w(column)  # (w x) c for every x
            if left != at_c(rows[w]):
                x = next(x for x, v in enumerate(left) if v != rows[w][column[x]])
                raise GroupError(f"associativity fails at ({w}, {x}, {c})")
    return times


def _composed(rows, times, edges):
    """(Tr) along ``edges``: for each tree edge (x, s, y), in order, the
    edge with the row L_x L_w, where ``times[s]`` composes a row with L_w,
    that is z -> x (w z).  ``rows[x]`` is read when the edge is reached, so
    a row built from an earlier edge can be stored before a later one reads
    it.  Cost: one row composition per edge."""
    for x, s, y in edges:
        yield x, s, y, times[s](rows[x])


def make_group(rows, generators=None, name: str = "") -> FiniteGroup:
    """Build a FiniteGroup from a Cayley table, validated exactly.

    ``generators`` defaults to a greedily chosen short generating sequence;
    declared generators must generate the table.  Rows and generators are
    taken by ``_exact``, so a tuple row of exact ints is kept, not copied.

    Declared and chosen generators S pass the same checks, and together they
    prove the group axioms at every order (proof at ``_check_steps``): every
    row has length n; row 0 and column 0 read 0, 1, ..., n-1; with s^-1
    read as the position of 0 in row s and W the elements of S and S^-1
    other than 0, the walk from 0 along W reaches exactly 0..n-1;
    ``_check_steps`` passes on W and the table's columns of W; and on each
    first edge of the walk, row y is the composition ``_composed`` gives.
    So no row or column set and no two-sided-inverse pass is needed.  On a
    table that fails, a walk may read an entry outside 0..n-1; that ends in
    GroupError.  Row 0 is checked first, so every round of the greedy
    search grows its span, and the search ends.  Cost: n - 1 row and
    2 |W|^2 column compositions.
    """
    table = tuple(map(_exact, rows))
    if None in table:
        raise GroupError(f"row {table.index(None)} holds an entry that is not an integer")
    n = len(table)
    if n == 0:
        raise GroupError("a group needs at least the identity element")
    for x, row in enumerate(table):
        if len(row) != n:
            raise GroupError(f"row {x} has length {len(row)}, expected {n}")
    if table[0] != tuple(range(n)) or [row[0] for row in table] != list(range(n)):
        raise GroupError("element 0 does not act as the identity")
    try:
        inverse = tuple(row.index(0) for row in table)
    except ValueError:
        x = next(x for x, row in enumerate(table) if 0 not in row)
        raise GroupError(f"row {x} is not a permutation of 0..{n - 1}") from None
    g = FiniteGroup(cayley=table, inverse=inverse, generators=(), name=name)
    try:
        if generators is None:
            gens = minimal_generating_sequence(g)
        else:
            gens = _exact(generators)
            if gens is None:
                raise GroupError("a generator index is not an integer")
            for x in gens:
                if not 0 <= x < n:
                    raise GroupError(f"generator index {x} out of range")
        steps = [w for w in dict.fromkeys(w for x in gens for w in (x, inverse[x])) if w]
        reached, levels = _fold(table, steps, [0])
    except IndexError:  # the walk read a row at an entry >= n or < -n
        reached = [-1]
    if min(reached) < 0:  # a negative entry reads a row from the end
        raise GroupError(f"the walk from 0 reads an entry outside 0..{n - 1}")
    if len(reached) != n:
        raise GroupError("declared generators do not generate the group")
    times = _check_steps(table, steps, [tuple(row[c] for row in table) for c in steps])
    tree = ((x, s, y) for edges in levels for x, s, y, first in edges if first)
    for x, s, y, row in _composed(table, times, tree):
        if row != table[y]:
            w = steps[s]
            z = next(z for z, v in enumerate(table[y]) if v != table[x][table[w][z]])
            raise GroupError(f"associativity fails at ({x}, {w}, {z})")
    return FiniteGroup(cayley=table, inverse=inverse, generators=gens, name=name)


class TableFull(Exception):
    """A breadth-first numbering or a coset table reached its cap."""


def group_from_right_action(start, step, nsteps, generators, cap, name: str = "") -> FiniteGroup:
    """The group whose right regular action is ``step``, numbered, built and
    proven with one row per element.

    ``step(key, c)`` is the key times the step s_c, for c in 0 .. nsteps - 1,
    and ``start`` is the identity's key.  The keys reached from ``start``
    are numbered breadth-first in order of first appearance, ``start`` as 0,
    so s_c is the number of ``step(start, c)``; ``TableFull`` is raised
    before more than ``cap`` keys are numbered.  Each key x > 0 is numbered
    on its first edge (p, c, x), x = p s_c with p < x: these edges are the
    tree of the proof at ``_check_steps``, and they hold by construction.
    W is the set of steps, 0 among them if a step is trivial (a tree edge
    along it fails the column check below, since x 0 = x is not new).  The
    group's generators are the steps s_c for c in ``generators``, and every
    step must be a generator or a generator's inverse, so they generate the
    group.

    The row of a step w is read off the action along the tree,
    w x = (w p) s_c; every other row x = p s_c is ``_composed``'s
    L_p L_{s_c}, so (Tr) holds by construction.  ``_check_steps`` proves
    (P) and (C) with the action's columns as R_c, and the table's column of
    each step is checked against the action's column, so the tree edges are
    table entries and the proof applies word for word.  Column 0 is the
    identity by construction: row w starts with w, and row x = p s_c starts
    with p s_c = x.  Inverses are read along the tree:
    x = p s_c gives x^-1 = s_c^-1 p^-1.  Any failure raises GroupError.
    Cost: one step per key and column, n - 1 rows, |W| of them read off the
    action and the rest composed, n |steps| column reads and 2 |W|^2
    column compositions.
    """
    index = {start: 0}
    keys = [start]
    right: list[list[int]] = []
    tree = []
    for x, key in enumerate(keys):  # grows while it is read: BFS order
        images = []
        for c in range(nsteps):
            prod = step(key, c)
            y = index.get(prod)
            if y is None:
                if len(keys) >= cap:
                    raise TableFull()
                y = index[prod] = len(keys)
                keys.append(prod)
                tree.append((x, c, y))
            images.append(y)
        right.append(images)
    n = len(right)
    steps = right[0]
    W = list(dict.fromkeys(steps))
    rows: list = [None] * n
    rows[0] = tuple(range(n))
    for w in W:
        row = [w] * n
        for p, c, y in tree:
            row[y] = right[row[p]][c]
        rows[w] = tuple(row)
    columns = list(zip(*right))
    times = _check_steps(rows, W, [columns[steps.index(w)] for w in W])
    by_column = [times[W.index(w)] for w in steps]
    for _, _, y, row in _composed(rows, by_column, [edge for edge in tree if edge[0]]):
        rows[y] = row
    if any(tuple(map(operator.itemgetter(s), rows)) != column for s, column in zip(steps, columns)):
        raise GroupError("a column of the table differs from the action")
    inverse = [0] * n
    for w in W:
        inverse[w] = rows[w].index(0)
    for x, c, y in tree:
        inverse[y] = rows[inverse[steps[c]]][inverse[x]]
    gens = tuple(steps[c] for c in generators)
    if any(w not in gens and inverse[w] not in gens for w in W):
        raise GroupError("declared generators do not generate the group")
    return FiniteGroup(cayley=tuple(rows), inverse=tuple(inverse), generators=gens, name=name)


def _walk(cay, gens, span) -> list[tuple[int, int, int, bool]]:
    """One step of the walk from 0: close ``span`` (a list holding 0,
    closed under right multiplication by ``gens[:-1]``) under ``gens[-1]``.

    Returns the edges (x, s, y = x gens[s], first) that the step adds, in
    walk order: x gens[-1] for x in ``span``, then every x g for each newly
    reached x.  ``first`` marks the edge that reaches its y first, before
    any edge leaves y.  Only right multiplication is used, so the walk is
    exact for any table, associative or not.
    """
    last = len(gens) - 1
    seen = set(span)
    reached: list[int] = []
    edges = []
    for steps, sources in (((last,), span), (range(last + 1), reached)):
        for x in sources:  # ``reached`` grows while it is read
            row = cay[x]
            for s in steps:
                y = row[gens[s]]
                if y in seen:
                    edges.append((x, s, y, False))
                else:
                    seen.add(y)
                    reached.append(y)
                    edges.append((x, s, y, True))
    return edges


def _fold(cay, gens, span, start=0):
    """The walk folded over ``gens[start:]`` from ``span`` (closed under
    ``gens[:start]``): the span closed under all of ``gens``, and the edges
    of each step."""
    levels = []
    for t in range(start, len(gens)):
        edges = _walk(cay, gens[: t + 1], span)
        span = span + [y for _, _, y, first in edges if first]
        levels.append(edges)
    return span, levels


def minimal_generating_sequence(G: FiniteGroup) -> tuple[int, ...]:
    """Short generating sequence, found greedily by maximal subgroup growth.

    Each candidate x is walked from the current span, under x and x^-1,
    unless it lies in a span already walked this round: in a group its
    span lies in that one, so it can at most tie, and ties break towards
    the smallest element index.  The walk is exact on any table, so on one
    that is not associative the result still generates it.
    """
    n = G.order
    steps: list[int] = []  # each generator, then its inverse, as walked
    span = [0]
    while len(span) < n:
        covered = set(span)
        best_x, best = -1, span
        for x in range(1, n):
            if x in covered:
                continue
            cand, _ = _fold(G.cayley, steps + [x, G.inverse[x]], span, len(steps))
            covered.update(cand)
            if len(cand) > len(best):
                best_x, best = x, cand
                if len(best) == n:
                    break
        steps += [best_x, G.inverse[best_x]]
        span = best
    return tuple(steps[::2])


# ------------------------------------------------------------ class structure


@dataclass(frozen=True)
class ConjugacyClasses:
    """Conjugacy class data with deterministic ordering.

    Classes are sorted by (element order of representative, class size,
    minimal element index); class 0 is always {identity}.  ``power_map[k][m]``
    is the class of ``reps[k] ** m`` for every ``0 <= m < exponent``.
    """

    reps: tuple[int, ...]
    class_of: tuple[int, ...]
    sizes: tuple[int, ...]
    rep_orders: tuple[int, ...]
    inverse_class: tuple[int, ...]
    power_map: tuple[tuple[int, ...], ...]
    exponent: int


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClasses:
    """Each class is the closure of one element under conjugation by
    ``G.generators``: in a finite group g^-1 is a power of g, so closure
    under g is closure under g^-1."""
    n = G.order
    least = orbit_minima([[G.conj(g, y) for y in range(n)] for g in G.generators], n)
    by_least: dict[int, list[int]] = {}
    for x in range(n):
        by_least.setdefault(least[x], []).append(x)
    orbits = list(by_least.values())
    orbits.sort(key=lambda orb: (G.element_order(orb[0]), len(orb), orb[0]))
    reps = tuple(orb[0] for orb in orbits)
    class_of = [0] * n
    for k, orb in enumerate(orbits):
        for y in orb:
            class_of[y] = k
    sizes = tuple(len(orb) for orb in orbits)
    if sum(sizes) != n or any(n % s for s in sizes):
        raise GroupError("conjugacy class sizes are inconsistent")
    rep_orders = tuple(G.element_order(r) for r in reps)
    exponent = 1
    for m in rep_orders:
        exponent = math.lcm(exponent, m)
    inverse_class = tuple(class_of[G.inverse[r]] for r in reps)
    if any(inverse_class[inverse_class[k]] != k for k in range(len(reps))):
        raise GroupError("inverse-class map is not an involution")
    power_map = []
    for r in reps:
        row = []
        acc = 0
        for _ in range(exponent):
            row.append(class_of[acc])
            acc = G.cayley[acc][r]
        power_map.append(tuple(row))
    return ConjugacyClasses(
        reps=reps,
        class_of=tuple(class_of),
        sizes=sizes,
        rep_orders=rep_orders,
        inverse_class=inverse_class,
        power_map=tuple(power_map),
        exponent=exponent,
    )


def order_profile(G: FiniteGroup) -> dict[int, int]:
    """Exact count of elements of each order, as {order: count}."""
    prof: dict[int, int] = {}
    for x in range(G.order):
        m = G.element_order(x)
        prof[m] = prof.get(m, 0) + 1
    return dict(sorted(prof.items()))


# ------------------------------------------------------------------- products


def cyclic(n: int, name: str = "") -> FiniteGroup:
    if n < 1:
        raise GroupError("cyclic group order must be positive")
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = (1,) if n > 1 else ()
    return make_group(rows, generators=gens, name=name or f"z{n}")


def direct_product(G: FiniteGroup, H: FiniteGroup, name: str = "") -> FiniteGroup:
    """Direct product with element (g, h) at index g*|H| + h."""
    nh = H.order
    n = G.order * nh
    rows = [[0] * n for _ in range(n)]
    for g1, h1 in itertools.product(range(G.order), range(nh)):
        row = rows[g1 * nh + h1]
        for g2, h2 in itertools.product(range(G.order), range(nh)):
            row[g2 * nh + h2] = G.cayley[g1][g2] * nh + H.cayley[h1][h2]
    gens = tuple(g * nh for g in G.generators) + tuple(H.generators)
    return make_group(rows, generators=gens, name=name)


def abelian_group(factors, name: str = "") -> FiniteGroup:
    """Direct product of cyclic groups of the given orders."""
    factors = _exact(factors)
    if factors is None:
        raise GroupError("a factor order is not an integer")
    if not factors:
        return make_group([[0]], generators=(), name=name or "trivial")
    G = cyclic(factors[0])
    for d in factors[1:]:
        G = direct_product(G, cyclic(d))
    return replace(G, name=name or "z" + "x".join(str(d) for d in factors))


def semidirect_product(
    N: FiniteGroup, Q: FiniteGroup, action, name: str = ""
) -> FiniteGroup:
    """Semidirect product N x| Q for an action q -> a_q of Q on N.

    Elements are pairs (x, q) at index q*|N| + x with product
    (x1, q1)(x2, q2) = (x1 a_q1(x2), q1 q2), so N embeds normally as the
    first |N| indices.  ``action`` holds one permutation a_q of 0..|N|-1
    per element of Q, and ``make_group`` decides whether q -> a_q is a
    homomorphism into Aut(N).  Its checks of row and column 0 force
    a_1 = id and a_q(0) = 0, and its exact check decides associativity,
    which holds exactly when a_q1(x2) a_q1q2(x3) = a_q1(x2 a_q2(x3)) for
    all q1, q2, x2 and x3.  x2 = 0 gives the homomorphism law
    a_q1q2 = a_q1 a_q2; then, as a_q2 is onto, a_q1(x2) a_q1(y) =
    a_q1(x2 y) for every y, the automorphism law.  Conversely every such
    action gives a group.
    """
    nn, nq = N.order, Q.order
    action = tuple(map(_exact, action))
    if len(action) != nq:
        raise GroupError("action must assign one permutation per element of Q")
    for q, perm in enumerate(action):
        if perm is None:
            raise GroupError(f"action of {q} holds an entry that is not an integer")
        if sorted(perm) != list(range(nn)):
            raise GroupError(f"action of {q} is not a permutation of 0..{nn - 1}")
    n = nn * nq
    rows = [[0] * n for _ in range(n)]
    for q1, x1 in itertools.product(range(nq), range(nn)):
        row = rows[q1 * nn + x1]
        act1 = action[q1]
        for q2, x2 in itertools.product(range(nq), range(nn)):
            row[q2 * nn + x2] = Q.cayley[q1][q2] * nn + N.cayley[x1][act1[x2]]
    gens = tuple(N.generators) + tuple(q * nn for q in Q.generators)
    return make_group(rows, generators=gens, name=name)


# ------------------------------------------------------------------ subgroups


@dataclass(frozen=True)
class SubgroupSet:
    """A subgroup as a sorted element set, with structural flags."""

    elements: tuple[int, ...]
    abelian: bool
    central: bool

    @property
    def order(self) -> int:
        return len(self.elements)


def _span_of(G: FiniteGroup, members) -> tuple[list[int], tuple[int, ...]]:
    """The members the walk takes, each outside the span of those before
    it (at most log2 |G| of them), and the sorted subgroup they generate.
    In a group, closure under x is closure under x^-1, so inverses are not
    walked."""
    gens: list[int] = []
    span = [0]
    inside = {0}
    for x in members:
        if x not in inside:
            gens.append(x)
            span, _ = _fold(G.cayley, gens, span, len(gens) - 1)
            inside = set(span)
    return gens, tuple(sorted(span))


def _subgroup_flags(G: FiniteGroup, elems: tuple[int, ...]) -> SubgroupSet:
    cay = G.cayley
    central = all(cay[x][g] == cay[g][x] for x in elems for g in G.generators)
    # a central subgroup is abelian; only the others are walked for generators
    abelian = central or all(
        cay[x][y] == cay[y][x] for x, y in itertools.combinations(_span_of(G, elems)[0], 2)
    )
    return SubgroupSet(elements=elems, abelian=abelian, central=central)


def normal_subgroups(G: FiniteGroup) -> tuple[SubgroupSet, ...]:
    """All normal subgroups of G, sorted by (order, element tuple).

    Every normal subgroup is a join of normal closures of single elements,
    and the closure of x is the subgroup generated by x's conjugacy class;
    these class closures are the atoms.  Subgroups are int bitmasks (bit e
    set when e is a member).  A worklist that starts at the trivial group
    joins each newly found subgroup S with every atom A it does not contain;
    the join of two normal subgroups is the product S.A, built one coset
    S.a at a time.  Every join of atoms is reached by adding its atoms one
    at a time, so the list is complete.
    """
    cc = conjugacy_classes(G)
    members: list[list[int]] = [[] for _ in cc.reps]
    for x, k in enumerate(cc.class_of):
        members[k].append(x)
    atoms: dict[int, tuple[int, ...]] = {}
    for cls in members[1:]:
        _, elems = _span_of(G, cls)
        atoms[sum(1 << x for x in elems)] = elems
    cay = G.cayley
    n = G.order
    found: dict[int, tuple[int, ...]] = {1: (0,)}
    worklist = [1]
    for S in worklist:  # grows while it is read
        s_elems = found[S]
        for A, a_elems in atoms.items():
            if A & S == A:
                continue
            join = S
            for a in a_elems:
                if not join >> a & 1:
                    for s in s_elems:
                        join |= 1 << cay[s][a]
            if join not in found:
                found[join] = tuple(x for x in range(n) if join >> x & 1)
                worklist.append(join)
    ordered = sorted(found.values(), key=lambda t: (len(t), t))
    return tuple(_subgroup_flags(G, elems) for elems in ordered)


def derived_subgroup(G: FiniteGroup) -> tuple[int, ...]:
    """Sorted element set of G', the normal closure of the commutators
    x^-1 y^-1 x y of pairs of ``G.generators``: modulo it the generators
    commute.  Each member outside the span is walked, and its conjugates
    by the generators join the members; at the end conjugation by each
    generator maps the walked members, so the subgroup, into itself."""
    cay, inv = G.cayley, G.inverse
    pairs = itertools.combinations(G.generators, 2)
    members = [cay[cay[cay[inv[x]][inv[y]]][x]][y] for x, y in pairs]
    walked: list[int] = []
    span, inside = [0], {0}
    for x in members:  # grows while it is read
        if x not in inside:
            walked.append(x)
            span, _ = _fold(cay, walked, span, len(walked) - 1)
            inside = set(span)
            members.extend(G.conj(g, x) for g in G.generators)
    return tuple(sorted(span))


def quotient_data(G: FiniteGroup, elements) -> tuple[FiniteGroup, tuple[int, ...], tuple[int, ...]]:
    """Quotient group G/A for a normal subgroup A given as an element set.

    Returns (Q, coset_of, section).  Coset 0 is A itself; the remaining
    cosets are ordered by minimal element index, which both makes the output
    deterministic and turns the canonical section of a semidirect product
    back into its complement.  Normality is tested on ``G.generators``:
    conjugation by g is injective, so if it maps the finite set A into A it
    maps A onto A, and so does conjugation by g^-1 and by every product.
    """
    elems = sorted(set(elements))
    eset = set(elems)
    if 0 not in eset:
        raise GroupError("subgroup must contain the identity")
    if any(G.conj(g, x) not in eset for g in G.generators for x in elems):
        raise GroupError("subgroup is not normal")
    coset_of = [-1] * G.order
    section: list[int] = []
    for x in range(G.order):
        if coset_of[x] >= 0:
            continue
        idx = len(section)
        for h in elems:
            coset_of[G.cayley[x][h]] = idx
        section.append(x)
    nq = len(section)
    rows = [[coset_of[G.cayley[section[p]][section[q]]] for q in range(nq)] for p in range(nq)]
    Q = make_group(rows, name=f"{G.name or 'G'}/A")
    return Q, tuple(coset_of), tuple(section)


# ----------------------------------------------------------- abelian structure


@dataclass(frozen=True)
class AbelianStructure:
    """Invariant factors d1 | d2 | ... | dk (each > 1) with generators.

    ``generators[i]`` is an ambient-group element of order ``factors[i]``,
    and the products gen_1^e1 * ... * gen_k^ek enumerate the subgroup once
    each.  The trivial group has no factors.
    """

    factors: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return math.prod(self.factors) if self.factors else 1


def abelian_invariants(G: FiniteGroup, subgroup) -> AbelianStructure:
    """Invariant-factor decomposition of an abelian subgroup of G.

    The input is checked on generators: it must contain 0, ``_span_of`` must
    return exactly the set (so it is closed), and the members that walk
    takes, at most log2 of its order, must commute pairwise.

    Each Sylow p-part is then split in one pass.  A coordinate map sends
    each element of the span S found so far to its exponents over the basis
    found so far, starting from {0: ()}.  Each round scans the p-part in
    index order, covers each new coset x.S, and takes the first x (the least
    element of its coset) whose order f modulo S is largest.  A cyclic
    subgroup of largest order is a direct summand, so x lifts to an element
    y of order f in x.S: from the last basis element g_j back to the first,
    y is multiplied by the power of g_j that cancels the g_j-coordinate of
    y^f, then replaced by the least element of its coset modulo the span of
    the basis elements before g_j.  The map then grows coset by coset with
    s.y^j.  The p-bases are merged into invariant factors by rank, largest
    orders first.
    """
    members = subgroup.elements if isinstance(subgroup, SubgroupSet) else subgroup
    elems = sorted(set(members))
    if 0 not in elems:
        raise GroupError("subgroup must contain the identity")
    walked, closure = _span_of(G, elems)
    if list(closure) != elems:
        raise GroupError("subgroup set is not closed under multiplication")
    cay = G.cayley
    if any(cay[x][y] != cay[y][x] for x, y in itertools.combinations(walked, 2)):
        raise GroupError("subgroup is not abelian")
    m = len(elems)
    if m == 1:
        return AbelianStructure(factors=(), generators=())
    primes = _prime_factors(m)
    per_prime: dict[int, list[tuple[int, int]]] = {}
    for p in primes:
        part = [x for x in elems if _is_p_power(G.element_order(x), p)]
        basis: list[tuple[int, int]] = []
        coords: dict[int, tuple[int, ...]] = {0: ()}
        while len(coords) < len(part):
            f = 0
            seen = set(coords)
            for x in part:
                if x in seen:
                    continue
                seen.update(cay[s][x] for s in coords)
                k, acc = 1, x
                while acc not in coords:
                    acc = cay[acc][x]
                    k += 1
                if k > f:
                    f, y = k, x
            span = list(coords)  # the span of basis[:j] is a prefix of it
            size = len(span)
            for j in reversed(range(len(basis))):
                o, g = basis[j]
                size //= o
                t = coords[G.power(y, f)][j]
                if t % f:
                    raise GroupError("abelian basis lift failed")
                c = (o - t // f) % o
                if c:  # else y is already the least of its coset
                    v = cay[y][G.power(g, c)]
                    y = min(cay[v][s] for s in span[:size])
            if G.power(y, f) != 0:
                raise GroupError("abelian basis lift failed")
            grown: dict[int, tuple[int, ...]] = {}
            z = 0
            for e in range(f):
                for s, expo in coords.items():
                    grown[cay[s][z]] = expo + (e,)
                z = cay[z][y]
            coords = grown
            basis.append((f, y))
        per_prime[p] = sorted(basis, reverse=True)
    width = max(len(v) for v in per_prime.values())
    factors: list[int] = []
    gens: list[int] = []
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
    return AbelianStructure(factors=tuple(factors), generators=tuple(gens))


def abelian_coordinates(G: FiniteGroup, A: AbelianStructure) -> dict[int, tuple[int, ...]]:
    """Map each subgroup element to its exponent tuple over A's generators."""
    coords: dict[int, tuple[int, ...]] = {}
    for expo in itertools.product(*(range(d) for d in A.factors)):
        x = 0
        for g, e in zip(A.generators, expo):
            x = G.cayley[x][G.power(g, e)]
        if x in coords:
            raise GroupError("generators are not independent")
        coords[x] = expo
    return coords


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, math.isqrt(n) + 1):
        if n % q == 0:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


# ---------------------------------------------------------------- isomorphism


@dataclass(frozen=True)
class _SearchData:
    """What the isomorphism search needs of one group, computed once: the
    key of ``classify`` and ``are_isomorphic``, each element's colour, the
    elements of each colour in order, and the walk of the generators, one
    level each.

    An element's colour starts as (element order, class size) and is
    refined twice along the squaring map x -> x^2: each round pairs the
    colour of x with the number of square roots of x and the colour of x^2.
    Every isomorphism preserves colours.  The key is the sorted colour
    multiset; the order, the order profile, the class shape and the centre
    size are functions of it."""

    key: tuple
    colour: tuple[tuple, ...]
    by_colour: dict[tuple, list[int]]
    levels: tuple[list[tuple[int, int, int, bool]], ...]


def _search_data(G: FiniteGroup) -> _SearchData:
    cc = conjugacy_classes(G)
    square = [row[x] for x, row in enumerate(G.cayley)]
    roots = Counter(square)
    colour = [(cc.rep_orders[k], cc.sizes[k]) for k in cc.class_of]
    for _ in range(2):
        colour = [(c, roots[x], colour[square[x]]) for x, c in enumerate(colour)]
    by_colour: dict[tuple, list[int]] = {}
    for x, c in enumerate(colour):
        by_colour.setdefault(c, []).append(x)
    key = tuple(sorted(colour))
    _, levels = _fold(G.cayley, G.generators, [0])
    return _SearchData(key, tuple(colour), by_colour, tuple(levels))


def _isomorphisms(G: FiniteGroup, H: FiniteGroup, dG: _SearchData, dH: _SearchData, fixed=()):
    """Yield every isomorphism G -> H as a length-|G| tuple, on search data
    computed once; the image of ``G.generators[t]`` is ``fixed[t]`` for
    each t < len(fixed).

    Backtracking on the images img[t] of ``G.generators``, each taken among
    the elements of H of the same colour (see ``_SearchData``).  Level t
    takes the edges the walk adds at generator t: the first edge x -> y
    into each new y defines phi(y) = phi(x) img[s], an image not used yet,
    and every other edge must agree with phi.  The map is extended in
    place, and a backtrack releases only its level's images.  After the
    last level phi is an injective homomorphism, so a bijection.
    """
    if G.order != H.order:
        return
    cay = H.cayley
    gens = G.generators
    phi = [0] * G.order
    used = bytearray(G.order)
    used[0] = 1
    imgs: list[int] = []

    def dfs(t: int):
        if t == len(gens):
            yield tuple(phi)
            return
        cands = fixed[t:t + 1] or dH.by_colour.get(dG.colour[gens[t]], ())
        for cand in cands:
            imgs.append(cand)
            defined = []
            for x, s, y, first in dG.levels[t]:
                w = cay[phi[x]][imgs[s]]
                if first and not used[w]:
                    used[w] = 1
                    phi[y] = w
                    defined.append(w)
                elif first or phi[y] != w:
                    break
            else:
                yield from dfs(t + 1)
            for w in defined:
                used[w] = 0
            imgs.pop()

    yield from dfs(0)


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> tuple[int, ...] | None:
    """An explicit isomorphism G -> H as a length-|G| map, or None.

    None means the keys differ (the multisets of refined element colours,
    see ``_SearchData``), or the one search was exhausted.
    """
    dG, dH = _search_data(G), _search_data(H)
    if dG.key != dH.key:
        return None
    return next(_isomorphisms(G, H, dG, dH), None)


def classify(groups_list) -> list[FiniteGroup]:
    """One representative per isomorphism class, in first-seen order.

    Each group's search data is computed once.  Its key, the sorted
    multiset of refined element colours (see ``_SearchData``), sorts the
    groups into buckets, and a group is searched for an isomorphism only
    against the representatives in its bucket.  The colours only prune
    the search, which checks every edge of the walk, so they never produce
    a false isomorphism.
    """
    buckets: dict[tuple, list[tuple[FiniteGroup, _SearchData]]] = {}
    reps = []
    for G in groups_list:
        dG = _search_data(G)
        bucket = buckets.setdefault(dG.key, [])
        if all(next(_isomorphisms(G, H, dG, dH), None) is None for H, dH in bucket):
            bucket.append((G, dG))
            reps.append(G)
    return reps


def automorphism_generators(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Generators of Aut(G) along the stabiliser chain of ``G.generators``.

    Level i, from the last generator down to the first, searches for
    automorphisms that fix gens[:i] and send gens[i] to a candidate c of
    its colour, with ``_isomorphisms`` given that prefix of images.  A
    candidate already in the orbit of gens[i] under the automorphisms found
    so far (all of which fix gens[:i]) is skipped, so level i adds one
    generator per new orbit point at most.  These orbits are then the
    orbits of the stabilisers, and |Aut(G)| is the product of their
    lengths: the stabiliser of all of gens is trivial, and each level's
    group is generated by the one below and the generators it found.
    """
    d = _search_data(G)
    gens = G.generators
    found: list[tuple[int, ...]] = []
    for i in reversed(range(len(gens))):
        least = orbit_minima(found, G.order)
        for c in d.by_colour[d.colour[gens[i]]]:
            if least[c] != least[gens[i]]:
                phi = next(_isomorphisms(G, G, d, d, gens[:i] + (c,)), None)
                if phi is not None:
                    found.append(phi)
                    least = orbit_minima(found, G.order)
    return found


def orbit_minima(maps, n: int) -> list[int]:
    """The least point of the orbit of each x in range(n) under the group
    generated by ``maps``, permutations of range(n).  In a finite group the
    orbit of x is its closure under the maps themselves."""
    least = [-1] * n
    for x in range(n):
        if least[x] < 0:
            least[x] = x
            frontier = [x]
            for y in frontier:  # grows while it is read
                for g in maps:
                    if least[z := g[y]] < 0:
                        least[z] = x
                        frontier.append(z)
    return least


# -------------------------------------------------------------- serialisation


def format_group_dump(G: FiniteGroup, out) -> None:
    """Write the canonical line-oriented dump (order, name, generators,
    Cayley rows) to the text stream ``out``, one line at a time.

    The format is byte-stable across runs and documented in the README.
    """
    names = tuple(map(str, range(G.order)))
    out.write(f"order {G.order}\n")
    if G.name:
        out.write(f'name "{G.name}"\n')
    out.write("gens " + " ".join([names[g] for g in G.generators]) + "\n")
    # at order 1 itemgetter returns the string "0" itself, which joins to "0"
    for row in G.cayley:
        out.write("row " + " ".join(operator.itemgetter(*row)(names)) + "\n")
