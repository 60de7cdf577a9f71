#!/usr/bin/env python3
"""Enumerate every group of order 32 and tabulate screening invariants.

Every 2-group of order 2^n is a central extension of a group of order
2^(n-1) by Z2, so iterating central extensions from the three abelian and
two nonabelian groups of order 8 reaches all 14 groups of order 16 and all
51 groups of order 32; ``groups.classify`` keeps one group per isomorphism
class.  For each class of order 32 the script prints class count, self-dual
count, Witt rank and the order profile, then lists every pair agreeing in
all of those and tests it for Grothendieck-ring and Witt-ring isomorphism.

Outcome at order 32: exactly two pairs agree on (class count, self-dual
count, order profile) and have isomorphic Grothendieck AND Witt rings; both
are separated by the candidate-subgroup analysis of the screening module.

Runtime: under a minute.  Usage: python scripts/survey_order32.py
"""

import itertools
import os
import sys
import time
from collections import defaultdict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wittlab import chartab, groups, presentations as pres, witt
from wittlab.groups import classify, make_group, order_profile


def _reduce(basis, v):
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


def central_extensions(H):
    """One extension group of H by a central Z2 per 2-cohomology class."""
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
        _reduce(pivots, r)
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
        _reduce(basis, v)
    h2_gens = [red for v in kernel_basis if (red := _reduce(basis, v))]

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


def main() -> int:
    t0 = time.time()
    q8 = pres.coset_enumeration(
        pres.parse_group_file("gens a b; rel a^4; rel b^2 a^-2; rel b^-1 a b a;")
    )
    d8 = groups.semidirect_product(
        groups.cyclic(4), groups.cyclic(2),
        [tuple(range(4)), tuple((-i) % 4 for i in range(4))],
    )
    order8 = [
        groups.abelian_group([8]),
        groups.abelian_group([4, 2]),
        groups.abelian_group([2, 2, 2]),
        d8,
        q8,
    ]
    all16 = []
    for H in order8:
        all16.extend(central_extensions(H))
    reps16 = classify(all16)
    print(f"order 16: {len(reps16)} isomorphism classes ({time.time() - t0:.1f}s)")
    assert len(reps16) == 14

    all32 = []
    for H in reps16:
        all32.extend(central_extensions(H))
    reps32 = classify(all32)
    print(f"order 32: {len(reps32)} isomorphism classes ({time.time() - t0:.1f}s)")
    assert len(reps32) == 51

    stats = []
    for i, G in enumerate(reps32):
        T = chartab.burnside_dixon(G)
        wr = witt.witt_ring(witt.fusion_data_from_table(T))
        stats.append(
            dict(
                i=i,
                T=T,
                sd=chartab.self_dual_count(T),
                prof=tuple(sorted(order_profile(G).items())),
                wrank=wr.rank,
                wr=wr,
            )
        )
    print(f"\n{'id':>3} {'cls':>3} {'sd':>3} {'witt':>4}  profile")
    for s in stats:
        prof = " ".join(f"{o}^{c}" for o, c in s["prof"])
        print(f"{s['i']:>3} {s['T'].nclasses:>3} {s['sd']:>3} {s['wrank']:>4}  {prof}")

    buckets = defaultdict(list)
    for s in stats:
        buckets[(s["T"].nclasses, s["sd"], s["prof"])].append(s)
    print("\npairs agreeing in class count, self-dual count and order profile:")
    for key, members in sorted(buckets.items()):
        for a, b in itertools.combinations(members, 2):
            k0 = witt.based_ring_isomorphism(
                witt.grothendieck_ring(a["T"]), witt.grothendieck_ring(b["T"])
            )
            wiso = witt.based_ring_isomorphism(a["wr"].ring, b["wr"].ring)
            print(
                f"  #{a['i']} vs #{b['i']} (sd={a['sd']}): "
                f"K0 iso: {k0 is not None}, Witt iso: {wiso is not None}"
            )
    print(f"\ntotal {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
