#!/usr/bin/env python3
"""Regenerate the bundled corpus of group files in corpus/.

The corpus holds every abelian group of order at most 16 plus the named
groups used by the screening experiments: the two nonabelian order-8 groups,
six nonabelian order-16 groups, the two order-32 invariant-twin pairs and
the order-64 deformation pair (emitted as permutation files via their
regular representations).  Every file is re-parsed and re-realised after
writing, and cross-checked against an independent construction, so a
successful run is a consistency proof for the corpus.

Usage: python scripts/make_corpus.py [DIR]   (default: corpus/)
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wittlab import chartab, deform, groups, presentations as pres, witt
from wittlab.groups import are_isomorphic, minimal_generating_sequence, order_profile

ABELIAN = {
    "trivial": (),
    "z2": (2,),
    "z3": (3,),
    "z4": (4,),
    "z2x2": (2, 2),
    "z5": (5,),
    "z6": (6,),
    "z7": (7,),
    "z8": (8,),
    "z4x2": (4, 2),
    "z2x2x2": (2, 2, 2),
    "z9": (9,),
    "z3x3": (3, 3),
    "z10": (10,),
    "z11": (11,),
    "z12": (12,),
    "z6x2": (6, 2),
    "z13": (13,),
    "z14": (14,),
    "z15": (15,),
    "z16": (16,),
    "z8x2": (8, 2),
    "z4x4": (4, 4),
    "z4x2x2": (4, 2, 2),
    "z2x2x2x2": (2, 2, 2, 2),
}

GEN_NAMES = ("a", "b", "c", "d")

NAMED = {
    # order 8
    "d8": (8, """\
# dihedral group of order 8
group "d8" presentation {
  gens a b;
  rel a^4;
  rel b^2;
  rel b^-1 a b = a^-1;
}
"""),
    "q8": (8, """\
# quaternion group of order 8
group "q8" presentation {
  gens a b;
  rel a^4;
  rel b^2 = a^2;
  rel b^-1 a b = a^-1;
}
"""),
    # order 16
    "d16": (16, """\
# dihedral group of order 16
group "d16" presentation {
  gens a b;
  rel a^8;
  rel b^2;
  rel b^-1 a b = a^-1;
}
"""),
    "q16": (16, """\
# generalised quaternion group of order 16
group "q16" presentation {
  gens a b;
  rel a^8;
  rel b^2 = a^4;
  rel b^-1 a b = a^-1;
}
"""),
    "g3_16": (16, """\
# order 16: central extension with b^2 = z, b^-1 a b = a z
group "g3_16" presentation {
  gens a b z;
  rel a^4;
  rel b^2 = z;
  rel z^2;
  rel b^-1 a b = a z;
}
"""),
    "g4_16": (16, """\
# order 16: split analogue of g3_16 with b^2 = 1 and central z
group "g4_16" presentation {
  gens a b z;
  rel a^4;
  rel b^2;
  rel z^2;
  rel b^-1 a b = a z;
  rel z^-1 a z = a;
  rel z^-1 b z = b;
}
"""),
    "d8xz2": (16, """\
group "d8xz2" presentation {
  gens a b z;
  rel a^4;
  rel b^2;
  rel z^2;
  rel b^-1 a b = a^-1;
  rel z^-1 a z = a;
  rel z^-1 b z = b;
}
"""),
    "q8xz2": (16, """\
group "q8xz2" presentation {
  gens a b z;
  rel a^4;
  rel b^2 = a^2;
  rel b^-1 a b = a^-1;
  rel z^2;
  rel z^-1 a z = a;
  rel z^-1 b z = b;
}
"""),
    # order 32
    "smallgroup_32_6": (32, """\
# ((Z4 x Z2) : Z2) : Z2 with 20 elements of order 4
group "smallgroup_32_6" presentation {
  gens a b c d;
  rel a^4;
  rel b^2;
  rel c^2;
  rel d^2;
  rel a^-1 b^-1 a b;
  rel c^-1 b^-1 c b;
  rel d^-1 b^-1 d b;
  rel d^-1 c^-1 d c;
  rel c^-1 a c = a b;
  rel d^-1 a d = a c;
}
"""),
    "smallgroup_32_7": (32, """\
# (Z8 : Z2) : Z2 with 4 elements of order 4
group "smallgroup_32_7" presentation {
  gens a b c;
  rel a^8;
  rel b^2;
  rel c^2;
  rel b^-1 a b = a^5;
  rel c^-1 b^-1 c b;
  rel c^-1 a c = a b;
}
"""),
    "smallgroup_32_27": (32, """\
# Z2 acting on (Z2)^4: e fixes a, b and sends c -> ca, d -> db
group "smallgroup_32_27" presentation {
  gens a b c d e;
  rel a^2;
  rel b^2;
  rel c^2;
  rel d^2;
  rel e^2;
  rel a^-1 b^-1 a b;
  rel a^-1 c^-1 a c;
  rel a^-1 d^-1 a d;
  rel b^-1 c^-1 b c;
  rel b^-1 d^-1 b d;
  rel c^-1 d^-1 c d;
  rel e^-1 a^-1 e a;
  rel e^-1 b^-1 e b;
  rel e^-1 c^-1 e c = a;
  rel e^-1 d^-1 e d = b;
}
"""),
    "smallgroup_32_34": (32, """\
# Z2 acting on (Z4)^2 by inversion
group "smallgroup_32_34" presentation {
  gens a b c;
  rel a^4;
  rel b^4;
  rel c^2;
  rel a^-1 b^-1 a b;
  rel c^-1 a^-1 c a = a^2;
  rel c^-1 b^-1 c b = b^2;
}
"""),
}


def abelian_source(name: str, factors) -> str:
    if not factors:
        return f'group "{name}" presentation {{\n  gens a;\n  rel a;\n}}\n'
    gens = GEN_NAMES[: len(factors)]
    lines = [f'group "{name}" presentation {{', "  gens " + " ".join(gens) + ";"]
    for g, d in zip(gens, factors):
        lines.append(f"  rel {g}^{d};")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            lines.append(f"  rel {gens[i]}^-1 {gens[j]}^-1 {gens[i]} {gens[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cycle_notation(perm) -> str:
    """Disjoint cycles of a 0-based permutation, 1-based as in group files."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = perm[cur]
        cycles.append("(" + " ".join(str(v + 1) for v in cyc) + ")")
    return "".join(cycles) if cycles else "(1)"


def perm_source(name: str, G) -> str:
    """Regular-representation permutation file for a concrete group."""
    gens = minimal_generating_sequence(G)
    lines = [
        f"# regular representation on {G.order} points",
        f'group "{name}" permutations degree {G.order} {{',
    ]
    for g in gens:
        perm = tuple(G.cayley[g][x] for x in range(G.order))  # left multiplication
        lines.append(f"  gen {cycle_notation(perm)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def check_32_pair(realised):
    """The order-32 invariant twins must match their defining statistics."""
    g6, g7 = realised["smallgroup_32_6"], realised["smallgroup_32_7"]
    assert order_profile(g6)[4] == 20 and order_profile(g7)[4] == 4
    t6, t7 = chartab.burnside_dixon(g6), chartab.burnside_dixon(g7)
    assert chartab.self_dual_count(t6) == chartab.self_dual_count(t7) == 7
    assert witt.based_ring_isomorphism(
        witt.grothendieck_ring(t6), witt.grothendieck_ring(t7)
    ) is not None
    w6 = witt.witt_ring(witt.fusion_data_from_table(t6))
    w7 = witt.witt_ring(witt.fusion_data_from_table(t7))
    assert witt.based_ring_isomorphism(w6.ring, w7.ring) is not None

    # independent constructions: iterated split extensions
    z4xz2 = groups.abelian_group([4, 2])
    inner6 = groups.semidirect_product(
        z4xz2, groups.cyclic(2), [tuple(range(8)), (0, 1, 3, 2, 4, 5, 7, 6)]
    )
    outer6 = groups.semidirect_product(
        inner6, groups.cyclic(2),
        [tuple(range(16)), (0, 1, 10, 11, 5, 4, 15, 14, 8, 9, 2, 3, 13, 12, 7, 6)],
    )
    assert are_isomorphic(g6, outer6) is not None
    m16 = groups.semidirect_product(
        groups.cyclic(8), groups.cyclic(2), [tuple(range(8)), (0, 5, 2, 7, 4, 1, 6, 3)]
    )
    outer7 = groups.semidirect_product(
        m16, groups.cyclic(2),
        [tuple(range(16)), (0, 9, 6, 15, 4, 13, 2, 11, 8, 1, 14, 7, 12, 5, 10, 3)],
    )
    assert are_isomorphic(g7, outer7) is not None

    g27, g34 = realised["smallgroup_32_27"], realised["smallgroup_32_34"]
    assert order_profile(g27) == order_profile(g34)
    t27, t34 = chartab.burnside_dixon(g27), chartab.burnside_dixon(g34)
    assert chartab.self_dual_count(t27) == chartab.self_dual_count(t34)
    assert witt.based_ring_isomorphism(
        witt.grothendieck_ring(t27), witt.grothendieck_ring(t34)
    ) is not None


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(__file__), "..", "corpus"
    )
    os.makedirs(outdir, exist_ok=True)
    sources: dict[str, str] = {}
    expected_orders: dict[str, int] = {}
    for name, factors in ABELIAN.items():
        sources[name] = abelian_source(name, factors)
        expected_orders[name] = 1
        for d in factors:
            expected_orders[name] *= d
    for name, (order, src) in NAMED.items():
        sources[name] = src
        expected_orders[name] = order

    G64, _, G64b = deform.izumi_kosaki()
    sources["g64"] = perm_source("g64", G64)
    sources["g64_b"] = perm_source("g64_b", G64b)
    expected_orders["g64"] = expected_orders["g64_b"] = 64

    realised = {}
    for name, src in sorted(sources.items()):
        parsed = pres.parse_group_file(src, filename=name)
        G = pres.realize(parsed)
        assert G.order == expected_orders[name], (name, G.order)
        realised[name] = G
        path = os.path.join(outdir, f"{name}.grp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(src)
        print(f"wrote {path} (order {G.order})")

    for name, factors in ABELIAN.items():
        struct = groups.abelian_invariants(realised[name], range(realised[name].order))
        built = groups.abelian_group(factors) if factors else groups.cyclic(1)
        assert are_isomorphic(realised[name], built) is not None, name
    check_32_pair(realised)
    assert are_isomorphic(realised["g64"], G64) is not None
    assert are_isomorphic(realised["g64_b"], G64b) is not None
    assert are_isomorphic(realised["g64"], realised["g64_b"]) is None
    print(f"corpus of {len(sources)} groups written and cross-checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
