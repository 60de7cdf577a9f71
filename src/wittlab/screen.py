"""Invariant bundles, pairwise verdicts and corpus screening.

A group's bundle collects every isocategoricity invariant this package
computes: order statistics, the Grothendieck ring, the Witt ring, the
self-dual count and the normal-subgroup candidates for deformations.  A pair
of groups is certified not isocategorical by the first failing invariant
comparison, or, when all invariants agree, by the candidate-subgroup rule:
non-central candidate subgroups admitting a skew-symmetric equivariant
identification of the subgroup with its character group must match in their
abelian types across any deformation, so disjoint type multisets separate
the pair.  Proving isocategoricity is out of scope; agreeing pairs stay
undecided.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

from . import chartab, witt
from .groups import (
    AbelianStructure,
    FiniteGroup,
    SubgroupSet,
    abelian_coordinates,
    abelian_invariants,
    generated_subgroup,
    normal_subgroups,
    order_profile,
)
from .presentations import parse_group_file, realize


class ScreenError(RuntimeError):
    """Corpus-level failure (unreadable directory, empty corpus)."""


# ------------------------------------------------------------ rigidity screen


@dataclass(frozen=True)
class DeformationCandidate:
    """A normal abelian subgroup of order 4^m admitting a skew-symmetric
    equivariant isomorphism from its character group.

    ``admits_alternating`` additionally requires the quadratic diagonal to
    vanish; both predicates are reported so either convention can be read
    off (the screening verdict uses the skew-symmetric one).
    """

    subgroup: SubgroupSet
    structure: AbelianStructure
    central: bool
    admits_alternating: bool

    @property
    def kind(self) -> tuple[int, ...]:
        return self.structure.factors


@dataclass(frozen=True)
class RigidityEvidence:
    """All deformation candidates of a group; empty means certified rigid."""

    candidates: tuple[DeformationCandidate, ...]

    @property
    def rigid(self) -> bool:
        return not self.candidates


def _dual_action_matrix(G, struct, coords, g):
    """Matrix of the contragredient action of g on characters, columns =
    images of the dual basis characters, entries mod the row factor."""
    k = len(struct.factors)
    N = struct.factors[-1]
    ginv = G.inverse[g]
    conj_coords = [coords[G.conj(ginv, struct.generators[i])] for i in range(k)]
    D = [[0] * k for _ in range(k)]
    for j in range(k):  # image of the j-th dual basis character
        for i in range(k):
            # value of (g . delta_j) on gen_i is zeta_N ** t
            t = (conj_coords[i][j] * (N // struct.factors[j])) % N
            step = N // struct.factors[i]
            if t % step:
                raise RuntimeError("dual action failed to land in the lattice")
            D[i][j] = (t // step) % struct.factors[i]
    return D


def _conj_action_matrix(G, struct, coords, g):
    k = len(struct.factors)
    C = [[0] * k for _ in range(k)]
    for j in range(k):
        img = coords[G.conj(g, struct.generators[j])]
        for i in range(k):
            C[i][j] = img[i] % struct.factors[i]
    return C


def _mat_mul_mod(A, B, factors):
    k = len(factors)
    return [
        [sum(A[i][t] * B[t][j] for t in range(k)) % factors[i] for j in range(k)]
        for i in range(k)
    ]


def _skew_isomorphisms(G: FiniteGroup, struct: AbelianStructure):
    """Yield (matrix, alternating?) for every skew-symmetric equivariant
    isomorphism from the character group onto the subgroup.

    The pairing condition M[i][j]*N/d_i + M[j][i]*N/d_j = 0 (mod N) fixes
    M[j][i] from M[i][j], so only the upper triangle and the diagonal are
    enumerated; equivariance against every group generator and bijectivity
    are checked on the survivors.
    """
    d = struct.factors
    k = len(d)
    N = d[-1]
    coords = abelian_coordinates(G, struct)
    element_of = {c: x for x, c in coords.items()}
    Cs = [_conj_action_matrix(G, struct, coords, g) for g in G.generators]
    Ds = [_dual_action_matrix(G, struct, coords, g) for g in G.generators]

    diag_choices = []
    for i in range(k):
        # 2 * M[i][i] * (N / d_i) = 0 (mod N), i.e. M[i][i] in {0, d_i/2}
        opts = [0]
        if d[i] % 2 == 0:
            opts.append(d[i] // 2)
        diag_choices.append(opts)

    upper = [(i, j) for i in range(k) for j in range(i + 1, k)]

    def hom_ok(i, j, v):
        return (v * d[j]) % d[i] == 0

    upper_choices = []
    for i, j in upper:
        pairs = []
        for v in range(d[i]):
            if not hom_ok(i, j, v):
                continue
            # solve M[j][i] * (N/d_j) = -v * (N/d_i)  (mod N)
            t = (-v * (N // d[i])) % N
            c = N // d[j]
            if t % c:
                continue
            w = (t // c) % d[j]
            if hom_ok(j, i, w):
                pairs.append((v, w))
        upper_choices.append(pairs)

    for diag in itertools.product(*diag_choices):
        for ups in itertools.product(*upper_choices):
            M = [[0] * k for _ in range(k)]
            for i in range(k):
                M[i][i] = diag[i]
            for (i, j), (v, w) in zip(upper, ups):
                M[i][j] = v
                M[j][i] = w
            if any(
                _mat_mul_mod(M, D, d) != _mat_mul_mod(C, M, d)
                for C, D in zip(Cs, Ds)
            ):
                continue
            # bijectivity: the columns must generate the whole subgroup
            cols = [element_of[tuple(row[j] for row in M)] for j in range(k)]
            if len(generated_subgroup(G, cols)) != struct.order:
                continue
            yield M, all(diag[i] == 0 for i in range(k))


def rigidity_screen(G: FiniteGroup) -> RigidityEvidence:
    """Candidate normal abelian subgroups for cocycle deformations.

    Enumerates normal abelian subgroups of order 4^m (m >= 1) and keeps the
    ones admitting a skew-symmetric equivariant isomorphism from the
    character group; none at all certifies the group categorically rigid.
    """
    out = []
    for sub in normal_subgroups(G):
        if not sub.abelian:
            continue
        n = sub.order
        if n < 4 or not _is_power_of_four(n):
            continue
        struct = abelian_invariants(G, sub)
        admits = False
        alternating = False
        for _, alt in _skew_isomorphisms(G, struct):
            admits = True
            if alt:
                alternating = True
                break
        if admits:
            out.append(
                DeformationCandidate(
                    subgroup=sub,
                    structure=struct,
                    central=sub.central,
                    admits_alternating=alternating,
                )
            )
    return RigidityEvidence(candidates=tuple(out))


def _is_power_of_four(n: int) -> bool:
    while n % 4 == 0:
        n //= 4
    return n == 1


# ---------------------------------------------------------- invariant bundles


@dataclass(frozen=True)
class InvariantBundle:
    name: str
    order: int
    profile: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]
    self_dual_count: int
    fs: tuple[int, ...]
    k0: witt.BasedRing
    witt_ring: witt.WittRing
    evidence: RigidityEvidence


def invariant_bundle(G: FiniteGroup, name: str = "") -> InvariantBundle:
    t = chartab.burnside_dixon(G)
    fd = witt.fusion_data_from_table(t)
    return InvariantBundle(
        name=name or G.name or "group",
        order=G.order,
        profile=tuple(sorted(order_profile(G).items())),
        degrees=t.degrees,
        self_dual_count=chartab.self_dual_count(t),
        fs=chartab.fs_vector(t),
        k0=witt.fusion_ring(fd),
        witt_ring=witt.witt_ring(fd),
        evidence=rigidity_screen(G),
    )


# ------------------------------------------------------------- pair verdicts


NOT_ISOCATEGORICAL = "not-isocategorical"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class PairVerdict:
    left: str
    right: str
    checks: tuple[tuple[str, bool], ...]
    verdict: str
    witness: str | None
    notes: tuple[str, ...]


def compare_bundles(a: InvariantBundle, b: InvariantBundle) -> PairVerdict:
    """Ordered invariant comparison, then the candidate-subgroup rule."""
    checks: list[tuple[str, bool]] = []
    witness = None

    checks.append(("order", a.order == b.order))
    if a.order == b.order:
        k0 = witt.based_ring_isomorphism(a.k0, b.k0) is not None
        checks.append(("grothendieck_ring", k0))
        w = (
            a.witt_ring.rank == b.witt_ring.rank
            and witt.based_ring_isomorphism(a.witt_ring.ring, b.witt_ring.ring)
            is not None
        )
        checks.append(("witt_ring", w))
        checks.append(("self_dual_count", a.self_dual_count == b.self_dual_count))
        checks.append(("order_profile", a.profile == b.profile))
    for name, ok in checks:
        if not ok:
            witness = name
            break
    notes: list[str] = []
    if witness is not None:
        return PairVerdict(
            left=a.name, right=b.name, checks=tuple(checks),
            verdict=NOT_ISOCATEGORICAL, witness=witness, notes=tuple(notes),
        )
    # candidate-subgroup rule on non-central candidates
    la = sorted(c.kind for c in a.evidence.candidates if not c.central)
    lb = sorted(c.kind for c in b.evidence.candidates if not c.central)
    for side, bundle in ((a.name, a), (b.name, b)):
        centrals = [c.kind for c in bundle.evidence.candidates if c.central]
        if centrals:
            notes.append(
                f"{side}: central candidates {centrals} excluded from matching"
            )
    inter = [k for k in la if k in lb]
    if (la or lb) and not inter:
        checks.append(("candidate_subgroups", False))
        return PairVerdict(
            left=a.name, right=b.name, checks=tuple(checks),
            verdict=NOT_ISOCATEGORICAL,
            witness=f"candidate-subgroup analysis: {la} vs {lb}",
            notes=tuple(notes),
        )
    checks.append(("candidate_subgroups", True))
    return PairVerdict(
        left=a.name, right=b.name, checks=tuple(checks),
        verdict=UNDECIDED, witness=None, notes=tuple(notes),
    )


def compare_pair(G: FiniteGroup, H: FiniteGroup) -> PairVerdict:
    return compare_bundles(
        invariant_bundle(G, G.name or "left"), invariant_bundle(H, H.name or "right")
    )


# ------------------------------------------------------------ corpus screening


@dataclass(frozen=True)
class Report:
    entries: tuple[dict, ...]
    pairs: tuple[PairVerdict, ...]
    errors: tuple[tuple[str, str], ...]
    summary: dict


def screen_corpus(directory: str, order: int | None = None) -> Report:
    """Screen every group file in a directory.

    Produces one rigidity line per group (rigid when the deformation screen
    finds no candidate subgroup at all) and a pairwise verdict for every
    same-order pair.  Files that fail to parse are reported and skipped.
    Output ordering is deterministic: (order, name).
    """
    if not os.path.isdir(directory):
        raise ScreenError(f"not a directory: {directory}")
    names = sorted(n for n in os.listdir(directory) if not n.startswith("."))
    files = [n for n in names if os.path.isfile(os.path.join(directory, n))]
    if not files:
        raise ScreenError(f"no group files in {directory}")
    bundles: list[InvariantBundle] = []
    errors: list[tuple[str, str]] = []
    for fname in files:
        path = os.path.join(directory, fname)
        try:
            with open(path, encoding="utf-8") as fh:
                parsed = parse_group_file(fh.read(), filename=path)
            G = realize(parsed)
            label = parsed.name or os.path.splitext(fname)[0]
            bundles.append(invariant_bundle(G, name=label))
        except Exception as exc:  # noqa: BLE001 - reported per file, screening continues
            errors.append((fname, str(exc)))
    if order is not None:
        bundles = [b for b in bundles if b.order == order]
    bundles.sort(key=lambda b: (b.order, b.name))
    entries = []
    for b in bundles:
        entries.append(
            {
                "name": b.name,
                "order": b.order,
                "classes": len(b.degrees),
                "self_dual": b.self_dual_count,
                "witt_rank": b.witt_ring.rank,
                "profile": [list(p) for p in b.profile],
                "rigid_by_screen": b.evidence.rigid,
                "candidates": [
                    {
                        "type": list(c.kind),
                        "order": c.subgroup.order,
                        "central": c.central,
                        "alternating": c.admits_alternating,
                    }
                    for c in b.evidence.candidates
                ],
            }
        )
    pairs = []
    for x, y in itertools.combinations(bundles, 2):
        if x.order != y.order:
            continue
        pairs.append(compare_bundles(x, y))
    resolved = sum(1 for p in pairs if p.verdict == NOT_ISOCATEGORICAL)
    summary = {
        "groups": len(bundles),
        "rigid_by_screen": sum(1 for e in entries if e["rigid_by_screen"]),
        "pairs": len(pairs),
        "not_isocategorical": resolved,
        "undecided": len(pairs) - resolved,
        "errors": len(errors),
    }
    return Report(
        entries=tuple(entries),
        pairs=tuple(pairs),
        errors=tuple(errors),
        summary=summary,
    )


def render_report(report: Report) -> str:
    lines = []
    lines.append(f"screened {report.summary['groups']} groups")
    lines.append("")
    lines.append(f"{'name':<24} {'order':>5} {'cls':>3} {'sd':>3} {'witt':>4}  rigidity")
    for e in report.entries:
        status = "rigid (no candidate subgroup)" if e["rigid_by_screen"] else (
            "candidates: "
            + ", ".join(
                "x".join(str(v) for v in c["type"])
                + ("(central)" if c["central"] else "")
                for c in e["candidates"]
            )
        )
        lines.append(
            f"{e['name']:<24} {e['order']:>5} {e['classes']:>3} "
            f"{e['self_dual']:>3} {e['witt_rank']:>4}  {status}"
        )
    if report.pairs:
        lines.append("")
        lines.append("same-order pairs:")
        for p in report.pairs:
            if p.verdict == NOT_ISOCATEGORICAL:
                lines.append(
                    f"  {p.left} vs {p.right}: not isocategorical ({p.witness})"
                )
            else:
                lines.append(f"  {p.left} vs {p.right}: undecided")
            for note in p.notes:
                lines.append(f"    note: {note}")
    if report.errors:
        lines.append("")
        for fname, msg in report.errors:
            lines.append(f"error: {fname}: {msg}")
    s = report.summary
    lines.append("")
    lines.append(
        f"summary: {s['groups']} groups, {s['rigid_by_screen']} rigid by screen, "
        f"{s['not_isocategorical']}/{s['pairs']} pairs separated, "
        f"{s['undecided']} undecided, {s['errors']} file errors"
    )
    return "\n".join(lines) + "\n"


def report_json(report: Report) -> str:
    payload = {
        "groups": list(report.entries),
        "pairs": [
            {
                "left": p.left,
                "right": p.right,
                "checks": [[n, ok] for n, ok in p.checks],
                "verdict": p.verdict,
                "witness": p.witness,
                "notes": list(p.notes),
            }
            for p in report.pairs
        ],
        "errors": [[f, m] for f, m in report.errors],
        "summary": report.summary,
    }
    return json.dumps(payload, indent=2) + "\n"
