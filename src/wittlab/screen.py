"""Invariant bundles, pairwise verdicts and corpus screening.

A group's bundle collects every isocategoricity invariant this package
computes: order statistics, the Grothendieck ring, the Witt ring, the
self-dual count and the deformation candidates.  By Etingof and Gelaki the
groups isocategorical to G are its deformations G_b along pairs (A, R): A a
normal abelian subgroup of order 4^m, R in Lambda^2 A^ a G-invariant
nondegenerate alternating form.  A candidate is an A that admits such an
R; the invariant alternating forms are the kernel of a linear system over
Z/N, N the exponent of A.  A pair of groups is certified not
isocategorical by the first failing invariant comparison or, when all
agree, by the candidate-subgroup rule: non-central candidates must match
in their abelian types across any deformation, so disjoint type multisets
separate the pair.  Agreeing pairs stay undecided.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

from . import chartab, witt
from .groups import (
    AbelianStructure,
    FiniteGroup,
    SubgroupSet,
    _is_p_power,
    abelian_coordinates,
    abelian_invariants,
    normal_subgroups,
    order_profile,
)
from .presentations import DEFAULT_MAX_COSETS, parse_group_file, realize


class ScreenError(RuntimeError):
    """Corpus-level failure (unreadable directory, empty corpus)."""


# ------------------------------------------------------------ rigidity screen


@dataclass(frozen=True)
class DeformationCandidate:
    """A normal abelian subgroup A of order 4^m carrying a G-invariant
    nondegenerate alternating form (b(x, x) = 1 for every x in A): the A of
    an Etingof-Gelaki datum (A, R), R in Lambda^2 A^.
    """

    subgroup: SubgroupSet
    structure: AbelianStructure
    central: bool

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


def _invariant_forms(G: FiniteGroup, struct: AbelianStructure):
    """The G-invariant alternating forms b on A, as exponent matrices E over
    Z/N with b(a_i, a_j) = zeta_N^E[i][j], N the exponent of A (a power of 2).

    The unknowns are the strict upper triangle of E (E[i][i] = 0 and
    E[j][i] = -E[i][j], so b(x, x) = 1), and the forms are the kernel of:
    d_i E[i][j] = 0 (b is bilinear on A) and (C^T E C)[s][t] = E[s][t] for
    s < t and the conjugation matrix C of each generator of G.  Its Howell
    basis yields every form exactly once.
    """
    d = struct.factors
    k, N = len(d), d[-1]
    upper = [(i, j) for i in range(k) for j in range(i + 1, k)]
    rows = [[d[i] * (u == w) for w in range(len(upper))] for u, (i, _) in enumerate(upper)]
    coords = abelian_coordinates(G, struct)
    base = [coords[a] for a in struct.generators]
    for g in G.generators:
        img = [coords[G.conj(g, a)] for a in struct.generators]  # columns of C
        if img == base:  # g centralises A
            continue
        for u, (s, t) in enumerate(upper):
            # (C^T E C)[s][t] - E[s][t], as coefficients of the unknowns
            row = [img[s][i] * img[t][j] - img[s][j] * img[t][i] for i, j in upper]
            row[u] -= 1
            rows.append(row)
    rows = [row for row in rows if any(v % N for v in row)]
    basis = chartab.kernel(rows, len(upper), 2, N.bit_length() - 1)
    multiples = [[[c * v for v in b] for c in range(r)] for b, r in basis]
    zero = [0] * len(upper)
    for terms in itertools.product(*multiples):
        E = [[0] * k for _ in range(k)]
        for (i, j), col in zip(upper, zip(zero, *terms)):
            v = sum(col) % N
            E[i][j], E[j][i] = v, -v % N
        yield E


def _nondegenerate(E, struct: AbelianStructure) -> bool:
    """Whether the form has a trivial radical.  The x over Z/N with E x = 0
    always include those with each x_s divisible by d_s, prod N/d_s of
    them; the radical is trivial iff there are no others."""
    d = struct.factors
    N = d[-1]
    basis = chartab.kernel(E, len(d), 2, N.bit_length() - 1)
    return math.prod(r for _, r in basis) == math.prod(N // ds for ds in d)


def rigidity_screen(G: FiniteGroup) -> RigidityEvidence:
    """Candidate normal abelian subgroups for cocycle deformations.

    Enumerates normal abelian subgroups A of order 4^m (m >= 1) and keeps
    the ones carrying a G-invariant nondegenerate alternating form; none at
    all certifies the group categorically rigid.
    """
    out = []
    for sub in normal_subgroups(G):
        if not sub.abelian:
            continue
        n = sub.order
        if n < 4 or not _is_p_power(n, 4):
            continue
        struct = abelian_invariants(G, sub)
        if any(_nondegenerate(E, struct) for E in _invariant_forms(G, struct)):
            out.append(DeformationCandidate(sub, struct, sub.central))
    return RigidityEvidence(candidates=tuple(out))


# ---------------------------------------------------------- invariant bundles


@dataclass(frozen=True)
class InvariantBundle:
    name: str
    order: int
    profile: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]
    self_dual_count: int
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

    def payload(self) -> dict:
        """The JSON object of ``compare --json``, and of each pair in
        ``screen --json``."""
        return {
            "left": self.left,
            "right": self.right,
            "checks": [[n, ok] for n, ok in self.checks],
            "verdict": self.verdict,
            "witness": self.witness,
            "notes": list(self.notes),
        }

    def check_lines(self) -> list[str]:
        """One ``  check: agree`` or ``  check: DIFFER`` line per check."""
        return [f"  {check}: {'agree' if ok else 'DIFFER'}" for check, ok in self.checks]


def compare_bundles(a: InvariantBundle, b: InvariantBundle) -> PairVerdict:
    """Ordered invariant comparison, then the candidate-subgroup rule."""
    checks = [("order", a.order == b.order)]
    if a.order == b.order:
        checks += [
            ("grothendieck_ring", witt.based_ring_isomorphism(a.k0, b.k0) is not None),
            ("witt_ring",
             witt.based_ring_isomorphism(a.witt_ring.ring, b.witt_ring.ring) is not None),
            ("self_dual_count", a.self_dual_count == b.self_dual_count),
            ("order_profile", a.profile == b.profile),
        ]
    witness = next((name for name, ok in checks if not ok), None)
    notes = []
    if witness is None:
        # candidate-subgroup rule on non-central candidates.  G acts
        # trivially on the dual of a central A, so the Etingof-Gelaki
        # cocycle B_g is 0 and the deformation G_b is G itself: a central
        # candidate deforms nothing.
        la = sorted(c.kind for c in a.evidence.candidates if not c.central)
        lb = sorted(c.kind for c in b.evidence.candidates if not c.central)
        for bundle in (a, b):
            centrals = [c.kind for c in bundle.evidence.candidates if c.central]
            if centrals:
                notes.append(
                    f"{bundle.name}: central candidates {centrals} excluded from matching"
                )
        separated = bool(la or lb) and not any(k in lb for k in la)
        checks.append(("candidate_subgroups", not separated))
        if separated:
            witness = f"candidate-subgroup analysis: {la} vs {lb}"
    return PairVerdict(
        left=a.name, right=b.name, checks=tuple(checks),
        verdict=UNDECIDED if witness is None else NOT_ISOCATEGORICAL,
        witness=witness, notes=tuple(notes),
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


def screen_corpus(
    directory: str, order: int | None = None, max_cosets: int = DEFAULT_MAX_COSETS
) -> Report:
    """Screen every group file in a directory.

    Produces one rigidity line per group (rigid when the deformation screen
    finds no candidate subgroup at all) and a pairwise verdict for every
    same-order pair.  Files that fail to parse or to realise within
    ``max_cosets`` cosets are reported and skipped.  Output ordering is
    deterministic: (order, name).
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
            G = realize(parsed, max_cosets=max_cosets)
            if order is None or G.order == order:
                label = parsed.name or os.path.splitext(fname)[0]
                bundles.append(invariant_bundle(G, name=label))
        except Exception as exc:  # noqa: BLE001 - reported per file, screening continues
            errors.append((fname, str(exc)))
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
        "pairs": [p.payload() for p in report.pairs],
        "errors": [[f, m] for f, m in report.errors],
        "summary": report.summary,
    }
    return json.dumps(payload, indent=2) + "\n"
