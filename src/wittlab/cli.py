"""Command-line interface.

Subcommands::

    wittlab parse FILE                     canonical Cayley-table dump
    wittlab chartab FILE [--modp] [--json] character table, indicators, duals
    wittlab witt FILE [--u WORD] [--json]  Witt basis and structure constants
    wittlab double FILE [--json]           abelian double pairs and rank
    wittlab compare FILE1 FILE2 [--json]   pairwise verdict
    wittlab screen DIR [--order N] [--json] corpus screening report
    wittlab ik [--emit DIR] [--json]       the order-64 deformation pair

Exit codes: 0 success, 1 usage error, 2 parse error or a file that cannot be
read (missing, a directory, not UTF-8) or written, 3 computation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import chartab, deform, screen, witt
from .groups import (
    FiniteGroup,
    GroupError,
    abelian_invariants,
    are_isomorphic,
    format_group_dump,
)
from .presentations import (
    DEFAULT_MAX_COSETS,
    EnumerationError,
    ParseError,
    Presentation,
    evaluate_word,
    parse_group_file,
    realize,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_COMPUTE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage errors, not argparse's 2
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="wittlab", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS,
        help="coset table bound for presentations",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("parse", help="realise a group file and dump its table")
    p.add_argument("file")

    p = sub.add_parser("chartab", help="irreducible character table")
    p.add_argument("file")
    p.add_argument("--modp", action="store_true", help="print raw residues")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("witt", help="Witt ring of the representation category")
    p.add_argument("file")
    p.add_argument("--u", metavar="WORD", help="central involution twisting the braiding")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("double", help="Witt data of the double of an abelian group")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("compare", help="pairwise isocategoricity verdict")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("screen", help="screen a corpus directory")
    p.add_argument("dir")
    p.add_argument("--order", type=_positive_int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ik", help="construct the order-64 deformation pair")
    p.add_argument("--emit", metavar="DIR", help="write both groups as dumps")
    p.add_argument("--json", action="store_true")
    return parser


def _load(path: str, max_cosets: int):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise OSError(f"{path}: {exc}") from exc
    parsed = parse_group_file(text, filename=path)
    G = realize(parsed, max_cosets=max_cosets)
    if isinstance(parsed, Presentation):
        gen_names = parsed.generator_names
    else:
        gen_names = tuple(f"g{i + 1}" for i in range(len(parsed.generators)))
    name = parsed.name or os.path.splitext(os.path.basename(path))[0]
    return G, gen_names, name


def cmd_parse(args) -> int:
    G, _, name = _load(args.file, args.max_cosets)
    if not G.name and name:
        G = FiniteGroup(G.cayley, G.inverse, G.generators, name)
    format_group_dump(G, sys.stdout)
    return EXIT_OK


def cmd_chartab(args) -> int:
    G, _, name = _load(args.file, args.max_cosets)
    t = chartab.burnside_dixon(G)
    dual = chartab.dual_involution(t)
    fs = chartab.fs_vector(t)
    cc = t.classes
    if args.json:
        lifted = chartab.lift_to_cyclotomic(t)
        payload = {
            "name": name,
            "order": G.order,
            "prime": t.p,
            "degrees": list(t.degrees),
            "classes": [
                {"rep": r, "size": s, "order": o}
                for r, s, o in zip(cc.reps, cc.sizes, cc.rep_orders)
            ],
            "values_modp": [list(row) for row in t.values],
            "values": [[str(v) for v in row] for row in lifted.cyclo],
            "fs_indicators": list(fs),
            "dual_involution": list(dual),
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    out = [f"group {name}: order {G.order}, {t.nclasses} classes, prime {t.p}"]
    out.append(
        "classes: "
        + " ".join(f"{k}:|{s}|o{o}" for k, (s, o) in enumerate(zip(cc.sizes, cc.rep_orders)))
    )
    out.append(f"degrees: {' '.join(str(d) for d in t.degrees)}")
    if args.modp:
        for i, row in enumerate(t.values):
            out.append(f"chi{i + 1}: " + " ".join(str(v) for v in row))
    else:
        lifted = chartab.lift_to_cyclotomic(t)
        for i, row in enumerate(lifted.cyclo):
            out.append(f"chi{i + 1}: " + " ".join(str(v) for v in row))
    out.append("fs: " + " ".join(f"{v:+d}" for v in fs))
    out.append("dual: " + " ".join(str(d + 1) for d in dual))
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def cmd_witt(args) -> int:
    G, gen_names, name = _load(args.file, args.max_cosets)
    t = chartab.burnside_dixon(G)
    u = None
    if args.u:
        u = evaluate_word(G, gen_names, args.u)
    fd = witt.fusion_data_from_table(t, u=u)
    wr = witt.witt_ring(fd)
    if args.json:
        payload = {
            "name": name,
            "order": G.order,
            "twist": args.u or None,
            "basis": [
                {
                    "label": fd.labels[b],
                    "degree": t.degrees[b],
                    "scalar": str(fd.scalars[b]),
                }
                for b in wr.basis
            ],
            "rank": wr.rank,
            "group_only": wr.group_only,
            "constants_mod2": None
            if wr.group_only
            else [[list(row) for row in plane] for plane in wr.ring.constants],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    out = [f"group {name}: Witt basis rank {wr.rank}"]
    for b in wr.basis:
        out.append(f"  {fd.labels[b]} (degree {t.degrees[b]}, scalar {fd.scalars[b]})")
    if not wr.group_only:
        out.append("structure constants mod 2 (x*y rows):")
        r = wr.ring.rank
        for i in range(r):
            for j in range(i, r):
                terms = [
                    wr.ring.labels[k]
                    for k in range(r)
                    if wr.ring.constants[i][j][k]
                ]
                out.append(
                    f"  {wr.ring.labels[i]} * {wr.ring.labels[j]} = "
                    + (" + ".join(terms) if terms else "0")
                )
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def cmd_double(args) -> int:
    G, _, name = _load(args.file, args.max_cosets)
    if not G.is_abelian():
        raise GroupError(
            "the symmetric-form analysis of doubles of nonabelian groups is out of scope; "
            "this command accepts abelian groups only"
        )
    struct = abelian_invariants(G, range(G.order))
    res = witt.double_abelian_witt(struct)
    if args.json:
        payload = {
            "name": name,
            "order": G.order,
            "factors": list(struct.factors),
            "rank": res.rank,
            "group_only": True,
            "pairs": [
                {"element": list(g), "character": list(chi)} for g, chi in res.pairs
            ],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    out = [
        f"group {name}: abelian type {'x'.join(str(d) for d in struct.factors) or '1'}",
        f"double Witt rank {res.rank} (additive group only; braiding not symmetric)",
        "pairs (element; character), exponent coordinates:",
    ]
    for g, chi in res.pairs:
        out.append(f"  ({list(g)}; {list(chi)})")
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def cmd_compare(args) -> int:
    G, _, name1 = _load(args.file1, args.max_cosets)
    H, _, name2 = _load(args.file2, args.max_cosets)
    a = screen.invariant_bundle(G, name=name1)
    b = screen.invariant_bundle(H, name=name2)
    verdict = screen.compare_bundles(a, b)
    if args.json:
        sys.stdout.write(json.dumps(verdict.payload(), indent=2) + "\n")
        return EXIT_OK
    out = [f"{verdict.left} vs {verdict.right}:", *verdict.check_lines()]
    for note in verdict.notes:
        out.append(f"  note: {note}")
    out.append(f"verdict: {verdict.verdict}" + (f" ({verdict.witness})" if verdict.witness else ""))
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def cmd_screen(args) -> int:
    report = screen.screen_corpus(
        args.dir, order=args.order, max_cosets=args.max_cosets
    )
    if args.json:
        sys.stdout.write(screen.report_json(report))
    else:
        sys.stdout.write(screen.render_report(report))
    return EXIT_OK


def cmd_ik(args) -> int:
    G, cocycle, Gb = deform.izumi_kosaki()
    a = screen.invariant_bundle(G, name="g64")
    b = screen.invariant_bundle(Gb, name="g64_b")
    verdict = screen.compare_bundles(a, b)
    iso = are_isomorphic(G, Gb)
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        for grp, fname in ((G, "g64.dump"), (Gb, "g64_b.dump")):
            with open(os.path.join(args.emit, fname), "w", encoding="utf-8") as fh:
                format_group_dump(grp, fh)
    if args.json:
        payload = {
            "orders": [G.order, Gb.order],
            "isomorphic": iso is not None,
            "checks": [[n, ok] for n, ok in verdict.checks],
            "verdict": verdict.verdict,
            "profile": [list(p) for p in a.profile],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    out = [
        f"orders: {G.order} and {Gb.order}",
        f"isomorphic: {iso is not None}",
        *verdict.check_lines(),
    ]
    out.append(f"verdict: {verdict.verdict}")
    if args.emit:
        out.append(f"wrote dumps to {args.emit}")
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


_COMMANDS = {
    "parse": cmd_parse,
    "chartab": cmd_chartab,
    "witt": cmd_witt,
    "double": cmd_double,
    "compare": cmd_compare,
    "screen": cmd_screen,
    "ik": cmd_ik,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    if not args.command:
        sys.stderr.write("usage error: a subcommand is required\n")
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except OSError as exc:
        sys.stderr.write(f"file error: {exc}\n")
        return EXIT_PARSE
    except (EnumerationError, GroupError, screen.ScreenError, witt.FusionError,
            chartab.TableError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_COMPUTE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
