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
import itertools
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
    order_profile,
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
    """The group of a file, named by the file when it names itself nothing,
    and the names of its generators."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise OSError(f"{path}: {exc}") from exc
    parsed = parse_group_file(text, filename=path)
    G = realize(parsed, max_cosets=max_cosets)
    if not G.name:
        name = os.path.splitext(os.path.basename(path))[0]
        G = FiniteGroup(G.cayley, G.inverse, G.generators, name)
    if isinstance(parsed, Presentation):
        return G, parsed.generator_names
    return G, tuple(f"g{i + 1}" for i in range(len(parsed.generators)))


def _emit(args, payload: dict, lines: list[str]) -> int:
    """Print ``payload`` as JSON under ``--json``, else ``lines`` as text."""
    text = json.dumps(payload, indent=2) if args.json else "\n".join(lines)
    sys.stdout.write(text + "\n")
    return EXIT_OK


def cmd_parse(args) -> int:
    G, _ = _load(args.file, args.max_cosets)
    format_group_dump(G, sys.stdout)
    return EXIT_OK


def cmd_chartab(args) -> int:
    G, _ = _load(args.file, args.max_cosets)
    t = chartab.burnside_dixon(G)
    # the --modp text is the one output that prints no cyclotomic value
    cyclo = [] if args.modp and not args.json else chartab.lift_to_cyclotomic(t).cyclo
    dual = chartab.dual_involution(t)
    fs = chartab.fs_vector(t)
    cc = t.classes
    payload = {
        "name": G.name,
        "order": G.order,
        "prime": t.p,
        "degrees": list(t.degrees),
        "classes": [
            {"rep": r, "size": s, "order": o}
            for r, s, o in zip(cc.reps, cc.sizes, cc.rep_orders)
        ],
        "values_modp": [list(row) for row in t.values],
        "values": [[str(v) for v in row] for row in cyclo],
        "fs_indicators": list(fs),
        "dual_involution": list(dual),
    }
    lines = [
        f"group {G.name}: order {G.order}, {t.nclasses} classes, prime {t.p}",
        "classes: "
        + " ".join(f"{k}:|{s}|o{o}" for k, (s, o) in enumerate(zip(cc.sizes, cc.rep_orders))),
        f"degrees: {' '.join(str(d) for d in t.degrees)}",
        *(
            f"chi{i + 1}: " + " ".join(str(v) for v in row)
            for i, row in enumerate(t.values if args.modp else cyclo)
        ),
        "fs: " + " ".join(f"{v:+d}" for v in fs),
        "dual: " + " ".join(str(d + 1) for d in dual),
    ]
    return _emit(args, payload, lines)


def cmd_witt(args) -> int:
    G, gen_names = _load(args.file, args.max_cosets)
    t = chartab.burnside_dixon(G)
    u = evaluate_word(G, gen_names, args.u) if args.u else None
    fd = witt.fusion_data_from_table(t, u=u)
    wr = witt.witt_ring(fd)
    payload = {
        "name": G.name,
        "order": G.order,
        "twist": args.u or None,
        "basis": [
            {"label": fd.labels[b], "degree": t.degrees[b], "scalar": str(fd.scalars[b])}
            for b in wr.basis
        ],
        "rank": wr.rank,
        "group_only": wr.group_only,
        "constants_mod2": None
        if wr.group_only
        else [[list(row) for row in plane] for plane in wr.ring.constants],
    }
    lines = [f"group {G.name}: Witt basis rank {wr.rank}"]
    for b in wr.basis:
        lines.append(f"  {fd.labels[b]} (degree {t.degrees[b]}, scalar {fd.scalars[b]})")
    if not wr.group_only:
        lines.append("structure constants mod 2 (x*y rows):")
        ring = wr.ring
        for i, j in itertools.combinations_with_replacement(range(ring.rank), 2):
            terms = [ring.labels[k] for k, c in enumerate(ring.constants[i][j]) if c]
            lines.append(
                f"  {ring.labels[i]} * {ring.labels[j]} = " + (" + ".join(terms) or "0")
            )
    return _emit(args, payload, lines)


def cmd_double(args) -> int:
    G, _ = _load(args.file, args.max_cosets)
    if not G.is_abelian():
        raise GroupError(
            "the symmetric-form analysis of doubles of nonabelian groups is out of scope; "
            "this command accepts abelian groups only"
        )
    struct = abelian_invariants(G, range(G.order))
    res = witt.double_abelian_witt(struct)
    payload = {
        "name": G.name,
        "order": G.order,
        "factors": list(struct.factors),
        "rank": res.rank,
        "group_only": True,
        "pairs": [{"element": list(g), "character": list(chi)} for g, chi in res.pairs],
    }
    lines = [
        f"group {G.name}: abelian type {'x'.join(str(d) for d in struct.factors) or '1'}",
        f"double Witt rank {res.rank} (additive group only; braiding not symmetric)",
        "pairs (element; character), exponent coordinates:",
        *(f"  ({list(g)}; {list(chi)})" for g, chi in res.pairs),
    ]
    return _emit(args, payload, lines)


def cmd_compare(args) -> int:
    G, _ = _load(args.file1, args.max_cosets)
    H, _ = _load(args.file2, args.max_cosets)
    verdict = screen.compare_pair(G, H)
    lines = [
        f"{verdict.left} vs {verdict.right}:",
        *verdict.check_lines(),
        *(f"  note: {note}" for note in verdict.notes),
        f"verdict: {verdict.verdict}" + (f" ({verdict.witness})" if verdict.witness else ""),
    ]
    return _emit(args, verdict.payload(), lines)


def cmd_screen(args) -> int:
    report = screen.screen_corpus(args.dir, order=args.order, max_cosets=args.max_cosets)
    sys.stdout.write(screen.report_json(report) if args.json else screen.render_report(report))
    return EXIT_OK


def cmd_ik(args) -> int:
    G, _, Gb = deform.izumi_kosaki()
    verdict = screen.compare_pair(G, Gb)
    iso = are_isomorphic(G, Gb) is not None
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        for grp, fname in ((G, "g64.dump"), (Gb, "g64_b.dump")):
            with open(os.path.join(args.emit, fname), "w", encoding="utf-8") as fh:
                format_group_dump(grp, fh)
    payload = {
        "orders": [G.order, Gb.order],
        "isomorphic": iso,
        "checks": verdict.payload()["checks"],
        "verdict": verdict.verdict,
        "profile": [list(p) for p in sorted(order_profile(G).items())],
    }
    lines = [
        f"orders: {G.order} and {Gb.order}",
        f"isomorphic: {iso}",
        *verdict.check_lines(),
        f"verdict: {verdict.verdict}",
        *([f"wrote dumps to {args.emit}"] if args.emit else []),
    ]
    return _emit(args, payload, lines)


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
