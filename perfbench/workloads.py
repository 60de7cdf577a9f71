"""The four benchmark workloads, their seeded inputs and their oracles.

Each workload is built from ``(program, seed, size, workdir)``; building it
writes or generates the inputs (set-up).  ``run(rec)`` performs one pass:
every call into the program happens inside ``rec.op(op_id)`` (timed and, in
a traced run, the parent of the program's spans), and every answer goes
through ``rec.expect`` outside the timed region.  ``expected_ops`` is the
number of answers a pass checks, so that an exception that ends a pass
early still counts every unchecked answer as failed.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import importlib.util
import io
import json
import random
import sys
from collections import Counter
from pathlib import Path

import inputs
from tracer import rebind

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected"
MODULES = ("presentations", "groups", "chartab", "witt", "deform", "screen", "cli")


class MissingProgram(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


class Program:
    """Freshly imported modules of the checkout's ``src/wittlab`` and the
    order-32 survey script."""

    def __init__(self):
        src = ROOT / "src"
        script = ROOT / "scripts" / "survey_order32.py"
        if not (src / "wittlab" / "__init__.py").is_file() or not script.is_file():
            raise MissingProgram(f"no src/wittlab package or survey script under {ROOT}")
        for name in [m for m in sys.modules if m == "wittlab" or m.startswith("wittlab.")]:
            del sys.modules[name]
        sys.modules.pop("survey_order32", None)
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        self.mods = {m: importlib.import_module(f"wittlab.{m}") for m in MODULES}
        spec = importlib.util.spec_from_file_location("survey_order32", script)
        self.survey = importlib.util.module_from_spec(spec)
        sys.modules["survey_order32"] = self.survey
        spec.loader.exec_module(self.survey)

    def __getattr__(self, name):
        try:
            return self.__dict__["mods"][name]
        except KeyError:
            raise AttributeError(name) from None

    def traced_modules(self) -> dict:
        return {**self.mods, "survey_order32": self.survey}

    def namespaces(self) -> list:
        """Every module whose globals may hold a reference to a traced function."""
        mods = [m for n, m in sys.modules.items() if n == "wittlab" or n.startswith("wittlab.")]
        return mods + [self.survey]


def call_cli(prog: Program, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = prog.cli.main(list(argv))
    return rc, buf.getvalue()


def _first_failing(checks):
    return next((name for name, ok in checks if not ok), None)


def _pair_key(a: str, b: str) -> str:
    return " vs ".join(sorted((a, b)))


# ------------------------------------------------------------ corpus_screen


class CorpusScreen:
    """``wittlab screen DIR --json`` on the bundled corpus, rewritten by seed."""

    def __init__(self, prog, seed, size, workdir):
        self.prog = prog
        exp = json.loads((EXPECTED / "corpus_screen.json").read_text())
        files = sorted(exp["files"].items())
        if size == "min":
            files = [(f, n) for f, n in files if exp["groups"][n]["order"] == 8]
        names = {n for _, n in files}
        self.groups = {n: g for n, g in exp["groups"].items() if n in names}
        self.pairs = {
            k: v for k, v in exp["pairs"].items() if set(k.split(" vs ")) <= names
        }
        self.dir = Path(workdir) / "corpus"
        self.dir.mkdir(parents=True)
        for fname, _ in files:
            text = (ROOT / "corpus" / fname).read_text(encoding="utf-8")
            (self.dir / fname).write_text(inputs.rewrite(text, seed, fname), encoding="utf-8")
        self.expected_ops = len(self.groups) + len(self.pairs)

    def run(self, rec):
        with rec.op("screen"):
            rc, out = call_cli(self.prog, ["screen", str(self.dir), "--json"])
        report = json.loads(out) if rc == 0 else {"groups": [], "pairs": []}
        got = {
            e["name"]: {
                "order": e["order"],
                "classes": e["classes"],
                "witt_rank": e["witt_rank"],
                "rigid": e["rigid_by_screen"],
                "candidates": sorted([c["type"], c["central"]] for c in e["candidates"]),
            }
            for e in report["groups"]
        }
        for name, want in sorted(self.groups.items()):
            rec.expect(f"group {name}", got.get(name), want)
        pairs = {
            _pair_key(p["left"], p["right"]): {
                "verdict": p["verdict"],
                "first_failing": _first_failing(p["checks"]),
            }
            for p in report["pairs"]
        }
        for key, want in sorted(self.pairs.items()):
            rec.expect(f"pair {key}", pairs.get(key), want)


# ----------------------------------------------------------------- survey32


def _relabel(groups_mod, G, rng):
    """G with its elements renumbered by a random bijection fixing 0."""
    n = G.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = perm[G.cayley[x][y]]
    return groups_mod.make_group(rows)


class Survey32:
    """The computation of ``scripts/survey_order32.py``: iterated central
    extensions of the five groups of order 8, classification, a character
    table and Witt ring per class, and ring isomorphism tests on the pairs
    that agree in class count, self-dual count and order profile."""

    def __init__(self, prog, seed, size, workdir):
        self.prog = prog
        g, pres = prog.groups, prog.presentations
        q8 = pres.coset_enumeration(
            pres.parse_group_file("gens a b; rel a^4; rel b^2 a^-2; rel b^-1 a b a;")
        )
        d8 = g.semidirect_product(
            g.cyclic(4), g.cyclic(2), [tuple(range(4)), tuple((-i) % 4 for i in range(4))]
        )
        base = [g.abelian_group([8]), g.abelian_group([4, 2]), g.abelian_group([2, 2, 2]), d8, q8]
        if seed:
            rng = random.Random(f"{seed}/survey32")
            base = [_relabel(g, G, rng) for G in base]
        self.base = base
        self.orders = [16] if size == "min" else [16, 32]
        exp = json.loads((EXPECTED / "survey32.json").read_text())[str(self.orders[-1])]
        self.want_counts = exp["counts"]
        self.want_classes = Counter(json.dumps(c) for c in exp["classes"])
        self.want_pairs = Counter(json.dumps(p) for p in exp["pairs"])
        self.expected_ops = (
            len(self.want_counts) + sum(self.want_classes.values()) + sum(self.want_pairs.values())
        )

    def run(self, rec):
        s, chartab, witt, groups = self.prog.survey, self.prog.chartab, self.prog.witt, self.prog.groups
        classes_left, pairs_left = Counter(self.want_classes), Counter(self.want_pairs)
        reps = self.base
        for order in self.orders:
            with rec.op(f"classify {order}"):
                exts = [E for H in reps for E in s.central_extensions(H)]
                reps = s.classify(exts)
            rec.expect(f"classes of order {order}", len(reps), self.want_counts[str(order)])
        stats = []
        for i, G in enumerate(reps):
            with rec.op(f"class {i}"):
                T = chartab.burnside_dixon(G)
                wr = witt.witt_ring(witt.fusion_data_from_table(T))
                key = [T.nclasses, chartab.self_dual_count(T),
                       sorted(groups.order_profile(G).items())]
            stats.append((json.dumps(key), T, wr))
            rec.expect_member(f"class {i}", json.dumps(key + [wr.rank]), classes_left)
        buckets: dict[str, list] = {}
        for st in stats:
            buckets.setdefault(st[0], []).append(st)
        for key, members in sorted(buckets.items()):
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    (_, Ta, wa), (_, Tb, wb) = members[a], members[b]
                    with rec.op(f"pair {key}"):
                        k0 = witt.based_ring_isomorphism(
                            witt.grothendieck_ring(Ta), witt.grothendieck_ring(Tb)
                        )
                        wiso = witt.based_ring_isomorphism(wa.ring, wb.ring)
                    answer = json.dumps([json.loads(key), k0 is not None, wiso is not None])
                    rec.expect_member(f"pair {key}", answer, pairs_left)


# ------------------------------------------------------------------- ladder

# name -> (group file, order, classes, normal subgroups, candidates).  Orders,
# class counts and normal-subgroup counts are known in closed form: 374
# subspaces of F_2^5, 37 subgroups of Z8 x Z8, tau(n) + 3 for the dihedral
# group of order 2n with n even, {1, A_n, S_n}.  Candidate counts are the
# screen's answers at the commit that introduced this benchmark (for
# (Z2)^k: its subgroups of order 4 and 16).
LADDER = {
    "z2x2x2x2x2": (inputs.abelian_text("z2x2x2x2x2", [2] * 5), 32, 32, 374, 186),
    "z8x8": (inputs.abelian_text("z8x8", [8, 8]), 64, 64, 37, 3),
    "dih128": (inputs.dihedral_text("dih128", 256), 256, 67, 11, 0),
    "s6": (inputs.symmetric_text("s6", 6), 720, 11, 3, 0),
}
LADDER_MIN = {
    "z2x2x2": (inputs.abelian_text("z2x2x2", [2] * 3), 8, 8, 16, 7),
    "dih8": (inputs.dihedral_text("dih8", 16), 16, 7, 7, 0),
    "s3": (inputs.symmetric_text("s3", 3), 6, 3, 3, 0),
}


class Ladder:
    """``screen.invariant_bundle`` on groups beyond the corpus, plus the
    order-64 deformation pair (``ik``)."""

    def __init__(self, prog, seed, size, workdir):
        self.prog = prog
        table = LADDER_MIN if size == "min" else LADDER
        self.members = []
        for name, (text, order, classes, nsub, cand) in table.items():
            self.members.append((name, inputs.rewrite(text, seed, name), [order, classes, nsub, cand]))
        self.expected_ops = len(self.members) + 1
        # The screen lists the normal subgroups internally; observe how many.
        self.found: list[int] = []
        original = prog.groups.normal_subgroups

        @functools.wraps(original)
        def observed(G):
            result = original(G)
            self.found.append(len(result))
            return result

        rebind(prog.namespaces(), original, observed)

    def run(self, rec):
        pres, screen, groups, deform = (
            self.prog.presentations, self.prog.screen, self.prog.groups, self.prog.deform
        )
        for name, text, want in self.members:
            self.found.clear()
            with rec.op(name):
                G = pres.realize(pres.parse_group_file(text, filename=name))
                b = screen.invariant_bundle(G, name=name)
            nsub = self.found[-1] if self.found else len(groups.normal_subgroups(G))
            rec.expect(name, [G.order, len(b.degrees), nsub, len(b.evidence.candidates)], want)
        with rec.op("ik"):
            G, _, Gb = deform.izumi_kosaki()
            verdict = screen.compare_pair(G, Gb)
            iso = groups.are_isomorphic(G, Gb)
        rec.expect("ik", [G.order, Gb.order, verdict.verdict, iso is None],
                   [64, 64, "undecided", True])


# ------------------------------------------------------------------ realize

# name -> (group file, order, classes); class counts in closed form: 11
# partitions of 6, m + 3 for the dicyclic group of order 4m, (n + 6) / 2
# for the dihedral group of order 2n with n even.
REALIZE = {
    "s6_coxeter.grp": (inputs.coxeter_a_text("s6_coxeter", 5), 720, 11),
    "s6_perm.grp": (inputs.symmetric_text("s6_perm", 6), 720, 11),
    "dic1024.grp": (inputs.dicyclic_text("dic1024", 1024), 1024, 259),
    "dih2048.grp": (inputs.dihedral_text("dih2048", 2048), 2048, 515),
}
REALIZE_MIN = {
    "s4_coxeter.grp": (inputs.coxeter_a_text("s4_coxeter", 3), 24, 5),
    "q16.grp": (inputs.dicyclic_text("q16", 16), 16, 7),
}


def dump_invariants(dump: str) -> list[int]:
    """Order and class count of a canonical Cayley-table dump.

    Classes are the orbits of conjugation by the dumped generators, which
    generate the group, so this reads the answer without the program."""
    rows, gens = [], []
    for line in dump.splitlines():
        head, _, rest = line.partition(" ")
        if head == "row":
            # compact rows, so the check adds little to peak memory
            rows.append(array.array("H", map(int, rest.split())))
        elif head == "gens":
            gens = list(map(int, rest.split()))
    n = len(rows)
    inv = [row.index(0) for row in rows]
    seen = [False] * n
    classes = 0
    for x in range(n):
        if seen[x]:
            continue
        classes += 1
        seen[x] = True
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = rows[rows[g][y]][inv[g]]
                if not seen[z]:
                    seen[z] = True
                    frontier.append(z)
    return [n, classes]


class Realize:
    """``wittlab parse FILE`` on generated files: coset enumeration,
    permutation closure, table validation and the canonical dump."""

    def __init__(self, prog, seed, size, workdir):
        self.prog = prog
        self.files = []
        for fname, (text, order, classes) in (REALIZE_MIN if size == "min" else REALIZE).items():
            path = Path(workdir) / fname
            path.write_text(inputs.rewrite(text, seed, fname), encoding="utf-8")
            self.files.append((fname, path, [order, classes]))
        self.expected_ops = len(self.files)

    def run(self, rec):
        for fname, path, want in self.files:
            with rec.op(fname):
                rc, out = call_cli(self.prog, ["parse", str(path)])
            rec.expect(fname, dump_invariants(out) if rc == 0 else [rc], want)


WORKLOADS = {
    "corpus_screen": CorpusScreen,
    "survey32": Survey32,
    "ladder": Ladder,
    "realize": Realize,
}
