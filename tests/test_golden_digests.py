"""Byte-stability of the per-file CLI output on the bundled corpus.

``golden/cli_corpus.sha256.json`` holds, for every corpus file, the SHA-256
of the stdout of ``wittlab parse`` and of ``wittlab chartab`` and
``wittlab witt`` in every output form (text, ``--modp``, ``--json``), and,
where they exit 0, of ``wittlab witt --u a^2`` with and without ``--json``
and of ``wittlab double`` (the abelian files).  ``golden/ik.sha256.json`` holds the SHA-256 of
the stdout of ``wittlab ik`` and ``wittlab ik --json`` and of both dumps that
``wittlab ik --emit DIR`` writes (the ``gens`` line of ``g64_b.dump`` comes
from ``minimal_generating_sequence``).  ``golden/double.sha256.json`` holds,
for every abelian corpus file, the SHA-256 of the stdout of
``wittlab double --json``.  ``golden/parse_beyond_corpus.sha256.json``
holds the SHA-256 of the stdout of ``wittlab parse`` on the inputs of
``BEYOND_CORPUS``, which reach coset coincidences, lookahead passes and the
permutation closure at orders the corpus does not.
``golden/chartab_beyond_corpus.sha256.json`` holds the SHA-256 of the
stdout of ``wittlab chartab --json`` and ``wittlab witt --json`` on the
inputs of ``TABLES_BEYOND_CORPUS``: up to 67 classes, where the corpus has
at most 25, with non-self-dual nonlinear characters in F21 and Heis27.
``golden/compare.sha256.json`` holds the SHA-256 of the stdout of
``wittlab compare`` with and without ``--json`` on the corpus pairs of
``COMPARE_PAIRS``, one per verdict and witness kind.
``golden/screen_corpus.{txt,json}``
hold the stdout of ``wittlab screen corpus`` without and with ``--json``;
they are compared byte for byte in ``test_cli.py``.  A deliberate output
change is a schema change: regenerate every CLI golden with
``PYTHONPATH=src python tests/test_golden_digests.py`` and record the change
in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "..", "corpus")
GOLDEN = os.path.join(HERE, "golden")
DIGESTS = os.path.join(GOLDEN, "cli_corpus.sha256.json")
IK_DIGESTS = os.path.join(GOLDEN, "ik.sha256.json")
IK_DUMPS = ("g64.dump", "g64_b.dump")
DOUBLE_DIGESTS = os.path.join(GOLDEN, "double.sha256.json")
BEYOND_DIGESTS = os.path.join(GOLDEN, "parse_beyond_corpus.sha256.json")
TABLES_DIGESTS = os.path.join(GOLDEN, "chartab_beyond_corpus.sha256.json")
COMPARE_DIGESTS = os.path.join(GOLDEN, "compare.sha256.json")
COMMANDS = (
    ("parse",),
    ("chartab", "--json"),
    ("witt", "--json"),
    ("chartab",),
    ("chartab", "--modp"),
    ("witt",),
)
# run on every corpus file, pinned where they exit 0: the twist needs a
# generator a whose square is a central involution or 1, the double an
# abelian group
COMMANDS_WHERE_DEFINED = (("witt", "--u", "a^2"), ("witt", "--u", "a^2", "--json"), ("double",))
SCREENS = (("screen_corpus.txt", ()), ("screen_corpus.json", ("--json",)))

S5_COXETER = """gens a b c d;
rel a^2; rel b^2; rel c^2; rel d^2;
rel a b a b a b; rel b c b c b c; rel c d c d c d;
rel a c a c; rel a d a d; rel b d b d;
"""
S6_COXETER = """group "s6_coxeter" presentation {
  gens a b c d e;
  rel a^2; rel b^2; rel c^2; rel d^2; rel e^2;
  rel a b a b a b; rel b c b c b c; rel c d c d c d; rel d e d e d e;
  rel a c a c; rel a d a d; rel a e a e; rel b d b d; rel b e b e; rel c e c e;
}
"""
# file name: (file text, options before the command); tight coset bounds
# force coincidences and lookahead passes
BEYOND_CORPUS = {
    "s5_coxeter.grp": (S5_COXETER, ("--max-cosets", "135")),
    "a5.grp": ("gens a b; rel a^2; rel b^3; rel a b a b a b a b a b;\n", ("--max-cosets", "67")),
    "s6_coxeter.grp": (S6_COXETER, ()),
    "dic64.grp": (
        'group "dic64" presentation { gens a b; rel a^32; rel b^2 = a^16; rel b^-1 a b a; }\n',
        (),
    ),
    "s6_perm.grp": ('group "s6" permutations degree 6 { gen (1 2); gen (1 2 3 4 5 6); }\n', ()),
    "dic1024.grp": (
        'group "dic1024" presentation { gens a b; rel a^512; rel b^2 = a^256; rel b^-1 a b a; }\n',
        (),
    ),
    "dih2048.grp": (
        'group "dih2048" presentation { gens a b; rel a^1024; rel b^2; rel b^-1 a b a; }\n',
        (),
    ),
}

Z2_5 = """group "z2x2x2x2x2" presentation {
  gens a b c d e;
  rel a^2; rel b^2; rel c^2; rel d^2; rel e^2;
  rel a^-1 b^-1 a b; rel a^-1 c^-1 a c; rel a^-1 d^-1 a d; rel a^-1 e^-1 a e;
  rel b^-1 c^-1 b c; rel b^-1 d^-1 b d; rel b^-1 e^-1 b e;
  rel c^-1 d^-1 c d; rel c^-1 e^-1 c e; rel d^-1 e^-1 d e;
}
"""
# file name: file text; the dihedral group has order 256 and 67 classes
TABLES_BEYOND_CORPUS = {
    "z2x2x2x2x2.grp": Z2_5,
    "z8x8.grp": 'group "z8x8" presentation { gens a b; rel a^8; rel b^8; rel a^-1 b^-1 a b; }\n',
    "dih256.grp": 'group "dih256" presentation { gens a b; rel a^128; rel b^2; rel b^-1 a b a; }\n',
    "s6.grp": BEYOND_CORPUS["s6_perm.grp"][0],
    "f21.grp": 'group "f21" presentation { gens a b; rel a^7; rel b^3; rel b^-1 a b = a^2; }\n',
    "heis27.grp": (
        'group "heis27" presentation { gens a b c; rel a^3; rel b^3; rel c^3;'
        " rel a^-1 b^-1 a b = c; rel a^-1 c^-1 a c; rel b^-1 c^-1 b c; }\n"
    ),
}
TABLE_COMMANDS = (("chartab", "--json"), ("witt", "--json"))
# corpus pairs: a different order, each separating check, the
# candidate-subgroup rule and the undecided order-64 pair
COMPARE_PAIRS = (
    ("z8", "z3x3"),
    ("d8", "q8"),
    ("z4x2", "d8"),
    ("smallgroup_32_6", "smallgroup_32_7"),
    ("smallgroup_32_27", "smallgroup_32_34"),
    ("g64", "g64_b"),
)


def corpus_files():
    return sorted(f for f in os.listdir(CORPUS) if f.endswith(".grp"))


def cli_run(argv):
    """The exit code and stdout of one CLI run."""
    from wittlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_stdout(argv):
    """The stdout of one CLI run, which must exit 0."""
    code, out = cli_run(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}"
    return out


def cli_digests(fname):
    """{command: sha256 of stdout} for one corpus file."""
    path = os.path.join(CORPUS, fname)
    out = {}
    for cmd in COMMANDS:
        out[" ".join(cmd)] = sha256(cli_stdout([cmd[0], path, *cmd[1:]]))
    for cmd in COMMANDS_WHERE_DEFINED:
        code, text = cli_run([cmd[0], path, *cmd[1:]])
        if code == 0:
            out[" ".join(cmd)] = sha256(text)
    return out


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ik_digests(emit_dir):
    """{output: sha256} for ``wittlab ik --json`` and the two emitted dumps."""
    out = {"ik": sha256(cli_stdout(["ik"])), "ik --json": sha256(cli_stdout(["ik", "--json"]))}
    cli_stdout(["ik", "--emit", emit_dir])
    for fname in IK_DUMPS:
        with open(os.path.join(emit_dir, fname), encoding="utf-8", newline="") as fh:
            out[f"ik --emit {fname}"] = sha256(fh.read())
    return out


def double_digests():
    """{abelian corpus file: sha256 of ``wittlab double --json``}."""
    from wittlab import presentations as pres

    out = {}
    for fname in corpus_files():
        path = os.path.join(CORPUS, fname)
        with open(path, encoding="utf-8") as fh:
            G = pres.realize(pres.parse_group_file(fh.read(), filename=fname))
        if G.is_abelian():
            out[fname] = sha256(cli_stdout(["double", path, "--json"]))
    return out


def beyond_corpus_digests(work_dir):
    """{options and command: sha256 of ``wittlab parse``} on ``BEYOND_CORPUS``."""
    out = {}
    for fname, (text, options) in BEYOND_CORPUS.items():
        target = os.path.join(work_dir, fname)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        out[" ".join([*options, "parse", fname])] = sha256(
            cli_stdout([*options, "parse", target])
        )
    return out


def tables_beyond_corpus_digests(work_dir):
    """{command and file: sha256 of stdout} on ``TABLES_BEYOND_CORPUS``."""
    out = {}
    for fname, text in TABLES_BEYOND_CORPUS.items():
        target = os.path.join(work_dir, fname)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        for cmd in TABLE_COMMANDS:
            out[" ".join([*cmd, fname])] = sha256(cli_stdout([cmd[0], target, *cmd[1:]]))
    return out


def compare_digests():
    """{command and pair: sha256 of stdout} for ``wittlab compare`` on
    ``COMPARE_PAIRS``, as text and as ``--json``."""
    out = {}
    for pair in COMPARE_PAIRS:
        files = [os.path.join(CORPUS, f"{name}.grp") for name in pair]
        for options in ((), ("--json",)):
            key = " ".join(["compare", *pair, *options])
            out[key] = sha256(cli_stdout(["compare", *files, *options]))
    return out


@pytest.fixture(scope="module")
def golden():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_the_corpus(golden):
    assert sorted(golden) == corpus_files()


@pytest.mark.parametrize("fname", corpus_files())
def test_cli_output_matches_golden_digest(golden, fname):
    assert cli_digests(fname) == golden[fname]


def test_ik_output_matches_golden_digest(tmp_path):
    with open(IK_DIGESTS, encoding="utf-8") as fh:
        assert ik_digests(str(tmp_path)) == json.load(fh)


def test_double_output_matches_golden_digest():
    with open(DOUBLE_DIGESTS, encoding="utf-8") as fh:
        assert double_digests() == json.load(fh)


def test_parse_beyond_corpus_matches_golden_digest(tmp_path):
    with open(BEYOND_DIGESTS, encoding="utf-8") as fh:
        assert beyond_corpus_digests(str(tmp_path)) == json.load(fh)


def test_tables_beyond_corpus_match_golden_digest(tmp_path):
    with open(TABLES_DIGESTS, encoding="utf-8") as fh:
        assert tables_beyond_corpus_digests(str(tmp_path)) == json.load(fh)


def test_compare_output_matches_golden_digest():
    with open(COMPARE_DIGESTS, encoding="utf-8") as fh:
        assert compare_digests() == json.load(fh)


if __name__ == "__main__":
    table = {f: cli_digests(f) for f in corpus_files()}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(table)} entries to {DIGESTS}\n")
    with tempfile.TemporaryDirectory() as emit_dir:
        ik_table = ik_digests(emit_dir)
    with open(IK_DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(ik_table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(ik_table)} entries to {IK_DIGESTS}\n")
    double_table = double_digests()
    with open(DOUBLE_DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(double_table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(double_table)} entries to {DOUBLE_DIGESTS}\n")
    with tempfile.TemporaryDirectory() as work_dir:
        beyond_table = beyond_corpus_digests(work_dir)
    with open(BEYOND_DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(beyond_table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(beyond_table)} entries to {BEYOND_DIGESTS}\n")
    with tempfile.TemporaryDirectory() as work_dir:
        tables_table = tables_beyond_corpus_digests(work_dir)
    with open(TABLES_DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(tables_table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(tables_table)} entries to {TABLES_DIGESTS}\n")
    compare_table = compare_digests()
    with open(COMPARE_DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(compare_table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(compare_table)} entries to {COMPARE_DIGESTS}\n")
    for golden_name, fmt in SCREENS:
        target = os.path.join(GOLDEN, golden_name)
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(cli_stdout(["screen", CORPUS, *fmt]))
        sys.stdout.write(f"wrote {target}\n")
