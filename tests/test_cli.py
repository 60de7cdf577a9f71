import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wittlab import cli

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def path(name):
    return os.path.join(CORPUS, name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_dump(capsys):
    code, out, _ = run(capsys, "parse", path("d8.grp"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order 8"
    assert lines[1] == 'name "d8"'
    assert sum(1 for l in lines if l.startswith("row ")) == 8


def test_parse_is_byte_stable(capsys):
    _, out1, _ = run(capsys, "parse", path("q16.grp"))
    _, out2, _ = run(capsys, "parse", path("q16.grp"))
    assert out1 == out2


def test_chartab_text_and_modp(capsys):
    code, out, _ = run(capsys, "chartab", path("q8.grp"))
    assert code == 0
    assert "degrees: 1 1 1 1 2" in out
    assert "fs: +1 +1 +1 +1 -1" in out
    code, out, _ = run(capsys, "chartab", path("q8.grp"), "--modp")
    assert code == 0


def test_chartab_json(capsys):
    code, out, _ = run(capsys, "chartab", path("d8.grp"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == [1, 1, 1, 1, 2]
    assert payload["fs_indicators"] == [1, 1, 1, 1, 1]
    assert payload["dual_involution"] == [0, 1, 2, 3, 4]


def test_witt_text(capsys):
    code, out, _ = run(capsys, "witt", path("d8.grp"))
    assert code == 0
    assert "rank 5" in out


def test_witt_twist(capsys):
    code, out, _ = run(capsys, "witt", path("q8.grp"), "--u", "a^2")
    assert code == 0
    assert "rank 5" in out
    code, out, _ = run(capsys, "witt", path("q8.grp"), "--json")
    assert json.loads(out)["rank"] == 4


def test_witt_twist_bad_word(capsys):
    code, _, err = run(capsys, "witt", path("q8.grp"), "--u", "zz^2")
    assert code == 2
    assert "undeclared" in err
    # a word that evaluates to a non-central element is a computation error
    code, _, err = run(capsys, "witt", path("d8.grp"), "--u", "b")
    assert code == 3


def test_double_abelian(capsys):
    code, out, _ = run(capsys, "double", path("z2x2.grp"), "--json")
    assert code == 0
    assert json.loads(out)["rank"] == 10


def test_double_rejects_nonabelian(capsys):
    code, _, err = run(capsys, "double", path("q8.grp"))
    assert code == 3
    assert "out of scope" in err


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", path("d8.grp"), path("q8.grp"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "not-isocategorical"
    assert payload["witness"] == "witt_ring"


def test_screen_with_order_filter(capsys):
    code, out, _ = run(capsys, "screen", CORPUS, "--order", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["groups"] == 5
    assert payload["summary"]["undecided"] == 0


def test_ik(capsys, tmp_path):
    code, out, _ = run(capsys, "ik", "--emit", str(tmp_path))
    assert code == 0
    assert "verdict: undecided" in out
    with open(os.path.join(GOLDEN, "ik.sha256.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    for fname in ("g64.dump", "g64_b.dump"):
        dump = (tmp_path / fname).read_bytes()
        assert dump.startswith(b"order 64\n")
        assert hashlib.sha256(dump).hexdigest() == golden[f"ik --emit {fname}"]


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "nosuchcommand")[0] == 1
    assert run(capsys, "parse")[0] == 1


def test_non_positive_max_cosets_is_usage_error(capsys):
    for value in ("0", "-1"):
        code, out, err = run(capsys, "--max-cosets", value, "parse", path("q8.grp"))
        assert code == 1
        assert out == ""
        assert "usage error" in err and "--max-cosets" in err



def test_non_positive_screen_order_is_usage_error(capsys):
    for value in ("0", "-1"):
        code, out, err = run(capsys, "screen", CORPUS, "--order", value)
        assert code == 1
        assert out == ""
        assert "usage error" in err and "--order" in err


@pytest.mark.parametrize(
    "fmt, golden", [([], "screen_corpus.txt"), (["--json"], "screen_corpus.json")]
)
def test_screen_corpus_matches_golden(capsys, fmt, golden):
    code, out, _ = run(capsys, "screen", CORPUS, *fmt)
    assert code == 0
    with open(os.path.join(GOLDEN, golden), encoding="utf-8", newline="") as fh:
        assert out == fh.read()


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("rel a;")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert "undeclared" in err


def test_missing_file_exit_code(capsys):
    assert run(capsys, "parse", "/nonexistent/file.grp")[0] == 2


def test_unreadable_or_unwritable_file_exit_code(capsys, tmp_path):
    latin1 = tmp_path / "latin1.grp"
    latin1.write_bytes(b'group "caf\xe9" presentation { gens a; rel a^2; }')
    existing = tmp_path / "existing"
    existing.write_text("")
    cases = (
        ("parse", str(tmp_path)),
        ("compare", path("d8.grp"), str(tmp_path)),
        ("parse", str(latin1)),
        ("ik", "--emit", str(existing)),
    )
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and "Traceback" not in err, argv
        assert argv[-1] in err, argv  # the offending path is named


def test_enumeration_error_exit_code(capsys, tmp_path):
    free = tmp_path / "free.grp"
    free.write_text("gens a b; rel b^2;")
    code, _, err = run(capsys, "--max-cosets", "128", "parse", str(free))
    assert code == 3


def test_screen_honours_max_cosets(capsys, tmp_path):
    """A file that ``parse`` cannot realise within the bound is a per-file
    error in ``screen`` under the same bound, not a rigid group."""
    a5 = tmp_path / "a5.grp"
    a5.write_text("gens a b; rel a^2; rel b^3; rel a b a b a b a b a b;")
    assert run(capsys, "--max-cosets", "8", "parse", str(a5))[0] == 3
    code, out, _ = run(capsys, "--max-cosets", "8", "screen", str(tmp_path))
    assert code == 0
    assert "error: a5.grp: coset enumeration exceeded 8 cosets" in out.splitlines()
    assert out.splitlines()[-1].startswith("summary: 0 groups,")
    code, out, _ = run(capsys, "screen", str(tmp_path))
    assert code == 0 and "error:" not in out
    assert "a5 " in out and "rigid (no candidate subgroup)" in out


def test_screen_bad_directory_exit_code(capsys):
    assert run(capsys, "screen", "/nonexistent/dir")[0] == 3


def test_parse_caps_exit_code(capsys, tmp_path):
    from wittlab import presentations as pres

    power = tmp_path / "power.grp"
    power.write_text(f"gens a; rel a^{pres.MAX_EXPONENT + 1};")
    degree = tmp_path / "degree.grp"
    degree.write_text(
        f'group "big" permutations degree {pres.MAX_DEGREE + 1} {{ gen (1 2); }}'
    )
    for bad in (power, degree):
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 2
        assert "exceeds the limit" in err


def test_permutation_closure_bound_exit_code(capsys, tmp_path, monkeypatch):
    from wittlab import presentations as pres

    monkeypatch.setattr(pres, "MAX_CLOSURE_POINTS", 15 * 16)
    cycle = tmp_path / "cycle.grp"
    points = " ".join(str(i) for i in range(1, 17))
    cycle.write_text(f'group "c16" permutations degree 16 {{ gen ({points}); }}')
    code, out, err = run(capsys, "parse", str(cycle))
    assert (code, out) == (3, "")
    assert "moved points" in err


def test_presentation_order_bound_exit_code(capsys, tmp_path):
    """A presentation realises only up to the permutation closure's element
    bound: Z65 x Z65, of order 4,225, stops with exit code 3 before its
    Cayley table is built."""
    big = tmp_path / "z65x65.grp"
    big.write_text("gens a b; rel a^65; rel b^65; rel a b a^-1 b^-1;")
    code, out, err = run(capsys, "parse", str(big))
    assert (code, out) == (3, "")
    assert "order 4225 exceeds 4096" in err and "Traceback" not in err


def test_power_relator_reaches_the_order_bound_exit_code(capsys, tmp_path):
    """``a^65536`` is scanned once per closed a-cycle of cosets, not at each
    of its 65,536 cosets, so the file reaches the element bound's exit code
    3 (``test_presentations`` counts the scans)."""
    power = tmp_path / "z65536.grp"
    power.write_text("gens a; rel a^65536;")
    code, out, err = run(capsys, "parse", str(power))
    assert (code, out) == (3, "")
    assert "exceeds 4096 elements" in err and "Traceback" not in err


def _is_presentation(fname):
    with open(path(fname), encoding="utf-8") as fh:
        return "permutations" not in fh.read()


_PRESENTATION_FILES = sorted(
    f for f in os.listdir(CORPUS) if f.endswith(".grp") and _is_presentation(f)
)


@st.composite
def _mutated_corpus_file(draw):
    """A presentation corpus file with a few bytes replaced, deleted or inserted."""
    with open(path(draw(st.sampled_from(_PRESENTATION_FILES))), "rb") as fh:
        data = bytearray(fh.read())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("replace", "delete", "insert")))
        byte = draw(st.sampled_from(b"0123456789^=;{}()\"# \nab-\xe9") | st.integers(0, 255))
        if kind == "insert" or at == len(data):
            data[at:at] = bytes([byte])
        elif kind == "replace":
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


@given(_mutated_corpus_file(), st.sampled_from((["parse"], ["chartab", "--json"], ["witt", "--json"])))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_survives_mutated_corpus_files(capsys, data, command):
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "mutated.grp")
        with open(target, "wb") as fh:
            fh.write(data)
        code, _, err = run(capsys, "--max-cosets", "64", command[0], target, *command[1:])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
