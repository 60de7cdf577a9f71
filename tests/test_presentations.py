import collections
import os
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from wittlab import groups, presentations as pres
from wittlab.presentations import (
    EnumerationError,
    ParseError,
    Presentation,
    PermGenSet,
    coset_enumeration,
    from_permutations,
    parse_group_file,
)

from conftest import CORPUS, group_from_source
from test_golden_digests import BEYOND_CORPUS

D8 = "gens a b; rel a^4; rel b^2; rel b^-1 a b a;"
Q8 = "gens a b; rel a^4; rel b^2 a^-2; rel b^-1 a b a;"


def test_parse_d8_shape():
    p = parse_group_file(D8)
    assert isinstance(p, Presentation)
    assert p.generator_names == ("a", "b")
    assert len(p.relators) == 3


def test_parse_trivial_presentation():
    p = parse_group_file("gens a; rel a;")
    assert p.generator_names == ("a",)
    assert p.relators == (((0, 1),),)
    assert coset_enumeration(p).order == 1


def test_relation_normalisation():
    p = parse_group_file("gens a b; rel b^-1 a b = a^-1;")
    # w1 * w2^-1, freely reduced: b^-1 a b a
    assert p.relators == (((1, -1), (0, 1), (1, 1), (0, 1)),)
    q = parse_group_file("gens a; rel a^2 = 1;")
    assert q.relators == (((0, 1), (0, 1)),)


def test_undeclared_generator_is_an_error():
    with pytest.raises(ParseError) as exc:
        parse_group_file("rel a^4;", filename="f.grp")
    assert "undeclared" in str(exc.value)
    assert "f.grp:1:" in str(exc.value)


def test_exponent_zero_is_an_error():
    with pytest.raises(ParseError, match="exponent 0"):
        parse_group_file("gens a; rel a^0;")


def test_empty_file_is_an_error():
    with pytest.raises(ParseError, match="empty"):
        parse_group_file("")
    with pytest.raises(ParseError, match="empty"):
        parse_group_file("# only a comment\n")


def test_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_group_file("gens a;\nrel a^4\nrel a;", filename="x.grp")
    # missing semicolon: the error points at line 3
    assert exc.value.filename == "x.grp"
    assert exc.value.line == 3


def test_header_and_braces():
    src = 'group "d8" presentation {\n  gens a b;\n  rel a^4;\n  rel b^2;\n  rel b^-1 a b a;\n}\n'
    p = parse_group_file(src)
    assert p.name == "d8"
    assert coset_enumeration(p).order == 8


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_group_file('group "x" presentation { gens a; rel a; } gens b;')


def test_permutation_file():
    p = parse_group_file('group "s3" permutations degree 3 { gen (1 2); gen (1 2 3); }')
    assert isinstance(p, PermGenSet)
    assert p.degree == 3
    G = from_permutations(p)
    assert G.order == 6


def test_permutation_point_out_of_range():
    with pytest.raises(ParseError, match="outside"):
        parse_group_file('group "x" permutations degree 2 { gen (1 3); }')


def test_permutation_repeated_point():
    with pytest.raises(ParseError, match="twice"):
        parse_group_file('group "x" permutations degree 3 { gen (1 2)(2 3); }')


def test_coset_enumeration_known_orders():
    assert group_from_source(D8).order == 8
    assert group_from_source(Q8).order == 8
    d16 = group_from_source("gens a b; rel a^8; rel b^2; rel b^-1 a b a;")
    assert d16.order == 16


def test_coset_enumeration_order_32_commutator_presentation():
    src = """
    gens a b c d e;
    rel a^2; rel b^2; rel c^2; rel d^2; rel e^2;
    rel a^-1 b^-1 a b; rel a^-1 c^-1 a c; rel a^-1 d^-1 a d;
    rel b^-1 c^-1 b c; rel b^-1 d^-1 b d; rel c^-1 d^-1 c d;
    rel e^-1 a^-1 e a; rel e^-1 b^-1 e b;
    rel e^-1 c^-1 e c = a; rel e^-1 d^-1 e d = b;
    """
    assert group_from_source(src).order == 32


def test_relators_evaluate_to_identity():
    for src in (D8, Q8):
        p = parse_group_file(src)
        G = coset_enumeration(p)
        for rel in p.relators:
            acc = 0
            for g, s in rel:
                img = G.generators[g] if s > 0 else G.inverse[G.generators[g]]
                acc = G.cayley[acc][img]
            assert acc == 0


def test_enumeration_bound_exceeded():
    with pytest.raises(EnumerationError):
        coset_enumeration(parse_group_file("gens a; rel a^100 = 1;"), max_cosets=10)
    # a free generator: infinite group, must hit any bound
    with pytest.raises(EnumerationError):
        coset_enumeration(parse_group_file("gens a b; rel b^2;"), max_cosets=256)


def test_larger_bound_gives_isomorphic_group():
    a = coset_enumeration(parse_group_file(D8), max_cosets=64)
    b = coset_enumeration(parse_group_file(D8), max_cosets=4096)
    assert groups.are_isomorphic(a, b) is not None


S5_COXETER = """
gens a b c d;
rel a^2; rel b^2; rel c^2; rel d^2;
rel a b a b a b; rel b c b c b c; rel c d c d c d;
rel a c a c; rel a d a d; rel b d b d;
"""
A5 = "gens a b; rel a^2; rel b^3; rel a b a b a b a b a b;"


@pytest.mark.parametrize("src, bound", [(S5_COXETER, 135), (A5, 67)])
def test_lookahead_gives_the_default_table(monkeypatch, src, bound):
    """A tight bound forces lookahead passes (each one compacts the table
    before the final compaction); the result is the same Cayley table."""
    compactions = []
    compress = pres._CosetTable.compress

    def counting(self):
        compactions.append(len(self.table))
        compress(self)

    monkeypatch.setattr(pres._CosetTable, "compress", counting)
    tight = coset_enumeration(parse_group_file(src), max_cosets=bound)
    assert len(compactions) > 1
    monkeypatch.undo()
    assert tight.cayley == coset_enumeration(parse_group_file(src)).cayley


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
@settings(max_examples=30, deadline=None)
def test_from_permutations_matches_brute_closure(p1, p2):
    ps = PermGenSet(name="t", degree=5, generators=(tuple(p1), tuple(p2)))
    G = from_permutations(ps)
    # independent closure over permutation tuples
    seen = {tuple(range(5))}
    frontier = [tuple(range(5))]
    while frontier:
        nxt = []
        for a in frontier:
            for g in (tuple(p1), tuple(p2)):
                prod = tuple(g[a[i]] for i in range(5))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    assert G.order == len(seen)


def test_from_permutations_empty_generators():
    G = from_permutations(PermGenSet(name="t", degree=4, generators=()))
    assert G.order == 1


def test_from_permutations_z4_squared():
    gens = (
        tuple([1, 2, 3, 0] + [4, 5, 6, 7]),
        tuple([0, 1, 2, 3] + [5, 6, 7, 4]),
    )
    G = from_permutations(PermGenSet(name="t", degree=8, generators=gens))
    assert G.order == 16


def test_size_cap(monkeypatch):
    ps = parse_group_file('group "s5" permutations degree 5 { gen (1 2); gen (1 2 3 4 5); }')
    assert pres.MAX_CLOSURE_ELEMENTS == 4096
    monkeypatch.setattr(pres, "MAX_CLOSURE_ELEMENTS", 100)
    with pytest.raises(EnumerationError, match="exceeded 100 elements on 5 moved points"):
        from_permutations(ps)
    monkeypatch.setattr(pres, "MAX_CLOSURE_ELEMENTS", 120)
    assert from_permutations(ps).order == 120


def _cycle_file(length, degree):
    cycle = "(" + " ".join(str(i) for i in range(1, length + 1)) + ")"
    return f'group "c{length}" permutations degree {degree} {{ gen {cycle}; }}'


def test_closure_stores_only_the_moved_points():
    """A 256-cycle at the largest degree realises as at degree 256, without
    storing every element at full degree (about 130 MB before)."""
    small = pres.realize(parse_group_file(_cycle_file(256, 256)))
    tracemalloc.start()
    try:
        big = pres.realize(parse_group_file(_cycle_file(256, pres.MAX_DEGREE)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (big.name, big.generators, big.cayley) == (small.name, small.generators, small.cayley)
    assert peak < 16 * 2**20


def test_closure_points_bound(monkeypatch):
    # the real bound admits a 4,096-cycle on 4,096 points (MAX_CLOSURE_ELEMENTS)
    assert pres.MAX_CLOSURE_POINTS >= 4096 * 4096
    monkeypatch.setattr(pres, "MAX_CLOSURE_POINTS", 16 * 16)
    assert pres.realize(parse_group_file(_cycle_file(16, 16))).order == 16
    assert pres.realize(parse_group_file(_cycle_file(8, 4096))).order == 8
    monkeypatch.setattr(pres, "MAX_CLOSURE_POINTS", 16 * 16 - 1)
    with pytest.raises(EnumerationError, match="15 elements on 16 moved points"):
        pres.realize(parse_group_file(_cycle_file(16, 16)))


@st.composite
def _perm_gen_sets(draw):
    degree = draw(st.integers(1, 6))
    perms = st.permutations(list(range(degree))).map(tuple)
    gens = tuple(draw(st.lists(perms, min_size=0, max_size=3)))
    return PermGenSet(name="t", degree=degree, generators=gens)


@given(_perm_gen_sets())
@settings(max_examples=25, deadline=None)
def test_from_permutations_table_matches_composed_permutations(ps):
    G = from_permutations(ps)
    # the documented numbering: BFS from the identity, right-multiplying by
    # the generators in declaration order; x y applies x first, then y
    elems = [tuple(range(ps.degree))]
    index = {elems[0]: 0}
    for a in elems:
        for g in ps.generators:
            prod = tuple(g[a[i]] for i in range(ps.degree))
            if prod not in index:
                index[prod] = len(elems)
                elems.append(prod)
    assert G.order == len(elems)
    assert G.generators == tuple(index[g] for g in ps.generators)
    for x, a in enumerate(elems):
        for y, b in enumerate(elems):
            assert G.cayley[x][y] == index[tuple(b[a[i]] for i in range(ps.degree))]


def test_exponent_cap_is_a_parse_error():
    big = pres.MAX_EXPONENT + 1
    for expo in (big, -big):
        with pytest.raises(ParseError, match="exceeds the limit"):
            parse_group_file(f"gens a; rel a^{expo};")


def test_degree_cap_is_a_parse_error():
    text = f'group "big" permutations degree {pres.MAX_DEGREE + 1} {{ gen (1 2); }}'
    with pytest.raises(ParseError, match="exceeds the limit"):
        parse_group_file(text)


def test_overlong_integer_literal_is_a_parse_error():
    # more digits than int() converts by default: the lexer must reject the
    # literal before int() raises a bare ValueError
    with pytest.raises(ParseError, match="out of range"):
        parse_group_file("gens a; rel a^" + "9" * 5000 + ";")


# The lexer before it became one token regex, kept verbatim as the reference.
_IDENT_RE = re.compile(r"[a-z][a-z0-9]*")
_INT_RE = re.compile(r"-?[0-9]+")
_MAX_INT_DIGITS = pres._MAX_INT_DIGITS
_Token = pres._Token


def _reference_lex(text: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0 or "\n" in text[i:j]:
                raise ParseError("unterminated string", filename, line, start_col)
            tokens.append(_Token("string", text[i + 1 : j], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        m = _IDENT_RE.match(text, i)
        if m and m.start() == i:
            tokens.append(_Token("ident", m.group(), line, start_col))
            col += len(m.group())
            i = m.end()
            continue
        m = _INT_RE.match(text, i)
        if m:
            if len(m.group().lstrip("-").lstrip("0")) > _MAX_INT_DIGITS:
                raise ParseError("integer literal out of range", filename, line, start_col)
            tokens.append(_Token("int", m.group(), line, start_col))
            col += len(m.group())
            i += len(m.group())
            continue
        if ch in "{}();^=":
            tokens.append(_Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", filename, line, start_col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _lex_outcome(lex, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(text, "f.grp")]
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


def _corpus_texts():
    out = []
    for fname in sorted(os.listdir(CORPUS)):
        if fname.endswith(".grp"):
            with open(os.path.join(CORPUS, fname), "rb") as fh:
                out.append(fh.read())
    return out


@st.composite
def _lexer_inputs(draw):
    """Random text over the grammar's characters, non-ASCII and control
    characters, or a corpus file with a few bytes replaced, deleted or
    inserted (decoded with replacement characters)."""
    alphabet = st.sampled_from(list("ab z09-1^=;{}()\"#\n\t\r \x00\x0b\x7fÉé  λ😀"))
    if draw(st.booleans()):
        return draw(st.text(alphabet, max_size=40))
    data = bytearray(draw(st.sampled_from(_corpus_texts())))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(b"0123456789^=;{}()\"# \nab-\xe9") | st.integers(0, 255))
        kind = draw(st.sampled_from(("replace", "delete", "insert")))
        if kind == "insert" or at == len(data):
            data[at:at] = bytes([byte])
        elif kind == "replace":
            data[at] = byte
        else:
            del data[at]
    return data.decode("utf-8", errors="replace")


@given(_lexer_inputs())
@settings(max_examples=400, deadline=None)
def test_lex_matches_the_reference_lexer(text):
    """Same tokens (kind, text, line, column) and the same ParseError message
    and position as the former character loop.  The one difference is the
    end-of-input column after a comment on the last line: the former lexer
    left it at the comment's '#', the token regex reports the true end."""
    got, want = _lex_outcome(pres._lex, text), _lex_outcome(_reference_lex, text)
    if isinstance(want, list) and isinstance(got, list) and got[-1] != want[-1]:
        last_line = text[text.rfind("\n") + 1 :]
        eof_col = want[-1][3]
        assert last_line[eof_col - 1] == "#"
        assert got[-1] == ("eof", "", want[-1][2], len(last_line) + 1)
        got, want = got[:-1], want[:-1]
    assert got == want


def test_lex_end_of_input_after_a_trailing_comment():
    assert pres._lex("gens a; # c", "f")[-1] == _Token("eof", "", 1, 12)
    assert pres._lex("gens a;\n# c\n", "f")[-1] == _Token("eof", "", 3, 1)


def _assert_no_dead_references(ct):
    parent = ct.parent
    for a, row in enumerate(ct.table):
        if parent[a] == a:
            for v in row:
                assert v is None or parent[v] == v, f"live coset {a} refers to dead {v}"


def _checked_coincidences(monkeypatch):
    """Wrap ``_CosetTable.coincidence`` so that after every call no live row
    refers to a dead coset; returns the list of the calls that merged two
    live cosets."""
    calls = []
    coincidence = pres._CosetTable.coincidence

    def checked(self, a, b):
        if self.rep(a) != self.rep(b):
            calls.append((a, b))
        coincidence(self, a, b)
        _assert_no_dead_references(self)

    monkeypatch.setattr(pres._CosetTable, "coincidence", checked)
    return calls


@pytest.mark.parametrize(
    "src, bound",
    [(S5_COXETER, 135), (A5, 67), (S5_COXETER, 65536)],
    ids=["s5_coxeter-135", "a5-67", "s5_coxeter"],
)
def test_coincidences_leave_no_dead_references(monkeypatch, src, bound):
    calls = _checked_coincidences(monkeypatch)
    coset_enumeration(parse_group_file(src), max_cosets=bound)
    assert calls


def test_corpus_coincidences_leave_no_dead_references(monkeypatch):
    calls = _checked_coincidences(monkeypatch)
    for text in _corpus_texts():
        parsed = parse_group_file(text.decode("utf-8"))
        if isinstance(parsed, Presentation):
            coset_enumeration(parsed)
    assert calls


@st.composite
def _small_presentations(draw):
    """Two or three generators, a power relator each, a few random words and
    up to two proper powers u^k of random words u."""
    ngens = draw(st.integers(2, 3))
    relators = [((g, 1),) * draw(st.integers(2, 4)) for g in range(ngens)]
    letters = st.tuples(st.integers(0, ngens - 1), st.sampled_from((1, -1)))
    words = draw(st.lists(st.lists(letters, min_size=1, max_size=8), min_size=1, max_size=3))
    powers = st.tuples(st.lists(letters, min_size=1, max_size=4), st.integers(2, 4))
    words += [u * k for u, k in draw(st.lists(powers, max_size=2))]
    for word in words:
        if pres.free_reduce(word):
            relators.append(pres.free_reduce(word))
    names = ("a", "b", "c")[:ngens]
    return Presentation(name="t", generator_names=names, relators=tuple(relators))


@given(_small_presentations())
@settings(max_examples=40, deadline=None)
def test_random_coincidences_leave_no_dead_references(p):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _checked_coincidences(monkeypatch)
        try:
            coset_enumeration(p, max_cosets=64)
        except EnumerationError:
            pass


# The enumeration as it was before proper-power relators were scanned once
# per closed cycle: the class and the loop verbatim.
class _ReferenceCosetTable:
    """HLT coset table over the trivial subgroup, with lookahead compaction.

    ``table[a][c]`` is the coset a times the column's generator (column 2g
    for generator g, 2g + 1 for its inverse), and it is set together with
    its back reference ``table[b][c ^ 1] = a``.  ``parent`` is a union-find
    forest in which a coset is live iff it is its own parent.  Coincidence
    processing clears the back reference of every entry of each coset it
    kills and writes only live cosets, so once it returns no live row
    refers to a dead coset: scans and compaction read the table directly,
    and ``rep`` is used only while coincidences are processed (Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, 2005, 5.1).
    """

    def __init__(self, ngens: int, max_cosets: int):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.parent = [0]  # union-find for coincidences

    def rep(self, a: int) -> int:
        p = self.parent
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:
            p[a], a = root, p[a]
        return root

    def define(self, a: int, c: int):
        if len(self.table) >= self.max_cosets:
            raise pres._TableFull()
        b = len(self.table)
        self.table.append([None] * self.ncols)
        self.parent.append(b)
        self.table[a][c] = b
        self.table[b][c ^ 1] = a

    def merge(self, a: int, b: int, queue: list[int]):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.parent[b] = a
        queue.append(b)

    def coincidence(self, a: int, b: int):
        queue: list[int] = []
        self.merge(a, b, queue)
        while queue:
            d = queue.pop()
            row = self.table[d]
            for c in range(self.ncols):
                e = row[c]
                if e is None:
                    continue
                self.table[e][c ^ 1] = None
                mu, nu = self.rep(d), self.rep(e)
                t = self.table[mu][c]
                if t is not None:
                    self.merge(nu, t, queue)
                else:
                    t2 = self.table[nu][c ^ 1]
                    if t2 is not None:
                        self.merge(mu, t2, queue)
                    else:
                        self.table[mu][c] = nu
                        self.table[nu][c ^ 1] = mu

    def scan_and_fill(self, a: int, word_cols: list[int], fill: bool = True):
        """Scan coset a under a relator; where the scan stops short, define a
        coset, or return if not ``fill`` (the lookahead scan)."""
        f, i = a, 0
        b, j = a, len(word_cols) - 1
        while True:
            while i <= j:
                nxt = self.table[f][word_cols[i]]
                if nxt is None:
                    break
                f = nxt
                i += 1
            while j >= i:
                prev = self.table[b][word_cols[j] ^ 1]
                if prev is None:
                    break
                b = prev
                j -= 1
            if j < i:  # the scan closed: f = b, a no-op if they are equal
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][word_cols[i]] = b
                self.table[b][word_cols[i] ^ 1] = f
                return
            if not fill:
                return
            self.define(f, word_cols[i])

    def compress(self):
        live = [a for a, p in enumerate(self.parent) if p == a]
        number = {a: k for k, a in enumerate(live)}
        self.table = [[None if v is None else number[v] for v in self.table[a]] for a in live]
        self.parent = list(range(len(live)))


def _reference_coset_enumeration(p, max_cosets, _group_from_coset_table):
    """``coset_enumeration`` as it was before the per-cycle skip (verbatim,
    with the realiser passed in)."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    ct = _ReferenceCosetTable(len(p.generator_names), max_cosets)
    rel_cols = [[2 * g + (s < 0) for g, s in rel] for rel in p.relators if rel]
    a = 0
    while a < len(ct.table):
        try:
            for cols in rel_cols:
                if ct.parent[a] != a:  # a died in a coincidence
                    break
                ct.scan_and_fill(a, cols)
            if ct.parent[a] == a:
                for c in range(ct.ncols):
                    if ct.table[a][c] is None:
                        ct.define(a, c)
        except pres._TableFull:
            # lookahead: scan everything without defining, then compact
            before = len(ct.table)
            for b in range(len(ct.table)):
                for cols in rel_cols:
                    if ct.parent[b] != b:
                        break
                    ct.scan_and_fill(b, cols, fill=False)
            ct.compress()
            if len(ct.table) >= before:
                raise EnumerationError(
                    f"coset enumeration exceeded {max_cosets} cosets"
                ) from None
            a = 0
            continue
        a += 1
    ct.compress()
    return _group_from_coset_table(ct, p)


def _enumeration_outcome(enumerate_, p, bound):
    """The compressed coset tables that ``enumerate_(p, bound, realise)``
    hands to the realiser, and the Cayley table and generators it returns,
    or its error."""
    tables = []
    group_from_coset_table = pres._group_from_coset_table

    def realise(ct, p):
        tables.append(ct.table)
        return group_from_coset_table(ct, p)

    try:
        G = enumerate_(p, bound, realise)
    except EnumerationError as exc:
        return tables, str(exc)
    return tables, G.cayley, G.generators


def _coset_enumeration(p, max_cosets, realise):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(pres, "_group_from_coset_table", realise)
        return coset_enumeration(p, max_cosets)


def _assert_enumeration_matches_the_reference(p, bound):
    outcome = _enumeration_outcome(_coset_enumeration, p, bound)
    assert outcome == _enumeration_outcome(_reference_coset_enumeration, p, bound)
    return outcome


def test_corpus_enumeration_matches_the_reference():
    count = 0
    for text in _corpus_texts():
        parsed = parse_group_file(text.decode("utf-8"))
        if isinstance(parsed, Presentation):
            tables, *_ = _assert_enumeration_matches_the_reference(parsed, pres.DEFAULT_MAX_COSETS)
            count += len(tables)
    assert count > 20


@pytest.mark.parametrize(
    "fname", sorted(f for f, (text, _) in BEYOND_CORPUS.items() if "permutations" not in text)
)
def test_enumeration_matches_the_reference_beyond_the_corpus(fname):
    """Among these, s5_coxeter at 135 cosets and a5 at 67 run lookahead
    passes, which compact the table and clear the marks."""
    text, options = BEYOND_CORPUS[fname]
    bound = int(options[1]) if options else pres.DEFAULT_MAX_COSETS
    tables, *_ = _assert_enumeration_matches_the_reference(parse_group_file(text), bound)
    assert len(tables) == 1


@given(_small_presentations(), st.sampled_from((16, 40, 100, 400)))
@settings(max_examples=150, deadline=None)
def test_random_enumeration_matches_the_reference(p, bound):
    """Small bounds run lookahead passes on many of these presentations."""
    _assert_enumeration_matches_the_reference(p, bound)


def test_power_relator_is_scanned_once_per_cycle(monkeypatch):
    """In the dihedral group of order 2,048, a has order 1,024, so its
    relator a^1024 closes on two a-cycles of cosets: it is scanned at one
    coset of each, not at all 2,048."""
    scans = collections.Counter()
    scan_and_fill = pres._CosetTable.scan_and_fill

    def counting(self, a, word_cols, fill=True):
        scans[len(word_cols)] += 1
        scan_and_fill(self, a, word_cols, fill)

    monkeypatch.setattr(pres._CosetTable, "scan_and_fill", counting)
    G = group_from_source(BEYOND_CORPUS["dih2048.grp"][0])
    assert G.order == 2048
    assert scans[1024] == 2
    assert scans[4] == 2048  # b^-1 a b a is no proper power: scanned at each coset


def test_action_built_groups_agree_with_make_group(corpus_groups):
    """Every group realised from the corpus and from the inputs beyond it,
    built and proven from its right regular action, is the group
    ``make_group`` proves from its table, and each inverse read along the
    tree is the position of 0 in its row."""
    cases = list(corpus_groups.values())
    for name, (text, args) in sorted(BEYOND_CORPUS.items()):
        cases.append(pres.realize(pres.parse_group_file(text, name), *map(int, args[1:])))
    assert len(cases) == 39 + 7
    for G in cases:
        H = groups.make_group(G.cayley, generators=G.generators)
        assert (G.cayley, G.inverse, G.generators) == (H.cayley, H.inverse, H.generators), G.name
        assert G.inverse == tuple(row.index(0) for row in G.cayley), G.name
