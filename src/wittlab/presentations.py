"""Group input files: finite presentations and permutation generators.

The file grammar (UTF-8, ``#`` starts a line comment)::

    file      := header? block
    header    := "group" STRING ("presentation" | "permutations" "degree" INT)
    block     := "{" item* "}"          # braces optional when header absent
    item      := "gens" ident+ ";" | "rel" word ("=" word)? ";" | "gen" cycles ";"
    word      := (ident ("^" INT)?)+ | "1"
    cycles    := ("(" INT+ ")")+        # disjoint cycle notation, 1-based

Relations ``w1 = w2`` are stored as the freely reduced relator ``w1 w2^-1``;
``w = 1`` becomes the relator ``w``.  Generator names match ``[a-z][a-z0-9]*``
and a presentation may declare at most eight of them.  Exponents are
bounded by ``MAX_EXPONENT`` in absolute value.  Permutation files require
the header (the degree is needed up front), and the degree is at most
``MAX_DEGREE``.  Both caps are checked before anything is expanded or
allocated, and a violation is a ``ParseError``.

Presentations are realised as concrete groups by Todd-Coxeter coset
enumeration over the trivial subgroup (HLT strategy with lookahead
compaction), which yields the regular representation as a Cayley table.
After coincidence processing no live row of the coset table refers to a
dead coset, so scans read the table directly and the union-find ``rep`` is
used only while coincidences are processed.  A relator u^k (k >= 2) is
scanned once per closed u-cycle of cosets, not at each coset, which
changes no table (proof at ``_CosetTable``): ``rel a^65536;`` costs one
scan, not 65,536.  Permutation generators are realised by closure.  This
module only supplies the steps: each realisation hands
``groups.group_from_right_action`` a step function (a coset table's
columns, or a permutation applied to a tuple of points), and ``groups``
numbers the elements breadth-first, builds the table and proves it.

All functions are pure; parsing and enumeration never mutate shared state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .groups import FiniteGroup, TableFull, group_from_right_action


class ParseError(ValueError):
    """Syntax or semantic error in a group file, with source position."""

    def __init__(self, message: str, filename: str, line: int, col: int):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.filename = filename
        self.line = line
        self.col = col


class EnumerationError(RuntimeError):
    """Coset enumeration exceeded its table bound (group too large?)."""


Word = tuple[tuple[int, int], ...]  # (generator index, +1 or -1) letters

MAX_GENERATORS = 8
MAX_EXPONENT = 65536  # largest |N| in a word letter a^N
MAX_DEGREE = 65536  # largest permutation degree
DEFAULT_MAX_COSETS = 65536
MAX_CLOSURE_ELEMENTS = 4096  # largest group either realisation builds
MAX_CLOSURE_POINTS = 1 << 24  # largest elements x moved points a closure stores

_TOKEN_RE = re.compile(
    r'(?P<newline>\n)|(?P<skip>[ \t\r]+|#[^\n]*)|"(?P<string>[^"\n]*)"'
    r"|(?P<ident>[a-z][a-z0-9]*)|(?P<int>-?[0-9]+)|(?P<punct>[{}();^=])|(?P<bad>.)"
)
# Every integer of the grammar is capped by one of the limits above, so a
# literal with more significant digits is rejected before int() reads it.
_MAX_INT_DIGITS = len(str(max(MAX_EXPONENT, MAX_DEGREE)))


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator names and freely reduced relators."""

    name: str
    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]


@dataclass(frozen=True)
class PermGenSet:
    """Permutation generators on {1..degree}, stored 0-based."""

    name: str
    degree: int
    generators: tuple[tuple[int, ...], ...]


# -------------------------------------------------------------------- lexing


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | punct | string | eof
    text: str
    line: int
    col: int


def _lex(text: str, filename: str) -> list[_Token]:
    """The tokens of ``text``, with lines and columns from 1, then ``eof``.

    The token classes are the groups of ``_TOKEN_RE``: ``newline``, ``skip``
    (blanks, tabs, carriage returns and ``#`` comments), ``string`` (on one
    line; the text drops the quotes), ``ident``, ``int``, ``punct`` (one of
    ``{}();^=``) and ``bad``, any other character, which is an error.
    """
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        word = m[kind]
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            message = "unterminated string" if word == '"' else f"unexpected character {word!r}"
            raise ParseError(message, filename, line, col)
        elif kind == "int" and len(word.lstrip("-").lstrip("0")) > _MAX_INT_DIGITS:
            raise ParseError("integer literal out of range", filename, line, col)
        elif kind != "skip":
            tokens.append(_Token(kind, word, line, col))
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# ------------------------------------------------------------------- parsing


class _Parser:
    def __init__(self, tokens: list[_Token], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, self.filename, tok.line, tok.col)

    def expect_punct(self, ch: str):
        tok = self.next()
        if tok.kind != "punct" or tok.text != ch:
            self.fail(f"expected {ch!r}", tok)


def free_reduce(letters) -> Word:
    out: list[tuple[int, int]] = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def invert_word(word: Word) -> Word:
    return tuple((g, -s) for g, s in reversed(word))


def parse_group_file(text: str, filename: str = "<string>") -> Presentation | PermGenSet:
    """Parse a group file into a Presentation or a PermGenSet.

    Errors carry file name, line and column.  Headerless input is parsed as
    a bare presentation block.
    """
    tokens = _lex(text, filename)
    parser = _Parser(tokens, filename)
    if parser.peek().kind == "eof":
        parser.fail("empty file")
    name = ""
    mode = "presentation"
    degree = 0
    braced = False
    if parser.peek().kind == "ident" and parser.peek().text == "group":
        parser.next()
        tok = parser.next()
        if tok.kind not in ("string", "ident"):
            parser.fail("expected group name", tok)
        name = tok.text
        tok = parser.next()
        if tok.kind != "ident" or tok.text not in ("presentation", "permutations"):
            parser.fail("expected 'presentation' or 'permutations'", tok)
        mode = tok.text
        if mode == "permutations":
            tok = parser.next()
            if tok.kind != "ident" or tok.text != "degree":
                parser.fail("expected 'degree'", tok)
            tok = parser.next()
            if tok.kind != "int" or int(tok.text) < 1:
                parser.fail("expected a positive degree", tok)
            degree = int(tok.text)
            if degree > MAX_DEGREE:
                parser.fail(f"degree {degree} exceeds the limit {MAX_DEGREE}", tok)
        parser.expect_punct("{")
        braced = True
    if mode == "presentation":
        result = _parse_presentation_items(parser, name)
    else:
        result = _parse_permutation_items(parser, name, degree)
    if braced:
        parser.expect_punct("}")
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail("trailing input after group block", tok)
    return result


def _at_block_end(parser: _Parser) -> bool:
    tok = parser.peek()
    return tok.kind == "eof" or (tok.kind == "punct" and tok.text == "}")


def _parse_presentation_items(parser: _Parser, name: str) -> Presentation:
    gen_names: list[str] = []
    gen_index: dict[str, int] = {}
    relators: list[Word] = []
    saw_item = False
    while not _at_block_end(parser):
        tok = parser.next()
        if tok.kind != "ident" or tok.text not in ("gens", "rel"):
            parser.fail("expected 'gens' or 'rel'", tok)
        saw_item = True
        if tok.text == "gens":
            while parser.peek().kind == "ident":
                nm = parser.next()
                if nm.text in gen_index:
                    parser.fail(f"generator {nm.text!r} declared twice", nm)
                if len(gen_names) >= MAX_GENERATORS:
                    parser.fail(f"more than {MAX_GENERATORS} generators", nm)
                gen_index[nm.text] = len(gen_names)
                gen_names.append(nm.text)
            if not gen_names:
                parser.fail("'gens' declares no generators")
            parser.expect_punct(";")
        else:
            left = _parse_word(parser, gen_index)
            right: Word = ()
            if parser.peek().kind == "punct" and parser.peek().text == "=":
                parser.next()
                right = _parse_word(parser, gen_index)
            parser.expect_punct(";")
            relator = free_reduce(left + invert_word(right))
            relators.append(relator)
    if not saw_item:
        parser.fail("empty group block")
    return Presentation(
        name=name, generator_names=tuple(gen_names), relators=tuple(relators)
    )


def _parse_word(parser: _Parser, gen_index: dict[str, int]) -> Word:
    letters: list[tuple[int, int]] = []
    saw = False
    while True:
        tok = parser.peek()
        if tok.kind == "int" and tok.text == "1" and not saw:
            parser.next()
            return ()
        if tok.kind != "ident":
            break
        parser.next()
        if tok.text not in gen_index:
            parser.fail(f"undeclared generator {tok.text!r}", tok)
        g = gen_index[tok.text]
        expo = 1
        if parser.peek().kind == "punct" and parser.peek().text == "^":
            parser.next()
            etok = parser.next()
            if etok.kind != "int":
                parser.fail("expected integer exponent", etok)
            expo = int(etok.text)
            if expo == 0:
                parser.fail("exponent 0 is not allowed", etok)
            if abs(expo) > MAX_EXPONENT:
                parser.fail(f"exponent {expo} exceeds the limit {MAX_EXPONENT}", etok)
        sign = 1 if expo > 0 else -1
        letters.extend((g, sign) for _ in range(abs(expo)))
        saw = True
    if not saw:
        parser.fail("expected a word")
    return free_reduce(letters)


def _parse_permutation_items(parser: _Parser, name: str, degree: int) -> PermGenSet:
    generators: list[tuple[int, ...]] = []
    while not _at_block_end(parser):
        tok = parser.next()
        if tok.kind != "ident" or tok.text != "gen":
            parser.fail("expected 'gen'", tok)
        perm = list(range(degree))
        seen: set[int] = set()
        saw_cycle = False
        while parser.peek().kind == "punct" and parser.peek().text == "(":
            parser.next()
            cycle: list[int] = []
            while parser.peek().kind == "int":
                ptok = parser.next()
                v = int(ptok.text)
                if not 1 <= v <= degree:
                    parser.fail(f"point {v} outside 1..{degree}", ptok)
                if v - 1 in seen:
                    parser.fail(f"point {v} appears twice", ptok)
                seen.add(v - 1)
                cycle.append(v - 1)
            parser.expect_punct(")")
            if len(cycle) < 1:
                parser.fail("empty cycle")
            for i, v in enumerate(cycle):
                perm[v] = cycle[(i + 1) % len(cycle)]
            saw_cycle = True
        if not saw_cycle:
            parser.fail("expected at least one cycle")
        parser.expect_punct(";")
        generators.append(tuple(perm))
    return PermGenSet(name=name, degree=degree, generators=tuple(generators))


# ------------------------------------------------------- coset enumeration


class _CosetTable:
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

    ``relators`` holds each relator w as its columns, its shortest period
    u (None unless w = u^k with k >= 2) and ``closed``, the cosets where w
    is known to close.  Once a scan leaves w closed at a live coset a, it
    is closed at every a u^i too, since w rotated by |u| is w itself; those
    cosets are marked and never scanned under w again.  The skip changes no
    table: a closed relator stays closed under coincidence processing, whose
    table is the quotient image of the one before, and a scan of a closed
    path ends in ``coincidence(c, c)``, which does nothing.  Compaction
    renumbers the cosets, so it clears the marks.
    """

    def __init__(self, ngens: int, max_cosets: int, relators: list[Word]):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.parent = [0]  # union-find for coincidences
        self.relators = []
        for rel in relators:
            cols = [2 * g + (s < 0) for g, s in rel]
            word = bytes(cols)
            period = (word + word).find(word, 1)  # divides len(word)
            u = cols[:period] if period < len(cols) else None
            self.relators.append((cols, u, bytearray()))

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
            raise TableFull()
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

    def scan_relators(self, a: int, fill: bool = True):
        """Scan coset a under each relator in turn while a lives, skipping
        the relators marked closed at a.  With ``fill``, each proper power
        u^k that a scan leaves closed at a is marked at a, a u, a u^2, ...
        up to the first coset already marked, a itself at the latest."""
        for cols, u, closed in self.relators:
            if self.parent[a] != a:  # a died in a coincidence
                return
            if a < len(closed) and closed[a]:
                continue
            self.scan_and_fill(a, cols, fill)
            if fill and u and self.parent[a] == a:
                closed.extend(bytes(len(self.table) - len(closed)))
                x = a
                while not closed[x]:
                    closed[x] = 1
                    for c in u:
                        x = self.table[x][c]

    def compress(self):
        live = [a for a, p in enumerate(self.parent) if p == a]
        number = {a: k for k, a in enumerate(live)}
        self.table = [[None if v is None else number[v] for v in self.table[a]] for a in live]
        self.parent = list(range(len(live)))
        for _, _, closed in self.relators:
            closed.clear()


def coset_enumeration(
    p: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> FiniteGroup:
    """Realise a finite presentation as its regular representation.

    HLT: every live coset is scanned against every relator, filling in
    definitions as needed; on table overflow a lookahead pass scans without
    defining and the table is compacted before giving up.  A relator u^k
    (k >= 2) is scanned once per closed u-cycle of cosets, which changes no
    table (proof at ``_CosetTable``).  The result has the presentation's
    generators as its generator list and element 0 is the image of the
    empty word.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    ct = _CosetTable(len(p.generator_names), max_cosets, [rel for rel in p.relators if rel])
    a = 0
    while a < len(ct.table):
        try:
            ct.scan_relators(a)
            if ct.parent[a] == a:
                for c in range(ct.ncols):
                    if ct.table[a][c] is None:
                        ct.define(a, c)
        except TableFull:
            # lookahead: scan everything without defining, then compact
            before = len(ct.table)
            for b in range(len(ct.table)):
                ct.scan_relators(b, fill=False)
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


def _group_from_coset_table(ct: _CosetTable, p: Presentation) -> FiniteGroup:
    n = len(ct.table)
    if any(v is None for row in ct.table for v in row):
        raise EnumerationError("coset table incomplete after enumeration")
    if n > MAX_CLOSURE_ELEMENTS:
        raise EnumerationError(f"group of order {n} exceeds {MAX_CLOSURE_ELEMENTS} elements")
    group = group_from_right_action(
        0, lambda a, c: ct.table[a][c], ct.ncols, range(0, ct.ncols, 2), n, name=p.name
    )
    if group.order != n:
        raise EnumerationError("coset table is not connected")
    if any(_evaluate(group, rel) for rel in p.relators):
        raise EnumerationError("relator does not evaluate to the identity")
    return group


def from_permutations(p: PermGenSet) -> FiniteGroup:
    """Concrete group generated by permutations, via breadth-first closure.

    ``groups.group_from_right_action`` numbers the elements in BFS order
    from the identity, multiplying on the right by the generators in
    declaration order; the identity gets index 0.
    The product x y applies x first, then y.  Each element is stored on the
    points the generators move, and the closure stops before it holds more
    than ``MAX_CLOSURE_ELEMENTS`` elements or ``MAX_CLOSURE_POINTS`` stored
    points.
    """
    moved = sorted({i for g in p.generators for i, v in enumerate(g) if v != i})
    at = {v: k for k, v in enumerate(moved)}
    perms = [tuple(at[g[v]] for v in moved) for g in p.generators]
    cap = min(MAX_CLOSURE_ELEMENTS, MAX_CLOSURE_POINTS // max(len(moved), 1))
    try:
        return group_from_right_action(
            tuple(range(len(moved))), lambda x, i: tuple(map(perms[i].__getitem__, x)),
            len(perms), range(len(perms)), cap, name=p.name,
        )
    except TableFull:
        raise EnumerationError(
            f"permutation closure exceeded {cap} elements on {len(moved)} moved points"
        ) from None


def realize(obj: Presentation | PermGenSet, max_cosets: int = DEFAULT_MAX_COSETS) -> FiniteGroup:
    """Turn parsed input into a concrete FiniteGroup."""
    if isinstance(obj, Presentation):
        return coset_enumeration(obj, max_cosets)
    return from_permutations(obj)


def evaluate_word(
    G: FiniteGroup, generator_names: tuple[str, ...], text: str
) -> int:
    """Evaluate a word like ``a^2 b`` at G's generators; used by the CLI."""
    tokens = _lex(text, "<word>")
    parser = _Parser(tokens, "<word>")
    gen_index = {nm: i for i, nm in enumerate(generator_names)}
    word = _parse_word(parser, gen_index)
    if parser.peek().kind != "eof":
        parser.fail("trailing input after word")
    return _evaluate(G, word)


def _evaluate(G: FiniteGroup, word: Word) -> int:
    """The element ``word`` names at G's generators."""
    acc = 0
    for g, s in word:
        img = G.generators[g] if s > 0 else G.inverse[G.generators[g]]
        acc = G.cayley[acc][img]
    return acc
