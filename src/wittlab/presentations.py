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

All functions are pure; parsing and enumeration never mutate shared state.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from .groups import FiniteGroup, make_group


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
MAX_CLOSURE_POINTS = 1 << 24  # largest elements x moved points a closure stores

_IDENT_RE = re.compile(r"[a-z][a-z0-9]*")
_INT_RE = re.compile(r"-?[0-9]+")
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

    def expect_punct(self, ch: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != ch:
            self.fail(f"expected {ch!r}", tok)
        return tok


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


# ------------------------------------------------------------ pretty printing


def _format_word(word: Word, names: tuple[str, ...]) -> str:
    if not word:
        return "1"
    parts: list[str] = []
    i = 0
    while i < len(word):
        g, s = word[i]
        j = i
        while j < len(word) and word[j] == (g, s):
            j += 1
        run = (j - i) * s
        parts.append(names[g] if run == 1 else f"{names[g]}^{run}")
        i = j
    return " ".join(parts)


def pretty(obj: Presentation | PermGenSet) -> str:
    """Canonical source text; parse(pretty(parse(s))) == parse(s)."""
    name = obj.name or "unnamed"
    if isinstance(obj, Presentation):
        lines = [f'group "{name}" presentation {{']
        if obj.generator_names:
            lines.append("  gens " + " ".join(obj.generator_names) + ";")
        for rel in obj.relators:
            lines.append(f"  rel {_format_word(rel, obj.generator_names)};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    lines = [f'group "{name}" permutations degree {obj.degree} {{']
    for perm in obj.generators:
        lines.append(f"  gen {_format_cycles(perm)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _format_cycles(perm: tuple[int, ...]) -> str:
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


# ------------------------------------------------------- coset enumeration


class _CosetTable:
    """HLT coset table over the trivial subgroup, with lookahead compaction."""

    def __init__(self, ngens: int, max_cosets: int):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.parent = [0]  # union-find for coincidences

    def col(self, g: int, s: int) -> int:
        return 2 * g if s > 0 else 2 * g + 1

    def rep(self, a: int) -> int:
        p = self.parent
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:
            p[a], a = root, p[a]
        return root

    def define(self, a: int, c: int) -> int:
        if len(self.table) >= self.max_cosets:
            raise _TableFull()
        b = len(self.table)
        self.table.append([None] * self.ncols)
        self.parent.append(b)
        self.table[a][c] = b
        self.table[b][c ^ 1] = a
        return b

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
                f = self.rep(nxt)
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                prev = self.table[b][word_cols[j] ^ 1]
                if prev is None:
                    break
                b = self.rep(prev)
                j -= 1
            if j < i:
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
        mapping: dict[int, int] = {}
        for a in range(len(self.table)):
            if self.rep(a) == a:
                mapping[a] = len(mapping)
        new_table = []
        for a in range(len(self.table)):
            if self.rep(a) != a:
                continue
            row = self.table[a]
            new_row = []
            for c in range(self.ncols):
                v = row[c]
                new_row.append(None if v is None else mapping[self.rep(v)])
            new_table.append(new_row)
        self.table = new_table
        self.parent = list(range(len(new_table)))


class _TableFull(Exception):
    pass


def coset_enumeration(
    p: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> FiniteGroup:
    """Realise a finite presentation as its regular representation.

    HLT: every live coset is scanned against every relator, filling in
    definitions as needed; on table overflow a lookahead pass scans without
    defining and the table is compacted before giving up.  The result has the
    presentation's generators as its generator list and element 0 is the
    image of the empty word.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be positive")
    ct = _CosetTable(len(p.generator_names), max_cosets)
    rel_cols = [
        [ct.col(g, s) for g, s in rel] for rel in p.relators if rel
    ]
    a = 0
    while a < len(ct.table):
        if ct.rep(a) != a:
            a += 1
            continue
        try:
            for cols in rel_cols:
                ct.scan_and_fill(a, cols)
                if ct.rep(a) != a:
                    break
            if ct.rep(a) == a:
                for c in range(ct.ncols):
                    if ct.table[a][c] is None:
                        ct.define(a, c)
        except _TableFull:
            # lookahead: scan everything without defining, then compact
            before = len(ct.table)
            for b in range(len(ct.table)):
                if ct.rep(b) != b:
                    continue
                for cols in rel_cols:
                    ct.scan_and_fill(b, cols, fill=False)
                    if ct.rep(b) != b:
                        break
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
    table = [[int(v) for v in row] for row in ct.table]
    # standardise: renumber cosets in breadth-first order of first appearance
    order_map = [-1] * n
    order_map[0] = 0
    parent = [0] * n
    via = [0] * n
    count = 1
    queue = [0]
    while queue:
        nxt = []
        for a in queue:
            for c in range(ct.ncols):
                b = table[a][c]
                if order_map[b] < 0:
                    order_map[b] = count
                    parent[count] = order_map[a]
                    via[count] = c
                    count += 1
                    nxt.append(b)
        queue = nxt
    if count != n:
        raise EnumerationError("coset table is not connected")
    std = [[0] * ct.ncols for _ in range(n)]
    for a in range(n):
        for c in range(ct.ncols):
            std[order_map[a]][c] = order_map[table[a][c]]
    rows = _rows_from_right_action(std, parent, via, std[0])
    gens = tuple(std[0][2 * g] for g in range(len(p.generator_names)))
    group = make_group(rows, generators=gens, name=p.name)
    for rel in p.relators:
        acc = 0
        for g, s in rel:
            img = group.generators[g] if s > 0 else group.inverse[group.generators[g]]
            acc = group.cayley[acc][img]
        if acc != 0:
            raise EnumerationError("relator does not evaluate to the identity")
    return group


def from_permutations(p: PermGenSet, size_cap: int = 4096) -> FiniteGroup:
    """Concrete group generated by permutations, via breadth-first closure.

    Elements are numbered in BFS order from the identity, multiplying on the
    right by the generators in declaration order; the identity gets index 0.
    The product x y applies x first, then y.  Each element is stored on the
    points the generators move, and the closure stops before it holds more
    than ``size_cap`` elements or ``MAX_CLOSURE_POINTS`` stored points.
    """
    moved = sorted({i for g in p.generators for i, v in enumerate(g) if v != i})
    at = {v: k for k, v in enumerate(moved)}
    perms = [tuple(at[g[v]] for v in moved) for g in p.generators]
    cap = min(size_cap, MAX_CLOSURE_POINTS // max(len(moved), 1))
    ident = tuple(range(len(moved)))
    index: dict[tuple[int, ...], int] = {ident: 0}
    elems: list[tuple[int, ...]] = [ident]
    parent = [0]
    via = [0]
    right: list[list[int]] = []
    for x, perm in enumerate(elems):  # grows while it is read: BFS order
        images = []
        for i, g in enumerate(perms):
            prod = tuple(map(g.__getitem__, perm))
            y = index.get(prod)
            if y is None:
                if len(elems) >= cap:
                    raise EnumerationError(
                        f"permutation closure exceeded {cap} elements"
                        f" on {len(moved)} moved points"
                    )
                y = index[prod] = len(elems)
                elems.append(prod)
                parent.append(x)
                via.append(i)
            images.append(y)
        right.append(images)
    gens = tuple(index[g] for g in perms)
    rows = _rows_from_right_action(right, parent, via, gens)
    return make_group(rows, generators=gens, name=p.name)


def _rows_from_right_action(right, parent, via, steps) -> list[tuple[int, ...]]:
    """Cayley rows of a group given by its right regular action.

    ``right[x][c]`` is the index of x s_c, where s_c is the element
    ``steps[c]``; every element x > 0 is ``parent[x]`` s_{via[x]} with
    ``parent[x] < x``.  The row of each step s is read off the action
    (s y = (s parent(y)) s_via(y)); every other row is its parent's row
    permuted by the row of its step: (u s) y = u (s y).
    """
    n = len(right)
    rows: list[tuple[int, ...] | None] = [None] * n
    rows[0] = tuple(range(n))
    for s in steps:
        if rows[s] is None:
            row = [s] * n
            for y in range(1, n):
                row[y] = right[row[parent[y]]][via[y]]
            rows[s] = tuple(row)
    times = [operator.itemgetter(*rows[s]) for s in steps]
    for x in range(1, n):
        if rows[x] is None:
            rows[x] = times[via[x]](rows[parent[x]])
    return rows


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
    acc = 0
    for g, s in word:
        img = G.generators[g] if s > 0 else G.inverse[G.generators[g]]
        acc = G.cayley[acc][img]
    return acc
