"""Seeded benchmark inputs: group files rewritten without changing the group.

A seed other than 0 rewrites a presentation by renaming its generators,
shuffling its relators and rotating each relator cyclically (a rotation is a
conjugate, so the normal closure is unchanged).  A permutation file has its
points relabelled and its generators shuffled.  Seed 0 returns every text
byte-for-byte as given.  This module parses the file format itself, so the
inputs do not depend on the parser under test.
"""

from __future__ import annotations

import random
import re

_TOKEN = re.compile(r'\s+|#[^\n]*|"[^"\n]*"|[a-z][a-z0-9]*|-?[0-9]+|[{}();^=]')


def _tokens(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            raise ValueError(f"cannot tokenise group file at offset {i}")
        tok = m.group()
        if not tok[0].isspace() and tok[0] != "#":
            out.append(tok)
        i = m.end()
    return out


def _parse(text: str):
    """Return ("presentation", name, gens, relators) or
    ("permutations", name, degree, generators); words are (gen, sign) lists
    and permutations 0-based image lists."""
    toks = _tokens(text)
    pos = 0
    name, kind, degree = "", "presentation", 0
    if toks and toks[0] == "group":
        name, kind = toks[1].strip('"'), toks[2]
        pos = 3
        if kind == "permutations":
            degree = int(toks[4])
            pos = 5
        pos += 1  # "{"
    body = [t for t in toks[pos:] if t != "}"]
    items, cur = [], []
    for t in body:
        if t == ";":
            items.append(cur)
            cur = []
        else:
            cur.append(t)
    if kind == "permutations":
        perms = []
        for item in items:
            perm = list(range(degree))
            cycle: list[int] = []
            for t in item[1:]:
                if t == "(":
                    cycle = []
                elif t == ")":
                    for k, v in enumerate(cycle):
                        perm[v] = cycle[(k + 1) % len(cycle)]
                else:
                    cycle.append(int(t) - 1)
            perms.append(perm)
        return kind, name, degree, perms
    gens: list[str] = []
    relators = []
    for item in items:
        if item[0] == "gens":
            gens = item[1:]
            continue
        sides: list[list[tuple[int, int]]] = [[]]
        k = 1
        while k < len(item):
            t = item[k]
            if t == "=":
                sides.append([])
            elif t != "1":
                e = 1
                if k + 1 < len(item) and item[k + 1] == "^":
                    e = int(item[k + 2])
                    k += 2
                g = gens.index(t)
                sides[-1].extend([(g, 1 if e > 0 else -1)] * abs(e))
            k += 1
        word = sides[0]
        if len(sides) == 2:
            word = word + [(g, -s) for g, s in reversed(sides[1])]
        relators.append(word)
    return kind, name, gens, relators


def _free_reduce(word):
    out: list[tuple[int, int]] = []
    for g, s in word:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return out


def _format_word(word, names) -> str:
    if not word:
        return "1"
    parts, i = [], 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        g, s = word[i]
        e = (j - i) * s
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
        i = j
    return " ".join(parts)


def format_presentation(name: str, gens, relators) -> str:
    lines = [f'group "{name}" presentation {{', f"  gens {' '.join(gens)};"]
    lines += [f"  rel {_format_word(w, gens)};" for w in relators]
    return "\n".join(lines + ["}"]) + "\n"


def format_permutations(name: str, degree: int, perms) -> str:
    lines = [f'group "{name}" permutations degree {degree} {{']
    for perm in perms:
        seen, cycles = set(), []
        for start in range(degree):
            if start in seen or perm[start] == start:
                continue
            cyc, x = [], start
            while x not in seen:
                seen.add(x)
                cyc.append(str(x + 1))
                x = perm[x]
            cycles.append("(" + " ".join(cyc) + ")")
        lines.append(f"  gen {''.join(cycles) or '(1)'};")
    return "\n".join(lines + ["}"]) + "\n"


def _fresh_names(rng: random.Random, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        names.add(rng.choice("abcdefghijklmnopqrstuvwxyz") + str(rng.randrange(100)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def rewrite(text: str, seed: int, key: str) -> str:
    """The group file ``text`` rewritten for ``seed``; ``key`` names the file
    so that each file of one seed gets its own rewrite."""
    if seed == 0:
        return text
    rng = random.Random(f"{seed}/{key}")
    parsed = _parse(text)
    if parsed[0] == "permutations":
        _, name, degree, perms = parsed
        sigma = list(range(degree))
        rng.shuffle(sigma)
        moved = []
        for perm in perms:
            image = [0] * degree
            for x in range(degree):
                image[sigma[x]] = sigma[perm[x]]
            moved.append(image)
        rng.shuffle(moved)
        return format_permutations(name, degree, moved)
    _, name, gens, relators = parsed
    rotated = []
    for word in relators:
        if word:
            k = rng.randrange(len(word))
            word = _free_reduce(word[k:] + word[:k])
        rotated.append(word)
    rng.shuffle(rotated)
    return format_presentation(name, _fresh_names(rng, len(gens)), rotated)


# ------------------------------------------------------------ group families


def _gens(k: int) -> list[str]:
    return [f"x{i + 1}" for i in range(k)]


def abelian_text(name: str, factors) -> str:
    """Direct product of cyclic groups Z_d, one generator per factor."""
    k = len(factors)
    rels = [[(i, 1)] * d for i, d in enumerate(factors)]
    rels += [[(i, -1), (j, -1), (i, 1), (j, 1)] for i in range(k) for j in range(i + 1, k)]
    return format_presentation(name, _gens(k), rels)


def dihedral_text(name: str, order: int) -> str:
    """Dihedral group of the given order: a^(n) = b^2 = 1, b^-1 a b = a^-1."""
    n = order // 2
    return format_presentation(
        name, ["a", "b"], [[(0, 1)] * n, [(1, 1)] * 2, [(1, -1), (0, 1), (1, 1), (0, 1)]]
    )


def dicyclic_text(name: str, order: int) -> str:
    """Dicyclic group of order 4m: a^(2m) = 1, b^2 = a^m, b^-1 a b = a^-1."""
    m = order // 4
    return format_presentation(
        name,
        ["a", "b"],
        [[(0, 1)] * (2 * m), [(1, 1)] * 2 + [(0, -1)] * m, [(1, -1), (0, 1), (1, 1), (0, 1)]],
    )


def coxeter_a_text(name: str, rank: int) -> str:
    """Coxeter presentation of type A_rank, the symmetric group on rank+1 points."""
    rels = [[(i, 1)] * 2 for i in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            m = 3 if j == i + 1 else 2
            rels.append([(i, 1), (j, 1)] * m)
    return format_presentation(name, [f"s{i + 1}" for i in range(rank)], rels)


def symmetric_text(name: str, degree: int) -> str:
    """Symmetric group from a transposition and a full cycle."""
    swap = [1, 0] + list(range(2, degree))
    cycle = [(x + 1) % degree for x in range(degree)]
    return format_permutations(name, degree, [swap, cycle])


def alternating_text(name: str, degree: int) -> str:
    """Alternating group of odd degree from (1 2 3) and a full cycle."""
    three = [1, 2, 0] + list(range(3, degree))
    cycle = [(x + 1) % degree for x in range(degree)]
    return format_permutations(name, degree, [three, cycle])
