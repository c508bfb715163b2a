"""Independent oracle for right multiplication by monomials T_w M^a.

This is the walk that ``hecke._fill`` replaced: the keys are grouped by
permutation, the words of the groups are walked in lexicographic order on
a stack that holds the current prefix only, and each group's exponent
vectors are walked the same way (cyclotomic engine: the words
L_r^{a_r} ... L_1^{a_1}) or shifted (affine engine).  It shares nothing
with ``_fill`` or ``AlgebraBase._path`` but the generator steps
``_rmul_T``/``_rmul_L``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from cycloschur.hecke import HeckeAlgebra, TermKey, _rmul_L, _rmul_T


def walk_words(start, words, step):
    """Yield (word, start . word) for each word, in lexicographic order.

    ``step(x, letter)`` applies one letter.  A stack holds start . p for
    the prefixes p of the current word, so each distinct prefix of the
    words is applied once.
    """
    stack = [start]
    prev: tuple[int, ...] = ()
    for word in sorted(words):
        k = 0
        for x, y in zip(prev, word):
            if x != y:
                break
            k += 1
        del stack[k + 1 :]
        for letter in word[k:]:
            stack.append(step(stack[-1], letter))
        prev = word
        yield word, stack[-1]


def hecke_exponent_group(alg, terms, exps):
    """(a, terms * L^a) for each a in exps, applying each shared prefix of
    the words L_r^{a_r} ... L_2^{a_2} L_1^{a_1} once."""
    r = alg.r
    words = {
        tuple(j for j in range(r, 0, -1) for _ in range(a[j - 1])): a
        for a in exps
    }
    for word, cur in walk_words(terms, words, lambda t, j: _rmul_L(alg, t, j)):
        yield words[word], cur


def affine_exponent_group(alg, terms, exps):
    """(a, terms * X^a) for each a in exps: a shift, one-to-one on keys."""
    for a in exps:
        yield a, {(w, tuple(x + y for x, y in zip(b, a))): c for (w, b), c in terms.items()}


def rmul_monomials(x, keys: Iterable[TermKey]) -> Iterator[tuple[TermKey, dict]]:
    """(k, x * T_w2 M^a2) for each monomial k = (w2, a2) of keys, in private
    coefficients.

    The keys are grouped by w2, x is straightened once per prefix of their
    reduced words, and each group's exponent vectors share prefixes through
    the engine's exponent group.
    """
    alg = x.alg
    exponent_group = (
        hecke_exponent_group if isinstance(alg, HeckeAlgebra) else affine_exponent_group
    )
    groups: dict = {}
    for w2, a2 in keys:
        groups.setdefault(w2.word(), (w2, []))[1].append(a2)
    for word, cur in walk_words(x._terms, groups, lambda t, i: _rmul_T(alg, t, i)):
        w2, exps = groups[word]
        for a2, terms in exponent_group(alg, cur, exps):
            yield (w2, a2), terms
