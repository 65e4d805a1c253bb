"""Word combinatorics: rotations, Burrows-Wheeler transforms, Lyndon
representatives, clustering permutations and their transport along
elementary substitutions.

A substitution is a coding.LetterMorphism, the type induction steps emit.
It is used here by duck typing, since importing coding would be circular.

A word is "pi-clustering" for a letter order and a permutation pi of that
order when the transform output is the concatenation, over the order, of
one run per letter: the run at position x consists of pi(x) repeated as
often as pi(x) occurs in the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from math import gcd
from operator import itemgetter
from typing import Iterable, Sequence, Union

from .alphabet import Alphabet, Perm
from .errors import DomainError

OrderLike = Union[str, Sequence[str], Alphabet, None]


def _resolve_order(order: OrderLike, *words: str) -> tuple[str, ...]:
    if order is None:
        return tuple(sorted(set("".join(words))))
    out = tuple(order)
    seen = set(out)
    if len(seen) != len(out):
        raise DomainError("letter order has duplicates")
    if not all(isinstance(ch, str) and len(ch) == 1 for ch in out):
        raise DomainError("letters must be single characters, got %r" % (out,))
    for w in words:
        if not seen.issuperset(w):
            ch = next(ch for ch in w if ch not in seen)
            raise DomainError("letter %r not in order %r" % (ch, "".join(out)))
    return out


def rotations(word: str) -> tuple[str, ...]:
    return tuple(word[i:] + word[:i] for i in range(len(word)))


def runs_of(s: str) -> tuple[tuple[str, int], ...]:
    return tuple([(ch, len(list(grp))) for ch, grp in groupby(s)])


def _rotation_keys(words: Sequence[str], base: tuple[str, ...]) -> list[str]:
    """One key per rotation, in the order of the words' concatenation: the
    first `span` letters of the rotation's infinite power, each letter as
    chr(its rank in base).  With span the Fine-Wilf bound (see ebwt),
    comparing keys as strings is omega_compare; for one word, span is its
    length and a key is its rotation."""
    ranks = {ord(ch): i for i, ch in enumerate(base)}
    if len(words) == 1:
        span = len(words[0])
    else:
        lengths = set(map(len, words))
        span = max(m + n - gcd(m, n) for m in lengths for n in lengths)
    keys = []
    for w in words:
        n = len(w)
        text = w.translate(ranks) * (span // n + 2)
        keys.extend([text[i : i + span] for i in range(n)])
    return keys


@dataclass(frozen=True)
class BwtResult:
    """A transform; starts holds the sorted rotations as start positions
    in the concatenation of words."""

    words: tuple[str, ...]
    order: tuple[str, ...]
    output: str
    runs: tuple[tuple[str, int], ...]
    starts: tuple[int, ...]

    @property
    def rotations(self) -> tuple[str, ...]:
        conj = [r for w in self.words for r in rotations(w)]
        return tuple(conj[p] for p in self.starts)


def _sort(words: tuple[str, ...], base: tuple[str, ...]) -> tuple[tuple[int, ...], str]:
    """Sort all rotations of the words stably by _rotation_keys: their starts,
    and the output, the letter before each start."""
    keys = _rotation_keys(words, base)
    starts = tuple(sorted(range(len(keys)), key=keys.__getitem__))
    before = "".join(w[-1] + w[:-1] for w in words)
    return starts, "".join(itemgetter(*starts)(before))


def _transform(words: tuple[str, ...], base: tuple[str, ...]) -> BwtResult:
    starts, output = _sort(words, base)
    return BwtResult(words, base, output, runs_of(output), starts)


def _bwt_output(word: str, order: OrderLike) -> str:
    """The output of bwt(word, order) alone: the sorted keys' last letters,
    each the letter before its rotation (equal keys end alike)."""
    if not word:
        raise DomainError("empty word")
    base = _resolve_order(order, word)
    keys = sorted(_rotation_keys((word,), base))
    return "".join([k[-1] for k in keys]).translate(dict(enumerate(base)))


def bwt(word: str, order: OrderLike = None) -> BwtResult:
    """Burrows-Wheeler transform: last column of the sorted rotations."""
    if not word:
        raise DomainError("empty word")
    return _transform((word,), _resolve_order(order, word))


def omega_compare(u: str, v: str, order: OrderLike = None) -> int:
    """Compare the infinite powers u^w and v^w letter by letter; the first
    len(u)+len(v) positions decide."""
    if not u or not v:
        raise DomainError("empty word")
    base = _resolve_order(order, u, v)
    index = {ch: i for i, ch in enumerate(base)}
    for i in range(len(u) + len(v)):
        cu, cv = index[u[i % len(u)]], index[v[i % len(v)]]
        if cu != cv:
            return -1 if cu < cv else 1
    return 0


def ebwt(words: Iterable[str], order: OrderLike = None) -> BwtResult:
    """Extended transform of a multiset of primitive words: last letters of
    all their rotations sorted by omega order, ties kept in input order.

    Rotations are compared on their first max |u|+|v|-gcd(|u|,|v|) letters
    of u^w (the Fine-Wilf span), which decides omega_compare exactly."""
    ws = tuple(words)
    if not ws:
        raise DomainError("empty multiset")
    for w in ws:
        if not is_primitive(w):
            raise DomainError("word %r is not primitive" % w)
    return _transform(ws, _resolve_order(order, *ws))


def is_primitive(word: str) -> bool:
    if not word:
        raise DomainError("empty word")
    return (word + word).find(word, 1) == len(word)


def primitive_root(word: str) -> str:
    if not word:
        raise DomainError("empty word")
    return word[: (word + word).find(word, 1)]


def lyndon_representative(word: str, order: OrderLike = None) -> str:
    """Least rotation under the letter order: it starts the last run of equal
    factors that begins in the first half of the word's square, in Duval's
    Lyndon factorisation (J. Algorithms 4, 1983); O(n), no rotation strings."""
    if not word:
        raise DomainError("empty word")
    ranks = {ord(ch): i for i, ch in enumerate(_resolve_order(order, word))}
    text, n = word.translate(ranks) * 2, len(word)
    i = start = 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < 2 * n and text[k] <= text[j]:
            k = i if text[k] < text[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return word[start:] + word[:start]


def is_lyndon(word: str, order: OrderLike = None) -> bool:
    return is_primitive(word) and word == lyndon_representative(word, order)


def parikh(word: str, letters: OrderLike = None) -> dict[str, int]:
    base = _resolve_order(letters, word)
    return {ch: word.count(ch) for ch in base}


# -- clustering ---------------------------------------------------------


def expected_clustered_output(word: str, perm: Perm) -> str:
    counts = parikh(word, perm.letters)
    return "".join(perm(x) * counts[perm(x)] for x in perm.letters)


def is_pi_clustering(word: str, perm: Perm) -> bool:
    """Whether the transform under the permutation's base order equals the
    run concatenation prescribed by the permutation."""
    return _bwt_output(word, perm.letters) == expected_clustered_output(word, perm)


def is_clustering(word: str, order: OrderLike = None) -> bool:
    """Whether each letter forms at most one run in the transform output."""
    out = _bwt_output(word, order)
    return all(ch * out.count(ch) in out for ch in set(out))


def infer_clustering_permutation(
    word: str, order: OrderLike = None, all_completions: bool = False
):
    """The canonical permutation certifying that the word clusters, or None.

    Canonically, letters absent from the word are fixed and the present
    letters map, in order, onto the run letters in run order.  With
    all_completions, every valid permutation with absent letters placed
    order-preservingly is returned as a tuple."""
    base = _resolve_order(order, word)
    res = bwt(word, base)
    run_letters = [ltr for ltr, _ in res.runs]
    if len(set(run_letters)) != len(run_letters):
        return () if all_completions else None
    present = set(word)
    absent = [x for x in base if x not in present]
    if not all_completions:
        mapping = {x: x for x in absent}
        for x, y in zip((x for x in base if x in present), run_letters):
            mapping[x] = y
        return Perm(base, tuple(mapping[x] for x in base))
    out = []
    m = len(run_letters)
    for subset in combinations(range(len(base)), m):
        mapping = {}
        for pos, y in zip(subset, run_letters):
            mapping[base[pos]] = y
        rest = [i for i in range(len(base)) if i not in subset]
        for pos, y in zip(rest, absent):
            mapping[base[pos]] = y
        out.append(Perm(base, tuple(mapping[x] for x in base)))
    return tuple(out)


# -- transport of clustering pairs along substitutions ------------------


def _adjacent(seq: Sequence[str], first: str, second: str) -> bool:
    i = seq.index(first)
    return i + 1 < len(seq) and seq[i + 1] == second


def clustering_transport(
    order: OrderLike, perm: Perm, phi
) -> tuple[tuple[str, ...], Perm]:
    """Push a clustering pair (order, permutation) through one elementary
    letter morphism phi, whose kind is read from its rules: all letters
    fixed is an inclusion (fresh target letters join the order's end),
    single-letter images are a rename, and one image a+b or b+a with the
    rest fixed is a -> ab or a -> ba.  A fresh b in a -> ab goes to the end
    of the order at which phi.target holds it.

    If a word is clustering for the input pair, phi(word) is clustering for
    the returned pair.  Raises DomainError when phi is not elementary or
    the step's side condition does not hold for this pair."""
    base = tuple(order)
    if perm.letters != base:
        raise DomainError("permutation base does not match the order")
    rules = phi.rules
    if set(rules) != set(base):
        raise DomainError("substitution source must be the order's letters")
    row = perm.images
    moved = [x for x in base if rules[x] != x]

    if not moved:
        fresh = tuple(y for y in phi.target if y not in rules)
        order2 = base + fresh
        return order2, Perm(order2, row + fresh)

    if all(len(rules[x]) == 1 for x in base):
        order2 = tuple(rules[x] for x in base)
        if len(set(order2)) != len(order2):
            raise DomainError("rename is not injective")
        return order2, Perm(order2, tuple(rules[y] for y in row))

    a = moved[0]
    image = rules[a]
    if len(moved) != 1 or len(image) != 2 or a not in image or image == a + a:
        raise DomainError("not an elementary substitution: %r" % (phi,))

    if image[0] == a:
        b = image[1]
        if b not in base:
            sub = tuple(b if y == a else y for y in row)
            if phi.target[-1] == b:
                order2 = base + (b,)
                return order2, Perm(order2, sub + (a,))
            if phi.target[0] == b:
                order2 = (b,) + base
                return order2, Perm(order2, (a,) + sub)
            raise DomainError("fresh letter %r must sit at an end of the target" % b)
        if b == base[0]:
            if not _adjacent(row, a, b):
                raise DomainError("row must place %r right before %r" % (a, b))
            return base, Perm(base, (a,) + tuple(y for y in row if y != a))
        if b == base[-1]:
            if not _adjacent(row, b, a):
                raise DomainError("row must place %r right before %r" % (b, a))
            return base, Perm(base, tuple(y for y in row if y != a) + (a,))
        raise DomainError("letter %r must sit at an end of the order" % b)

    b = image[0]
    if row[0] == b:
        if not _adjacent(base, a, b):
            raise DomainError("order must place %r right before %r" % (a, b))
        order2 = (a,) + tuple(x for x in base if x != a)
        return order2, Perm(order2, row)
    if row[-1] == b:
        if not _adjacent(base, b, a):
            raise DomainError("order must place %r right before %r" % (b, a))
        order2 = tuple(x for x in base if x != a) + (a,)
        return order2, Perm(order2, row)
    raise DomainError("letter %r must sit at an end of the row" % b)
