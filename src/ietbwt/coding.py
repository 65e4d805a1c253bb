"""Symbolic codings: trajectories, cylinder intervals, finite language
samples, return words, and the letter-to-word morphisms that induction
steps produce.

A language sample holds every factor up to a stated bound, so membership
questions are only meaningful up to that bound.

The exchange pulls its cylinder levels back on its own integer frame
(see `iet`), so their ends stay integer pairs: `language` keeps only the
words, and `cylinders` and `cylinder` turn each end into a FieldValue once.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .alphabet import Alphabet, LettersLike
from .errors import DomainError
from .exact import FieldValue
from .iet import DietSpec, Iet, Interval, diet_action


def trajectory(t: Iet, x: FieldValue, n: int) -> str:
    """The first n letters of the coding of x; x is not read when n is 0."""
    if n < 0:
        raise DomainError("trajectory length must be non-negative")
    return t._coding(x, n) if n else ""


@dataclass(frozen=True)
class CylinderTable:
    """Non-empty cylinder intervals, level by level; level m holds every
    admissible length-m coding word with its interval."""

    depth: int
    levels: tuple[dict, ...]

    def interval(self, word: str) -> Interval:
        if len(word) > self.depth:
            raise DomainError("table depth %d < |%s|" % (self.depth, word))
        try:
            return self.levels[len(word)][word]
        except KeyError:
            raise DomainError("empty cylinder for %r" % word) from None


def cylinders(t: Iet, depth: int) -> CylinderTable:
    """Every non-empty cylinder up to the depth; each distinct end becomes
    one FieldValue."""
    levels = tuple(t._levels(depth))
    values = {end: t._value(end) for lv in levels for iv in lv.values() for end in iv}
    return CylinderTable(depth, tuple(
        {w: (values[lo], values[hi]) for w, (lo, hi) in lv.items()} for lv in levels
    ))


def cylinder(t: Iet, word: str) -> Interval:
    """The interval I_w coded by the word, pulled back right to left."""
    return tuple(map(t._value, t._cylinder(word)))


@dataclass(frozen=True)
class LanguageSample:
    """Every factor of a language up to the bound, grouped by length: levels[n]
    holds the words of length n, sorted.  The samples built here (language,
    language_of_periodic, diet_language) are factor-closed, and each word
    shorter than the bound is a prefix of a word of the bound's length, so the
    longest words alone show every way a word continues."""

    alphabet: tuple[str, ...]
    bound: int
    levels: tuple[tuple[str, ...], ...]

    @cached_property
    def words(self) -> frozenset:
        return frozenset(chain.from_iterable(self.levels))

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def words_of_length(self, n: int) -> tuple[str, ...]:
        return self.levels[n] if 0 <= n < len(self.levels) else ()


def _sorted_levels(groups) -> tuple:
    # from a sorted list, not an iterator: a tuple grown from an iterator is resized,
    # and once freed stays on CPython's free list for that size until a full collection
    return tuple(tuple(sorted(ws)) for ws in groups)


def language(t: Iet, bound: int) -> LanguageSample:
    """All coding words of length up to the bound: the words of the
    cylinder levels, whose ends stay integer pairs."""
    return LanguageSample(t.alphabet.letters, bound, _sorted_levels(t._levels(bound)))


def _periodic_levels(word: str, bound: int) -> list:
    """The sets of factors of word^w of each length up to the bound."""
    if not word:
        raise DomainError("empty word")
    if bound < 0:
        raise DomainError("depth must be non-negative")
    size = len(word) * (bound // len(word) + 2)
    if size > sys.maxsize:
        raise DomainError("periodic text of %d letters exceeds %d" % (size, sys.maxsize))
    reps = word * (size // len(word))
    return [{reps[i : i + n] for i in range(len(word))} for n in range(bound + 1)]


def language_of_periodic(word: str, bound: int) -> LanguageSample:
    """Factors of the periodic sequence word^w, up to the bound."""
    levels = _sorted_levels(_periodic_levels(word, bound))
    return LanguageSample(tuple(sorted(set(word))), bound, levels)


def diet_language(spec: DietSpec, bound: int) -> LanguageSample:
    """Factors of the periodic orbits of a discrete exchange: the union of
    the periodic languages of its cycle words."""
    word = " " + spec.word()  # positions count from 1
    _, cycles = diet_action(spec)
    per_cycle = [_periodic_levels("".join(map(word.__getitem__, cyc)), bound) for cyc in cycles]
    return LanguageSample(spec.letters, bound, _sorted_levels(map(set.union, *per_cycle)))


def left_return_words(
    lang: LanguageSample, word: str, max_len: int
) -> tuple[frozenset, bool]:
    """Words u with uw in the language and w occurring in uw only as its
    prefix and suffix, and whether none longer than max_len was missed."""
    if max_len < 1:
        raise DomainError("max_len must be positive")
    if word == "":
        return frozenset(lang.words_of_length(1)), True
    if word not in lang:
        raise DomainError("word %r not in language sample" % word)
    if lang.bound < max_len + len(word):
        raise DomainError(
            "language bound %d too small, need %d" % (lang.bound, max_len + len(word))
        )
    return _left_returns_by_prefix(lang, len(word), max_len).get(word, (frozenset(), True))


def _left_returns_by_prefix(lang: LanguageSample, n: int, max_len: int) -> dict:
    """left_return_words of every length-n word that starts a word v of length
    max_len + n, from one pass over that level grouped by prefix: the second
    occurrence of the prefix w in v ends the return word v[:i], and a v
    without one clears w's completeness flag."""
    found: dict = {}
    incomplete = set()
    for v in lang.words_of_length(max_len + n):
        w = v[:n]
        i = v.find(w, 1)
        if i == -1:
            found.setdefault(w, set())
            incomplete.add(w)
        else:
            found.setdefault(w, set()).add(v[:i])
    return {w: (frozenset(us), w not in incomplete) for w, us in found.items()}


def right_return_words(
    lang: LanguageSample, word: str, max_len: int
) -> tuple[frozenset, bool]:
    """Words v with wv in the language and w occurring only at its ends;
    each left return u pairs with v = (uw) with its leading w removed."""
    lefts, complete = left_return_words(lang, word, max_len)
    return frozenset((u + word)[len(word) :] for u in lefts), complete


# -- letter morphisms ---------------------------------------------------


class LetterMorphism:
    """Substitution sending each source letter to a non-empty target word."""

    def __init__(self, source: LettersLike, target: LettersLike, rules: dict):
        self.source = Alphabet(source)
        self.target = Alphabet(target)
        if set(rules) != set(self.source.letters):
            raise DomainError("rules must cover the source alphabet exactly")
        allowed = frozenset(self.target.letters)
        for x, image in rules.items():
            if not image:
                raise DomainError("empty image for %r" % x)
            for ch in image:
                if ch not in allowed:
                    raise DomainError(
                        "image letter %r of %r not in target %s"
                        % (ch, x, self.target)
                    )
        self.rules = {x: rules[x] for x in self.source.letters}

    @classmethod
    def _proven(cls, source: Alphabet, target: Alphabet, rules: dict) -> "LetterMorphism":
        """A morphism whose rules are already known to send each source letter,
        in source order, to a non-empty word of the target: nothing is rechecked."""
        m = object.__new__(cls)
        m.source, m.target, m.rules = source, target, rules
        return m

    def __call__(self, word: str) -> str:
        try:
            return "".join(self.rules[ch] for ch in word)
        except KeyError as exc:
            raise DomainError("letter %s not in source alphabet" % exc) from exc

    def __eq__(self, other):
        if not isinstance(other, LetterMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.rules == other.rules
        )

    def __repr__(self):
        body = ", ".join("%s->%s" % (x, w) for x, w in self.rules.items())
        return "LetterMorphism(%s)" % body

    def to_json(self) -> dict:
        return {
            "source": str(self.source),
            "target": str(self.target),
            "rules": dict(self.rules),
        }
