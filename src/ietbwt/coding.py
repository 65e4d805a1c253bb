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

from .alphabet import Alphabet, LettersLike
from .errors import DomainError
from .exact import FieldValue
from .iet import DietSpec, Iet, Interval, diet_action


def trajectory(t: Iet, x: FieldValue, n: int) -> str:
    """The first n letters of the coding of x."""
    if n < 0:
        raise DomainError("trajectory length must be non-negative")
    out = []
    for _ in range(n):
        a = t.letter_at(x)
        out.append(a)
        x = x + t.translation(a)
    return "".join(out)


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


def _cylinder_ends(t: Iet, word: str) -> tuple:
    """The ends of I_w as frame pairs, pulled back right to left one letter
    at a time along the word's suffixes."""
    *_, level = t._levels(len(word), word)
    if word not in level:
        raise DomainError("empty cylinder for %r" % word)
    return level[word]


def cylinder(t: Iet, word: str) -> Interval:
    """The interval I_w coded by the word."""
    return tuple(map(t._value, _cylinder_ends(t, word)))


@dataclass(frozen=True)
class LanguageSample:
    """Every factor of a language up to the bound.  The samples built here
    (language, language_of_periodic, diet_language) are factor-closed, and
    each word shorter than the bound is a prefix of a word of the bound's
    length, so the longest words alone show every way a word continues."""

    alphabet: tuple[str, ...]
    bound: int
    words: frozenset

    def __contains__(self, word: str) -> bool:
        return word in self.words

    @cached_property
    def _by_length(self) -> dict[int, tuple[str, ...]]:
        groups: dict = {}
        for w in self.words:
            groups.setdefault(len(w), []).append(w)
        # from a sorted list, not an iterator: a tuple grown from an iterator is resized,
        # and once freed stays on CPython's free list for that size until a full collection
        return {n: tuple(sorted(ws)) for n, ws in groups.items()}

    def words_of_length(self, n: int) -> tuple[str, ...]:
        return self._by_length.get(n, ())


def language(t: Iet, bound: int) -> LanguageSample:
    """All coding words of length up to the bound: the words of the
    cylinder levels, whose ends stay integer pairs."""
    words = frozenset(w for level in t._levels(bound) for w in level)
    return LanguageSample(t.alphabet.letters, bound, words)


def language_of_periodic(word: str, bound: int) -> LanguageSample:
    """Factors of the periodic sequence word^w, up to the bound."""
    if not word:
        raise DomainError("empty word")
    if bound < 0:
        raise DomainError("depth must be non-negative")
    size = len(word) * (bound // len(word) + 2)
    if size > sys.maxsize:
        raise DomainError("periodic text of %d letters exceeds %d" % (size, sys.maxsize))
    reps = word * (size // len(word))
    words = {""}
    for n in range(1, bound + 1):
        for i in range(len(word)):
            words.add(reps[i : i + n])
    return LanguageSample(tuple(sorted(set(word))), bound, frozenset(words))


def diet_language(spec: DietSpec, bound: int) -> LanguageSample:
    """Factors of the periodic orbits of a discrete exchange: the union of
    the periodic languages of its cycle words."""
    word = spec.word()
    _, cycles = diet_action(spec)
    words: set = set()
    for cyc in cycles:
        cycle_word = "".join(word[i - 1] for i in cyc)
        words |= language_of_periodic(cycle_word, bound).words
    return LanguageSample(spec.letters, bound, frozenset(words))


def left_return_words(
    lang: LanguageSample, word: str, max_len: int
) -> tuple[frozenset, bool]:
    """Words u with uw in the language and w occurring in uw only as its
    prefix and suffix.  One level is read, the words v of length
    max_len + |w| that start with w: the second occurrence of w in v ends
    the return word v[:i], and a v without one clears the completeness
    flag, which says no return word longer than max_len was missed."""
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
    found, complete = set(), True
    for v in lang.words_of_length(max_len + len(word)):
        if v.startswith(word):
            i = v.find(word, 1)
            if i == -1:
                complete = False
            else:
                found.add(v[:i])
    return frozenset(found), complete


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
