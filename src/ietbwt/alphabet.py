"""Ordered alphabets and letter permutations.

An alphabet is a finite ordered list of distinct single-character letters.
A permutation is stored against a base order as its one-line row, so
``row[i]`` is the image of the i-th base letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import DomainError

LettersLike = Union[str, Iterable[str], "Alphabet"]


class Alphabet:
    """Immutable ordered collection of distinct single-character letters.

    ``Alphabet(a)`` for an Alphabet ``a`` is ``a`` itself; anything else is
    checked."""

    __slots__ = ("letters", "_index")

    def __new__(cls, letters: LettersLike):
        if isinstance(letters, Alphabet):
            return letters
        seq = tuple(letters)
        if not seq:
            raise DomainError("alphabet must be non-empty")
        for x in seq:
            if not isinstance(x, str) or len(x) != 1:
                raise DomainError("letters must be single characters, got %r" % (x,))
        index = dict(zip(seq, range(len(seq))))
        if len(index) != len(seq):
            raise DomainError("duplicate letters in %r" % ("".join(seq),))
        self = object.__new__(cls)
        object.__setattr__(self, "letters", seq)
        object.__setattr__(self, "_index", index)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Alphabet is immutable")

    @classmethod
    def first(cls, k: int) -> "Alphabet":
        """The first k lowercase letters."""
        if not 1 <= k <= 26:
            raise DomainError("need 1 <= k <= 26, got %d" % k)
        return cls("abcdefghijklmnopqrstuvwxyz"[:k])

    def index(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise DomainError("letter %r not in alphabet %s" % (letter, self)) from None

    def ordered(self, subset: Iterable[str]) -> tuple[str, ...]:
        """The letters of subset in alphabet order."""
        want = set(subset)
        for x in want:
            if x not in self._index:
                raise DomainError("letter %r not in alphabet %s" % (x, self))
        return tuple(x for x in self.letters if x in want)

    def __contains__(self, letter) -> bool:
        return letter in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __eq__(self, other):
        if isinstance(other, Alphabet):
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self):
        return hash(self.letters)

    def __str__(self):
        return "".join(self.letters)

    def __repr__(self):
        return "Alphabet(%r)" % str(self)


@dataclass(frozen=True)
class Perm:
    """Permutation of an alphabet, stored as base letters and one-line row."""

    letters: tuple[str, ...]
    images: tuple[str, ...]

    def __init__(self, letters: Iterable[str], images: Iterable[str]):  # kept by @dataclass
        letters = tuple(letters)
        images = tuple(images)
        if sorted(letters) != sorted(images) or len(set(letters)) != len(letters):
            row, base = "".join(images), "".join(letters)
            raise DomainError("row %r is not a permutation of %r" % (row, base))
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "images", images)

    @classmethod
    def from_one_line(cls, letters: LettersLike, row: LettersLike) -> "Perm":
        return cls(tuple(Alphabet(letters)), tuple(row))

    @classmethod
    def from_cycles(cls, letters: LettersLike, cycles: Iterable[Iterable[str]]) -> "Perm":
        base = Alphabet(letters)
        mapping = {}
        for cycle in cycles:
            cyc = list(cycle)
            for x in cyc:
                if x not in base:
                    raise DomainError("cycle letter %r not in %s" % (x, base))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a in mapping:
                    raise DomainError("cycle letter %r appears twice" % (a,))
                mapping[a] = b
        return cls(tuple(base), tuple(mapping.get(x, x) for x in base))

    def __call__(self, letter: str) -> str:
        try:
            return self.images[self.letters.index(letter)]
        except ValueError:
            raise DomainError(
                "letter %r not in base %r" % (letter, "".join(self.letters))
            ) from None

    def one_line(self) -> str:
        return "".join(self.images)

    def is_symmetric(self) -> bool:
        return self.images == self.letters[::-1]

    @classmethod
    def from_json(cls, letters: LettersLike, obj) -> "Perm":
        """A one-line row, or an object with "one_line" (a row) or "cycles"
        (a list of cycles); rows and cycles are strings or lists of letters."""
        if isinstance(obj, str):
            return cls.from_one_line(letters, obj)
        if isinstance(obj, dict):
            if "one_line" in obj:
                if _is_letters(obj["one_line"]):
                    return cls.from_one_line(letters, obj["one_line"])
            elif isinstance(obj.get("cycles"), list) and all(map(_is_letters, obj["cycles"])):
                return cls.from_cycles(letters, obj["cycles"])
        raise DomainError("cannot read permutation from %r" % (obj,))


def _is_letters(obj) -> bool:
    """Whether a JSON value is a string or a list of strings."""
    return isinstance(obj, str) or (
        isinstance(obj, list) and all(isinstance(x, str) for x in obj)
    )
