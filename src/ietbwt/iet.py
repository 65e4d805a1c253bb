"""Interval exchange transformations with exact endpoints.

An IET is given by an ordered alphabet, one positive exact length per
letter, a permutation whose one-line row lists the image order left to
right, and an origin.  All intervals are half-open [x, y).  The map is
total on its domain: each point moves by the translation of its letter.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .alphabet import Alphabet, LettersLike, Perm
from .errors import DomainError
from .exact import FieldValue, ZERO, value_from_json
from .words import lyndon_representative

Interval = tuple[FieldValue, FieldValue]


@dataclass(frozen=True)
class Connection:
    """An inverse-discontinuity start whose forward orbit hits a
    discontinuity end after the given number of steps."""

    start: FieldValue
    end: FieldValue
    steps: int


def _as_value(v, name: str) -> FieldValue:
    """A FieldValue, int or Fraction as a FieldValue; anything else is refused."""
    if isinstance(v, (int, Fraction)):
        v = FieldValue(v)
    elif not isinstance(v, FieldValue):
        raise DomainError("%s must be an int, Fraction or FieldValue, got %r" % (name, v))
    return v


class Iet:
    def __init__(
        self,
        alphabet: LettersLike,
        lengths: dict[str, FieldValue],
        perm: Union[Perm, str],
        origin: Optional[FieldValue] = None,
    ):
        self.alphabet = Alphabet(alphabet)
        if isinstance(perm, str):
            perm = Perm.from_one_line(self.alphabet, perm)
        if perm.letters != self.alphabet.letters:
            raise DomainError(
                "permutation base %r does not match alphabet %s"
                % ("".join(perm.letters), self.alphabet)
            )
        self.perm = perm
        self.origin = _as_value(ZERO if origin is None else origin, "origin")
        if set(lengths) != set(self.alphabet):
            raise DomainError("lengths must cover exactly the alphabet")
        self.lengths = {x: _as_value(lengths[x], "length of %r" % x) for x in self.alphabet}
        radicands = {v.d for v in self.lengths.values()} | {self.origin.d}
        radicands.discard(0)
        if len(radicands) > 1:
            raise DomainError("mixed radicands %s in one transformation" % radicands)
        for x, v in self.lengths.items():
            if v.sign() <= 0:
                raise DomainError("length of %r must be positive, got %s" % (x, v))
        # built once: letter intervals, image slots, and the cuts that
        # letter_at and apply_inverse bisect
        self._intervals, self._cuts = self._tile(self.alphabet.letters)
        self._image_intervals, self._image_cuts = self._tile(self.perm.images)
        self._domain = (self.origin, self._cuts[-1])
        self._tau = {x: self._image_intervals[x][0] - self.left(x) for x in self.alphabet}

    def _tile(self, order) -> tuple[dict[str, Interval], list[FieldValue]]:
        """Consecutive intervals from the origin, one per letter in order,
        and their cuts: every left endpoint, then the right end."""
        out, cuts = {}, [self.origin]
        for x in order:
            cuts.append(cuts[-1] + self.lengths[x])
            out[x] = (cuts[-2], cuts[-1])
        return out, cuts

    # -- geometry --------------------------------------------------------

    def domain(self) -> Interval:
        return self._domain

    def interval(self, letter: str) -> Interval:
        return self._intervals[letter]

    def image_interval(self, letter: str) -> Interval:
        return self._image_intervals[letter]

    def left(self, letter: str) -> FieldValue:
        return self._intervals[letter][0]

    def translation(self, letter: str) -> FieldValue:
        return self._tau[letter]

    def _slot(self, cuts: list, x: FieldValue) -> int:
        """Index of the interval between consecutive cuts that holds x."""
        i = bisect_right(cuts, x)
        if not 0 < i < len(cuts):
            raise DomainError("point %s outside domain [%s, %s)" % (x, *self._domain))
        return i - 1

    def letter_at(self, x: FieldValue) -> str:
        return self.alphabet.letters[self._slot(self._cuts, x)]

    # -- the map ---------------------------------------------------------

    def apply(self, x: FieldValue) -> FieldValue:
        return x + self._tau[self.letter_at(x)]

    def apply_inverse(self, y: FieldValue) -> FieldValue:
        return y - self._tau[self.perm.images[self._slot(self._image_cuts, y)]]

    def apply_n(self, x: FieldValue, n: int) -> FieldValue:
        step = self.apply if n >= 0 else self.apply_inverse
        for _ in range(abs(n)):
            x = step(x)
        return x

    # -- discontinuity structure -----------------------------------------

    def discontinuities(self) -> tuple[FieldValue, ...]:
        """Interior left endpoints of the domain intervals, ascending."""
        return tuple(self._cuts[1:-1])

    def discontinuities_inverse(self) -> tuple[FieldValue, ...]:
        """Interior left endpoints of the image slots, ascending."""
        return tuple(self._image_cuts[1:-1])

    def zero_connections(self) -> tuple[FieldValue, ...]:
        inv = self.discontinuities_inverse()
        return tuple(x for x in self.discontinuities() if any(x == y for y in inv))

    def regions(self) -> tuple[Interval, ...]:
        lo, hi = self.domain()
        cuts = [lo, *self.zero_connections(), hi]
        return tuple((cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1))

    def invariant_blocks(self) -> tuple[tuple[str, ...], ...]:
        """Proper contiguous letter runs mapped onto their own interval.

        A run is invariant when the row entries at its positions are the
        same letters and the run's interval starts where its image does."""
        base = self.alphabet.letters
        row = self.perm.images
        k = len(base)
        out = []
        for i in range(k):
            if self._cuts[i] != self._image_cuts[i]:
                continue
            for j in range(i, k):
                if (i, j) != (0, k - 1) and set(base[i : j + 1]) == set(row[i : j + 1]):
                    out.append(base[i : j + 1])
        return tuple(out)

    def block_interval(self, block: Iterable[str]) -> Interval:
        letters = self.alphabet.ordered(block)
        if not letters:
            raise DomainError("empty block")
        i = self.alphabet.index(letters[0])
        if tuple(self.alphabet.letters[i : i + len(letters)]) != letters:
            raise DomainError("block %r is not contiguous" % ("".join(letters),))
        return (self.left(letters[0]), self.interval(letters[-1])[1])

    # -- connections -----------------------------------------------------

    def _connections(self, max_steps: int):
        """Yield every (start, end, n) with start an inverse discontinuity
        whose n-th image, n <= max_steps, is a forward discontinuity, in
        (steps, start) order."""
        if max_steps < 0:
            raise DomainError("search depth must be non-negative, got %d" % max_steps)
        targets = self.discontinuities()
        starts = pts = self.discontinuities_inverse()
        for n in range(max_steps + 1):
            for start, pt in zip(starts, pts):
                if pt in targets:
                    yield Connection(start, pt, n)
            pts = [self.apply(pt) for pt in pts]

    def find_connections(self, max_steps: int) -> tuple[Connection, ...]:
        """Every connection up to max_steps, in (steps, start) order."""
        return tuple(self._connections(max_steps))

    def keane_probe(self, max_steps: int) -> Optional[Connection]:
        """First connection in (steps, start) order, or None if the
        transformation looks regular to that depth."""
        return next(self._connections(max_steps), None)

    # -- reshaping -------------------------------------------------------

    def translate(self, delta: FieldValue) -> "Iet":
        return Iet(self.alphabet, self.lengths, self.perm, self.origin + delta)

    def with_origin(self, origin: FieldValue) -> "Iet":
        return Iet(self.alphabet, self.lengths, self.perm, origin)

    # -- plumbing --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Iet):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.perm == other.perm
            and self.origin == other.origin
            and all(self.lengths[x] == other.lengths[x] for x in self.alphabet)
        )

    def __repr__(self):
        return "Iet(%s, %s, origin=%s)" % (
            self.alphabet,
            self.perm.one_line(),
            self.origin,
        )

    def to_json(self) -> dict:
        return {
            "alphabet": str(self.alphabet),
            "lengths": {x: str(self.lengths[x]) for x in self.alphabet},
            "permutation": self.perm.one_line(),
            "origin": str(self.origin),
        }


def iet_from_json(obj: dict) -> Iet:
    if not isinstance(obj, dict):
        raise DomainError("expected an object, got %r" % (obj,))
    try:
        alphabet = obj["alphabet"]
        lengths_raw = obj["lengths"]
        perm_raw = obj["permutation"]
    except KeyError as exc:
        raise DomainError("missing field %s" % exc) from exc
    if not isinstance(alphabet, (str, list)):
        raise DomainError("alphabet must be a string or a list, got %r" % (alphabet,))
    if not isinstance(lengths_raw, dict):
        raise DomainError("lengths must be an object, got %r" % (lengths_raw,))
    lengths = {x: value_from_json(v) for x, v in lengths_raw.items()}
    origin = value_from_json(obj.get("origin", "0"))
    perm = Perm.from_json(alphabet, perm_raw)
    return Iet(alphabet, lengths, perm, origin)


# -- discrete interval exchanges ----------------------------------------


@dataclass(frozen=True)
class DietSpec:
    """Discrete interval exchange: integer letter multiplicities plus an
    image-order permutation over the first k lowercase letters."""

    composition: tuple[int, ...]
    perm: Perm

    def __post_init__(self):
        comp = tuple(int(c) for c in self.composition)
        if not comp or any(c <= 0 for c in comp):
            raise DomainError("composition must be positive integers")
        if sum(comp) > sys.maxsize:
            raise DomainError("discrete size %d exceeds %d" % (sum(comp), sys.maxsize))
        if self.perm.letters != Alphabet.first(len(comp)).letters:
            raise DomainError("permutation must cover the first %d letters" % len(comp))
        object.__setattr__(self, "composition", comp)

    @property
    def letters(self) -> tuple[str, ...]:
        return self.perm.letters

    @property
    def size(self) -> int:
        return sum(self.composition)

    def word(self) -> str:
        """The underlying word a^c1 b^c2 ..."""
        return "".join(x * c for x, c in zip(self.letters, self.composition))


def diet_spec(composition: Iterable[int], row: LettersLike) -> DietSpec:
    comp = tuple(composition)
    return DietSpec(comp, Perm.from_one_line(Alphabet.first(len(comp)), row))


def diet_action(spec: DietSpec) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The permutation of positions 1..n: a mapping tuple (mapping[i-1] is
    the image of i) and its cycles, each from its least element."""
    dom_start = {}
    acc = 1
    for x, c in zip(spec.letters, spec.composition):
        dom_start[x] = acc
        acc += c
    img_start = {}
    acc = 1
    for y in spec.perm.images:
        img_start[y] = acc
        acc += spec.composition[spec.letters.index(y)]
    word = spec.word()
    mapping = tuple(
        img_start[word[i]] + (i + 1 - dom_start[word[i]]) for i in range(spec.size)
    )
    seen: set[int] = set()
    cycles = []
    for start in range(1, spec.size + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        j = mapping[start - 1]
        while j != start:
            cyc.append(j)
            seen.add(j)
            j = mapping[j - 1]
        cycles.append(tuple(cyc))
    return mapping, tuple(cycles)


def diet_to_iet(spec: DietSpec) -> Iet:
    """The same exchange on [0, n) with unit-length cells merged per letter."""
    lengths = {
        x: FieldValue(c) for x, c in zip(spec.letters, spec.composition)
    }
    return Iet(Alphabet.first(len(spec.composition)), lengths, spec.perm)


def diet_lyndon_multiset(spec: DietSpec) -> tuple[str, ...]:
    """Sorted Lyndon representatives of the words read along each cycle."""
    word = spec.word()
    _, cycles = diet_action(spec)
    reps = [lyndon_representative("".join(word[i - 1] for i in cyc)) for cyc in cycles]
    return tuple(sorted(reps))
