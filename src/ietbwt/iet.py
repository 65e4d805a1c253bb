"""Interval exchange transformations with exact endpoints.

An IET is given by an ordered alphabet, one positive exact length per
letter, a permutation whose one-line row lists the image order left to
right, and an origin.  All intervals are half-open [x, y).  The map is
total on its domain: each point moves by the translation of its letter.

Each exchange has one integer frame: the radicand d and the lcm n of the
denominators of its origin and lengths.  Its cuts, image cuts and
translations are stored once as integer pairs (A, B) meaning
(A + B*sqrt(d))/n, so adding and comparing them is integer work; the
FieldValues the geometry methods hand out are built once from those
pairs.  Only this module reads the frame: cylinder levels, first-return
walks, `letter_at` and `apply_inverse` all run on the pairs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import lcm
from typing import Iterable, Optional, Union

from .alphabet import Alphabet, LettersLike, Perm
from .errors import CapExceeded, DomainError, check
from .exact import FieldValue, ZERO, _make, _sign, value_from_json
from .words import lyndon_representative

Interval = tuple[FieldValue, FieldValue]


@dataclass(frozen=True)
class Connection:
    """An inverse-discontinuity start whose forward orbit hits a
    discontinuity end after the given number of steps."""

    start: FieldValue
    end: FieldValue
    steps: int


def _as_value(v, letter: Optional[str] = None) -> FieldValue:
    """The origin, or a letter's length, as a FieldValue: an int or a
    Fraction is converted and anything else is refused."""
    if isinstance(v, FieldValue):
        return v
    if isinstance(v, (int, Fraction)):
        return FieldValue(v)
    what = "origin" if letter is None else "length of %r" % letter
    raise DomainError("%s must be an int, Fraction or FieldValue, got %r" % (what, v))


def _pair(v: FieldValue, n: int) -> tuple[int, int]:
    """v as the integers (A, B) of (A + B*sqrt(d))/n; v.n must divide n."""
    s = n // v.n
    return v.a * s, v.b * s


def _tile(start: tuple[int, int], widths) -> tuple:
    """Cuts from start, one width at a time: pairs over one denominator."""
    return tuple(accumulate(widths, lambda p, w: (p[0] + w[0], p[1] + w[1]), initial=start))


def _bisect(cuts: tuple, a: int, b: int, d: int) -> int:
    """bisect_right of the pair (a, b) in ascending pairs over the same
    denominator, decided by the exact sign of each difference."""
    lo, hi = 0, len(cuts)
    while lo < hi:
        mid = (lo + hi) // 2
        if _sign(a - cuts[mid][0], b - cuts[mid][1], d) < 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


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
        self.origin = _as_value(ZERO if origin is None else origin)
        if set(lengths) != set(self.alphabet):
            raise DomainError("lengths must cover exactly the alphabet")
        self.lengths = {x: _as_value(lengths[x], x) for x in self.alphabet}
        radicands = {v.d for v in self.lengths.values()} | {self.origin.d}
        radicands.discard(0)
        if len(radicands) > 1:
            raise DomainError("mixed radicands %s in one transformation" % radicands)
        for x, v in self.lengths.items():
            if v.sign() <= 0:
                raise DomainError("length of %r must be positive, got %s" % (x, v))
        # the frame, built once: every cut and translation is an integer
        # pair (A, B) standing for (A + B*sqrt(d))/n
        d = radicands.pop() if radicands else 0
        n = lcm(self.origin.n, *(v.n for v in self.lengths.values()))
        self._frame = (d, n)
        widths = [_pair(v, n) for v in self.lengths.values()]
        self._rank = tuple(map(self.alphabet.index, self.perm.images))  # each slot's letter
        self._cuts = _tile(_pair(self.origin, n), widths)
        self._image_cuts = _tile(self._cuts[0], [widths[i] for i in self._rank])
        tau = [None] * len(widths)  # per letter: its slot's left end minus its own
        for (ia, ib), i in zip(self._image_cuts, self._rank):
            tau[i] = (ia - self._cuts[i][0], ib - self._cuts[i][1])
        self._tau = tuple(tau)
        # the values the geometry methods hand out; both tilings share their ends
        self._values = (self.origin, *(_make(a, b, d, n) for a, b in self._cuts[1:]))
        inner = (_make(a, b, d, n) for a, b in self._image_cuts[1:-1])
        self._image_values = (self.origin, *inner, self._values[-1])

    @cached_property
    def _translations(self) -> tuple[FieldValue, ...]:
        """The translations as FieldValues, built on first use."""
        return tuple(map(self._value, self._tau))

    # -- the integer frame -----------------------------------------------

    def _value(self, pair: tuple[int, int]) -> FieldValue:
        """A frame pair as a FieldValue."""
        return _make(*pair, *self._frame)

    def _widen(self, values, *pairs) -> tuple:
        """(d, n, *pairs): the frame widened by the lcm of the values'
        denominators, with each tuple of frame pairs rescaled to it.  A
        rational map adopts a value's radicand; a second one is refused."""
        d, n = self._frame
        for v in values:
            if v.d and v.d != d:
                if d:
                    raise DomainError("incompatible radicands %d and %d" % (d, v.d))
                d = v.d
            n = n if n % v.n == 0 else lcm(n, v.n)
        s = n // self._frame[1]
        if s != 1:
            pairs = [[(a * s, b * s) for a, b in p] for p in pairs]
        return (d, n, *pairs)

    def _locate(self, cuts: tuple, x: FieldValue) -> int:
        """Index of the interval between consecutive frame cuts that holds x."""
        d, n, cuts = self._widen((x,), cuts)
        i = _bisect(cuts, *_pair(x, n), d) - 1
        if not 0 <= i < len(cuts) - 1:
            raise DomainError("point %s outside domain [%s, %s)" % (x, *self.domain()))
        return i

    def _levels(self, depth: int, word: str = ""):
        """Yield cylinder levels 0 to depth, each {w: (lo, hi)} with frame
        pairs as ends, from I_xw = T^-1(T(I_x) ∩ I_w); given a word, level m
        keeps only its suffix of length m.  For [lo, hi) the first image slot
        that ends after lo starts at or before it, and every later slot starts
        where the one before ended, up to the slot that reaches hi: only the
        first and the last piece are cut, and the others are all of I_x."""
        if depth < 0:
            raise DomainError("depth must be non-negative")
        d = self._frame[0]
        cuts, ends = self._cuts, self._image_cuts[1:]
        slots = [
            (self.alphabet.letters[i], cuts[i], cuts[i + 1], end, self._tau[i])
            for i, end in zip(self._rank, ends)
        ]
        level = {"": (cuts[0], cuts[-1])}
        yield level
        for m in range(1, depth + 1):
            nxt = {}
            for w, ((la, lb), (ha, hb)) in level.items():
                first = True
                for j in range(_bisect(ends, la, lb, d), len(slots)):
                    x, xlo, xhi, (ea, eb), (ta, tb) = slots[j]
                    last = _sign(ha - ea, hb - eb, d) <= 0
                    nxt[x + w] = (
                        (la - ta, lb - tb) if first else xlo,
                        (ha - ta, hb - tb) if last else xhi,
                    )
                    if last:
                        break
                    first = False
            if word:
                suffix = word[-m:]
                nxt = {suffix: nxt[suffix]} if suffix in nxt else {}
            yield nxt
            level = nxt

    def _walk(self, lo, hi, pieces, cap: int, capped: str) -> list:
        """Move each (start, width) piece by the map, at least once, until it
        lies in [lo, hi), checking at every iterate that it moves rigidly,
        inside one letter interval; a point is a piece of width zero.  Returns
        each piece's landing and itinerary, walked on frame pairs widened for
        the inputs; a walk longer than cap raises CapExceeded(capped % cap)."""
        d, n, cuts, taus = self._widen((lo, hi, *chain(*pieces)), self._cuts, self._tau)
        (la, lb), (ha, hb) = _pair(lo, n), _pair(hi, n)
        landings = []
        for start, width in pieces:
            (a, b), (wa, wb) = _pair(start, n), _pair(width, n)
            word = []
            for _ in range(cap):
                i = _bisect(cuts, a, b, d) - 1
                if not 0 <= i < len(taus):
                    raise DomainError(
                        "point %s outside domain [%s, %s)" % (_make(a, b, d, n), *self.domain())
                    )
                ea, eb = cuts[i + 1]
                check(_sign(ea - a - wa, eb - b - wb, d) >= 0, "piece does not move rigidly")
                word.append(self.alphabet.letters[i])
                a, b = a + taus[i][0], b + taus[i][1]
                if _sign(a - la, b - lb, d) >= 0:
                    c = _sign(ha - a - wa, hb - b - wb, d)
                    if c > 0 or not c and (wa or wb):
                        landings.append((_make(a, b, d, n), "".join(word)))
                        break
            else:
                raise CapExceeded(capped % cap, cap)
        return landings

    # -- geometry --------------------------------------------------------

    def domain(self) -> Interval:
        return self._values[0], self._values[-1]

    def interval(self, letter: str) -> Interval:
        i = self.alphabet.index(letter)
        return self._values[i : i + 2]

    def image_interval(self, letter: str) -> Interval:
        j = self._rank.index(self.alphabet.index(letter))
        return self._image_values[j : j + 2]

    def left(self, letter: str) -> FieldValue:
        return self._values[self.alphabet.index(letter)]

    def translation(self, letter: str) -> FieldValue:
        return self._translations[self.alphabet.index(letter)]

    def letter_at(self, x: FieldValue) -> str:
        return self.alphabet.letters[self._locate(self._cuts, x)]

    # -- the map ---------------------------------------------------------

    def apply(self, x: FieldValue) -> FieldValue:
        return x + self.translation(self.letter_at(x))

    def apply_inverse(self, y: FieldValue) -> FieldValue:
        return y - self.translation(self.perm.images[self._locate(self._image_cuts, y)])

    def apply_n(self, x: FieldValue, n: int) -> FieldValue:
        step = self.apply if n >= 0 else self.apply_inverse
        for _ in range(abs(n)):
            x = step(x)
        return x

    # -- discontinuity structure -----------------------------------------

    def discontinuities(self) -> tuple[FieldValue, ...]:
        """Interior left endpoints of the domain intervals, ascending."""
        return self._values[1:-1]

    def discontinuities_inverse(self) -> tuple[FieldValue, ...]:
        """Interior left endpoints of the image slots, ascending."""
        return self._image_values[1:-1]

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
    the image of i) and its cycles, each from its least element.  Letter
    x's run of positions moves onto its image slot, one range per letter."""
    size = dict(zip(spec.letters, spec.composition))
    row = spec.perm.images
    start = dict(zip(row, accumulate((size[y] for y in row), initial=1)))
    mapping = tuple(chain.from_iterable(range(start[x], start[x] + size[x]) for x in size))
    seen = bytearray(spec.size + 1)
    cycles = []
    for i in range(1, spec.size + 1):
        if not seen[i]:
            cyc, j = [], i
            while not seen[j]:
                seen[j] = 1
                cyc.append(j)
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
