"""Interval exchange transformations with exact endpoints.

An IET is given by an ordered alphabet, one positive exact length per
letter, a permutation whose one-line row lists the image order left to
right, and an origin.  All intervals are half-open [x, y).  The map is
total on its domain: each point moves by the translation of its letter.

Each exchange has one integer frame, read by this module alone: the
radicand d and a denominator n (the inputs' lcm for the public constructor)
of the pairs (A, B), (A + B*sqrt(d))/n, of its cuts, widths and slots.  A
step's, split's or glue shift's map is a child on its parent's pairs, so a
chain shares its root's frame; the constructor and a child share one
checked layout, and values are built on first use.  A point is compared at
its own scale: over the lcm of n and its denominator, with the map's pairs
scaled to it for that call, so no map is laid out for a point.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from math import lcm
from operator import eq
from typing import Iterable, Optional, Union

from .alphabet import Alphabet, LettersLike, Perm
from .errors import CapExceeded, DomainError, InvariantError, check
from .exact import FieldValue, ZERO, _make, _sign, _text, value_from_json

Interval = tuple[FieldValue, FieldValue]

_WALK_CAP = 16  # iterates a step's declared piece may take to land back
_VALUES = {"_values": "_cuts", "_image_values": "_image_cuts", "_translations": "_tau"}


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


def _scale(pairs: tuple, s: int) -> tuple:
    """Frame pairs on a frame s times finer: the same values."""
    return pairs if s == 1 else tuple((a * s, b * s) for a, b in pairs)


def _bisect(cuts: tuple, a: int, b: int, d: int) -> int:
    """bisect_right of the pair (a, b) in ascending pairs over one
    denominator: the sign of each difference is decided inline as by _sign."""
    lo, hi = 0, len(cuts)
    while lo < hi:
        mid = (lo + hi) // 2
        x, y = a - cuts[mid][0], b - cuts[mid][1]
        if (x < 0 or y * y * d > x * x) if y < 0 else x < 0 and (not y or x * x > y * y * d):
            hi = mid
        else:
            lo = mid + 1
    return lo


@lru_cache(maxsize=256)
def _combinatorics(letters, row) -> tuple:
    """A child's checked alphabet, permutation and slot letter indices."""
    alphabet = Alphabet(letters)
    perm = Perm(alphabet.letters, row)
    return alphabet, perm, tuple(map(alphabet.letters.index, perm.images))


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
        d = radicands.pop() if radicands else 0
        n = lcm(self.origin.n, *(v.n for v in self.lengths.values()))
        rank = tuple(map(self.alphabet.letters.index, perm.images))
        self._build(d, n, rank, _pair(self.origin, n), [_pair(v, n) for v in self.lengths.values()])

    def _child(self, letters, row, origin: tuple, widths) -> "Iet":
        """The map of the letters and row (tuples or strings) from an origin and
        widths on this frame."""
        t = object.__new__(Iet)
        t.alphabet, t.perm, rank = _combinatorics(letters, row)
        t._build(*self._frame, rank, origin, widths)
        return t

    def _build(self, d: int, n: int, rank: tuple, origin: tuple, widths) -> None:
        """Lay out cuts, image cuts and translations on the frame (d, n),
        each width tested positive: the one layout of every map."""
        self._frame, self._rank, self._widths = (d, n), rank, tuple(widths)
        widths = self._widths
        (a, b), cuts = origin, [origin]
        for x, (p, q) in zip(self.alphabet.letters, widths):
            if _sign(p, q, d) <= 0:
                raise DomainError("length of %r must be positive, got %s" % (x, _make(p, q, d, n)))
            a, b = a + p, b + q
            cuts.append((a, b))
        (a, b), image, tau = origin, [origin], [None] * len(rank)
        for i in rank:  # a letter moves by its slot's left end minus its own
            (ca, cb), (wa, wb) = cuts[i], widths[i]
            tau[i] = (a - ca, b - cb)
            a, b = a + wa, b + wb
            image.append((a, b))
        self._cuts, self._image_cuts, self._tau = tuple(cuts), tuple(image), tuple(tau)

    def __getattr__(self, name: str):
        """Values built from the pairs on first read, then kept (no lock)."""
        if name == "origin":
            value = self._value(self._cuts[0])
        elif name == "lengths":
            value = dict(zip(self.alphabet.letters, map(self._value, self._widths)))
        elif name in _VALUES:
            value = tuple(map(self._value, getattr(self, _VALUES[name])))
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    # -- the integer frame -----------------------------------------------

    def _value(self, pair: tuple[int, int]) -> FieldValue:
        """A frame pair as a FieldValue."""
        return _make(*pair, *self._frame)

    def _on_frame(self, *values) -> tuple:
        """(d, m, pairs): the lcm frame of this map and the values, whose
        radicand a rational map adopts, and the values as pairs on it."""
        d, m = self._frame
        for v in values:
            if v.d and v.d != d:
                if d:
                    raise DomainError("incompatible radicands %d and %d" % (d, v.d))
                d = v.d
            m = m if m % v.n == 0 else lcm(m, v.n)
        return d, m, [_pair(v, m) for v in values]

    def _span(self) -> tuple:
        """The domain's ends as frame pairs."""
        return self._cuts[0], self._cuts[-1]

    def _span_text(self) -> list:
        """The domain's ends as strings, rendered from their pairs."""
        return [_text(a, b, *self._frame) for a, b in self._span()]

    def _pieces(self) -> list:
        """Each letter's left end and width as frame pairs, in alphabet order."""
        return list(zip(self._cuts, self._widths))

    def _cmp(self, p: tuple, q: tuple) -> int:
        """The sign of p - q for frame pairs."""
        return _sign(p[0] - q[0], p[1] - q[1], self._frame[0])

    def _add(self, p: tuple, q: tuple, s: int = 1) -> tuple:
        """p + s*q for frame pairs."""
        return p[0] + s * q[0], p[1] + s * q[1]

    def _window(self, right: bool) -> tuple:
        """z_interval (right) or y_interval as frame pairs: the domain cut at
        its last, or first, discontinuity of either kind."""
        if len(self._cuts) < 3:
            raise DomainError("a one-letter map has no induction window")
        p, q = self._cuts[-2 if right else 1], self._image_cuts[-2 if right else 1]
        cut = p if (self._cmp(p, q) >= 0) == right else q
        return (self._cuts[0], cut) if right else (cut, self._cuts[-1])

    def _locate(self, x: FieldValue, image: bool = False) -> int:
        """Index of the interval between cuts, or image cuts, holding x,
        compared at x's scale."""
        d, m, [(a, b)] = self._on_frame(x)
        cuts = _scale(self._image_cuts if image else self._cuts, m // self._frame[1])
        i = _bisect(cuts, a, b, d) - 1
        if not 0 <= i < len(cuts) - 1:
            raise DomainError("point %s outside domain [%s, %s)" % (x, *self.domain()))
        return i

    def _levels(self, depth: int):
        """Yield cylinder levels 0 to depth, each {w: (lo, hi)} left to right with
        frame pairs as ends, from I_xw = T^-1(T(I_x) ∩ I_w).  A level tiles the
        domain, so one sweep meets the image slots in order: [lo, hi) starts in
        the slot where the interval before it ended, and the sign test that finds
        its last piece also moves to the next slot when hi is that slot's end.
        Only end pieces are cut.  A letter's children keep the sweep's order, so
        the next level is the letters' runs in alphabet order."""
        if depth < 0:
            raise DomainError("depth must be non-negative")
        d, k, letters, cuts = self._frame[0], len(self._rank), self.alphabet.letters, self._cuts
        slots = [
            (i, letters[i], cuts[i + 1], end, self._tau[i])
            for i, end in zip(self._rank, self._image_cuts[1:])
        ]
        level = {"": (cuts[0], cuts[-1])}
        yield level
        for _ in range(depth):
            runs, j = [{} for _ in range(k)], 0
            for w, ((la, lb), (ha, hb)) in level.items():
                i, x, xhi, (ea, eb), (ta, tb) = slots[j]
                lo = la - ta, lb - tb
                while True:
                    c = _sign(ha - ea, hb - eb, d)
                    if c >= 0:  # hi reaches the slot's end: the next piece is in the next slot
                        j += 1
                    if c <= 0:
                        runs[i][x + w] = lo, (ha - ta, hb - tb)
                        break
                    runs[i][x + w] = lo, xhi
                    i, x, xhi, (ea, eb), (ta, tb) = slots[j]
                    lo = cuts[i]
            check(j == k, "cylinder level does not tile the domain")
            level = runs[0]
            for run in runs[1:]:
                level.update(run)
            yield level

    def _cylinder(self, word: str) -> tuple:
        """The ends of I_w as frame pairs, right to left: I_xv is I_v cut to
        x's image slot and moved back by x's translation."""
        image, letters, tau = self._image_cuts, self.alphabet.letters, self._tau
        slots = {letters[i]: (image[j], image[j + 1], tau[i]) for j, i in enumerate(self._rank)}
        lo, hi = self._span()
        for x in reversed(word):
            if x not in slots:
                raise DomainError("empty cylinder for %r" % word)
            start, end, move = slots[x]
            lo = start if self._cmp(lo, start) < 0 else lo
            hi = end if self._cmp(hi, end) > 0 else hi
            if self._cmp(hi, lo) <= 0:
                raise DomainError("empty cylinder for %r" % word)
            lo, hi = self._add(lo, move, -1), self._add(hi, move, -1)
        return lo, hi

    def _walk(self, frame: tuple, lo: tuple, hi: tuple, pieces, cap: int, capped: str) -> tuple:
        """The landings and the itineraries of the (start, width) pieces, each
        moved by the map, at least once and at most cap times, until it lies
        in [lo, hi), and checked to move rigidly at every iterate.  A point
        has width zero.  The pairs are on the frame (d, m), the map's own or a
        finer one."""
        d, m = frame
        s, letters = m // self._frame[1], self.alphabet.letters
        cuts, taus = _scale(self._cuts, s), _scale(self._tau, s)
        (la, lb), (ha, hb), k = lo, hi, len(taus)
        points, words = [], []
        for (a, b), (wa, wb) in pieces:
            word = ""
            for _ in range(cap):
                i = _bisect(cuts, a, b, d) - 1
                if not 0 <= i < k:
                    raise DomainError(
                        "point %s outside domain [%s, %s)" % (_make(a, b, d, m), *self.domain())
                    )
                ea, eb = cuts[i + 1]
                if (wa or wb) and _sign(ea - a - wa, eb - b - wb, d) < 0:  # a point fits
                    raise InvariantError("piece does not move rigidly")
                word += letters[i]
                ta, tb = taus[i]
                a, b = a + ta, b + tb
                if _sign(a - la, b - lb, d) >= 0:
                    c = _sign(ha - a - wa, hb - b - wb, d)
                    if c > 0 or not c and (wa or wb):
                        points.append((a, b))
                        words.append(word)
                        break
            else:
                raise CapExceeded(capped % cap, cap)
        return points, words

    def _coding(self, x: FieldValue, n: int) -> str:
        """The first n letters of the coding of x, walked at x's scale: the
        cuts and translations are scaled once for the whole orbit."""
        d, m, [(a, b)] = self._on_frame(x)
        s, letters = m // self._frame[1], self.alphabet.letters
        cuts, taus = _scale(self._cuts, s), _scale(self._tau, s)
        word = ""
        for _ in range(n):
            i = _bisect(cuts, a, b, d) - 1
            if not 0 <= i < len(taus):
                raise DomainError("point %s outside domain [%s, %s)" % (x, *self.domain()))
            word += letters[i]
            a, b = a + taus[i][0], b + taus[i][1]
        return word

    def _induced(self, lo: tuple, hi: tuple, order, row, pieces) -> tuple:
        """First-return map on [lo, hi) from the declared order and row and
        one (start, width) piece of pairs per letter of the order, checked: it
        ends at hi, each piece starts at its letter's left end, moves rigidly
        and lands on its letter's image slot.  Returns it and the itineraries."""
        starts, widths = zip(*pieces)
        t2 = self._child(order, row, lo, widths)
        check(starts == t2._cuts[:-1] and t2._cuts[-1] == hi, "pieces do not tile the sub-domain")
        capped = "first-return walk exceeded %d steps"
        points, words = self._walk(self._frame, lo, hi, pieces, _WALK_CAP, capped)
        # slot j holds letter rank[j], whose piece must land on the slot's left end
        landed = tuple(map(points.__getitem__, t2._rank)) == t2._image_cuts[:-1]
        check(landed, "landings differ from the Rauzy row")
        return t2, dict(zip(t2.alphabet.letters, words))

    # -- geometry --------------------------------------------------------

    def domain(self) -> Interval:
        return self.origin, self._value(self._cuts[-1])

    def interval(self, letter: str) -> Interval:
        i = self.alphabet.index(letter)
        return self._values[i : i + 2]

    def image_interval(self, letter: str) -> Interval:
        j = self._rank.index(self.alphabet.index(letter))
        return self._image_values[j : j + 2]

    def translation(self, letter: str) -> FieldValue:
        return self._translations[self.alphabet.index(letter)]

    def letter_at(self, x: FieldValue) -> str:
        return self.alphabet.letters[self._locate(x)]

    # -- the map ---------------------------------------------------------

    def apply(self, x: FieldValue) -> FieldValue:
        return x + self.translation(self.letter_at(x))

    def apply_inverse(self, y: FieldValue) -> FieldValue:
        return y - self.translation(self.perm.images[self._locate(y, image=True)])

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
        """Proper contiguous letter runs mapped onto their own interval."""
        return tuple(self._block_spans())

    def _block_spans(self) -> dict:
        """Each invariant block, a run whose row entries are its own letters,
        with its span as pairs; it starts and ends at cuts both tilings share."""
        base, rank, cuts, image = self.alphabet.letters, self._rank, self._cuts, self._image_cuts
        if not any(map(eq, cuts[1:-1], image[1:-1])):  # only the ends: no proper block
            return {}
        k = len(base)
        common = [i for i in range(k + 1) if cuts[i] == image[i]]
        out = {}
        for m, i in enumerate(common):
            for j in common[m + 1 :]:
                if (i, j) != (0, k) and sorted(rank[i:j]) == list(range(i, j)):
                    out[base[i:j]] = (cuts[i], cuts[j])
        return out

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
        d, n = self._frame  # rendered from the pairs, as chain JSON renders its ends
        return {
            "alphabet": str(self.alphabet),
            "lengths": {x: _text(a, b, d, n) for x, (a, b) in zip(self.alphabet, self._widths)},
            "permutation": self.perm.one_line(),
            "origin": _text(*self._cuts[0], d, n),
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
    succ = (0, *mapping)  # succ[i] is the image of i
    seen = bytearray(spec.size + 1)
    cycles = []
    for i in range(1, spec.size + 1):
        if not seen[i]:
            cyc, j = [i], succ[i]
            while j != i:  # i itself is not met again: the scan has passed it
                seen[j] = 1
                cyc.append(j)
                j = succ[j]
            cycles.append(tuple(cyc))
    return mapping, tuple(cycles)


def diet_to_iet(spec: DietSpec) -> Iet:
    """The same exchange on [0, n) with unit-length cells merged per letter."""
    lengths = {
        x: FieldValue(c) for x, c in zip(spec.letters, spec.composition)
    }
    return Iet(Alphabet.first(len(spec.composition)), lengths, spec.perm)


def diet_lyndon_multiset(spec: DietSpec) -> tuple[str, ...]:
    """Sorted Lyndon representatives of the words read along each cycle.

    Each cycle's word is read from its least position, as diet_action lists
    it, and that is already its least rotation: letters label the runs from
    left to right, and positions with one letter move by one translation,
    so p < q implies coding(p) <= coding(q) lexicographically.  A cycle's
    codings are periodic with its length, so the least position's first
    period is the least rotation."""
    word = " " + spec.word()  # positions count from 1
    _, cycles = diet_action(spec)
    return tuple(sorted(["".join(map(word.__getitem__, cyc)) for cyc in cycles]))
