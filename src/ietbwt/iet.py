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
from typing import Iterable, Optional, Union

from .alphabet import Alphabet, LettersLike, Perm
from .errors import CapExceeded, DomainError, InvariantError, check
from .exact import FieldValue, ZERO, _make, _sign, value_from_json
from .words import lyndon_representative

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
        (a, b), cuts = origin, [origin]
        for x, (p, q) in zip(self.alphabet.letters, self._widths):
            if _sign(p, q, d) <= 0:
                raise DomainError("length of %r must be positive, got %s" % (x, _make(p, q, d, n)))
            a, b = a + p, b + q
            cuts.append((a, b))
        (a, b), image, tau = origin, [origin], [None] * len(rank)
        for i in rank:  # a letter moves by its slot's left end minus its own
            (ca, cb), (wa, wb) = cuts[i], self._widths[i]
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

    def _span_text(self, texts: dict) -> list:
        """The domain's ends as strings, each distinct end rendered once per dict."""
        for end in self._span():
            if (self._frame, end) not in texts:
                texts[self._frame, end] = str(self._value(end))
        return [texts[self._frame, end] for end in self._span()]

    def _pieces(self) -> dict:
        """Each letter's left end and width as frame pairs."""
        return dict(zip(self.alphabet.letters, zip(self._cuts, self._widths)))

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

    def _walk(self, frame: tuple, lo: tuple, hi: tuple, pieces, cap: int, capped: str) -> list:
        """Each (start, width) piece's (landing, itinerary): moved by the map,
        at least once and at most cap times, until it lies in [lo, hi), and
        checked to move rigidly at every iterate.  A point has width zero.
        The pairs are on the frame (d, m), the map's own or a finer one."""
        d, m = frame
        s, letters = m // self._frame[1], self.alphabet.letters
        cuts, taus = _scale(self._cuts, s), _scale(self._tau, s)
        (la, lb), (ha, hb), k = lo, hi, len(taus)
        landings = []
        for (a, b), (wa, wb) in pieces:
            word = []
            for _ in range(cap):
                i = _bisect(cuts, a, b, d) - 1
                if not 0 <= i < k:
                    raise DomainError(
                        "point %s outside domain [%s, %s)" % (_make(a, b, d, m), *self.domain())
                    )
                ea, eb = cuts[i + 1]
                if (wa or wb) and _sign(ea - a - wa, eb - b - wb, d) < 0:  # a point fits
                    raise InvariantError("piece does not move rigidly")
                word.append(letters[i])
                ta, tb = taus[i]
                a, b = a + ta, b + tb
                if _sign(a - la, b - lb, d) >= 0:
                    c = _sign(ha - a - wa, hb - b - wb, d)
                    if c > 0 or not c and (wa or wb):
                        landings.append(((a, b), "".join(word)))
                        break
            else:
                raise CapExceeded(capped % cap, cap)
        return landings

    def _induced(self, lo: tuple, hi: tuple, order, row, pieces) -> tuple:
        """First-return map on [lo, hi) from the declared order and row and
        one (start, width) piece of pairs per letter of the order, checked: it
        ends at hi, each piece starts at its letter's left end, moves rigidly
        and lands on its letter's image slot.  Returns it and the itineraries."""
        t2 = self._child(order, row, lo, [w for _, w in pieces])
        tiled = t2._cuts[-1] == hi and [s for s, _ in pieces] == list(t2._cuts[:-1])
        check(tiled, "pieces do not tile the sub-domain")
        capped = "first-return walk exceeded %d steps"
        landings = self._walk(self._frame, lo, hi, pieces, _WALK_CAP, capped)
        slots = dict(zip(t2._rank, t2._image_cuts))  # letter index -> its slot's left end
        landed = [point for point, _ in landings] == [slots[i] for i in range(len(slots))]
        check(landed, "landings differ from the Rauzy row")
        return t2, dict(zip(t2.alphabet.letters, [word for _, word in landings]))

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
        base, rank, cuts = self.alphabet.letters, self._rank, self._cuts
        k = len(base)
        common = [i for i in range(k + 1) if cuts[i] == self._image_cuts[i]]
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
