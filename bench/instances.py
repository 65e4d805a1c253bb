"""Seeded input generators for the benchmark workloads.

Only these functions see the workload seed; the library receives the
generated exchanges, words and points.  Every generator draws from its own
``random.Random`` so that the same seed gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from ietbwt.exact import FieldValue, make_quadratic, make_rational
from ietbwt.iet import Iet, diet_action, diet_spec

LETTERS = "abcde"
FIELDS = (2, 3, 5, 0)  # radicand of Q(sqrt(d)); 0 stands for the rationals


@dataclass(frozen=True)
class Exchange:
    """One generated exchange with the facts the reports quote."""

    iet: Iet
    k: int
    d: int

    def lengths_arg(self) -> str:
        return ",".join("%s=%s" % (x, self.iet.lengths[x]) for x in self.iet.alphabet)

    @property
    def row(self) -> str:
        return self.iet.perm.one_line()

    @property
    def letters(self) -> str:
        return "".join(self.iet.alphabet.letters)


def _is_reducible(letters: str, row: str) -> bool:
    return any(set(row[:j]) == set(letters[:j]) for j in range(1, len(letters)))


def _row(rng: random.Random, letters: str, reducible: bool) -> str:
    while True:
        row = list(letters)
        rng.shuffle(row)
        row = "".join(row)
        if row != letters and _is_reducible(letters, row) == reducible:
            return row


def _approx(v: FieldValue, d: int) -> float:
    return float(v.p) + float(v.q) * d ** 0.5


def _quadratic_cuts(rng: random.Random, k: int, d: int) -> list[FieldValue]:
    """k - 1 points frac(m*sqrt(d)) of [0, 1) with distinct m <= 2k.  Small
    coefficients keep the exchange well conditioned: over a quadratic field
    the induction is eventually periodic (Boshernitzan and Carroll, 1997),
    and large coefficients mean a long run-in with near-periodic islands."""
    while True:
        ms = rng.sample(range(1, 2 * k + 1), k - 1)
        cuts = [make_quadratic(-isqrt(m * m * d), m, d) for m in ms]
        cuts.sort(key=lambda c: _approx(c, d))
        approx = [_approx(c, d) for c in cuts]
        gaps = [b - a for a, b in zip([0.0] + approx, approx + [1.0])]
        if min(gaps) > 0.3 / k:
            return cuts


def _rational_cuts(rng: random.Random, k: int) -> list[FieldValue]:
    while True:
        nums = [rng.randint(2, 9) for _ in range(k)]
        den = sum(nums)
        if min(nums) / den > 0.3 / k:
            acc, cuts = 0, []
            for n in nums[:-1]:
                acc += n
                cuts.append(make_rational(acc, den))
            return cuts


def exchange(rng: random.Random, k: int, d: int, reducible: bool) -> Exchange:
    """A k-letter exchange of [0, 1) with lengths in Q(sqrt(d)), or in Q
    when d is 0.  A reducible row has a proper invariant prefix block.
    Every letter moves by 0 or by more than 1/(2k): a letter that moves by
    a sliver of its own length codes long runs of itself, which makes
    induction chains of hundreds of steps."""
    letters = LETTERS[:k]
    while True:
        cuts = _quadratic_cuts(rng, k, d) if d else _rational_cuts(rng, k)
        points = [make_rational(0)] + cuts + [make_rational(1)]
        lengths = {x: points[i + 1] - points[i] for i, x in enumerate(letters)}
        t = Iet(letters, lengths, _row(rng, letters, reducible))
        shifts = [abs(_approx(t.translation(x), d)) for x in letters]
        if all(s == 0 or s > 0.5 / k for s in shifts):
            return Exchange(t, k, d)


def _combos(rng: random.Random, size: int) -> list[tuple[int, int, bool]]:
    """size (k, field, reducible) triples; every 24 consecutive ones cover
    each combination of k in 3..5, field and row kind once, so any prefix
    of a pool keeps the same mix."""
    combos = [(k, d, red) for red in (False, True) for d in FIELDS for k in (3, 4, 5)]
    out = []
    while len(out) < size:
        block = list(combos)
        rng.shuffle(block)
        out.extend(block)
    return out[:size]


def exchange_pool(seed: int, size: int, salt: str) -> list[Exchange]:
    rng = random.Random("%s:%d" % (salt, seed))
    return [exchange(rng, k, d, red) for k, d, red in _combos(rng, size)]


def interior_point(rng: random.Random, lo: FieldValue, hi: FieldValue) -> FieldValue:
    """An exact point strictly inside [lo, hi)."""
    return lo + (hi - lo) * Fraction(rng.randint(1, 96), 97)


@dataclass(frozen=True)
class DeepWord:
    """An exchange, a seeded point and the first n letters of its coding,
    admissible by construction."""

    exchange: Exchange
    point: FieldValue
    word: str


def deep_words(seed: int, size: int, lengths: tuple[int, int]) -> list[DeepWord]:
    """One deep word per exchange of a pool.  Its length n is drawn from
    the given range and shortened by two letters per letter of the alphabet
    beyond three: a k-letter language has about (k - 1)n words of length n,
    so this keeps the five-letter exchanges from dominating the run."""
    from ietbwt.coding import trajectory

    rng = random.Random("deep:%d" % seed)
    out = []
    for ex in exchange_pool(seed, size, "deep"):
        x = interior_point(rng, *ex.iet.domain())
        n = rng.randint(*lengths) - 2 * (ex.k - 3)
        out.append(DeepWord(ex, x, trajectory(ex.iet, x, n)))
    return out


def diet_pool(seed: int, sizes: tuple[int, ...], size: int, single_from: int):
    """size discrete exchanges.  Slots cycle through k in 3..5 and the given
    totals.  With an odd number of totals, the median and the 90th
    percentile of job times fall inside one total's jobs rather than
    between two.  Totals from single_from on are single cycles, so those
    jobs have one shape: an exchange free to split into several cycles
    costs a fraction of a single cycle of the same total, and a mix of the
    two puts each percentile between two groups of jobs.  Every part is at
    least total / (2k): a tiny part codes long runs of one letter, and the
    eBWT's rotation comparisons then grow with it."""
    rng = random.Random("diet:%d" % seed)
    out = []
    for slot in range(size):
        k = 3 + slot % 3
        n = sizes[slot // 3 % len(sizes)]
        letters = LETTERS[:k]
        while True:
            cuts = sorted(rng.sample(range(1, n), k - 1))
            comp = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            if min(comp) < n / (2 * k):
                continue
            row = list(letters)
            rng.shuffle(row)
            if "".join(row) == letters:
                continue
            spec = diet_spec(comp, "".join(row))
            if n < single_from or len(diet_action(spec)[1]) == 1:
                break
        out.append(spec)
    return out
