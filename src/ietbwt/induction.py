"""Induction on interval exchanges: one-sided Rauzy steps for arbitrary
length comparisons, splitting along invariant blocks, admissibility
windows, and the driver that induces onto a cylinder.

Every right step is built geometrically as a first-return map of a
declared partition of the sub-domain; the classical row and substitution
formulas are checked against the geometric result rather than trusted, in
every build.  A left step is a right step of the mirrored map (x -> -x
reverses the alphabet and the row), mirrored back, so one construction
builds and checks all six step kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .alphabet import Perm
from .coding import (
    LetterMorphism,
    compose,
    cylinder,
    identity_morphism,
    make_alpha,
    make_alpha_tilde,
    make_inclusion,
)
from .errors import CapExceeded, DomainError, check
from .exact import FieldValue, ZERO, compare
from .iet import Iet, Interval

_WALK_CAP = 16  # iterates a step's declared piece may take to land back
_ORBIT_CAP = 10 ** 6  # iterates of a brute-force orbit walk


def z_interval(t: Iet) -> Interval:
    """Domain truncated at the rightmost discontinuity of either kind; the
    sub-domain reached by one right step."""
    pts = t.discontinuities() + t.discontinuities_inverse()
    if not pts:
        raise DomainError("a one-letter map has no induction window")
    return (t.domain()[0], max(pts))


def y_interval(t: Iet) -> Interval:
    """Domain truncated at the leftmost discontinuity of either kind."""
    pts = t.discontinuities() + t.discontinuities_inverse()
    if not pts:
        raise DomainError("a one-letter map has no induction window")
    return (min(pts), t.domain()[1])


@dataclass
class StepRecord:
    """One executed induction step.  The morphism sends coding words of the
    new map to coding words of the old one."""

    kind: str
    before: Iet
    after: Iet
    morphism: LetterMorphism
    block: Optional[tuple] = None
    branch: Optional[str] = None
    glue: Optional[tuple] = None

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "alphabet": str(self.after.alphabet),
            "permutation": self.after.perm.one_line(),
            "interval": [str(v) for v in self.after.domain()],
            "morphism": dict(self.morphism.rules),
        }
        if self.block is not None:
            out["block"] = "".join(self.block)
            out["branch"] = self.branch
        if self.glue is not None:
            out["glue"] = [str(v) for v in self.glue]
        return out


def _induced_from_partition(t: Iet, lo, hi, pieces):
    """First-return map of t on [lo, hi) for a declared partition.

    pieces: (letter, left, width) triples tiling [lo, hi).  Each piece must
    move rigidly (stay inside a single letter interval) at every iterate
    until it lands back; the landings must tile [lo, hi) again."""
    pieces = sorted(pieces, key=lambda p: p[1])
    acc = lo
    for _, plo, width in pieces:
        check(plo == acc, "pieces do not tile the sub-domain")
        acc = plo + width
    check(acc == hi, "pieces do not tile the sub-domain")
    landings = []
    itineraries = {}
    lengths = {}
    for letter, plo, width in pieces:
        cur = plo
        word = []
        for _ in range(_WALK_CAP):
            a = t.letter_at(cur)
            check(cur + width <= t.interval(a)[1], "piece does not move rigidly")
            word.append(a)
            cur = cur + t.translation(a)
            if lo <= cur and cur + width <= hi:
                break
        else:
            raise CapExceeded("first-return walk exceeded %d steps" % _WALK_CAP, _WALK_CAP)
        landings.append((cur, letter))
        itineraries[letter] = "".join(word)
        lengths[letter] = width
    landings.sort(key=lambda p: p[0])
    acc = lo
    for pos, letter in landings:
        check(pos == acc, "landings do not tile the sub-domain")
        acc = pos + lengths[letter]
    check(acc == hi, "landings do not tile the sub-domain")
    letters = tuple(p[0] for p in pieces)
    row = tuple(letter for _, letter in landings)
    t2 = Iet(letters, lengths, Perm(letters, row), origin=lo)
    return t2, itineraries


def right_step(t: Iet) -> StepRecord:
    """Induce on the domain cut at the rightmost discontinuity.  The step
    kind depends on how the last interval compares with the last slot."""
    letters = t.alphabet.letters
    if len(letters) < 2:
        raise DomainError("need at least two letters to step")
    last = letters[-1]
    pk = t.perm.images[-1]
    if pk == last:
        raise DomainError("right step blocked: last slot holds its own letter")
    lo, r = t.domain()
    lk, lb = t.lengths[last], t.lengths[pk]
    c = compare(lk, lb)
    if c > 0:
        kind = "right_top"
        new_hi = r - lb
        new_order = letters
        pieces = [(x, t.left(x), t.lengths[x]) for x in letters[:-1]]
        pieces.append((last, t.left(last), new_hi - t.left(last)))
        trimmed = list(t.perm.images[:-1])
        i = trimmed.index(last)
        expected_row = tuple(trimmed[: i + 1] + [pk] + trimmed[i + 1 :])
        declared = make_alpha(new_order, pk, last, target=t.alphabet)
    elif c < 0:
        kind = "right_bottom"
        new_hi = r - lk
        i = t.alphabet.index(pk)
        new_order = letters[: i + 1] + (last,) + letters[i + 1 : -1]
        pieces = []
        for x in letters[:-1]:
            if x == pk:
                pieces.append((pk, t.left(pk), lb - lk))
                pieces.append((last, t.left(pk) + (lb - lk), lk))
            else:
                pieces.append((x, t.left(x), t.lengths[x]))
        expected_row = t.perm.images
        declared = make_alpha_tilde(new_order, last, pk, target=t.alphabet)
    else:
        kind = "right_merge"
        new_hi = r - lk
        new_order = letters[:-1]
        pieces = [(x, t.left(x), t.lengths[x]) for x in new_order]
        expected_row = tuple(pk if y == last else y for y in t.perm.images[:-1])
        declared = make_alpha(new_order, pk, last, target=t.alphabet)
    check((lo, new_hi) == z_interval(t), "step window differs from z_interval")
    t2, itineraries = _induced_from_partition(t, lo, new_hi, pieces)
    check(t2.alphabet.letters == tuple(new_order), "induced alphabet order differs")
    check(t2.perm.images == expected_row, "induced row differs from the Rauzy row")
    morphism = LetterMorphism(new_order, t.alphabet, itineraries)
    check(morphism.rules == declared.rules, "itineraries differ from the substitution")
    return StepRecord(kind, t, t2, morphism)


def _reflect(t: Iet) -> Iet:
    """The mirror image under x -> -x: alphabet and row reversed, domain
    [-hi, -lo).  Reflection keeps time direction, so codings carry over."""
    letters = t.alphabet.letters[::-1]
    perm = Perm(letters, t.perm.images[::-1])
    return Iet(letters, t.lengths, perm, origin=-t.domain()[1])


def left_step(t: Iet) -> StepRecord:
    """Mirror image of right_step: cut at the leftmost discontinuity, as the
    right step of the reflected map, reflected back with the same rules."""
    letters = t.alphabet.letters
    if len(letters) > 1 and t.perm.images[0] == letters[0]:
        raise DomainError("left step blocked: first slot holds its own letter")
    rec = right_step(_reflect(t))
    after = _reflect(rec.after)
    morphism = LetterMorphism(after.alphabet, t.alphabet, rec.morphism.rules)
    return StepRecord(rec.kind.replace("right_", "left_"), t, after, morphism)


def split(t: Iet, block) -> tuple[tuple[Iet, StepRecord], tuple[Iet, StepRecord]]:
    """Split along an invariant block: the restriction to the block and the
    complement with the block's span removed.  An interior block leaves a
    glue record (cut, gap) describing the coordinate shift of the tail."""
    letters = t.alphabet.ordered(block)
    if letters not in t.invariant_blocks():
        raise DomainError("%r is not an invariant block" % ("".join(letters),))
    blo, bhi = t.block_interval(letters)
    lo, hi = t.domain()
    tb = Iet(
        letters,
        {x: t.lengths[x] for x in letters},
        t.perm.restrict(letters),
        origin=blo,
    )
    rec_b = StepRecord(
        "split", t, tb, make_inclusion(letters, t.alphabet), block=letters, branch="block"
    )
    comp = tuple(x for x in t.alphabet if x not in set(letters))
    if blo == lo:
        origin_c, glue = bhi, None
    elif bhi == hi:
        origin_c, glue = lo, None
    else:
        origin_c, glue = lo, (blo, bhi - blo)
    tc = Iet(comp, {x: t.lengths[x] for x in comp}, t.perm.restrict(comp), origin=origin_c)
    rec_c = StepRecord(
        "split",
        t,
        tc,
        make_inclusion(comp, t.alphabet),
        block=letters,
        branch="complement",
        glue=glue,
    )
    return (tb, rec_b), (tc, rec_c)


# -- first returns and admissibility ------------------------------------


@dataclass(frozen=True)
class ReturnVisit:
    point: FieldValue
    time: int
    itinerary: str


def first_return_point(t: Iet, x: FieldValue, lo, hi) -> ReturnVisit:
    """Brute-force first return of x to [lo, hi) with its coding."""
    if not (lo <= x < hi):
        raise DomainError("point %s outside window [%s, %s)" % (x, lo, hi))
    letters = []
    cur = x
    for n in range(1, _ORBIT_CAP + 1):
        a = t.letter_at(cur)
        letters.append(a)
        cur = cur + t.translation(a)
        if lo <= cur < hi:
            return ReturnVisit(cur, n, "".join(letters))
    raise CapExceeded("no return to the window within %d steps" % _ORBIT_CAP, _ORBIT_CAP)


def orbit_window(t: Iet, z: FieldValue, window: Interval):
    """The finite orbit segment of z delimited by the open interior of the
    window: forward iterates stop before entering it, backward iterates
    stop on entering it, and a periodic orbit closes the segment."""
    u, v = window
    if not t.contains(z):
        raise DomainError("point %s outside domain" % z)
    out = {z}
    cur = t.apply(z)
    for _ in range(_ORBIT_CAP):
        if u < cur < v or cur == z:
            break
        out.add(cur)
        cur = t.apply(cur)
    else:
        raise CapExceeded("forward orbit exceeded %d steps" % _ORBIT_CAP, _ORBIT_CAP)
    if not (u < z < v):
        cur = t.apply_inverse(z)
        for _ in range(_ORBIT_CAP):
            if cur == z:
                break
            out.add(cur)
            if u < cur < v:
                break
            cur = t.apply_inverse(cur)
        else:
            raise CapExceeded("backward orbit exceeded %d steps" % _ORBIT_CAP, _ORBIT_CAP)
    return tuple(sorted(out))


def div_set(t: Iet, window: Interval):
    """Union of the orbit segments of all discontinuities."""
    pts = set()
    for g in t.discontinuities():
        pts.update(orbit_window(t, g, window))
    return tuple(sorted(pts))


def is_admissible(t: Iet, window: Interval) -> bool:
    """Whether both window endpoints are reachable cut points: members of
    the discontinuity orbit set, or the right end of the domain."""
    u, v = window
    lo, hi = t.domain()
    if not (lo <= u < v <= hi):
        raise DomainError("window [%s, %s) not inside domain" % (u, v))
    allowed = set(div_set(t, window))
    allowed.add(hi)
    return u in allowed and v in allowed


# -- induction onto a cylinder ------------------------------------------


@dataclass
class InductionChain:
    initial: Iet
    word: str
    target: Interval
    records: tuple
    final: Iet
    morphism: LetterMorphism

    def kinds(self) -> tuple[str, ...]:
        return tuple(r.kind for r in self.records)

    def to_json(self) -> dict:
        return {
            "word": self.word,
            "target": [str(v) for v in self.target],
            "steps": [r.to_json() for r in self.records],
            "final": self.final.to_json(),
            "morphism": self.morphism.to_json(),
        }


def _disjoint(a: Interval, b: Interval) -> bool:
    return a[1] <= b[0] or b[1] <= a[0]


def induce_to_cylinder(t: Iet, word: str, max_steps: int = 200) -> InductionChain:
    """Drive one-sided steps and splits until the domain is exactly the
    cylinder of the word.  The final map is returned in the original
    coordinates, so its domain is literally the cylinder, and the composed
    morphism carries its coding words back to codings of the input."""
    if max_steps < 0:
        raise DomainError("step cap must be non-negative, got %d" % max_steps)
    for ch in word:
        t.alphabet.index(ch)
    target = cylinder(t, word)
    if word == "":
        return InductionChain(t, word, target, (), t, identity_morphism(t.alphabet))
    tlo, thi = target
    cur = t
    records = []
    back_shift = ZERO
    steps = 0
    while cur.domain() != (tlo, thi):
        if steps >= max_steps:
            raise CapExceeded(
                "induction did not reach the cylinder within %d steps" % max_steps,
                max_steps,
            )
        steps += 1
        blocks = cur.invariant_blocks()
        exact = next(
            (b for b in blocks if cur.block_interval(b) == (tlo, thi)), None
        )
        if exact is not None:
            (cur, rec), _ = split(cur, exact)
            records.append(rec)
            continue
        _, zhi = z_interval(cur)
        ylo, _ = y_interval(cur)
        if thi <= zhi:
            side, ext = "right", cur.alphabet.letters[-1]
        else:
            check(tlo >= ylo, "cylinder escapes both induction windows")
            side, ext = "left", cur.alphabet.letters[0]
        avoiding = [
            b for b in blocks if _disjoint(cur.block_interval(b), (tlo, thi))
        ]
        if any(ext in b for b in avoiding):
            b = min(avoiding, key=lambda bb: (len(bb), cur.alphabet.index(bb[0])))
            bhi = cur.block_interval(b)[1]
            _, (cur, rec) = split(cur, b)
            records.append(rec)
            if rec.glue is not None and tlo >= bhi:
                gap = rec.glue[1]
                tlo, thi = tlo - gap, thi - gap
                back_shift = back_shift + gap
            continue
        rec = right_step(cur) if side == "right" else left_step(cur)
        records.append(rec)
        cur = rec.after
    final = cur.translate(back_shift)
    morphism = reduce(
        compose, (r.morphism for r in records), identity_morphism(t.alphabet)
    )
    return InductionChain(t, word, target, tuple(records), final, morphism)
