"""Induction on interval exchanges: one-sided Rauzy steps for arbitrary
length comparisons, splitting along invariant blocks, brute-force first
returns, and the driver that induces onto a cylinder.

Every step builds its map from the classical order and Rauzy row, then
checks it, in every build, against the first returns of a declared
partition of the sub-domain, and the substitution against their
itineraries.  A left step reads the alphabet and the row as reversed
tuples, the combinatorics of the mirrored map x -> -x, and lays its
pieces out in the map's own coordinates, so one construction builds and
checks all six step kinds without building a mirrored map.  The map's
own walker moves a step's pieces, and the points of a first return, on
its integer frame (see `iet`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .alphabet import Perm
from .coding import LetterMorphism, cylinder
from .errors import CapExceeded, DomainError, check
from .exact import FieldValue, ZERO, compare
from .iet import Iet, Interval

_WALK_CAP = 16  # iterates a step's declared piece may take to land back
_ORBIT_CAP = 10 ** 6  # iterates of a brute-force orbit walk


def _window_cuts(t: Iet, i: int) -> tuple[FieldValue, FieldValue]:
    """Discontinuity i of each kind; both lists ascend."""
    pts, inverse = t.discontinuities(), t.discontinuities_inverse()
    if not pts:
        raise DomainError("a one-letter map has no induction window")
    return pts[i], inverse[i]


def z_interval(t: Iet) -> Interval:
    """Domain truncated at the rightmost discontinuity of either kind; the
    sub-domain reached by one right step."""
    return (t.domain()[0], max(_window_cuts(t, -1)))


def y_interval(t: Iet) -> Interval:
    """Domain truncated at the leftmost discontinuity of either kind."""
    return (min(_window_cuts(t, 0)), t.domain()[1])


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


def _induced_from_partition(t: Iet, lo, hi, order, row, pieces):
    """First-return map of t on [lo, hi), built from the declared order and
    Rauzy row and one (letter, left, width) piece per letter, then checked:
    it ends at hi, each piece starts at its letter's left end, moves
    rigidly (inside one letter interval of t) at every iterate of its walk,
    and lands exactly on its letter's image slot."""
    t2 = Iet(order, {x: width for x, _, width in pieces}, Perm(order, row), origin=lo)
    tiled = t2.domain()[1] == hi and all(x == t2.left(c) for c, x, _ in pieces)
    check(tiled, "pieces do not tile the sub-domain")
    walks = [p[1:] for p in pieces]
    landings = t._walk(lo, hi, walks, _WALK_CAP, "first-return walk exceeded %d steps")
    itineraries = {}
    for (letter, _, _), (point, word) in zip(pieces, landings):
        check(point == t2.image_interval(letter)[0], "landings differ from the Rauzy row")
        itineraries[letter] = word
    return t2, itineraries


def _step(t: Iet, side: str) -> StepRecord:
    """One Rauzy step cut at the given end of the domain.  A left step reads
    the alphabet and the row reversed, the combinatorics of the mirrored
    map x -> -x, so the kind, the new order, the Rauzy row and the
    substitution come from the same code on both sides; mirroring keeps
    time direction, so codings carry over.  The pieces are laid out in t's
    own coordinates and walked on t; the induced map is built from the
    order and row read back in t's orientation, and the walks check it
    and the substitution."""
    right = side == "right"
    letters, row = t.alphabet.letters, t.perm.images
    if len(letters) < 2:
        raise DomainError("need at least two letters to step")
    if not right:
        letters, row = letters[::-1], row[::-1]
    last, pk = letters[-1], row[-1]
    if pk == last:
        raise DomainError(
            "%s step blocked: %s slot holds its own letter" % (side, "last" if right else "first")
        )
    lo, hi = t.domain()
    lk, lb = t.lengths[last], t.lengths[pk]
    c = compare(lk, lb)
    if c > 0:
        kind, cut = "top", lb
        new_order = letters
        i = row.index(last) + 1
        expected_row = row[:i] + (pk,) + row[i:-1]
        a = t.left(last)
        moved = {last: (a if right else a + lb, lk - lb)}
    elif c < 0:
        kind, cut = "bottom", lk
        i = letters.index(pk) + 1
        new_order = letters[:i] + (last,) + letters[i:-1]
        expected_row = row
        a = t.left(pk)
        if right:
            moved = {pk: (a, lb - lk), last: (a + (lb - lk), lk)}
        else:
            moved = {last: (a, lk), pk: (a + lk, lb - lk)}
    else:
        kind, cut = "merge", lk
        new_order = letters[:-1]
        expected_row = tuple(pk if y == last else y for y in row[:-1])
        moved = {}
    rules = {x: x for x in new_order}  # top, merge: pk -> pk last; bottom: last -> pk last
    rules[last if c < 0 else pk] = pk + last
    if right:
        window, name, expected = (lo, hi - cut), "z_interval", z_interval(t)
    else:
        window, name, expected = (lo + cut, hi), "y_interval", y_interval(t)
        new_order, expected_row = new_order[::-1], expected_row[::-1]
    check(window == expected, "step window differs from " + name)
    pieces = [(x, *moved.get(x, (t.left(x), t.lengths[x]))) for x in new_order]
    t2, itineraries = _induced_from_partition(t, *window, new_order, expected_row, pieces)
    morphism = LetterMorphism(t2.alphabet, t.alphabet, itineraries)
    check(morphism.rules == rules, "itineraries differ from the substitution")
    return StepRecord(side + "_" + kind, t, t2, morphism)


def right_step(t: Iet) -> StepRecord:
    """Induce on the domain cut at the rightmost discontinuity.  The step
    kind depends on how the last interval compares with the last slot."""
    return _step(t, "right")


def left_step(t: Iet) -> StepRecord:
    """Induce on the domain cut at the leftmost discontinuity.  The step
    kind depends on how the first interval compares with the first slot."""
    return _step(t, "left")


def split(t: Iet, block, branch: str) -> StepRecord:
    """Split along an invariant block and keep one branch: "block", the
    restriction to the block, or "complement", the map with the block's
    span removed.  An interior block leaves the complement a glue record
    (cut, gap) describing the coordinate shift of the tail."""
    if branch not in ("block", "complement"):
        raise DomainError("unknown split branch %r" % (branch,))
    letters = t.alphabet.ordered(block)
    if letters not in t.invariant_blocks():
        raise DomainError("%r is not an invariant block" % ("".join(letters),))
    blo, bhi = t.block_interval(letters)
    lo, hi = t.domain()
    glue = None
    if branch == "block":
        kept, origin = letters, blo
    else:
        kept = tuple(x for x in t.alphabet if x not in set(letters))
        origin = bhi if blo == lo else lo
        if lo < blo and bhi < hi:
            glue = (blo, bhi - blo)
    t2 = Iet(kept, {x: t.lengths[x] for x in kept}, t.perm.restrict(kept), origin=origin)
    inclusion = LetterMorphism(kept, t.alphabet, {x: x for x in kept})
    return StepRecord("split", t, t2, inclusion, block=letters, branch=branch, glue=glue)


# -- first returns -----------------------------------------------------


@dataclass(frozen=True)
class ReturnVisit:
    point: FieldValue
    time: int
    itinerary: str


def first_return_point(t: Iet, x: FieldValue, lo, hi) -> ReturnVisit:
    """Brute-force first return of x to [lo, hi) with its coding."""
    if not (lo <= x < hi):
        raise DomainError("point %s outside window [%s, %s)" % (x, lo, hi))
    capped = "no return to the window within %d steps"
    [(point, word)] = t._walk(lo, hi, [(x, ZERO)], _ORBIT_CAP, capped)
    return ReturnVisit(point, len(word), word)


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
    tlo, thi = target = cylinder(t, word)
    cur, records, back_shift = t, [], ZERO
    while cur.domain() != (tlo, thi):
        if len(records) >= max_steps:
            raise CapExceeded(
                "induction did not reach the cylinder within %d steps" % max_steps,
                max_steps,
            )
        spans = {b: cur.block_interval(b) for b in cur.invariant_blocks()}
        exact = next((b for b, span in spans.items() if span == (tlo, thi)), None)
        if exact is not None:
            rec = split(cur, exact, "block")
        else:
            if thi <= z_interval(cur)[1]:
                side, ext = "right", cur.alphabet.letters[-1]
            else:
                check(tlo >= y_interval(cur)[0], "cylinder escapes both induction windows")
                side, ext = "left", cur.alphabet.letters[0]
            avoiding = [b for b, span in spans.items() if _disjoint(span, (tlo, thi))]
            if any(ext in b for b in avoiding):
                b = min(avoiding, key=lambda bb: (len(bb), cur.alphabet.index(bb[0])))
                rec = split(cur, b, "complement")
                if rec.glue is not None and tlo >= spans[b][1]:
                    gap = rec.glue[1]
                    tlo, thi = tlo - gap, thi - gap
                    back_shift = back_shift + gap
            else:
                rec = right_step(cur) if side == "right" else left_step(cur)
        records.append(rec)
        cur = rec.after
    final = cur if back_shift == ZERO else cur.translate(back_shift)
    # compose the records' rules once, outermost first, and check the result
    rules = {x: x for x in t.alphabet}
    for rec in records:
        rules = {x: "".join(rules[c] for c in w) for x, w in rec.morphism.rules.items()}
    morphism = LetterMorphism(final.alphabet, t.alphabet, rules)
    return InductionChain(t, word, target, tuple(records), final, morphism)
