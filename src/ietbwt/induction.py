"""Induction on interval exchanges: one-sided Rauzy steps for arbitrary
length comparisons, splitting along invariant blocks, brute-force first
returns, and the driver that induces onto a cylinder.

Every step builds its map from the classical order and Rauzy row, then
checks it, in every build, against the first returns of a declared
partition of the sub-domain, and the substitution against their
itineraries.  A left step reads the alphabet and the row as reversed
tuples, the combinatorics of the mirrored map x -> -x, and lays its
pieces out in the map's own coordinates, so one construction builds and
checks all six step kinds without building a mirrored map.  A chain lives
on its root's integer frame (see `iet`): lengths, windows, pieces, block
spans and target tests are `Iet` methods on its pairs; this module keeps
the kinds, orders, rows and substitutions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .coding import LetterMorphism, _cylinder_ends
from .errors import CapExceeded, DomainError, check
from .exact import FieldValue
from .iet import Iet, Interval

_ORBIT_CAP = 10 ** 6  # iterates of a brute-force orbit walk


def z_interval(t: Iet) -> Interval:
    """Domain cut at the rightmost discontinuity of either kind: a right step's."""
    return tuple(map(t._value, t._window(True)))


def y_interval(t: Iet) -> Interval:
    """Domain truncated at the leftmost discontinuity of either kind."""
    return tuple(map(t._value, t._window(False)))


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
            "interval": self.after._span_text(),
            "morphism": dict(self.morphism.rules),
        }
        if self.block is not None:
            out["block"] = "".join(self.block)
            out["branch"] = self.branch
        if self.glue is not None:
            out["glue"] = [str(v) for v in self.glue]
        return out


def _step(t: Iet, side: str) -> StepRecord:
    """One Rauzy step cut at the given end of the domain.  A left step reads
    the alphabet and the row reversed, the combinatorics of the mirrored
    map x -> -x, so the kind, the new order, the Rauzy row and the
    substitution come from the same code on both sides; mirroring keeps
    time direction, so codings carry over.  The pieces are laid out on t's
    pairs in t's own coordinates and walked on t; the induced map is built
    from the order and row read back in t's orientation, and the walks
    check it and the substitution."""
    right = side == "right"
    letters, row = t.alphabet.letters, t.perm.images
    if len(letters) < 2:
        raise DomainError("need at least two letters to step")
    pieces = t._pieces()  # in the order of letters, read mirrored on the left
    if not right:
        letters, row = letters[::-1], row[::-1]
        pieces.reverse()
    last, pk = letters[-1], row[-1]
    if pk == last:
        raise DomainError(
            "%s step blocked: %s slot holds its own letter" % (side, "last" if right else "first")
        )
    i = letters.index(pk)
    (lo, hi), (ak, lk), (ab, lb) = t._span(), pieces[-1], pieces[i]
    c = t._cmp(lk, lb)
    if c > 0:
        kind, cut = "top", lb
        new_order = letters
        j = row.index(last) + 1
        expected_row = row[:j] + (pk,) + row[j:-1]
        pieces[-1] = (ak if right else t._add(ak, lb), t._add(lk, lb, -1))
    elif c < 0:
        kind, cut = "bottom", lk
        new_order = letters[: i + 1] + (last,) + letters[i + 1 : -1]
        expected_row = row
        rest = t._add(lb, lk, -1)
        if right:
            moved = [(ab, rest), (t._add(ab, rest), lk)]
        else:
            moved = [(t._add(ab, lk), rest), (ab, lk)]
        pieces[i:] = moved + pieces[i + 1 : -1]
    else:
        kind, cut = "merge", lk
        new_order = letters[:-1]
        expected_row = tuple(pk if y == last else y for y in row[:-1])
        del pieces[-1]
    rules = dict(zip(new_order, new_order))  # top, merge: pk -> pk last; bottom: last -> pk last
    rules[last if c < 0 else pk] = pk + last
    if right:
        window, name = (lo, t._add(hi, cut, -1)), "z_interval"
    else:
        window, name = (t._add(lo, cut), hi), "y_interval"
        new_order, expected_row = new_order[::-1], expected_row[::-1]
        pieces.reverse()
    check(window == t._window(right), "step window differs from " + name)
    t2, itineraries = t._induced(*window, new_order, expected_row, pieces)
    check(itineraries == rules, "itineraries differ from the substitution")
    # the equality proves what the constructor would check: one non-empty
    # word of t's letters per letter of t2, in t2's order
    morphism = LetterMorphism._proven(t2.alphabet, t.alphabet, itineraries)
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
    spans = t._block_spans()
    if letters not in spans:
        raise DomainError("%r is not an invariant block" % ("".join(letters),))
    (blo, bhi), (lo, hi) = spans[letters], t._span()
    glue = None
    if branch == "block":
        kept, origin = letters, blo
    else:
        kept = tuple(x for x in t.alphabet if x not in set(letters))
        origin = bhi if blo == lo else lo
        if blo != lo and bhi != hi:
            glue = (t._value(blo), t._value(t._add(bhi, blo, -1)))
    row = tuple(y for y in t.perm.images if y in kept)
    widths = [width for x, (_, width) in zip(t.alphabet, t._pieces()) if x in kept]
    t2 = t._child(kept, row, origin, widths)
    inclusion = LetterMorphism._proven(t2.alphabet, t.alphabet, {x: x for x in kept})
    return StepRecord("split", t, t2, inclusion, block=letters, branch=branch, glue=glue)


# -- first returns -----------------------------------------------------


@dataclass(frozen=True)
class ReturnVisit:
    point: FieldValue
    time: int
    itinerary: str


def first_return_point(t: Iet, x: FieldValue, lo, hi) -> ReturnVisit:
    """Brute-force first return of x to [lo, hi) with its coding, walked
    on the lcm frame of t, x and the window."""
    if not (lo <= x < hi):
        raise DomainError("point %s outside window [%s, %s)" % (x, lo, hi))
    capped = "no return to the window within %d steps"
    d, m, (x, lo, hi) = t._on_frame(x, lo, hi)
    [(a, b)], [word] = t._walk((d, m), lo, hi, [(x, (0, 0))], _ORBIT_CAP, capped)
    return ReturnVisit(FieldValue(a, b, d, m), len(word), word)


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


def induce_to_cylinder(t: Iet, word: str, max_steps: int = 200) -> InductionChain:
    """Drive one-sided steps and splits until the domain is exactly the
    cylinder of the word.  The final map is returned in the original
    coordinates, so its domain is literally the cylinder, and the composed
    morphism carries its coding words back to codings of the input.  The
    target, windows and block spans are compared as pairs of t's frame."""
    if max_steps < 0:
        raise DomainError("step cap must be non-negative, got %d" % max_steps)
    for ch in word:
        t.alphabet.index(ch)
    tlo, thi = _cylinder_ends(t, word)
    target = (t._value(tlo), t._value(thi))
    origin = tlo  # a glue shift moves the target left; the final map moves back
    cur, records = t, []
    while cur._span() != (tlo, thi):
        if len(records) >= max_steps:
            kinds = sorted(Counter(rec.kind for rec in records).items())
            steps = ", ".join("%s %d" % item for item in kinds) or "none"
            raise CapExceeded(
                "induction did not reach the cylinder within %d steps; word %r; steps by kind: %s;"
                " domain reached [%s, %s)" % (max_steps, word, steps, *cur._span_text()),
                max_steps,
            )
        spans = cur._block_spans()  # empty unless the tilings share an interior cut
        exact = spans and next((b for b, span in spans.items() if span == (tlo, thi)), None)
        if exact:
            rec = split(cur, exact, "block")
        else:
            if cur._cmp(thi, cur._window(True)[1]) <= 0:
                side, ext = "right", cur.alphabet.letters[-1]
            else:
                inside = cur._cmp(tlo, cur._window(False)[0]) >= 0
                check(inside, "cylinder escapes both induction windows")
                side, ext = "left", cur.alphabet.letters[0]
            avoiding = spans and [b for b, (lo, hi) in spans.items()  # apart from the target
                                  if cur._cmp(hi, tlo) <= 0 or cur._cmp(thi, lo) <= 0]
            if avoiding and any(ext in b for b in avoiding):
                b = min(avoiding, key=lambda bb: (len(bb), cur.alphabet.index(bb[0])))
                rec = split(cur, b, "complement")
                blo, bhi = spans[b]
                if rec.glue is not None and cur._cmp(tlo, bhi) >= 0:
                    gap = cur._add(bhi, blo, -1)
                    tlo, thi = cur._add(tlo, gap, -1), cur._add(thi, gap, -1)
            else:
                rec = right_step(cur) if side == "right" else left_step(cur)
        records.append(rec)
        cur = rec.after
    widths = [width for _, width in cur._pieces()]
    final = cur if tlo == origin else cur._child(cur.alphabet, cur.perm.images, origin, widths)
    # compose the records' rules once, outermost first, and check the result
    rules = {x: x for x in t.alphabet}
    for rec in records:
        table = str.maketrans(rules)
        rules = {x: w.translate(table) for x, w in rec.morphism.rules.items()}
    morphism = LetterMorphism(final.alphabet, t.alphabet, rules)
    return InductionChain(t, word, target, tuple(records), final, morphism)
