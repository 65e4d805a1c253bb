"""The integer frame of an exchange against FieldValue oracles.

Cylinder levels, first-return walks and induction steps run on integer
pairs over one denominator per exchange.  These tests rebuild the same
results with FieldValue arithmetic alone: a cylinder table pulled back
one letter at a time, and orbits walked point by point with `Iet.apply`.
The maps mix denominators and radicands on purpose, and the walked points
sit in k/97 steps, outside every map's own denominators.
"""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import ietbwt
from ietbwt.alphabet import Alphabet
from ietbwt.cli import main
from ietbwt.coding import cylinder, cylinders, language
from ietbwt.errors import DomainError, InvariantError
from ietbwt.exact import make_rational, parse_value
from ietbwt.iet import Iet
from ietbwt.induction import ReturnVisit, first_return_point, induce_to_cylinder

from conftest import make_e5, random_quadratic_iet


def _row(rng, letters):
    row = list(letters)
    while row[-1] == letters[-1] or row[0] == letters[0]:
        rng.shuffle(row)
    return "".join(row)


def _mixed_rational(seed):
    """Rational lengths and origin, each over its own denominator."""
    rng = random.Random(seed)
    letters = Alphabet.first(rng.choice((3, 4))).letters
    lengths = {x: make_rational(rng.randint(1, 9), rng.choice((2, 3, 5, 7, 11)))
               for x in letters}
    origin = make_rational(rng.randint(-5, 5), rng.choice((4, 9, 13)))
    return Iet(letters, lengths, _row(rng, letters), origin=origin)


def _quadratic_map():
    """Quadratic lengths over several denominators, irrational origin."""
    spec = {"a": "-2/3+1/2*sqrt(5)", "b": "3/2-1/4*sqrt(5)", "c": "7/6",
            "d": "1/6+1/2*sqrt(5)"}
    lengths = {x: parse_value(v) for x, v in spec.items()}
    return Iet("abcd", lengths, "dabc", origin=parse_value("5/6-1/4*sqrt(5)"))


def _rational_origin(seed):
    """Quadratic lengths from a rational origin."""
    rng = random.Random(seed)
    return random_quadratic_iet(rng, rng.choice((3, 4))).with_origin(make_rational(2, 7))


MAPS = {
    "mixed rational 1": lambda: _mixed_rational(6),
    "mixed rational 2": lambda: _mixed_rational(7),
    "quadratic, four denominators": _quadratic_map,
    "rational origin 1": lambda: _rational_origin(3),
    "rational origin 2": lambda: _rational_origin(4),
    "zero connection": lambda: make_e5().with_origin(make_rational(-1, 7)),
}


def _pull_back_table(t, depth):
    """Cylinder levels from I_xw = I_x ∩ T^-1(I_w), in FieldValues."""
    levels = [{"": t.domain()}]
    for _ in range(depth):
        nxt = {}
        for w, (wlo, whi) in levels[-1].items():
            for x in t.alphabet:
                xlo, xhi = t.interval(x)
                tau = t.translation(x)
                lo, hi = max(xlo, wlo - tau), min(xhi, whi - tau)
                if lo < hi:
                    nxt[x + w] = (lo, hi)
        levels.append(nxt)
    return levels


def _orbit_return(t, x, lo, hi):
    """First return of x to [lo, hi), walked with Iet.apply."""
    word = ""
    for n in range(1, 10 ** 4):
        word += t.letter_at(x)
        x = t.apply(x)
        if lo <= x < hi:
            return ReturnVisit(x, n, word)
    raise AssertionError("no return within 10**4 steps")


def _points(lo, hi, step=11):
    return [lo + (hi - lo) * Fraction(k, 97) for k in range(0, 97, step)]


@pytest.mark.parametrize("name", sorted(MAPS))
def test_cylinders_match_pull_back(name):
    t = MAPS[name]()
    table = cylinders(t, 4)
    assert [dict(level) for level in table.levels] == _pull_back_table(t, 4)
    assert language(t, 4).words == {w for level in table.levels for w in level}
    for level in table.levels:
        for w, interval in level.items():
            assert cylinder(t, w) == interval
    missing = next(x + y for x in t.alphabet for y in t.alphabet if x + y not in table.levels[2])
    with pytest.raises(DomainError, match="empty cylinder for %r" % missing):
        cylinder(t, missing)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_first_returns_match_orbits(name):
    t = MAPS[name]()
    table = cylinders(t, 2)
    for w in sorted(table.levels[2])[:4]:
        lo, hi = table.interval(w)
        for x in _points(lo, hi):
            assert first_return_point(t, x, lo, hi) == _orbit_return(t, x, lo, hi)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_every_step_matches_orbits(name):
    t = MAPS[name]()
    lang = language(t, 2)
    for w in lang.words_of_length(1) + lang.words_of_length(2)[:3]:
        chain = induce_to_cylinder(t, w)
        for rec in chain.records:
            if rec.kind == "split":
                continue
            lo, hi = rec.after.domain()
            for x in rec.after.alphabet:
                for p in _points(*rec.after.interval(x), step=48):
                    want = ReturnVisit(rec.after.apply(p), len(rec.morphism.rules[x]),
                                       rec.morphism.rules[x])
                    assert _orbit_return(rec.before, p, lo, hi) == want, (w, rec.kind, x)
        lo, hi = chain.final.domain()
        for x in chain.final.alphabet:
            for p in _points(*chain.final.interval(x), step=32):
                visit = first_return_point(t, p, lo, hi)
                assert visit == _orbit_return(t, p, lo, hi)
                assert visit.itinerary == chain.morphism(x)


def test_rational_map_adopts_the_radicand_of_a_point():
    third = make_rational(1, 3)
    t = Iet("abc", {"a": third, "b": third, "c": third}, "cba")
    x = parse_value("1/4*sqrt(2)")
    visit = first_return_point(t, x, make_rational(0), make_rational(1, 2))
    assert visit == ReturnVisit(x, 1, "b")


def test_a_piece_across_a_cut_does_not_move_rigidly():
    half = make_rational(1, 2)
    t = Iet("ab", {"a": half, "b": half}, "ba")  # frame pairs are halves
    with pytest.raises(InvariantError, match="piece does not move rigidly"):
        t._induced((0, 0), (2, 0), "a", "a", [((0, 0), (2, 0))])


def test_a_walk_on_a_finer_frame_names_its_point():
    """A window wider than the domain lets a point in 97ths reach the
    walk, which names it as given and walks a surd point to its return."""
    t = Iet("ab", {"a": make_rational(1, 3), "b": make_rational(2, 3)}, "ba")
    lo, hi = make_rational(-1), make_rational(2)
    with pytest.raises(DomainError, match=re.escape("point -1/97 outside domain [0, 1)")):
        first_return_point(t, make_rational(-1, 97), lo, hi)
    visit = first_return_point(t, parse_value("-1/97+1/97*sqrt(2)"), lo, hi)
    assert visit == ReturnVisit(parse_value("191/291+1/97*sqrt(2)"), 1, "a")


def test_two_radicands_are_refused(capsys):
    lengths = "a=-1/2+1/2*sqrt(2),b=3/2-1/2*sqrt(2)"
    point = "1/4*sqrt(3)"
    for command in ("eval", "orbit"):
        argv = [command, "--lengths", lengths, "--row", "ba", "--point", point]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "incompatible radicands" in err
    t = Iet("ab", {"a": parse_value("-1/2+1/2*sqrt(2)"), "b": parse_value("3/2-1/2*sqrt(2)")},
            "ba")
    with pytest.raises(DomainError, match="incompatible radicands"):
        first_return_point(t, parse_value(point), make_rational(0), make_rational(1))


def test_frame_tests_pass_under_optimize():
    """The walks' soundness checks do not rest on assert statements."""
    src = os.path.dirname(os.path.dirname(ietbwt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "not optimize", __file__],
        capture_output=True, text=True, env=env, cwd=here,
    )
    assert out.returncode == 0, out.stdout + out.stderr
