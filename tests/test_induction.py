"""Induction steps, splits, first returns, and cylinder chains."""

import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

import ietbwt
from ietbwt import induction
from ietbwt.alphabet import Perm
from ietbwt.coding import LetterMorphism, left_return_words, language
from ietbwt.errors import CapExceeded, DomainError
from ietbwt.exact import make_rational, parse_value
from ietbwt.extgraph import classify_language
from ietbwt.iet import Iet, diet_to_iet
from ietbwt.induction import (
    StepRecord,
    first_return_point,
    induce_to_cylinder,
    left_step,
    right_step,
    split,
    y_interval,
    z_interval,
)
from ietbwt.words import clustering_transport, is_pi_clustering

from conftest import fv, random_quadratic_iet, random_rational_iet


def _samples(lo, hi, n=5):
    width = hi - lo
    return [lo + width * Fraction(k, n + 1) for k in range(1, n + 1)]


def _check_step(rec, samples_per_letter=4):
    """Every point of the new map must follow the morphism's itinerary and
    land where the new map says, under the old map."""
    t, t2 = rec.before, rec.after
    lo, hi = t2.domain()
    for letter in t2.alphabet:
        for x in _samples(*t2.interval(letter), n=samples_per_letter):
            visit = first_return_point(t, x, lo, hi)
            assert visit.itinerary == rec.morphism(letter)
            assert visit.point == t2.apply(x)


# -- induction windows ---------------------------------------------------


def test_windows_e5(e5):
    assert z_interval(e5) == (fv(0), fv(Fraction(5, 6)))
    assert y_interval(e5) == (fv(Fraction(1, 6)), fv(1))


def test_windows_need_two_letters():
    t = Iet(("a",), {"a": make_rational(1)}, "a")
    with pytest.raises(DomainError):
        z_interval(t)
    for step in (right_step, left_step):
        with pytest.raises(DomainError, match="need at least two letters"):
            step(t)


# -- single steps --------------------------------------------------------


def test_right_step_e5_is_merge(e5):
    rec = right_step(e5)
    assert rec.kind == "right_merge"
    assert rec.after.alphabet.letters == ("a", "b", "c", "d")
    assert rec.after.perm.one_line() == "acbd"
    assert rec.after.domain() == (fv(0), fv(Fraction(5, 6)))
    assert rec.morphism.rules == {"a": "ae", "b": "b", "c": "c", "d": "d"}
    _check_step(rec)


def test_left_step_e5_is_merge(e5):
    rec = left_step(e5)
    assert rec.kind == "left_merge"
    assert rec.after.alphabet.letters == ("b", "c", "d", "e")
    assert rec.after.perm.one_line() == "cbde"
    assert rec.after.domain() == (fv(Fraction(1, 6)), fv(1))
    assert rec.morphism.rules == {"b": "b", "c": "c", "d": "d", "e": "ea"}
    _check_step(rec)


def test_right_step_golden_is_bottom(golden):
    rec = right_step(golden)
    assert rec.kind == "right_bottom"
    assert rec.after.alphabet.letters == ("a", "b")
    assert rec.after.perm.one_line() == "ba"
    # the new domain ends where the long interval a used to end
    assert rec.after.domain() == (fv(0), golden.lengths["a"])
    assert rec.morphism.rules == {"a": "a", "b": "ab"}
    _check_step(rec)


def test_right_step_rational2_is_top(rational2):
    rec = right_step(rational2)
    assert rec.kind == "right_top"
    assert rec.after.perm.one_line() == "ba"
    assert rec.after.domain() == (fv(0), fv(Fraction(2, 3)))
    assert rec.morphism.rules == {"a": "ab", "b": "b"}
    _check_step(rec)


def test_left_step_quadratic_top():
    lengths = {
        "a": fv(Fraction(-1, 2), Fraction(1, 2), 5),
        "b": fv(Fraction(1, 5)),
        "c": fv(Fraction(3, 2), Fraction(-1, 2), 5),
        "d": fv(Fraction(1, 4)),
    }
    t = Iet("abcd", lengths, "dbca", origin=fv(Fraction(1, 2), Fraction(1, 3), 5))
    rec = left_step(t)
    assert rec.kind == "left_top"
    assert rec.before is t
    assert rec.after.alphabet.letters == ("a", "b", "c", "d")
    assert rec.after.perm.one_line() == "bcda"
    assert rec.after.domain() == (
        fv(Fraction(3, 4), Fraction(1, 3), 5),
        fv(Fraction(39, 20), Fraction(1, 3), 5),
    )
    assert rec.after.lengths["a"] == fv(Fraction(-3, 4), Fraction(1, 2), 5)
    assert rec.morphism.rules == {"a": "a", "b": "b", "c": "c", "d": "da"}
    _check_step(rec)


def test_left_step_quadratic_bottom():
    lengths = {
        "a": fv(Fraction(1, 5)),
        "b": fv(Fraction(-1, 2), Fraction(1, 2), 5),
        "c": fv(Fraction(3, 2), Fraction(-1, 2), 5),
        "d": fv(Fraction(1, 3)),
    }
    t = Iet("abcd", lengths, "cadb", origin=fv(0, Fraction(1, 4), 5))
    rec = left_step(t)
    assert rec.kind == "left_bottom"
    assert rec.after.alphabet.letters == ("b", "a", "c", "d")
    assert rec.after.perm.one_line() == "cadb"
    assert rec.after.domain() == (
        fv(Fraction(1, 5), Fraction(1, 4), 5),
        fv(Fraction(23, 15), Fraction(1, 4), 5),
    )
    assert rec.after.lengths["c"] == fv(Fraction(13, 10), Fraction(-1, 2), 5)
    assert rec.morphism.rules == {"b": "b", "a": "ca", "c": "c", "d": "d"}
    assert str(rec.morphism.source) == "bacd"
    _check_step(rec)


def test_blocked_steps_raise():
    t = Iet(
        ("a", "b"),
        {"a": make_rational(1, 2), "b": make_rational(1, 2)},
        "ab",
    )
    with pytest.raises(DomainError):
        right_step(t)
    with pytest.raises(DomainError):
        left_step(t)


def test_random_steps_are_sound():
    import random

    rng = random.Random(97)
    family = [
        random_rational_iet(rng, rng.choice((3, 4, 5)), steppable=True)
        for _ in range(25)
    ]
    family += [random_quadratic_iet(rng, rng.choice((3, 4, 5))) for _ in range(12)]
    # non-minimal: a reducible row and an interior block {d} (c and e tie)
    ce = fv(Fraction(3, 2), Fraction(-1, 2), 5)
    lengths = {
        "a": fv(-2, 1, 5),
        "b": fv(Fraction(1, 3)),
        "c": ce,
        "d": fv(Fraction(1, 5), Fraction(1, 10), 5),
        "e": ce,
    }
    origin = fv(Fraction(-1, 3), Fraction(1, 2), 5)
    reducible = Iet("abcde", lengths, "baedc", origin=origin)
    assert set(reducible.invariant_blocks()) == {("a", "b"), ("c", "d", "e"), ("d",)}
    family.append(reducible)
    for t in family:
        _check_step(right_step(t), samples_per_letter=3)
        _check_step(left_step(t), samples_per_letter=3)


def _mirror(t):
    """The map under x -> -x: alphabet and row reversed, domain [-hi, -lo)."""
    letters = t.alphabet.letters[::-1]
    return Iet(letters, t.lengths, Perm(letters, t.perm.images[::-1]), origin=-t.domain()[1])


def _mirrored_left_step(t):
    """Oracle: a left step as the right step of the mirrored map, mirrored
    back with the same substitution, after the left side's blocked check."""
    letters = t.alphabet.letters
    if len(letters) > 1 and t.perm.images[0] == letters[0]:
        raise DomainError("left step blocked: first slot holds its own letter")
    rec = right_step(_mirror(t))
    after = _mirror(rec.after)
    morphism = LetterMorphism(after.alphabet, t.alphabet, rec.morphism.rules)
    return StepRecord(rec.kind.replace("right_", "left_"), t, after, morphism)


def _outcome(step, t):
    try:
        rec = step(t)
    except (DomainError, CapExceeded) as exc:
        return type(exc).__name__, str(exc)
    return rec.kind, rec.after.to_json(), rec.morphism.to_json()


def _tied_map(rng):
    """One to five letters whose lengths come from a pool of three values, so
    that equal lengths (merges) are common; rational or Q(sqrt(5)) lengths,
    a random origin and a random row, blocked on either side or not."""
    k = rng.randint(1, 5)
    letters = "abcde"[:k]
    if rng.random() < 0.5:
        pool = [fv(Fraction(rng.randint(1, 9), 7)) for _ in range(3)]
        origin = fv(Fraction(rng.randint(-9, 9), 5))
    else:
        pool = [fv(Fraction(rng.randint(5, 9), 2), Fraction(rng.randint(-2, 2), 2), 5) for _ in range(3)]
        origin = fv(Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-3, 3), 3), 5)
    row = list(letters)
    rng.shuffle(row)
    lengths = {x: rng.choice(pool) for x in letters}
    return Iet(letters, lengths, "".join(row), origin=origin)


def test_left_step_matches_mirrored_right_step():
    rng = random.Random(1213)
    family = [random_rational_iet(rng, rng.randint(2, 5)) for _ in range(150)]
    family += [random_quadratic_iet(rng, rng.randint(2, 5)) for _ in range(150)]
    family += [_tied_map(rng) for _ in range(400)]
    seen = Counter()
    for t in family:
        got = _outcome(left_step, t)
        assert got == _outcome(_mirrored_left_step, t), t
        seen[got[0] if got[0].startswith("left_") else got[1].split(":")[0]] += 1
    assert set(seen) == {
        "left_top",
        "left_bottom",
        "left_merge",
        "left step blocked",
        "need at least two letters to step",
    }, seen


def test_one_map_and_one_morphism_per_step(e5, monkeypatch):
    # a map is built by the public constructor or on its parent's frame, a
    # morphism by its constructor or from rules a step or split has proven
    counts = Counter()
    builders = ((Iet, "__init__"), (Iet, "_child"), (LetterMorphism, "__init__"),
                (LetterMorphism, "_proven"))
    for cls, builder in builders:

        def counted(self, *args, _build=getattr(cls, builder), _name=cls.__name__, **kwargs):
            counts[_name] += 1
            return _build(self, *args, **kwargs)

        monkeypatch.setattr(cls, builder, counted)
    rng = random.Random(13)
    family = [random_quadratic_iet(rng, rng.randint(2, 5)) for _ in range(20)]
    family += [random_rational_iet(rng, 3, steppable=True) for _ in range(20)]
    family += [_tied_map(rng) for _ in range(40)]
    kinds = set()
    for t in family:
        for step in (right_step, left_step):
            counts.clear()
            try:
                kinds.add(step(t).kind)
            except DomainError:
                continue
            assert counts == {"Iet": 1, "LetterMorphism": 1}, step.__name__
    assert len(kinds) == 6

    # a chain builds one map and one morphism per record inside its steps;
    # outside them it builds no map and one morphism, the composed one
    inside = Counter()

    def outermost(fn):
        def wrapped(*args):
            before = counts.copy()
            out = fn(*args)
            inside.update(counts - before)
            return out

        return wrapped

    for name in ("right_step", "left_step", "split"):
        monkeypatch.setattr(induction, name, outermost(getattr(induction, name)))
    for word in "abcde":
        counts.clear()
        inside.clear()
        chain = induce_to_cylinder(e5, word)
        n = len(chain.records)
        assert inside == {"Iet": n, "LetterMorphism": n}, word
        assert counts - inside == {"LetterMorphism": 1}, word
        if word == "c":
            kinds = ("right_merge", "split", "split", "left_top", "left_bottom")
            assert chain.kinds() == kinds and inside == {"Iet": 5, "LetterMorphism": 5}

    # a glue shift costs one map more outside the steps: the final translate
    t = _glue_map()
    counts.clear()
    inside.clear()
    chain = induce_to_cylinder(t, "e")
    assert chain.records[0].glue is not None
    assert counts["Iet"] - inside["Iet"] == 1


def _run_optimized(code: str) -> str:
    src = os.path.dirname(os.path.dirname(ietbwt.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


# the map's frame pairs are halves: (A, 0) is A/2
_OPTIMIZED_STEP = [
    "from ietbwt.errors import InvariantError",
    "from ietbwt.exact import make_rational as r",
    "from ietbwt.iet import Iet",
    "t = Iet('ab', {'a': r(1, 2), 'b': r(1, 2)}, 'ba')",
    "try:",
    "    t._induced(%s)",
    "except InvariantError as exc:",
    "    print(__debug__, exc)",
]


def test_soundness_checks_survive_optimize():
    """Under python -O bare asserts vanish; the step checks must not."""
    args = "(0, 0), (2, 0), ('a',), ('a',), [((0, 0), (1, 0))]"
    code = "\n".join(_OPTIMIZED_STEP) % args
    assert _run_optimized(code) == "False pieces do not tile the sub-domain"


def test_declared_row_is_checked_under_optimize():
    """The walks land on the slots of the true row 'ba', so declaring the
    identity row fails, also under python -O."""
    args = "(0, 0), (2, 0), 'ab', 'ab', [((0, 0), (1, 0)), ((1, 0), (1, 0))]"
    code = "\n".join(_OPTIMIZED_STEP) % args
    assert _run_optimized(code) == "False landings differ from the Rauzy row"
    half = make_rational(1, 2)
    t = Iet("ab", {"a": half, "b": half}, "ba")
    t2, words = t._induced((0, 0), (2, 0), "ab", "ba", [((0, 0), (1, 0)), ((1, 0), (1, 0))])
    assert t2.perm.images == ("b", "a") and words == {"a": "a", "b": "b"}


def test_substitution_is_checked_under_optimize():
    """A step whose walks report one itinerary too long fails its
    substitution check, also under python -O: the morphism is built from
    the itineraries only after they equal the substitution."""
    code = "\n".join([
        "from ietbwt import induction",
        "from ietbwt.errors import InvariantError",
        "from ietbwt.exact import make_rational as r",
        "from ietbwt.iet import Iet",
        "t = Iet('abc', {'a': r(1, 2), 'b': r(1, 3), 'c': r(1, 6)}, 'cba')",
        "induced = Iet._induced",
        "def planted(self, *args):",
        "    t2, words = induced(self, *args)",
        "    words['a'] += 'a'",
        "    return t2, words",
        "Iet._induced = planted",
        "try:",
        "    induction.right_step(t)",
        "except InvariantError as exc:",
        "    print(__debug__, exc)",
    ])
    assert _run_optimized(code) == "False itineraries differ from the substitution"


# -- splits --------------------------------------------------------------


def test_split_block_branch_restricts_e5(e5):
    rec_b = split(e5, ("d",), "block")
    tb = rec_b.after
    assert tb.alphabet.letters == ("d",)
    assert tb.domain() == (fv(Fraction(2, 3)), fv(Fraction(5, 6)))
    assert rec_b.branch == "block"
    assert rec_b.morphism.rules == {"d": "d"}
    for x in _samples(*tb.domain()):
        assert tb.apply(x) == e5.apply(x)


def test_split_interior_complement_glues(e5):
    rec_c = split(e5, ("d",), "complement")
    tc = rec_c.after
    assert rec_c.branch == "complement"
    assert tc.alphabet.letters == ("a", "b", "c", "e")
    assert tc.perm.one_line() == "ecba"
    assert rec_c.glue == (fv(Fraction(2, 3)), fv(Fraction(1, 6)))
    cut, gap = rec_c.glue
    bhi = cut + gap

    def g(x):
        return x - gap if x >= bhi else x

    for letter in tc.alphabet:
        for x in _samples(*e5.interval(letter)):
            assert tc.apply(g(x)) == g(e5.apply(x))


def test_split_three_letter_interior():
    t = Iet(
        ("a", "b", "c"),
        {x: make_rational(1) for x in "abc"},
        "cba",
    )
    assert t.invariant_blocks() == (("b",),)
    tb = split(t, ("b",), "block").after
    rec_c = split(t, ("b",), "complement")
    tc = rec_c.after
    assert tb.domain() == (fv(1), fv(2))
    for x in _samples(*tb.domain()):
        assert tb.apply(x) == t.apply(x)
    assert tc.alphabet.letters == ("a", "c")
    assert tc.perm.one_line() == "ca"
    assert rec_c.glue == (fv(1), fv(1))
    assert tc.apply(fv(Fraction(1, 2))) == fv(Fraction(3, 2))
    assert tc.apply(fv(Fraction(3, 2))) == fv(Fraction(1, 2))


def test_split_edge_blocks_have_no_glue(e5):
    rec = right_step(e5)
    merged = rec.after
    rec_b = split(merged, ("a",), "block")
    rec_c = split(merged, ("a",), "complement")
    tc = rec_c.after
    assert rec_b.glue is None and rec_c.glue is None
    assert tc.domain() == (fv(Fraction(1, 6)), fv(Fraction(5, 6)))
    assert tc.perm.one_line() == "cbd"


def test_split_rejects_non_block(e5):
    for branch in ("block", "complement"):
        with pytest.raises(DomainError, match="'ab' is not an invariant block"):
            split(e5, ("a", "b"), branch)
        with pytest.raises(DomainError, match="letter 'z' not in alphabet"):
            split(e5, "z", branch)


def test_split_rejects_unknown_branch(e5):
    for branch in ("both", "", None):
        with pytest.raises(DomainError, match="unknown split branch %r" % (branch,)):
            split(e5, ("d",), branch)


# -- first returns -----------------------------------------------------


def test_first_return_from_outside_window(e5):
    with pytest.raises(DomainError, match="outside window"):
        first_return_point(e5, fv(Fraction(1, 2)), fv(0), fv(Fraction(1, 3)))


# -- induction onto cylinders -------------------------------------------


def _check_chain(chain, samples_per_letter=4):
    t, final = chain.initial, chain.final
    assert final.domain() == chain.target
    lo, hi = final.domain()
    for letter in final.alphabet:
        for x in _samples(*final.interval(letter), n=samples_per_letter):
            visit = first_return_point(t, x, lo, hi)
            assert visit.itinerary == chain.morphism(letter)
            assert visit.point == final.apply(x)


def test_induce_e5_c_chain_shape(e5):
    chain = induce_to_cylinder(e5, "c")
    assert chain.kinds() == ("right_merge", "split", "split", "left_top", "left_bottom")
    assert chain.records[0].morphism.rules["a"] == "ae"
    assert chain.records[1].block == ("a",)
    assert chain.records[1].branch == "complement"
    assert chain.records[2].block == ("d",)
    assert chain.records[2].branch == "complement"
    assert chain.records[3].morphism.rules == {"b": "b", "c": "cb"}
    assert chain.target == e5.interval("c")
    assert chain.morphism.rules == {"b": "cbb", "c": "cb"}
    _check_chain(chain)


def test_induce_e5_single_letters(e5):
    chain_a = induce_to_cylinder(e5, "a")
    assert chain_a.kinds() == ("right_merge", "split")
    assert chain_a.records[1].branch == "block"
    assert chain_a.morphism.rules == {"a": "ae"}

    chain_d = induce_to_cylinder(e5, "d")
    assert chain_d.kinds() == ("split",)
    assert chain_d.records[0].branch == "block"
    assert chain_d.morphism.rules == {"d": "d"}

    chain_e = induce_to_cylinder(e5, "e")
    assert chain_e.kinds() == ("left_merge", "split")
    assert chain_e.morphism.rules == {"e": "ea"}

    chain_b = induce_to_cylinder(e5, "b")
    assert chain_b.kinds() == ("right_merge", "split", "split", "right_bottom")
    assert chain_b.morphism.rules == {"b": "b", "c": "bc"}

    for chain in (chain_a, chain_b, chain_d, chain_e):
        _check_chain(chain)


def test_induced_images_are_return_words(e5):
    lang = language(e5, 13)
    for w in "abcde":
        chain = induce_to_cylinder(e5, w)
        words, complete = left_return_words(lang, w, 3)
        assert complete
        produced = frozenset(chain.morphism(x) for x in chain.final.alphabet)
        assert produced == words


def test_induce_two_letter_word(e5):
    chain = induce_to_cylinder(e5, "ae")
    assert chain.target == e5.interval("a")
    assert chain.kinds() == ("right_merge", "split")
    assert chain.morphism.rules == {"a": "ae"}
    _check_chain(chain)


def test_induce_diet421_c(diet421):
    t = diet_to_iet(diet421)
    chain = induce_to_cylinder(t, "c")
    assert chain.kinds() == ("left_top", "left_top", "left_merge", "split")
    assert chain.morphism.rules == {"c": "caa"}
    _check_chain(chain)


def _glue_map() -> Iet:
    """Row baedc: the interior block d splits off first and leaves a glue."""
    lengths = {
        "a": make_rational(1),
        "b": make_rational(2),
        "c": make_rational(3),
        "d": make_rational(4),
        "e": make_rational(3),
    }
    return Iet(("a", "b", "c", "d", "e"), lengths, "baedc")


def test_induce_with_interior_glue():
    t = _glue_map()
    assert set(t.invariant_blocks()) == {("a", "b"), ("c", "d", "e"), ("d",)}
    chain = induce_to_cylinder(t, "e")
    assert chain.kinds() == ("split", "split", "left_merge")
    assert chain.records[0].block == ("d",)
    assert chain.records[0].glue is not None
    assert chain.records[1].block == ("a", "b")
    assert chain.records[1].glue is None
    assert chain.final.domain() == t.interval("e")
    assert chain.morphism.rules == {"e": "ec"}
    _check_chain(chain)


def _oracle_maps() -> list:
    """Seeded maps for the chain oracle: quadratic and rational ones, ones
    whose lengths and origin mix denominators, and non-minimal ones, with
    an invariant prefix block in Q(sqrt 2) and with an interior glue."""
    rng = random.Random(31)
    maps = [random_quadratic_iet(rng, rng.randint(3, 5)) for _ in range(5)]
    maps += [random_rational_iet(rng, rng.randint(3, 5), steppable=True) for _ in range(5)]
    for _ in range(4):
        letters = "abcd"[: rng.randint(3, 4)]
        lengths = {x: make_rational(rng.randint(1, 9), rng.choice((2, 3, 5, 7))) for x in letters}
        origin = make_rational(rng.randint(-5, 5), rng.choice((4, 9, 13)))
        maps.append(Iet(letters, lengths, "".join(rng.sample(letters, len(letters))), origin))
    spec = {"a": "1/3", "b": "-1/2+1/2*sqrt(2)", "c": "3/4", "d": "2-sqrt(2)", "e": "1/5"}
    lengths = {x: parse_value(v) for x, v in spec.items()}
    maps.append(Iet("abcde", lengths, "baedc", origin=parse_value("1/7*sqrt(2)")))
    maps.append(_glue_map())
    return maps


def _shifted(interval, rec):
    """An interval of a split's parent in the child's coordinates: a glue
    moves everything right of the removed block left by its width."""
    if rec.glue is None or interval[0] < rec.glue[0]:
        return interval
    return tuple(v - rec.glue[1] for v in interval)


def test_chain_maps_match_public_rebuilds():
    """Every map of a chain lives on its root's frame.  Each record's map
    equals the public constructor's rebuild of it, by == and JSON and in
    every interval, image slot and translation; a step's map is the first
    return of its parent (`_check_step`), a split's keeps its parent's
    intervals and slots; and each chain's morphism codes the first returns
    to the cylinder."""
    seen = Counter()
    for t in _oracle_maps():
        lang = language(t, 2)
        for w in (u for n in (1, 2) for u in lang.words_of_length(n)):
            chain = induce_to_cylinder(t, w)
            for rec in chain.records:
                m = rec.after
                rebuilt = Iet(m.alphabet.letters, dict(m.lengths), m.perm.one_line(), m.origin)
                assert m == rebuilt and m.to_json() == rebuilt.to_json()
                assert m.domain() == rebuilt.domain()
                assert m.invariant_blocks() == rebuilt.invariant_blocks()
                for x in m.alphabet:
                    assert m.interval(x) == rebuilt.interval(x)
                    assert m.image_interval(x) == rebuilt.image_interval(x)
                    assert m.translation(x) == rebuilt.translation(x)
                if rec.kind == "split":
                    for x in m.alphabet:
                        assert m.interval(x) == _shifted(rec.before.interval(x), rec)
                        assert m.image_interval(x) == _shifted(rec.before.image_interval(x), rec)
                else:
                    _check_step(rec, samples_per_letter=1)
                seen[rec.kind] += 1
                seen["glue"] += rec.glue is not None
            _check_chain(chain, samples_per_letter=1)
    kinds = [side + "_" + kind for side in ("right", "left") for kind in ("top", "bottom", "merge")]
    assert all(seen[kind] for kind in (*kinds, "split", "glue")), seen


def test_chain_oracle_under_optimize():
    """The chain oracle also holds under python -O, which would strip any
    bare assert from the library (pytest keeps the test's own)."""
    src = os.path.dirname(os.path.dirname(ietbwt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "chain_maps_match_public_rebuilds", __file__],
        capture_output=True, text=True, env=env, cwd=here,
    )
    assert out.returncode == 0 and "1 passed" in out.stdout, out.stdout + out.stderr


def test_induce_empty_word(e5):
    chain = induce_to_cylinder(e5, "")
    assert chain.records == ()
    assert chain.final is e5
    assert chain.morphism.rules == {x: x for x in e5.alphabet}


def test_induce_rejects_unknown_word(e5):
    with pytest.raises(DomainError):
        induce_to_cylinder(e5, "aa")
    with pytest.raises(DomainError):
        induce_to_cylinder(e5, "x")


def test_induce_step_cap(e5):
    with pytest.raises(CapExceeded):
        induce_to_cylinder(e5, "c", max_steps=2)
    with pytest.raises(DomainError, match="step cap must be non-negative"):
        induce_to_cylinder(e5, "c", max_steps=-1)


def test_induce_all_short_words_random():
    import random

    rng = random.Random(2718)
    for _ in range(6):
        t = random_rational_iet(rng, rng.choice((3, 4)))
        lang = language(t, 2)
        for w in lang.words_of_length(2):
            chain = induce_to_cylinder(t, w)
            _check_chain(chain, samples_per_letter=2)


def test_regular_quadratic_maps_are_tree_sets():
    """The coding of a regular k-interval exchange is a tree set (Berthe et
    al., "Bifix codes and interval exchanges", JPAA 2015): every factor has
    exactly k return words, so every chain ends on k letters, and every
    extension graph is a tree.  Regular here means no invariant block and
    no connection within 60 steps."""
    rng = random.Random(6)
    maps = chains = 0
    for _ in range(10):
        t = random_quadratic_iet(rng, rng.choice((3, 4, 5)))
        if t.invariant_blocks() or t.keane_probe(60) is not None:
            continue
        maps += 1
        k = len(t.alphabet)
        lang = language(t, 5)
        for w in (u for n in (1, 2, 3) for u in lang.words_of_length(n)):
            chains += 1
            assert len(induce_to_cylinder(t, w).final.alphabet) == k, (t, w)
        report = classify_language(lang, t.perm.images, t.alphabet.letters, 3)
        assert report.dendric, (t, report.first_non_tree)
    assert (maps, chains) == (9, 189)


_SIDE_CONDITION = re.compile(r"must (place|sit at an end of the (order|row))")


def test_clustering_pairs_transport_along_chains(e5, golden, sym3, sym4, rational2):
    """The stepwise morphic argument on real chains: every step morphism is
    an elementary substitution, and any pair on the final alphabet that
    survives the side conditions back through the chain certifies every
    return word chain.morphism(x)."""
    chains = kept = 0
    for t in (e5, golden, sym3, sym4, rational2):
        lang = language(t, 3)
        for w in (u for n in (1, 2, 3) for u in lang.words_of_length(n)):
            chain = induce_to_cylinder(t, w)
            chains += 1
            for rec in chain.records:
                letters = rec.after.alphabet.letters
                try:
                    clustering_transport(letters, Perm(letters, letters), rec.morphism)
                except DomainError as exc:
                    assert _SIDE_CONDITION.search(str(exc)), (w, rec.kind, exc)
            letters = chain.final.alphabet.letters
            returns = [chain.morphism(x) for x in letters]
            survived = False
            for order in permutations(letters):
                for row in permutations(letters):
                    pair = (order, Perm(order, row))
                    try:
                        for rec in reversed(chain.records):
                            pair = clustering_transport(*pair, rec.morphism)
                    except DomainError:
                        continue
                    survived = True
                    for u in returns:
                        assert is_pi_clustering(u, pair[1]), (w, order, row, u)
            kept += survived
    assert chains == 68
    assert kept > chains // 2  # 53 of the 68 chains keep a pair
