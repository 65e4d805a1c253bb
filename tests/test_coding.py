"""Trajectories, cylinders, language samples, return words, morphisms."""

import inspect
import random
import sys
import textwrap
from fractions import Fraction

import pytest

from ietbwt import iet as iet_module
from ietbwt.alphabet import Alphabet
from ietbwt.coding import (
    LetterMorphism,
    cylinder,
    cylinders,
    diet_language,
    language,
    language_of_periodic,
    left_return_words,
    right_return_words,
    trajectory,
)
from ietbwt.errors import DomainError, InvariantError
from ietbwt.exact import _sign, make_quadratic, make_rational
from ietbwt.iet import Iet, _bisect, diet_spec, diet_to_iet

from conftest import (
    make_e5,
    make_golden,
    make_sym4,
    random_quadratic_iet,
    random_rational_iet,
    substitution,
)


def _random_field_iet(rng: random.Random, k: int, d: int, reducible: bool) -> Iet:
    """k letters with positive lengths in Q(sqrt(d)) and a random origin;
    with reducible, the row starts "ba", so for k >= 3 the block {a, b} is
    invariant and the exchange is not minimal."""
    letters = Alphabet.first(k).letters

    def value():
        return make_quadratic(
            Fraction(rng.randint(-9, 9), 6), Fraction(rng.randint(-3, 3), 4), d
        )

    def length():
        v = make_quadratic(
            Fraction(rng.randint(1, 12), 6), Fraction(rng.randint(-3, 3), 8), d
        )
        return v if v.sign() > 0 else length()

    row = list(letters)
    while row == list(letters):
        rng.shuffle(row)
        if reducible:
            head = ["b", "a"]
            row = head + [x for x in row if x not in head]
    lengths = {x: length() for x in letters}
    return Iet(letters, lengths, "".join(row), origin=value())


def _naive_levels(t: Iet, depth: int) -> list:
    """Cylinder levels by the per-letter definition
    I_xw = I_x ∩ T^-1(I_w), tried for every letter x."""
    levels = [{"": t.domain()}]
    for _ in range(depth):
        nxt = {}
        for w, (lo, hi) in levels[-1].items():
            for x in t.alphabet:
                xlo, xhi = t.interval(x)
                tau = t.translation(x)
                nlo = max(xlo, lo - tau)
                nhi = min(xhi, hi - tau)
                if nlo < nhi:
                    nxt[x + w] = (nlo, nhi)
        levels.append(nxt)
    return levels


def _bisect_levels(t: Iet, depth: int) -> list:
    """Cylinder levels on frame pairs as one bisection per interval finds
    them: the first image slot that ends after lo, then every later slot up
    to the one that reaches hi."""
    d = t._frame[0]
    cuts, ends = t._cuts, t._image_cuts[1:]
    slots = [
        (t.alphabet.letters[i], cuts[i], cuts[i + 1], end, t._tau[i])
        for i, end in zip(t._rank, ends)
    ]
    levels = [{"": (cuts[0], cuts[-1])}]
    for _ in range(depth):
        nxt = {}
        for w, ((la, lb), (ha, hb)) in levels[-1].items():
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
        levels.append(nxt)
    return levels


def _seeded_exchanges() -> list:
    """Rational, Q(sqrt(2)), Q(sqrt(3)) and Q(sqrt(5)) exchanges, minimal
    and not, most with non-zero origins, each with a depth up to 8."""
    rng = random.Random(4242)
    out = [(make_e5(), 8), (make_golden(), 8), (make_sym4(), 6)]
    for _ in range(6):
        t = random_rational_iet(rng, rng.randint(2, 5))
        out.append((t.translate(make_rational(rng.randint(-5, 5), 7)), 5))
    for i in range(12):
        d = (2, 3, 5)[i % 3]
        t = _random_field_iet(rng, rng.randint(2, 5), d, reducible=i % 2 == 1)
        out.append((t, 8 if len(t.alphabet) <= 3 else 6))
    return out


class TestTrajectory:
    def test_frozen_samples(self, e5):
        assert trajectory(e5, make_rational(1, 6), 6) == "bbcbbc"
        assert trajectory(e5, make_rational(0), 6) == "aeaeae"
        assert trajectory(e5, make_rational(3, 4), 4) == "dddd"
        assert trajectory(e5, make_rational(0), 0) == ""

    def test_b_orbit_follows_substitution_fixed_point(self, e5):
        word = "b"
        for _ in range(6):
            word = word.replace("b", "bX").replace("c", "b").replace("X", "c")
        assert trajectory(e5, make_rational(1, 6), 6) in word

    def test_outside_domain(self, e5):
        with pytest.raises(DomainError):
            trajectory(e5, make_rational(3, 2), 2)


class TestCylinders:
    def test_level_one_is_partition(self, e5):
        table = cylinders(e5, 1)
        assert table.levels[1] == {x: e5.interval(x) for x in e5.alphabet}

    def test_each_level_tiles_domain(self, e5):
        table = cylinders(e5, 4)
        lo, hi = e5.domain()
        for m in range(1, 5):
            pieces = sorted(table.levels[m].values())
            acc = lo
            for plo, phi in pieces:
                assert plo == acc
                acc = phi
            assert acc == hi

    def test_ae_cylinder_is_full_a(self, e5):
        table = cylinders(e5, 2)
        assert table.interval("ae") == e5.interval("a")

    def test_empty_cylinder_rejected(self, e5):
        table = cylinders(e5, 2)
        with pytest.raises(DomainError):
            table.interval("aa")
        with pytest.raises(DomainError):
            table.interval("aeb")

    def test_diet_cylinders(self, diet421):
        t = diet_to_iet(diet421)
        table = cylinders(t, 3)
        assert table.interval("a") == (make_rational(0), make_rational(4))
        assert table.interval("ab") == (make_rational(1), make_rational(3))
        assert table.interval("aac") == (make_rational(0), make_rational(1))

    def test_random_partition_property(self):
        rng = random.Random(17)
        for _ in range(10):
            t = random_rational_iet(rng, rng.randint(2, 5))
            table = cylinders(t, 3)
            lo, hi = t.domain()
            for m in range(1, 4):
                level = table.levels[m]
                total = sum(
                    (phi - plo for plo, phi in level.values()), start=make_rational(0)
                )
                assert total == hi - lo


class TestCylinderOracle:
    def test_table_matches_per_letter_definition(self):
        intervals = 0
        for t, depth in _seeded_exchanges():
            levels = cylinders(t, depth).levels
            assert list(levels) == _naive_levels(t, depth), t
            intervals += sum(len(lv) for lv in levels)
        assert intervals > 1000

    def test_sweep_matches_bisection(self):
        for t, depth in _seeded_exchanges():
            assert list(t._levels(depth)) == _bisect_levels(t, depth), t

    def test_levels_run_left_to_right(self):
        """Each level lists its words left to right, each interval starting
        where the one before ended: the order the next level's sweep needs."""
        for t, depth in _seeded_exchanges():
            span = t._span()
            for level in t._levels(depth):
                ends = list(level.values())
                assert ends[0][0] == span[0] and ends[-1][1] == span[1], t
                assert all(a[1] == b[0] for a, b in zip(ends, ends[1:])), t

    def test_no_bisection_builds_a_level(self, monkeypatch):
        def refused(*args):
            raise AssertionError("bisection in a cylinder level")

        monkeypatch.setattr(iet_module, "_bisect", refused)
        for t, depth in _seeded_exchanges()[:6]:
            levels = cylinders(t, depth).levels
            assert list(levels) == _naive_levels(t, depth)
            for w, iv in levels[-1].items():
                assert cylinder(t, w) == iv

    def test_a_sweep_that_stays_on_an_ended_slot_fails_the_tiling_check(self, monkeypatch):
        """A planted defect: on an interval ending exactly on its slot's end
        the sweep does not move to the next slot.  The tiling check is an
        errors.check, so it fires under python -O too."""
        source = textwrap.dedent(inspect.getsource(Iet._levels))
        advance = "if c >= 0:"
        assert source.count(advance) == 1
        namespace = {}
        exec(source.replace(advance, "if c > 0:"), vars(iet_module), namespace)
        monkeypatch.setattr(Iet, "_levels", namespace["_levels"])
        for t, _ in _seeded_exchanges():
            with pytest.raises(InvariantError, match="cylinder level does not tile the domain"):
                cylinders(t, 2)

    def test_single_cylinder_matches_table(self):
        for t, depth in _seeded_exchanges():
            table = cylinders(t, depth)
            for level in table.levels[:-1]:
                for w, iv in level.items():
                    assert cylinder(t, w) == iv == table.interval(w)
                    for x in t.alphabet:
                        if x + w not in table.levels[len(w) + 1]:
                            with pytest.raises(DomainError, match="empty cylinder"):
                                cylinder(t, x + w)
            for w, iv in table.levels[-1].items():
                assert cylinder(t, w) == iv

    def test_single_cylinder_outside_language(self, e5):
        assert cylinder(e5, "") == e5.domain()
        assert cylinder(e5, "ae") == e5.interval("a")
        for bad in ("aa", "aeb", "z", "az"):
            with pytest.raises(DomainError, match="empty cylinder for %r" % bad):
                cylinder(e5, bad)


class TestLanguage:
    def test_e5_depth_two(self, e5):
        lang = language(e5, 2)
        assert "" in lang
        assert set(lang.words_of_length(1)) == set("abcde")
        assert lang.words_of_length(2) == ("ae", "bb", "bc", "cb", "dd", "ea")
        assert len(lang.words) == 12

    def test_periodic(self):
        lang = language_of_periodic("ab", 4)
        assert lang.words == frozenset(
            ["", "a", "b", "ab", "ba", "aba", "bab", "abab", "baba"]
        )
        assert lang.alphabet == ("a", "b")

    def test_periodic_text_too_long(self):
        # refused before any text is built
        for bound in (sys.maxsize, 10 ** 20):
            with pytest.raises(DomainError, match="periodic text of .* exceeds %d" % sys.maxsize):
                language_of_periodic("ab", bound)

    def test_diet_language(self, diet421):
        lang = diet_language(diet421, 2)
        assert lang.words_of_length(1) == ("a", "b", "c")
        assert lang.words_of_length(2) == ("aa", "ab", "ac", "ba", "ca")

    def test_diet_three_letter_words(self, diet421):
        lang = diet_language(diet421, 3)
        assert lang.words_of_length(3) == ("aac", "aba", "aca", "bab", "caa")


    def test_words_of_length_is_filter_and_sort(self, e5, diet421):
        samples = (language(e5, 6), language_of_periodic("banana", 9),
                   diet_language(diet421, 5))
        for lang in samples:
            for n in range(lang.bound + 3):
                assert lang.words_of_length(n) == tuple(
                    sorted(w for w in lang.words if len(w) == n)
                ), (lang.alphabet, n)


def _return_words_oracle(lang, word: str, max_len: int) -> tuple[frozenset, bool]:
    """Left return words by their definition: for every ell <= max_len, the
    words v of length ell + |w| in which w occurs only at 0 and ell; the
    sample is complete when every word of length max_len + |w| that starts
    with w holds a second occurrence."""

    def at(v):
        return [i for i in range(len(v)) if v.startswith(word, i)]

    found = frozenset(
        v[:ell]
        for ell in range(1, max_len + 1)
        for v in lang.words_of_length(ell + len(word))
        if at(v) == [0, ell]
    )
    longest = lang.words_of_length(max_len + len(word))
    return found, all(len(at(v)) >= 2 for v in longest if v.startswith(word))


def _return_word_samples() -> list:
    """Seeded rational, quadratic, periodic and discrete language samples
    to bound 10, long enough for factors of length 3 and max_len 7."""
    rng = random.Random(1212)
    out = [language(random_rational_iet(rng, rng.randint(2, 5)), 10) for _ in range(6)]
    out += [language(random_quadratic_iet(rng, rng.randint(2, 4)), 10) for _ in range(4)]
    out += [language(_random_field_iet(rng, 4, 2, reducible=True), 10) for _ in range(2)]
    for _ in range(6):
        word = "".join(rng.choice("abc") for _ in range(rng.randint(1, 9)))
        out.append(language_of_periodic(word, 10))
    for _ in range(6):
        k = rng.randint(2, 4)
        row = list("abcd"[:k])
        rng.shuffle(row)
        spec = diet_spec([rng.randint(1, 6) for _ in range(k)], "".join(row))
        out.append(diet_language(spec, 10))
    return out


class TestReturnWords:
    @pytest.fixture
    def e5_lang(self, e5):
        return language(e5, 13)

    def test_left_returns(self, e5_lang):
        assert left_return_words(e5_lang, "a", 12) == (frozenset({"ae"}), True)
        assert left_return_words(e5_lang, "b", 12) == (frozenset({"b", "bc"}), True)
        assert left_return_words(e5_lang, "c", 12) == (frozenset({"cb", "cbb"}), True)
        assert left_return_words(e5_lang, "d", 12) == (frozenset({"d"}), True)
        assert left_return_words(e5_lang, "e", 12) == (frozenset({"ea"}), True)

    def test_right_returns(self, e5_lang):
        assert right_return_words(e5_lang, "a", 12)[0] == frozenset({"ea"})
        assert right_return_words(e5_lang, "c", 12)[0] == frozenset({"bc", "bbc"})

    def test_conjugation_identity(self, e5_lang):
        for w in "abcde":
            lefts, _ = left_return_words(e5_lang, w, 12)
            rights, _ = right_return_words(e5_lang, w, 12)
            assert frozenset(u + w for u in lefts) == frozenset(w + v for v in rights)

    def test_empty_word_returns_letters(self, e5_lang):
        assert left_return_words(e5_lang, "", 5) == (frozenset("abcde"), True)

    def test_unknown_word(self, e5_lang):
        with pytest.raises(DomainError):
            left_return_words(e5_lang, "zz", 3)
        with pytest.raises(DomainError):
            left_return_words(e5_lang, "aa", 3)

    def test_bound_too_small(self, e5_lang):
        with pytest.raises(DomainError):
            left_return_words(e5_lang, "a", 13)
        with pytest.raises(DomainError, match="max_len must be positive"):
            left_return_words(e5_lang, "a", 0)

    def test_incomplete_flag(self, e5):
        lang = language(e5, 3)
        found, complete = left_return_words(lang, "c", 2)
        assert found == frozenset({"cb"})
        assert not complete

    def test_matches_definition(self):
        flags = []
        for lang in _return_word_samples():
            for word in (w for n in (1, 2, 3) for w in lang.words_of_length(n)):
                for max_len in range(1, 8):
                    got = left_return_words(lang, word, max_len)
                    assert got == _return_words_oracle(lang, word, max_len), (
                        lang.alphabet, word, max_len)
                    flags.append(got[1])
        assert len(flags) > 2000 and 0 < flags.count(False) < len(flags)


class TestMorphisms:
    def test_apply(self):
        phi = substitution("abcd", "abcde", {"a": "ae"})
        assert phi("ad") == "aed"
        assert phi.rules["a"] == "ae"
        assert phi("") == ""

    def test_alpha_tilde(self):
        phi = substitution("ab", "ab", {"a": "ba"})
        assert phi("ab") == "bab"

    def test_identity(self):
        ident = substitution("abc", "abc")
        assert ident("abc") == "abc"
        assert ident.rules == {x: x for x in "abc"}
        assert substitution("bc", "abc") != ident

    def test_rename(self):
        phi = LetterMorphism("ab", "xy", {"a": "x", "b": "y"})
        assert phi("abba") == "xyyx"

    def test_validation(self):
        with pytest.raises(DomainError):
            LetterMorphism("ab", "ab", {"a": "a"})
        with pytest.raises(DomainError):
            LetterMorphism("ab", "ab", {"a": "", "b": "b"})
        with pytest.raises(DomainError):
            LetterMorphism("ab", "ab", {"a": "ax", "b": "b"})
