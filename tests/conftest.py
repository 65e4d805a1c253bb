import random
from fractions import Fraction

import pytest

from ietbwt.coding import LetterMorphism, language_of_periodic
from ietbwt.exact import FieldValue, make_quadratic, make_rational
from ietbwt.extgraph import ClassifyReport, classify_language
from ietbwt.iet import Iet, diet_spec


# permutation objects that hold no row or cycle list of letters
BAD_PERMUTATIONS = (
    {"cycles": 5},
    {"cycles": [5]},
    {"cycles": [[["a"]]]},
    {"one_line": 5},
    {"cycles": "ab"},
    {"cycles": [{"a": 1}]},
)

# Cycles over abc that repeat a letter, across two cycles or within one.
REPEATED_CYCLES = (
    {"cycles": [["a", "b"], ["b", "a"]]},
    {"cycles": [["a", "b", "c"], ["c", "a", "b"]]},
    {"cycles": [["a", "a"]]},
)


def fv(p, q=0, d=0) -> FieldValue:
    return make_quadratic(Fraction(p), Fraction(q), d)


def substitution(source, target, images=()) -> LetterMorphism:
    """The morphism fixing every source letter not given an image."""
    rules = {x: x for x in source}
    rules.update(images)
    return LetterMorphism(source, target, rules)


def periodic_report(word: str, perm) -> ClassifyReport:
    """Classify the periodic closure of a word against the row order of a
    permutation on the left and its base order on the right.  Factors up
    to the word's own length decide the matter: longer bispecial factors
    cannot occur in a periodic language of that period."""
    lang = language_of_periodic(word, len(word) + 2)
    return classify_language(lang, perm.images, perm.letters, len(word))


def make_e5() -> Iet:
    """Five letters, two irrational lengths, image order ecbda."""
    lengths = {
        "a": make_rational(1, 6),
        "b": make_quadratic(Fraction(-1, 4), Fraction(1, 4), 5),
        "c": make_quadratic(Fraction(3, 4), Fraction(-1, 4), 5),
        "d": make_rational(1, 6),
        "e": make_rational(1, 6),
    }
    return Iet("abcde", lengths, "ecbda")


def make_golden() -> Iet:
    lengths = {
        "a": make_quadratic(Fraction(-1, 2), Fraction(1, 2), 5),
        "b": make_quadratic(Fraction(3, 2), Fraction(-1, 2), 5),
    }
    return Iet("ab", lengths, "ba")


def make_rational2() -> Iet:
    return Iet("ab", {"a": make_rational(1, 3), "b": make_rational(2, 3)}, "ba")


def make_sym3() -> Iet:
    lengths = {
        "a": make_rational(1, 6),
        "b": make_rational(1, 2),
        "c": make_rational(1, 3),
    }
    return Iet("abc", lengths, "cba")


def make_sym4() -> Iet:
    lengths = {x: make_rational(n, 10) for x, n in zip("abcd", (1, 2, 3, 4))}
    return Iet("abcd", lengths, "dcba")


def make_diet421():
    return diet_spec((4, 2, 1), "cba")


@pytest.fixture
def e5() -> Iet:
    return make_e5()


@pytest.fixture
def golden() -> Iet:
    return make_golden()


@pytest.fixture
def rational2() -> Iet:
    return make_rational2()


@pytest.fixture
def sym3() -> Iet:
    return make_sym3()


@pytest.fixture
def sym4() -> Iet:
    return make_sym4()


@pytest.fixture
def diet421():
    return make_diet421()


def random_rational_iet(rng: random.Random, k: int, steppable: bool = False) -> Iet:
    """Random IET with small integer lengths over a common denominator.

    With steppable, neither extreme image slot holds its own domain letter,
    so both induction sides are unblocked."""
    from ietbwt.alphabet import Alphabet

    letters = Alphabet.first(k).letters
    while True:
        nums = [rng.randint(1, 9) for _ in range(k)]
        den = sum(nums)
        row = list(letters)
        rng.shuffle(row)
        if steppable and (row[-1] == letters[-1] or row[0] == letters[0]):
            continue
        lengths = {x: make_rational(n, den) for x, n in zip(letters, nums)}
        return Iet(letters, lengths, "".join(row))


def random_quadratic_iet(rng: random.Random, k: int) -> Iet:
    """Random IET with lengths and origin in Q(sqrt(5)), steppable on both
    sides (neither extreme image slot holds its own domain letter)."""
    from ietbwt.alphabet import Alphabet

    letters = Alphabet.first(k).letters

    def value():
        return fv(Fraction(rng.randint(-9, 9), 6), Fraction(rng.randint(-3, 3), 4), 5)

    def length():
        v = value()
        return v if v.sign() > 0 else length()

    row = list(letters)
    while row[-1] == letters[-1] or row[0] == letters[0]:
        rng.shuffle(row)
    lengths = {x: length() for x in letters}
    return Iet(letters, lengths, "".join(row), origin=value())
