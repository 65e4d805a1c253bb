"""Reports over whole languages: clustering of return words and agreement
between induction chains and brute-force first returns."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from ietbwt import verify
from ietbwt.coding import language, left_return_words
from ietbwt.errors import DomainError
from ietbwt.iet import Iet, diet_to_iet
from ietbwt.verify import (
    WordCheck,
    VerifyReport,
    verify_induction_consistency,
    verify_perfect_clustering_symmetric,
    verify_return_clustering,
)

from conftest import fv, make_e5, make_sym4, random_rational_iet


def test_return_clustering_e5(e5):
    report = verify_return_clustering(e5, 2, 8)
    assert report.ok
    assert report.failures() == ()
    by_word = {c.word: c for c in report.checks}
    assert by_word["b"].returns == ("b", "bc")
    assert by_word["b"].complete
    assert by_word["a"].returns == ("ae",)


def test_return_clustering_golden(golden):
    report = verify_return_clustering(golden, 2, 10)
    assert report.ok


def test_return_clustering_diet(diet421):
    report = verify_return_clustering(diet_to_iet(diet421), 2, 8)
    assert report.ok


def test_return_clustering_random():
    rng = random.Random(523)
    for _ in range(4):
        t = random_rational_iet(rng, rng.choice((3, 4)))
        assert verify_return_clustering(t, 2, 8).ok


def test_perfect_clustering_symmetric(golden, sym3):
    assert verify_perfect_clustering_symmetric(golden, 2, 10).ok
    assert verify_perfect_clustering_symmetric(sym3, 2, 8).ok


def test_perfect_clustering_requires_symmetric(e5):
    with pytest.raises(DomainError):
        verify_perfect_clustering_symmetric(e5, 1, 4)


def test_induction_consistency_e5(e5):
    report = verify_induction_consistency(e5, 2, 8, samples=2)
    assert report.ok
    by_word = {c.word: c for c in report.checks}
    assert by_word["c"].kinds == (
        "right_merge",
        "split",
        "split",
        "left_top",
        "left_bottom",
    )
    assert by_word["ae"].set_match
    assert by_word["ae"].point_match


def test_induction_consistency_incomplete_factors(e5, rational2):
    # with short return bounds some factors have return words longer than
    # the bound; only the produced words within it must match
    for t, word_len, return_len, incomplete in (
        (e5, 2, 2, {"c", "bb", "bc", "cb"}),
        (rational2, 1, 1, {"a", "b"}),
    ):
        lang = language(t, word_len + return_len)
        found = {w for w in lang.words if 0 < len(w) <= word_len
                 and not left_return_words(lang, w, return_len)[1]}
        assert found == incomplete
        report = verify_induction_consistency(t, word_len, return_len, samples=1)
        assert report.ok, report.failures()
        assert {c.word for c in report.checks} >= incomplete


def test_induction_consistency_diet(diet421):
    report = verify_induction_consistency(diet_to_iet(diet421), 2, 8, samples=2)
    assert report.ok


def test_report_json_shape(golden):
    report = verify_return_clustering(golden, 1, 6)
    data = report.to_json()
    assert data["kind"] == "return_clustering"
    assert data["ok"] is True
    assert data["failures"] == []
    assert data["checked"] == len(report.checks)
    assert all("word" in c for c in data["checks"])


def test_word_length_below_one_rejected(golden):
    for check in (
        verify_return_clustering,
        verify_perfect_clustering_symmetric,
        verify_induction_consistency,
    ):
        for word_len in (0, -1):
            with pytest.raises(DomainError, match="word length must be at least 1"):
                check(golden, word_len, 4)


def test_return_length_below_one_rejected(golden):
    for check in (
        verify_return_clustering,
        verify_perfect_clustering_symmetric,
        verify_induction_consistency,
    ):
        for return_len in (0, -3):
            with pytest.raises(DomainError, match="return length must be at least 1"):
                check(golden, 2, return_len)


def test_report_failure_paths():
    bad = WordCheck("w", ("ba", "aba"), True, ("aba",))
    good = WordCheck("v", ("ab",), True, ())
    report = VerifyReport("return_clustering", (bad, good))
    assert not report.ok
    assert report.failures() == ("w",)
    assert not bad.ok and good.ok


def _item2_map() -> Iet:
    """The quadratic map of ROADMAP item 2, row dabc."""
    lengths = {
        "a": fv(Fraction(-2, 3), Fraction(1, 2), 5),
        "b": fv(Fraction(3, 2), Fraction(-1, 4), 5),
        "c": fv(Fraction(7, 6)),
        "d": fv(Fraction(1, 6), Fraction(1, 2), 5),
    }
    return Iet("abcd", lengths, "dabc", origin=fv(Fraction(5, 6), Fraction(-1, 4), 5))


# (report, map, word length, return length, predicate's name in verify, digest
# of the report's JSON as the per-word calls gave it)
VERDICT_CASES = (
    (verify.verify_return_clustering, make_e5, 3, 6, "is_clustering", "95503d4cf3481fe2"),
    (verify.verify_return_clustering, _item2_map, 2, 8, "is_clustering", "41cc675df9349c50"),
    (verify.verify_perfect_clustering_symmetric, make_sym4, 3, 6, "is_pi_clustering",
     "5d3e356776eca179"),
)


@pytest.mark.parametrize("report_of, make, word_len, return_len, predicate, digest", VERDICT_CASES)
def test_one_verdict_per_distinct_return_word(
    monkeypatch, report_of, make, word_len, return_len, predicate, digest
):
    """The predicate runs once per distinct return word, though factors
    share return words, and the report is the one per-word calls gave."""
    calls = Counter()
    inner = getattr(verify, predicate)

    def counted(u, *rest):
        calls[u] += 1
        return inner(u, *rest)

    monkeypatch.setattr(verify, predicate, counted)
    report = report_of(make(), word_len, return_len)
    returns = [u for c in report.checks for u in c.returns]
    assert len(returns) > len(set(returns))  # some return word is shared
    assert calls == Counter(set(returns))
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
