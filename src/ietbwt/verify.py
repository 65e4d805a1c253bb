"""Whole-pipeline checks: enumerate factors of a transformation's language,
collect their return words, and confirm the clustering and consistency
claims that the rest of the library is built to witness."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coding import language, left_return_words
from .errors import DomainError
from .iet import Iet
from .induction import first_return_point, induce_to_cylinder
from .words import is_clustering, is_pi_clustering


@dataclass(frozen=True)
class WordCheck:
    word: str
    returns: tuple
    complete: bool
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "word": self.word,
            "returns": list(self.returns),
            "complete": self.complete,
            "failures": list(self.failures),
        }


@dataclass(frozen=True)
class ConsistencyCheck:
    word: str
    kinds: tuple
    set_match: bool
    point_match: bool

    @property
    def ok(self) -> bool:
        return self.set_match and self.point_match

    def to_json(self) -> dict:
        return {
            "word": self.word,
            "kinds": list(self.kinds),
            "set_match": self.set_match,
            "point_match": self.point_match,
        }


@dataclass
class VerifyReport:
    kind: str
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple:
        return tuple(c.word for c in self.checks if not c.ok)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "checked": len(self.checks),
            "failures": list(self.failures()),
            "checks": [c.to_json() for c in self.checks],
        }


def _factor_runs(t: Iet, word_len: int, return_len: int):
    if word_len < 1:
        raise DomainError("word length must be at least 1, got %d" % word_len)
    if return_len < 1:
        raise DomainError("return length must be at least 1, got %d" % return_len)
    lang = language(t, return_len + word_len)
    for n in range(1, word_len + 1):
        for w in lang.words_of_length(n):
            words, complete = left_return_words(lang, w, return_len)
            yield w, words, complete


def _clustering_report(kind: str, t: Iet, word_len: int, return_len: int, clusters):
    checks, verdicts = [], {}  # one verdict per distinct return word
    for w, words, complete in _factor_runs(t, word_len, return_len):
        verdicts.update((u, clusters(u)) for u in words.difference(verdicts))
        fails = tuple(sorted(u for u in words if not verdicts[u]))
        checks.append(WordCheck(w, tuple(sorted(words)), complete, fails))
    return VerifyReport(kind, tuple(checks))


def verify_return_clustering(t: Iet, word_len: int, return_len: int) -> VerifyReport:
    """Every return word of every factor must have a clustered transform
    under the natural letter order."""
    return _clustering_report("return_clustering", t, word_len, return_len, is_clustering)


def verify_perfect_clustering_symmetric(
    t: Iet, word_len: int, return_len: int
) -> VerifyReport:
    """For a symmetric permutation the return words must cluster in exact
    reverse alphabet order, witnessed by the permutation itself."""
    if not t.perm.is_symmetric():
        raise DomainError("permutation %s is not symmetric" % t.perm.one_line())
    return _clustering_report(
        "perfect_clustering", t, word_len, return_len, lambda u: is_pi_clustering(u, t.perm)
    )


def verify_induction_consistency(
    t: Iet, word_len: int, return_len: int, samples: int = 3
) -> VerifyReport:
    """Induce onto every cylinder and confirm the composed morphism against
    brute-force first returns: the produced words must be the enumerated
    return words, and sampled points must follow the claimed itineraries."""
    checks = []
    for w, words, complete in _factor_runs(t, word_len, return_len):
        chain = induce_to_cylinder(t, w)
        produced = frozenset(chain.morphism(x) for x in chain.final.alphabet)
        if complete:
            set_match = words == produced
        else:
            set_match = words == frozenset(
                u for u in produced if len(u) <= return_len
            )
        point_match = True
        lo, hi = chain.final.domain()
        for letter in chain.final.alphabet:
            a, b = chain.final.interval(letter)
            for k in range(1, samples + 1):
                x = a + (b - a) * Fraction(k, samples + 1)
                visit = first_return_point(t, x, lo, hi)
                if visit.itinerary != chain.morphism(letter):
                    point_match = False
                if visit.point != chain.final.apply(x):
                    point_match = False
        checks.append(ConsistencyCheck(w, chain.kinds(), set_match, point_match))
    return VerifyReport("induction_consistency", tuple(checks))
