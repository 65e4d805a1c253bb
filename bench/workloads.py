"""The three benchmark workloads: how each builds its inputs from the seed,
what one job does, and how its output is checked.

A job returns the canonical JSON of its result; the runner hashes it and,
for the default seed, compares the hash with the frozen reference.  A job
raises ``CheckFailed`` when its output disagrees with what the paper's
results predict.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import instances


class CheckFailed(Exception):
    """A job's output contradicts the expected verdict."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    setup: Callable[[int, dict], list]
    job: Callable[[dict, Any], Any]
    describe: Callable[[list], dict]


# -- language_cli ---------------------------------------------------------


def _cli_json(argv: list[str]) -> dict:
    from ietbwt import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    _expect(rc == 0, "exit code %r for %s" % (rc, argv[0]))
    return json.loads(buf.getvalue())


def _language_setup(seed: int, p: dict) -> list:
    return instances.exchange_pool(seed, p["pool"], "language")


def _language_job(p: dict, ex: instances.Exchange):
    base = ["--lengths", ex.lengths_arg(), "--row", ex.row, "--format", "json"]
    verify = _cli_json(
        ["verify", *base, "--check", "returns",
         "--word-len", str(p["word_len"]), "--return-len", str(p["return_len"])]
    )
    _expect(verify["ok"] is True, "verify reports ok=%r" % verify["ok"])
    classify = _cli_json(
        ["classify", *base, "--depth", str(p["depth"]),
         "--left", ex.row, "--right", ex.letters]
    )
    return {"verify": verify, "classify": classify}


def _exchange_mix(exchanges: list) -> dict:
    n = len(exchanges)
    blocks = sum(1 for e in exchanges if e.iet.invariant_blocks())
    rational = sum(1 for e in exchanges if e.d == 0)
    known = sum(1 for e in exchanges if e.d == 0 or e.iet.invariant_blocks())
    return {
        "instances": n,
        "share_invariant_blocks": blocks / n,
        "share_rational": rational / n,
        "share_non_minimal": known / n,
    }


# -- induce_confirm -------------------------------------------------------


def _induce_setup(seed: int, p: dict) -> list:
    words = instances.deep_words(seed, p["pool"], p["word_len"])
    rng = random.Random("sample:%d" % seed)
    return [(dw, rng.randrange(1 << 30)) for dw in words]


def _induce_job(p: dict, item):
    from ietbwt import induction

    dw, sample_seed = item
    t = dw.exchange.iet
    chain = induction.induce_to_cylinder(t, dw.word)
    lo, hi = chain.final.domain()
    _expect((lo, hi) == chain.target, "final domain is not the cylinder")
    _expect(lo <= dw.point < hi, "seed point outside its own cylinder")
    rng = random.Random(sample_seed)
    visits = []
    for letter in chain.final.alphabet:
        x = instances.interior_point(rng, *chain.final.interval(letter))
        visit = induction.first_return_point(t, x, lo, hi)
        _expect(visit.itinerary == chain.morphism(letter), "itinerary of %s" % letter)
        _expect(visit.point == chain.final.apply(x), "return point of %s" % letter)
        visits.append([letter, str(x), str(visit.point), visit.time])
    return {"chain": chain.to_json(), "visits": visits}


# -- diet_ebwt ------------------------------------------------------------


def _diet_setup(seed: int, p: dict) -> list:
    return instances.diet_pool(seed, tuple(p["sizes"]), p["pool"], p["single_from"])


def _diet_job(p: dict, spec):
    from ietbwt import iet, words

    _, cycles = iet.diet_action(spec)
    multiset = iet.diet_lyndon_multiset(spec)
    _expect(len(multiset) == len(cycles), "one Lyndon word per cycle")
    out = words.ebwt(multiset, spec.letters).output
    _expect(
        out == words.expected_clustered_output(spec.word(), spec.perm),
        "ebwt of the cycle words is not clustered by the permutation",
    )
    for w in multiset:
        _expect(words.is_clustering(w, spec.letters), "cycle word does not cluster")
    return {"multiset": list(multiset), "ebwt": out}


def _diet_mix(pool: list) -> dict:
    from ietbwt.iet import diet_action

    longest = [max(len(c) for c in diet_action(s)[1]) for s in pool]
    return {
        "instances": len(pool),
        "share_single_cycle": sum(1 for s in pool if len(diet_action(s)[1]) == 1)
        / len(pool),
        "longest_cycle_word": max(longest),
    }


# -- registry -------------------------------------------------------------

# Sizes are set so that a 30-second run holds about 200 to 900 jobs, which
# leaves ten or more samples beyond job_p90_ms.
LANGUAGE = {"pool": 240, "word_len": 2, "return_len": 8, "depth": 8}
INDUCE = {"pool": 480, "word_len": (8, 11)}
DIET = {"pool": 450, "sizes": (60, 120, 200, 300, 400), "single_from": 200}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "language_cli",
            LANGUAGE,
            _language_setup,
            _language_job,
            _exchange_mix,
        ),
        Workload(
            "induce_confirm",
            INDUCE,
            _induce_setup,
            _induce_job,
            lambda pool: _exchange_mix([dw.exchange for dw, _ in pool]),
        ),
        Workload(
            "diet_ebwt",
            DIET,
            _diet_setup,
            _diet_job,
            _diet_mix,
        ),
    )
}
