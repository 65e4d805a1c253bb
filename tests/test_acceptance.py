"""End-to-end gate: fifteen numbered checks over frozen instances and
seeded random families.  Each check prints one verdict line and holds a
pinned wall-clock budget; a failed assertion names its criterion."""

import itertools
import random
import time
from fractions import Fraction

from conftest import (
    fv,
    make_diet421,
    make_e5,
    make_golden,
    make_sym3,
    make_sym4,
    periodic_report,
    random_rational_iet,
    substitution,
)
from ietbwt.alphabet import Perm
from ietbwt.errors import DomainError
from ietbwt.extgraph import (
    classify_language,
    compatible,
    extension_graph,
)
from ietbwt.iet import Iet, diet_action, diet_lyndon_multiset, diet_spec, diet_to_iet
from ietbwt.coding import (
    LetterMorphism,
    cylinders,
    diet_language,
    language,
    trajectory,
)
from ietbwt.induction import (
    first_return_point,
    induce_to_cylinder,
    left_step,
    right_step,
    split,
)
from ietbwt.verify import (
    verify_perfect_clustering_symmetric,
    verify_return_clustering,
)
from ietbwt.words import (
    bwt,
    clustering_transport,
    ebwt,
    infer_clustering_permutation,
    is_clustering,
    is_pi_clustering,
    is_primitive,
    parikh,
    primitive_root,
)

SEED = 20260823


def _verdict(num: int, label: str, elapsed: float = 0.0, budget: float = 0.0) -> None:
    if budget:
        assert elapsed < budget, "criterion %02d overran: %.3fs >= %gs" % (
            num,
            elapsed,
            budget,
        )
        print("criterion %02d: PASS  %s  (%.3fs < %gs)" % (num, label, elapsed, budget))
    else:
        print("criterion %02d: PASS  %s  (exact)" % (num, label))


def _spread(interval, n: int):
    lo, hi = interval
    width = hi - lo
    return [lo + width * Fraction(k, n + 1) for k in range(1, n + 1)]


def _random_word(rng: random.Random, letters: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _instance_suite():
    e5 = make_e5()
    return (
        ("e5", e5),
        ("merged", right_step(e5).after),
        ("golden", make_golden()),
        ("diet421", diet_to_iet(make_diet421())),
    )


# -- criterion 1: transform output on frozen words ----------------------


def test_criterion_01_bwt_exactness():
    cases = (
        ("levkoy", None, "lvykeo"),
        ("peterbald", None, "brltpadee"),
        ("bambino", None, "bombain"),
        ("banana", "abn", "nnbaaa"),
    )
    for word, order, _ in cases:  # warm the interpreter before timing
        bwt(word, order)
    worst = 0.0
    for word, order, expect in cases:
        start = time.perf_counter()
        res = bwt(word, order)
        worst = max(worst, time.perf_counter() - start)
        assert res.output == expect, "criterion 01: bwt(%r)" % word
    _verdict(1, "bwt on four frozen words", worst, 0.001)


# -- criterion 2: multiset transform with its conjugate chain -----------


def test_criterion_02_ebwt_multiset():
    ebwt(("aac", "ab", "ab"))
    start = time.perf_counter()
    res = ebwt(("aac", "ab", "ab"))
    elapsed = time.perf_counter() - start
    assert res.output == "cbbaaaa", "criterion 02: output"
    assert res.rotations == ("aac", "ab", "ab", "aca", "ba", "ba", "caa"), (
        "criterion 02: conjugate chain"
    )
    _verdict(2, "ebwt of {aac, ab, ab}", elapsed, 0.001)


# -- criterion 3: discrete exchange matches its word combinatorics ------


def test_criterion_03_diet_correspondence():
    spec = make_diet421()
    _, cycles = diet_action(spec)
    assert cycles == ((1, 4, 7), (2, 5), (3, 6)), "criterion 03: cycles"
    multiset = diet_lyndon_multiset(spec)
    assert multiset == ("aac", "ab", "ab"), "criterion 03: Lyndon multiset"
    assert parikh("".join(multiset)) == {"a": 4, "b": 2, "c": 1}, (
        "criterion 03: Parikh vector"
    )
    table = cylinders(diet_to_iet(spec), 3)
    assert table.interval("a") == (fv(0), fv(4)), "criterion 03: I_a"
    assert table.interval("ab") == (fv(1), fv(3)), "criterion 03: I_ab"
    assert table.interval("aac") == (fv(0), fv(1)), "criterion 03: I_aac"
    _verdict(3, "diet (4,2,1)/cba correspondence")


# -- criterion 4: banana under its three letter orders ------------------


def test_criterion_04_banana_verdicts():
    for order, perfect in (("abn", True), ("anb", True), ("nab", False)):
        got = is_pi_clustering("banana", Perm(order, order[::-1]))
        assert got == perfect, "criterion 04: order %s" % order
    assert bwt("banana", "abn").output == "nnbaaa", "criterion 04: abn transform"
    assert bwt("banana", "anb").output == "bnnaaa", "criterion 04: anb transform"
    assert bwt("banana", "nab").output == "aabnna", "criterion 04: nab transform"
    _verdict(4, "banana clustering verdicts")


# -- criterion 5: conjugacy and power laws of the transform -------------


def test_criterion_05_conjugacy_and_power_laws():
    rng = random.Random(SEED + 5)
    start = time.perf_counter()
    for _ in range(500):  # rotation leaves the transform unchanged
        w = _random_word(rng, "abcd"[: rng.randint(2, 4)], 2, 12)
        r = rng.randrange(len(w))
        assert bwt(w[r:] + w[:r]).output == bwt(w).output, "criterion 05: rotation"
    for _ in range(500):  # taking the p-th power expands every run p-fold
        u = primitive_root(_random_word(rng, "abc"[: rng.randint(2, 3)], 1, 8))
        p = rng.randint(1, 4)
        expect = "".join(ch * p for ch in bwt(u).output)
        assert bwt(u * p).output == expect, "criterion 05: power expansion"
    for _ in range(500):  # clustering survives powers, with the same witness
        u = _random_word(rng, "abc"[: rng.randint(2, 3)], 1, 8)
        p = rng.randint(2, 4)
        assert is_clustering(u * p) == is_clustering(u), "criterion 05: power verdict"
        pi = infer_clustering_permutation(u)
        if pi is not None:
            assert is_pi_clustering(u * p, pi), "criterion 05: power witness"
    _verdict(5, "1500 conjugacy and power trials", time.perf_counter() - start, 5.0)


# -- criterion 6: the four substitution classes keep words primitive ----


def test_criterion_06_primitivity_preservation():
    rng = random.Random(SEED + 6)
    start = time.perf_counter()
    done = 0
    while done < 500:
        w = _random_word(rng, "abc"[: rng.randint(2, 3)], 1, 10)
        if not is_primitive(w):
            continue
        present = sorted(set(w))
        a = rng.choice(present)
        b = rng.choice([x for x in "abcd" if x != a])
        shuffled = rng.sample(present, len(present))
        if b in present:
            target = present
        elif rng.choice(("front", "back")) == "front":
            target = [b] + present
        else:
            target = present + [b]
        substitutions = (
            ("rename", LetterMorphism(present, present, dict(zip(present, shuffled)))),
            ("alpha", substitution(present, target, {a: a + b})),
            ("alpha_tilde", substitution(present, target, {a: b + a})),
            ("inclusion", substitution(present, present + ["z"])),
        )
        for kind, phi in substitutions:
            assert is_primitive(phi(w)), "criterion 06: %s on %r" % (kind, w)
        done += 1
    _verdict(6, "500 words x 4 substitution classes", time.perf_counter() - start, 2.0)


# -- criterion 7: transported pairs certify substituted words -----------


def _single_cycle_diet(rng: random.Random):
    """A discrete exchange whose action is one cycle; the word read along
    the cycle is clustering for the exchange's own permutation."""
    while True:
        k = rng.randint(2, 3)
        comp = tuple(rng.randint(1, 4) for _ in range(k))
        row = list("abc"[:k])
        rng.shuffle(row)
        spec = diet_spec(comp, "".join(row))
        _, cycles = diet_action(spec)
        if len(cycles) != 1:
            continue
        word = spec.word()
        w = "".join(word[i - 1] for i in cycles[0])
        assert is_pi_clustering(w, spec.perm)
        return spec.letters, spec.perm, w


def _transport_case(case: int, base, row, rng: random.Random):
    if case == 1:
        return LetterMorphism(base, base, dict(zip(base, rng.sample(base, len(base)))))
    if case == 2:
        i = row.index(base[0])
        a = row[i - 1]
        return substitution(base, base, {a: a + base[0]}) if i > 0 else None
    if case == 3:
        i = row.index(base[-1])
        if i + 1 < len(row):
            return substitution(base, base, {row[i + 1]: row[i + 1] + base[-1]})
        return None
    if case == 4:
        i = base.index(row[0])
        a = base[i - 1]
        return substitution(base, base, {a: row[0] + a}) if i > 0 else None
    if case == 5:
        i = base.index(row[-1])
        if i + 1 < len(base):
            return substitution(base, base, {base[i + 1]: row[-1] + base[i + 1]})
        return None
    if case == 6:
        a = rng.choice(base)
        if rng.choice(("front", "back")) == "front":
            return substitution(base, ("z",) + base, {a: a + "z"})
        return substitution(base, base + ("z",), {a: a + "z"})
    return substitution(base, base + ("z",))


def test_criterion_07_clustering_transport():
    rng = random.Random(SEED + 7)
    start = time.perf_counter()
    for case in range(1, 8):
        done = 0
        attempts = 0
        while done < 100:
            attempts += 1
            assert attempts < 5000, "criterion 07: case %d starved" % case
            base, pi, w = _single_cycle_diet(rng)
            phi = _transport_case(case, base, pi.images, rng)
            if phi is None:
                continue
            order2, pi2 = clustering_transport(base, pi, phi)
            assert is_pi_clustering(phi(w), pi2), "criterion 07: case %d on %r" % (
                case,
                w,
            )
            assert pi2.letters == order2
            done += 1
    _verdict(7, "7 cases x 100 transported words", time.perf_counter() - start, 5.0)


# -- criterion 8: every induction step is a coding substitution ---------


def _prefix_sound(rec, tag: str, n_samples: int = 20, depth: int = 3) -> None:
    """The base coding of any point of the induced domain begins with the
    image of its induced coding."""
    t, t2, phi = rec.before, rec.after, rec.morphism
    for x in _spread(t2.domain(), n_samples):
        expanded = phi(trajectory(t2, x, depth))
        assert trajectory(t, x, len(expanded)) == expanded, "%s: %s at %s" % (
            tag,
            rec.kind,
            x,
        )


def test_criterion_08_step_soundness():
    rng = random.Random(SEED + 8)
    start = time.perf_counter()
    checked = 0
    for name, t in _instance_suite():
        for step_fn in (right_step, left_step):
            try:
                rec = step_fn(t)
            except DomainError:
                continue  # that side holds its own extreme letter
            _prefix_sound(rec, "criterion 08: %s" % name)
            checked += 1
        for w in language(t, 1).words_of_length(1):
            for rec in induce_to_cylinder(t, w).records:
                if rec.glue is None:
                    _prefix_sound(rec, "criterion 08: %s word %s" % (name, w))
                    checked += 1
    for _ in range(50):
        t = random_rational_iet(rng, rng.randint(3, 5), steppable=True)
        for step_fn in (right_step, left_step):
            _prefix_sound(step_fn(t), "criterion 08: random")
            checked += 1
    assert checked >= 100, "criterion 08: only %d steps exercised" % checked
    _verdict(
        8, "%d steps, 20 points each" % checked, time.perf_counter() - start, 30.0
    )


# -- criterion 9: inducing onto a cylinder is the first-return map ------


def test_criterion_09_first_return_equivalence():
    start = time.perf_counter()
    cylinders_checked = 0
    for name, t in _instance_suite():
        lang = language(t, 3)
        table = cylinders(t, 3)
        for n in (1, 2, 3):
            for w in lang.words_of_length(n):
                chain = induce_to_cylinder(t, w)
                lo, hi = chain.final.domain()
                assert (lo, hi) == table.interval(w), "criterion 09: %s %r" % (name, w)
                for x in _spread((lo, hi), 20):
                    letter = chain.final.letter_at(x)
                    visit = first_return_point(t, x, lo, hi)
                    assert visit.point == chain.final.apply(x), (
                        "criterion 09: %s %r point %s" % (name, w, x)
                    )
                    assert visit.itinerary == chain.morphism(letter), (
                        "criterion 09: %s %r itinerary" % (name, w)
                    )
                cylinders_checked += 1
    assert cylinders_checked >= 40
    _verdict(
        9,
        "%d cylinders, 20 points each" % cylinders_checked,
        time.perf_counter() - start,
        60.0,
    )


# -- criterion 10: the shape of the five-letter chain onto I_c ----------


def test_criterion_10_chain_shape():
    chain = induce_to_cylinder(make_e5(), "c")
    assert chain.kinds() == (
        "right_merge",
        "split",
        "split",
        "left_top",
        "left_bottom",
    ), "criterion 10: kinds"
    assert chain.records[0].morphism.rules["a"] == "ae", "criterion 10: first merge"
    assert chain.records[1].block == ("a",), "criterion 10: first split"
    assert chain.records[2].block == ("d",), "criterion 10: second split"
    for rec in chain.records[1:3]:
        assert rec.branch == "complement"
    assert chain.records[3].before.alphabet.letters == ("b", "c"), (
        "criterion 10: minimal block"
    )
    assert chain.morphism.rules == {"b": "cbb", "c": "cb"}, "criterion 10: morphism"
    _verdict(10, "five-letter chain onto I_c")


# -- criterion 11: splitting restricts the map and the permutation ------


def _glue5() -> Iet:
    lengths = dict(zip("abcde", (1, 2, 3, 4, 3)))
    return Iet("abcde", {x: fv(n) for x, n in lengths.items()}, "baedc")


def _shift(z, glue):
    if glue is None:
        return z
    cut, gap = glue
    return z if z < cut else z - gap


def _unshift(x, glue):
    if glue is None:
        return x
    cut, gap = glue
    return x if x < cut else x + gap


def test_criterion_11_splitting_soundness():
    e5 = make_e5()
    suite = (
        e5,
        right_step(e5).after,
        _glue5(),
        Iet("abc", {x: fv(1) for x in "abc"}, "cba"),
    )
    seen = 0
    for t in suite:
        for block in t.invariant_blocks():
            tb = split(t, block, "block").after
            rec_c = split(t, block, "complement")
            tc = rec_c.after
            inside = set(block)
            assert tb.perm.images == tuple(y for y in t.perm.images if y in inside), (
                "criterion 11: block permutation"
            )
            assert tc.perm.images == tuple(
                y for y in t.perm.images if y not in inside
            ), "criterion 11: complement permutation"
            for x in _spread(tb.domain(), 8):
                assert tb.apply(x) == t.apply(x), "criterion 11: block restriction"
            glue = rec_c.glue
            for letter in tc.alphabet:
                for x in _spread(tc.interval(letter), 4):
                    image = t.apply(_unshift(x, glue))
                    assert tc.apply(x) == _shift(image, glue), (
                        "criterion 11: complement conjugation"
                    )
            seen += 1
    assert seen == 12, "criterion 11: expected 12 splits, saw %d" % seen
    _verdict(11, "12 splits across 4 instances")


# -- criterion 12: extension graphs of the discrete exchange ------------


def test_criterion_12_extension_graphs():
    lang = diet_language(make_diet421(), 8)
    left_order, right_order = ("c", "b", "a"), ("a", "b", "c")
    frozen = (
        ("", {("a", "a"), ("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")}),
        ("a", {("a", "c"), ("c", "a"), ("b", "b")}),
        ("ba", {("a", "b")}),
    )
    for w, edges in frozen:
        g = extension_graph(lang, w)
        assert set(g.edges) == edges, "criterion 12: edges of %r" % w
        assert compatible(g, left_order, right_order), "criterion 12: order of %r" % w
    assert extension_graph(lang, "").is_tree(), "criterion 12: empty word tree"
    assert extension_graph(lang, "a").is_forest(), "criterion 12: G(a) forest"
    report = classify_language(lang, left_order, right_order)
    assert report.max_word_len == 6
    assert report.ordered_alsinic, "criterion 12: depth-6 ordered alsinicity"
    _verdict(12, "graphs and depth-6 classification")


# -- criterion 13: return words cluster under the natural order ---------


def test_criterion_13_return_word_clustering():
    rng = random.Random(SEED + 13)
    start = time.perf_counter()
    jobs = [
        ("e5", make_e5(), 3, 12),
        ("golden", make_golden(), 4, 20),
        ("diet421", diet_to_iet(make_diet421()), 3, 12),
    ]
    for i in range(25):
        jobs.append(("random%d" % i, random_rational_iet(rng, rng.randint(3, 4)), 2, 8))
    words = 0
    for name, t, word_len, return_len in jobs:
        report = verify_return_clustering(t, word_len, return_len)
        assert report.ok, "criterion 13: %s fails on %s" % (name, report.failures())
        words += sum(len(c.returns) for c in report.checks)
    _verdict(
        13, "28 instances, %d return words" % words, time.perf_counter() - start, 120.0
    )


# -- criterion 14: symmetric permutations cluster perfectly -------------


def test_criterion_14_symmetric_perfect_clustering():
    start = time.perf_counter()
    jobs = (
        ("golden", make_golden(), 2, 10),
        ("sym3", make_sym3(), 2, 8),
        ("sym4", make_sym4(), 2, 8),
    )
    for name, t, word_len, return_len in jobs:
        report = verify_perfect_clustering_symmetric(t, word_len, return_len)
        assert report.ok, "criterion 14: %s fails on %s" % (name, report.failures())
    _verdict(14, "3 symmetric instances", time.perf_counter() - start, 10.0)


# -- criterion 15: clustering equals ordered alsinicity, periodically ---


def test_criterion_15_periodic_bridge():
    rng = random.Random(SEED + 15)
    start = time.perf_counter()
    perms = [Perm("abc", row) for row in itertools.permutations("abc")]
    done = 0
    while done < 200:
        w = primitive_root(_random_word(rng, "abc", 1, 10))
        for pi in perms:
            clustered = is_pi_clustering(w, pi)
            report = periodic_report(w, pi)
            assert clustered == report.ordered_alsinic, "criterion 15: %r under %s" % (
                w,
                pi.one_line(),
            )
        done += 1
    _verdict(15, "200 words x 6 permutations", time.perf_counter() - start, 20.0)
