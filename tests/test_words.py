"""Transforms, Lyndon tools, clustering inference and transport."""

import random
from functools import cmp_to_key

import pytest

from ietbwt.alphabet import Perm
from ietbwt.coding import LetterMorphism
from ietbwt.errors import DomainError
from ietbwt.iet import diet_lyndon_multiset, diet_spec
from ietbwt.words import (
    bwt,
    clustering_transport,
    ebwt,
    expected_clustered_output,
    infer_clustering_permutation,
    is_clustering,
    is_lyndon,
    is_pi_clustering,
    is_primitive,
    lyndon_representative,
    omega_compare,
    parikh,
    primitive_root,
    rotations,
)

from conftest import substitution


class TestBwt:
    def test_banana_three_orders(self):
        assert bwt("banana").output == "nnbaaa"
        assert bwt("banana", "anb").output == "bnnaaa"
        assert bwt("banana", "nab").output == "aabnna"

    def test_banana_clustering_depends_on_order(self):
        assert is_clustering("banana")
        assert is_clustering("banana", "anb")
        assert not is_clustering("banana", "nab")

    def test_cat_words(self):
        assert bwt("levkoy").output == "lvykeo"
        assert bwt("peterbald").output == "brltpadee"
        assert bwt("bambino").output == "bombain"

    def test_aac(self):
        res = bwt("aac")
        assert res.output == "caa"
        assert res.runs == (("c", 1), ("a", 2))
        assert res.rotations == ("aac", "aca", "caa")

    def test_single_letter(self):
        assert bwt("a").output == "a"
        assert bwt("aaa").output == "aaa"

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            bwt("")

    def test_multi_character_letter_rejected(self):
        with pytest.raises(DomainError, match="single characters"):
            bwt("ab", ["a", "b", "cd"])

    def test_rotations(self):
        assert rotations("abc") == ("abc", "bca", "cab")


class TestOmegaOrder:
    def test_basic(self):
        assert omega_compare("aab", "ab") == -1
        assert omega_compare("ab", "aba") == 1
        assert omega_compare("ab", "ab") == 0
        assert omega_compare("ab", "abab") == 0
        assert omega_compare("ba", "b") == -1

    def test_order_respected(self):
        assert omega_compare("a", "b", "ba") == 1

    def test_chain_from_small_multiset(self):
        res = ebwt(["ab", "aab"])
        assert res.output == "babaa"
        assert res.rotations == ("aab", "aba", "ab", "baa", "ba")

    def test_chain_with_duplicates(self):
        res = ebwt(["aac", "ab", "ab"])
        assert res.output == "cbbaaaa"
        assert res.rotations == ("aac", "ab", "ab", "aca", "ba", "ba", "caa")

    def test_primitivity_required(self):
        with pytest.raises(DomainError):
            ebwt(["abab"])


def _rank_key(order):
    index = {ch: i for i, ch in enumerate(order)}
    return lambda s: tuple(index[ch] for ch in s)


def _naive_bwt(word, order):
    rots = sorted(rotations(word), key=_rank_key(order))
    return "".join(s[-1] for s in rots), tuple(rots)


def _naive_ebwt(words, order):
    conj = [r for w in words for r in rotations(w)]
    conj.sort(key=cmp_to_key(lambda u, v: omega_compare(u, v, order)))
    return "".join(s[-1] for s in conj), tuple(conj)


def _random_diet(rng, total):
    k = rng.randint(2, 5)
    cuts = sorted(rng.sample(range(1, total), k - 1))
    comp = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    row = list("abcde"[:k])
    rng.shuffle(row)
    return diet_spec(comp, "".join(row))


class TestRotationSortOracle:
    """bwt, ebwt and lyndon_representative against naive rotation sorts:
    rank tuples for bwt and Lyndon words, omega_compare for ebwt."""

    ALPHABETS = ("ab", "abc", "abcd", "αβγ", "ñaé")

    def _order(self, rng, letters):
        """A shuffled order of the letters, sometimes with absent extras."""
        order = list(letters)
        if rng.random() < 0.5:
            order += rng.sample("xyzω", rng.randint(1, 3))
        rng.shuffle(order)
        return "".join(order)

    def _word(self, rng, letters, n, primitive=False):
        while True:
            w = "".join(rng.choice(letters) for _ in range(n))
            if not primitive or is_primitive(w):
                return w

    def _check_bwt(self, word, order):
        res = bwt(word, order)
        assert (res.output, res.rotations) == _naive_bwt(word, res.order), (word, order)
        rep = lyndon_representative(word, order)
        assert rep == min(rotations(word), key=_rank_key(res.order)), (word, order)

    def _check_ebwt(self, words, order):
        res = ebwt(words, order)
        assert (res.output, res.rotations) == _naive_ebwt(words, res.order), (
            words,
            order,
        )

    def test_fixed_cases(self):
        for word in ("abab", "aaa", "a", "ñ", "abaaba", "αβαβγ", "banana"):
            self._check_bwt(word, None)
            self._check_bwt(word, "".join(sorted(set(word), reverse=True)))
        for words in (
            ["a", "b", "a"],
            ["ab", "ba", "ab"],
            ["aab", "aba", "baa", "aab"],
            ["aabb", "aabbab", "abba", "ab"],
            ["αβ", "βα", "αββ"],
        ):
            self._check_ebwt(words, None)
            self._check_ebwt(words, "".join(sorted(set("".join(words)), reverse=True)))

    def test_random_bwt_and_lyndon(self):
        rng = random.Random(2013)
        for _ in range(300):
            letters = rng.choice(self.ALPHABETS)
            word = self._word(rng, letters, rng.randint(1, 24))
            if rng.random() < 0.25:
                word *= rng.randint(2, 3)
            self._check_bwt(word, rng.choice([None, self._order(rng, letters)]))

    def test_random_ebwt_multisets(self):
        rng = random.Random(2014)
        for case in range(200):
            letters = rng.choice(self.ALPHABETS)
            if case % 4 == 0:
                lengths = [rng.choice((4, 6)) for _ in range(rng.randint(2, 6))]
            else:
                lengths = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
            words = [self._word(rng, letters, n, primitive=True) for n in lengths]
            if case % 3 == 0:
                w = rng.choice(words)
                i = rng.randrange(len(w))
                words += [w, w[i:] + w[:i]]
            rng.shuffle(words)
            self._check_ebwt(words, rng.choice([None, self._order(rng, letters)]))

    def test_diet_cycle_words(self):
        rng = random.Random(2015)
        for total in (3, 7, 20, 50, 120, 250, 400):
            spec = _random_diet(rng, total)
            multiset = diet_lyndon_multiset(spec)
            for w in multiset:
                self._check_bwt(w, spec.letters)
            self._check_ebwt(multiset, spec.letters)


class TestPrimitivity:
    def test_is_primitive(self):
        assert is_primitive("a")
        assert is_primitive("ab")
        assert is_primitive("aab")
        assert not is_primitive("aa")
        assert not is_primitive("abab")

    def test_primitive_root(self):
        assert primitive_root("abab") == "ab"
        assert primitive_root("aaa") == "a"
        assert primitive_root("aab") == "aab"

    def test_lyndon(self):
        assert lyndon_representative("caa") == "aac"
        assert lyndon_representative("ba", "ba") == "ba"
        with pytest.raises(DomainError, match="empty word"):
            lyndon_representative("")
        assert is_lyndon("aab")
        assert not is_lyndon("aba")
        assert not is_lyndon("abab")

    def test_parikh(self):
        assert parikh("banana") == {"a": 3, "b": 1, "n": 2}
        assert parikh("aa", "abc") == {"a": 2, "b": 0, "c": 0}


class TestClusteringInference:
    def test_canonical_example(self):
        pi = infer_clustering_permutation("aac", "abc")
        assert pi == Perm(("a", "b", "c"), ("c", "b", "a"))
        assert is_pi_clustering("aac", pi)
        assert infer_clustering_permutation("aac") == Perm(("a", "c"), ("c", "a"))

    def test_absent_letters_fixed(self):
        pi = infer_clustering_permutation("aac", "abc")
        assert pi("b") == "b"

    def test_banana(self):
        pi = infer_clustering_permutation("banana")
        assert pi is not None
        assert is_pi_clustering("banana", pi)
        assert infer_clustering_permutation("banana", "nab") is None

    def test_all_completions(self):
        pis = infer_clustering_permutation("aa", "abc", all_completions=True)
        assert len(pis) == 3
        for pi in pis:
            assert is_pi_clustering("aa", pi)
        rows = {pi.images for pi in pis}
        assert rows == {("a", "b", "c"), ("b", "a", "c"), ("b", "c", "a")}

    def test_expected_output_shape(self):
        pi = Perm(("a", "b", "c"), ("c", "b", "a"))
        assert expected_clustered_output("aac", pi) == "caa"
        assert expected_clustered_output("ac", pi) == "ca"

    def test_non_clustering_empty_completions(self):
        assert infer_clustering_permutation("banana", "nab", all_completions=True) == ()


def _random_clustered(rng: random.Random):
    """A clustering word plus its canonical certificate."""
    while True:
        k = rng.randint(2, 3)
        letters = "xyz"[:k]
        n = rng.randint(2, 6)
        w = "".join(rng.choice(letters) for _ in range(n))
        if len(set(w)) < 2:
            continue
        order = tuple(rng.sample(letters, k))
        pi = infer_clustering_permutation(w, order)
        if pi is not None:
            return w, order, pi


class TestTransport:
    def test_case_append_at_order_front(self):
        order = ("x", "y", "z")
        pi = Perm(order, ("y", "z", "x"))
        assert is_pi_clustering("xzy", pi)
        phi = substitution(order, order, {"z": "zx"})
        order2, pi2 = clustering_transport(order, pi, phi)
        assert order2 == order and pi2.images == ("z", "y", "x")
        assert is_pi_clustering(phi("xzy"), pi2)

    def test_case_append_at_order_front_middle_letter(self):
        order = ("x", "y", "z")
        pi = Perm(order, ("z", "y", "x"))
        assert is_pi_clustering("xyxz", pi)
        phi = substitution(order, order, {"y": "yx"})
        order2, pi2 = clustering_transport(order, pi, phi)
        assert order2 == order and pi2.images == ("y", "z", "x")
        assert is_pi_clustering("xyxxz", pi2)

    def test_case_fresh_letter_both_places(self):
        order = ("x", "y")
        pi = Perm(order, ("y", "x"))
        back = clustering_transport(order, pi, substitution(order, "xyb", {"x": "xb"}))
        assert back == (("x", "y", "b"), Perm(("x", "y", "b"), ("y", "b", "x")))
        assert is_pi_clustering("xby", back[1])
        front = clustering_transport(order, pi, substitution(order, "bxy", {"x": "xb"}))
        assert front == (("b", "x", "y"), Perm(("b", "x", "y"), ("x", "y", "b")))
        assert is_pi_clustering("xby", front[1])

    def test_case_rename(self):
        order = ("x", "y")
        pi = Perm(order, ("y", "x"))
        phi = LetterMorphism(order, "pq", {"x": "p", "y": "q"})
        order2, pi2 = clustering_transport(order, pi, phi)
        assert order2 == ("p", "q") and pi2.images == ("q", "p")
        assert is_pi_clustering("pq", pi2)

    def test_case_inclusion(self):
        order = ("x", "y")
        pi = Perm(order, ("y", "x"))
        order2, pi2 = clustering_transport(order, pi, substitution(order, "xuyv"))
        assert order2 == ("x", "y", "u", "v")
        assert pi2.images == ("y", "x", "u", "v")
        assert is_pi_clustering("xy", pi2)

    def test_case_prepend(self):
        order = ("x", "y")
        pi = Perm(order, ("y", "x"))
        phi = substitution(order, order, {"x": "yx"})
        order2, pi2 = clustering_transport(order, pi, phi)
        assert order2 == ("x", "y") and pi2.images == ("y", "x")
        assert is_pi_clustering(phi("xy"), pi2)

    def test_side_conditions_enforced(self):
        order = ("x", "y", "z")
        pi = Perm(order, ("y", "z", "x"))
        with pytest.raises(DomainError, match="end of the order"):
            clustering_transport(order, pi, substitution(order, order, {"x": "xy"}))
        with pytest.raises(DomainError, match="source"):
            clustering_transport(order, pi, substitution("xyzq", "xyzq", {"q": "qx"}))
        with pytest.raises(DomainError, match="end of the target"):
            clustering_transport(order, pi, substitution(order, "xqyz", {"x": "xq"}))
        with pytest.raises(DomainError, match="not an elementary"):
            xyx = LetterMorphism(order, order, {"x": "xyx", "y": "y", "z": "z"})
            clustering_transport(order, pi, xyx)
        with pytest.raises(DomainError, match="source"):
            clustering_transport(order, pi, LetterMorphism("x", "p", {"x": "p"}))
        with pytest.raises(DomainError, match="not injective"):
            merge = LetterMorphism(order, "pz", {"x": "p", "y": "p", "z": "z"})
            clustering_transport(order, pi, merge)

    def test_randomized_preservation(self):
        rng = random.Random(41)
        hits = 0
        for _ in range(400):
            w, order, pi = _random_clustered(rng)
            phi = _random_applicable_step(rng, order, pi)
            if phi is None:
                continue
            order2, pi2 = clustering_transport(order, pi, phi)
            assert is_pi_clustering(phi(w), pi2), (w, order, pi, phi)
            hits += 1
        assert hits > 100


def _random_applicable_step(rng, order, pi):
    row = pi.images
    kind = rng.choice(["rename", "alpha", "alpha_tilde", "inclusion", "alpha_fresh"])
    if kind == "rename":
        targets = rng.sample("pqrstuv", len(order))
        return LetterMorphism(order, targets, dict(zip(order, targets)))
    if kind == "inclusion":
        fresh = tuple(rng.sample("uvw", rng.randint(1, 2)))
        return substitution(order, order + fresh)
    if kind == "alpha_fresh":
        a = rng.choice(order)
        if rng.choice(["front", "back"]) == "front":
            return substitution(order, ("f",) + order, {a: a + "f"})
        return substitution(order, order + ("f",), {a: a + "f"})
    if kind == "alpha":
        b = rng.choice([order[0], order[-1]])
        i = row.index(b)
        if b == order[0] and i > 0:
            return substitution(order, order, {row[i - 1]: row[i - 1] + b})
        if b == order[-1] and i + 1 < len(row):
            return substitution(order, order, {row[i + 1]: row[i + 1] + b})
        return None
    b = rng.choice([row[0], row[-1]])
    i = order.index(b)
    if b == row[0] and i > 0:
        return substitution(order, order, {order[i - 1]: b + order[i - 1]})
    if b == row[-1] and i + 1 < len(order):
        return substitution(order, order, {order[i + 1]: b + order[i + 1]})
    return None
