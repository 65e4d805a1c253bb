"""Core transformation geometry on the fixture instances."""

import random
import re
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from ietbwt import iet as iet_module
from ietbwt.alphabet import Alphabet, Perm
from ietbwt.coding import trajectory
from ietbwt.errors import DomainError
from ietbwt.exact import FieldValue, make_quadratic, make_rational
from ietbwt.induction import ReturnVisit, first_return_point, induce_to_cylinder
from ietbwt.iet import (
    Connection,
    Iet,
    diet_action,
    diet_lyndon_multiset,
    diet_spec,
    diet_to_iet,
    iet_from_json,
)

from conftest import (
    BAD_PERMUTATIONS,
    REPEATED_CYCLES,
    fv,
    make_e5,
    make_sym4,
    random_quadratic_iet,
    random_rational_iet,
)


class TestGeometry:
    def test_translations(self, e5):
        assert e5.translation("a") == make_rational(5, 6)
        assert e5.translation("b") == make_quadratic(
            Fraction(3, 4), Fraction(-1, 4), 5
        )
        assert e5.translation("c") == make_quadratic(
            Fraction(1, 4), Fraction(-1, 4), 5
        )
        assert e5.translation("d") == make_rational(0)
        assert e5.translation("e") == make_rational(-5, 6)

    def test_domain_and_intervals(self, e5):
        assert e5.domain() == (make_rational(0), make_rational(1))
        assert e5.interval("b") == (
            make_rational(1, 6),
            make_rational(1, 6) + fv("-1/4", "1/4", 5),
        )
        assert e5.image_interval("e") == (make_rational(0), make_rational(1, 6))
        assert e5.image_interval("a") == (make_rational(5, 6), make_rational(1))

    def test_discontinuities(self, e5):
        d = e5.discontinuities()
        assert d == (
            make_rational(1, 6),
            make_rational(1, 6) + fv("-1/4", "1/4", 5),
            make_rational(2, 3),
            make_rational(5, 6),
        )
        dinv = e5.discontinuities_inverse()
        assert dinv == (
            make_rational(1, 6),
            make_rational(1, 6) + fv("3/4", "-1/4", 5),
            make_rational(2, 3),
            make_rational(5, 6),
        )

    def test_zero_connections_and_regions(self, e5):
        assert e5.zero_connections() == (
            make_rational(1, 6),
            make_rational(2, 3),
            make_rational(5, 6),
        )
        regions = e5.regions()
        assert len(regions) == 4
        assert regions[0] == (make_rational(0), make_rational(1, 6))
        assert regions[3] == (make_rational(5, 6), make_rational(1))

    def test_letter_at(self, e5):
        assert e5.letter_at(make_rational(0)) == "a"
        assert e5.letter_at(make_rational(1, 6)) == "b"
        assert e5.letter_at(make_rational(2, 3)) == "d"
        assert e5.letter_at(make_rational(5, 6)) == "e"
        with pytest.raises(DomainError):
            e5.letter_at(make_rational(1))
        with pytest.raises(DomainError):
            e5.letter_at(make_rational(-1, 100))


class TestApply:
    def test_sample_points(self, e5):
        assert e5.apply(make_rational(0)) == make_rational(5, 6)
        assert e5.apply(make_rational(11, 12)) == make_rational(1, 12)
        assert e5.apply(make_rational(3, 4)) == make_rational(3, 4)
        assert e5.apply(make_rational(1, 6)) == make_rational(1, 6) + fv(
            "3/4", "-1/4", 5
        )

    def test_inverse_round_trip(self, e5):
        rng = random.Random(3)
        for _ in range(50):
            x = make_rational(rng.randint(0, 119), 120)
            assert e5.apply_inverse(e5.apply(x)) == x
            assert e5.apply(e5.apply_inverse(x)) == x

    def test_apply_n(self, e5):
        x = make_rational(1, 12)
        assert e5.apply_n(x, 3) == e5.apply(e5.apply(e5.apply(x)))
        assert e5.apply_n(e5.apply_n(x, 4), -4) == x

    def test_image_tiles_domain(self, e5, golden, sym3):
        for t in (e5, golden, sym3):
            lo, hi = t.domain()
            acc = lo
            for y in t.perm.images:
                assert t.image_interval(y)[0] == acc
                acc = t.image_interval(y)[1]
            assert acc == hi


class TestBlocks:
    def test_e5_blocks(self, e5):
        assert e5.invariant_blocks() == (("b", "c"), ("b", "c", "d"), ("d",))

    def test_block_intervals(self, e5):
        spans = {
            block: (e5.interval(block[0])[0], e5.interval(block[-1])[1])
            for block in e5.invariant_blocks()
        }
        assert spans == {
            ("b", "c"): (make_rational(1, 6), make_rational(2, 3)),
            ("b", "c", "d"): (make_rational(1, 6), make_rational(5, 6)),
            ("d",): (make_rational(2, 3), make_rational(5, 6)),
        }

    def test_no_blocks_for_golden(self, golden):
        assert golden.invariant_blocks() == ()

    def test_block_spans_shortcut_matches_the_scan(self):
        """_block_spans returns at once when the two tilings share only the
        domain's ends; on seeded rational, Q(sqrt 5) and discrete maps and
        their induction chains it equals the scan over every pair of shared
        cuts, on maps with blocks, with no shared interior cut, and with a
        shared interior cut but no block."""

        def scan(t):
            base, k = t.alphabet.letters, len(t.alphabet)
            common = [i for i in range(k + 1) if t._cuts[i] == t._image_cuts[i]]
            return {base[i:j]: (t._cuts[i], t._cuts[j]) for i in common for j in common
                    if i < j and (i, j) != (0, k) and sorted(t._rank[i:j]) == list(range(i, j))}

        rng = random.Random(26)
        maps = [random_rational_iet(rng, rng.randint(2, 5)) for _ in range(60)]
        maps += [random_quadratic_iet(rng, rng.randint(2, 5)) for _ in range(30)]
        maps += [diet_to_iet(diet_spec([rng.randint(1, 4) for _ in range(k)], row))
                 for k, row in ((2, "ba"), (3, "cba"), (3, "acb"), (4, "badc"), (4, "dcba"))]
        maps += [rec.after for t in maps[:20] for w in "ab"
                 for rec in induce_to_cylinder(t, w).records if len(rec.after.alphabet) > 1]
        seen = Counter()
        for t in maps:
            want = scan(t)
            assert t._block_spans() == want, t
            shared = any(t._cuts[i] == t._image_cuts[i] for i in range(1, len(t.alphabet)))
            seen["blocks" if want else "shared, no block" if shared else "ends only"] += 1
        assert len(seen) == 3, seen

    def test_invariant_block_membership(self, e5):
        blocks = e5.invariant_blocks()
        assert ("b", "c") in blocks
        assert ("d",) in blocks
        assert ("a", "b") not in blocks
        assert ("b",) not in blocks


def _scan_oracle(t: Iet):
    """letter_at, apply, apply_inverse, contains, domain and interval by a
    linear scan over intervals accumulated from the origin, independent of
    the geometry Iet stores."""

    def tile(order):
        out, acc = {}, t.origin
        for x in order:
            out[x] = (acc, acc + t.lengths[x])
            acc = out[x][1]
        return out

    dom, img = tile(t.alphabet.letters), tile(t.perm.images)
    domain = (t.origin, dom[t.alphabet.letters[-1]][1])

    def find(slots, x):
        hits = [y for y, (lo, hi) in slots.items() if lo <= x < hi]
        assert len(hits) <= 1
        return hits[0] if hits else None

    def letter_at(x):
        return find(dom, x)

    def apply(x):
        a = find(dom, x)
        return None if a is None else x - dom[a][0] + img[a][0]

    def apply_inverse(y):
        a = find(img, y)
        return None if a is None else y - img[a][0] + dom[a][0]

    return domain, dom, letter_at, apply, apply_inverse


def _shifted_e5() -> Iet:
    return make_e5().with_origin(make_quadratic(Fraction(-2, 3), 1, 5))


def _blocks_iet() -> Iet:
    """Invariant blocks ab and cd: the map is not minimal."""
    lengths = {"a": make_rational(1, 5), "b": make_rational(1, 3),
               "c": make_rational(2, 7), "d": make_rational(1, 9)}
    return Iet("abcd", lengths, "badc")


class TestGeometryOracle:
    EXCHANGES = {
        "rational": lambda: Iet("abcde", {x: make_rational(n, 17) for x, n in
                                         zip("abcde", (3, 1, 5, 2, 6))}, "cedab"),
        "sqrt5 origin": _shifted_e5,
        "sym4": make_sym4,
        "blocks": _blocks_iet,
    }

    @pytest.mark.parametrize("name", sorted(EXCHANGES))
    def test_matches_linear_scan(self, name):
        t = self.EXCHANGES[name]()
        domain, dom, letter_at, apply, apply_inverse = _scan_oracle(t)
        assert t.domain() == domain
        assert all(t.interval(x) == dom[x] for x in t.alphabet)
        lo, hi = domain
        tiny = make_rational(1, 10 ** 9)
        probes = [lo, hi, lo - tiny, hi + tiny, hi - tiny, lo - 1, hi + 1]
        for x in t.alphabet:
            for a, b in (t.interval(x), t.image_interval(x)):
                probes += [a, b, a - tiny, a + tiny, (a + b) / 2, a + (b - a) * Fraction(6, 7)]
        rng = random.Random(name)
        probes += [lo + (hi - lo) * Fraction(rng.randint(0, 999), 1000) for _ in range(40)]
        inside = 0
        for x in probes:
            want = letter_at(x)
            if want is None:
                message = re.escape("point %s outside domain [%s, %s)" % (x, lo, hi))
                for method in (t.letter_at, t.apply, t.apply_inverse):
                    with pytest.raises(DomainError, match=message):
                        method(x)
                continue
            inside += 1
            assert t.letter_at(x) == want, x
            assert t.apply(x) == apply(x), x
            assert t.apply_inverse(x) == apply_inverse(x), x
            assert t.apply(t.apply_inverse(x)) == x == t.apply_inverse(t.apply(x))
        assert inside >= 40

    @pytest.mark.parametrize("name", ["rational", "blocks"])
    def test_irrational_points_on_a_rational_map(self, name):
        """The map adopts a point's radicand: frac(k*sqrt(2)) steps across
        the domain, over denominators the map does not have."""
        t = self.EXCHANGES[name]()
        _, _, letter_at, apply, apply_inverse = _scan_oracle(t)
        lo, hi = t.domain()
        probes = [lo + (hi - lo) * make_quadratic(-1, 1, 2)]
        for k in range(1, 25):
            frac = make_quadratic(-isqrt(2 * k * k), k, 2)
            probes += [lo + (hi - lo) * frac, lo + (hi - lo) * frac / (k + 10)]
        for x in probes:
            assert t.letter_at(x) == letter_at(x), x
            assert t.apply(x) == apply(x), x
            assert t.apply_inverse(x) == apply_inverse(x), x

    def test_a_second_radicand_is_refused(self):
        t = self.EXCHANGES["sqrt5 origin"]()
        x = make_quadratic(0, 1, 3)  # 1.73..., inside [sqrt(5) - 2/3, sqrt(5) + 1/3)
        for method in (t.letter_at, t.apply, t.apply_inverse):
            with pytest.raises(DomainError, match="incompatible radicands 5 and 3"):
                method(x)

    def test_a_point_denominator_builds_no_map(self, monkeypatch):
        """A k/97 point is compared with the map at its own scale: its
        trajectory, first return and images both ways lay out no map, and
        they equal the scan's."""
        t = self.EXCHANGES["sqrt5 origin"]()
        _, _, letter_at, apply, apply_inverse = _scan_oracle(t)
        lo, hi = t.domain()
        x = lo + (hi - lo) * Fraction(41, 97)
        want, p = "", x
        for _ in range(20):
            want, p = want + letter_at(p), apply(p)
        frames = []
        build = Iet._build

        def counted(self, d, n, *args):
            frames.append((d, n))
            build(self, d, n, *args)

        monkeypatch.setattr(Iet, "_build", counted)
        assert trajectory(t, x, 20) == want
        assert first_return_point(t, x, lo, hi) == ReturnVisit(apply(x), 1, want[:1])
        assert t.apply(x) == apply(x) and t.apply_inverse(x) == apply_inverse(x)
        assert frames == []

    def test_a_trajectory_scales_once(self, monkeypatch):
        """A k/97 point's orbit is walked at its own scale: the cuts and the
        translations are scaled once for the whole trajectory, not once per
        letter, and the letters are the scan's."""
        scaled = []

        def counted(pairs, s):
            scaled.append(s)
            return scale(pairs, s)

        scale = iet_module._scale
        monkeypatch.setattr(iet_module, "_scale", counted)
        for name in sorted(self.EXCHANGES):
            t = self.EXCHANGES[name]()
            _, _, letter_at, apply, _ = _scan_oracle(t)
            lo, hi = t.domain()
            for k in (1, 41, 96):
                x = lo + (hi - lo) * Fraction(k, 97)
                want, p = "", x
                for _ in range(60):
                    want, p = want + letter_at(p), apply(p)
                scaled.clear()
                assert trajectory(t, x, 60) == want, (name, k)
                assert len(scaled) == 2 and all(s % 97 == 0 for s in scaled), (name, k, scaled)

    def test_first_return_reads_each_letter_once(self):
        """The walk's itinerary is the coding of x up to its return time,
        its point is that iterate, and no earlier iterate is in the window."""
        rng = random.Random(9)
        for make in self.EXCHANGES.values():
            t = make()
            lo, hi = t.interval(t.alphabet.letters[-1])
            for _ in range(10):
                x = lo + (hi - lo) * Fraction(rng.randint(0, 99), 100)
                visit = first_return_point(t, x, lo, hi)
                assert visit.itinerary == trajectory(t, x, visit.time)
                assert visit.point == t.apply_n(x, visit.time)
                assert not any(lo <= t.apply_n(x, n) < hi for n in range(1, visit.time))


class TestConnections:
    def test_keane_probe_e5(self, e5):
        assert e5.keane_probe(10) == Connection(
            make_rational(1, 6), make_rational(1, 6), 0
        )

    def test_keane_probe_rational2(self, rational2):
        assert rational2.keane_probe(10) == Connection(
            make_rational(2, 3), make_rational(1, 3), 1
        )

    def test_golden_regular(self, golden):
        assert golden.keane_probe(100) is None

    def test_find_connections_depth0(self, e5):
        found = e5.find_connections(0)
        starts = {c.start for c in found}
        assert starts == set(e5.zero_connections())
        assert all(c.steps == 0 and c.start == c.end for c in found)

    def test_probe_is_the_first_connection(self, e5, rational2, sym4):
        for t in (e5, rational2, sym4):
            found = t.find_connections(10)
            assert len(found) > 1
            assert list(found) == sorted(found, key=lambda c: (c.steps, c.start))
            assert t.keane_probe(10) == found[0]

    def test_negative_search_depth_rejected(self, e5):
        for search in (e5.keane_probe, e5.find_connections):
            with pytest.raises(DomainError, match="search depth must be non-negative"):
                search(-1)


class TestConstruction:
    def test_validation(self):
        ok = {"a": make_rational(1, 2), "b": make_rational(1, 2)}
        with pytest.raises(DomainError):
            Iet("ab", {"a": make_rational(1)}, "ba")
        with pytest.raises(DomainError):
            Iet("ab", {"a": make_rational(0), "b": make_rational(1)}, "ba")
        with pytest.raises(DomainError):
            Iet(
                "ab",
                {"a": make_quadratic(0, 1, 2), "b": make_quadratic(0, 1, 3)},
                "ba",
            )
        with pytest.raises(DomainError):
            Iet("ab", ok, "cb")
        with pytest.raises(DomainError, match="permutation base 'ba' does not match"):
            Iet("ab", ok, Perm("ba", "ba"))
        bad = {"a": make_rational(1, 2), "b": make_quadratic(1, Fraction(-1, 2), 5)}
        with pytest.raises(DomainError, match=re.escape("of 'b' must be positive, got 1 - 1/2*")):
            Iet("ab", bad, "ba")
        Iet("ab", ok, "ba")

    def test_int_and_fraction_lengths_are_coerced(self):
        t = Iet("ab", {"a": 1, "b": Fraction(1, 2)}, "ba", origin=-1)
        assert t == Iet("ab", {"a": make_rational(1), "b": make_rational(1, 2)}, "ba",
                        origin=make_rational(-1))
        assert all(isinstance(v, FieldValue) for v in (*t.lengths.values(), t.origin))
        assert t.domain() == (make_rational(-1), make_rational(1, 2))
        assert t.apply(make_rational(0)) == make_rational(-1)

    def test_non_exact_lengths_rejected(self):
        for bad in (0.5, "1/2", None):
            with pytest.raises(DomainError, match="length of 'b' must be an int, Fraction"):
                Iet("ab", {"a": 1, "b": bad}, "ba")
        for bad in (0.0, "0", [0]):
            with pytest.raises(DomainError, match="origin must be an int, Fraction"):
                Iet("ab", {"a": 1, "b": 2}, "ba", origin=bad)

    def test_translate(self, e5):
        shifted = e5.translate(make_rational(1))
        assert shifted.domain() == (make_rational(1), make_rational(2))
        for n in range(12):
            x = make_rational(n, 12)
            assert shifted.apply(x + make_rational(1)) == e5.apply(x) + make_rational(1)

    def test_json_round_trip(self, e5, golden):
        for t in (e5, golden):
            assert iet_from_json(t.to_json()) == t

    def test_json_errors(self):
        with pytest.raises(DomainError):
            iet_from_json({"alphabet": "ab"})
        with pytest.raises(DomainError):
            iet_from_json([1, 2])
        good = {"alphabet": "ab", "lengths": {"a": "1/3", "b": "2/3"}, "permutation": "ba"}
        with pytest.raises(DomainError, match="lengths must be an object"):
            iet_from_json(dict(good, lengths=["1/3", "2/3"]))
        with pytest.raises(DomainError, match="alphabet must be a string or a list"):
            iet_from_json(dict(good, alphabet=5))
        with pytest.raises(DomainError, match="alphabet must be non-empty"):
            iet_from_json(dict(good, alphabet=""))
        for perm in BAD_PERMUTATIONS:
            with pytest.raises(DomainError, match="cannot read permutation from"):
                iet_from_json(dict(good, permutation=perm))
        abc = {"alphabet": "abc", "lengths": {"a": "1/3", "b": "1/3", "c": "1/3"}}
        for perm in REPEATED_CYCLES:
            with pytest.raises(DomainError, match="appears twice"):
                iet_from_json(dict(abc, permutation=perm))

    def test_json_permutation_forms(self):
        good = {"alphabet": "ab", "lengths": {"a": "1/3", "b": "2/3"}, "permutation": "ba"}
        want = iet_from_json(good)
        for perm in ({"one_line": "ba"}, {"one_line": ["b", "a"]}, {"cycles": [["a", "b"]]},
                     {"cycles": ["ab"]}):
            assert iet_from_json(dict(good, permutation=perm)) == want, perm


class TestAlphabet:
    def test_an_alphabet_is_returned_unchanged(self):
        a = Alphabet("abc")
        assert Alphabet(a) is a
        assert Alphabet(list("abc")) == a and Alphabet(list("abc")) is not a

    def test_outside_input_is_checked(self):
        for letters, message in (
            ("", "must be non-empty"),
            ([], "must be non-empty"),
            ("aba", "duplicate letters"),
            (["a", "bc"], "single characters"),
            (["a", 1], "single characters"),
        ):
            with pytest.raises(DomainError, match=message):
                Alphabet(letters)


class TestDiet:
    def test_action(self, diet421):
        mapping, cycles = diet_action(diet421)
        assert mapping == (4, 5, 6, 7, 2, 3, 1)
        assert cycles == ((1, 4, 7), (2, 5), (3, 6))

    def test_lyndon_multiset(self, diet421):
        assert diet_lyndon_multiset(diet421) == ("aac", "ab", "ab")

    def test_word(self, diet421):
        assert diet421.word() == "aaaabbc"

    def test_as_iet(self, diet421):
        t = diet_to_iet(diet421)
        assert t.domain() == (make_rational(0), make_rational(7))
        assert t.translation("a") == make_rational(3)
        assert t.translation("b") == make_rational(-3)
        assert t.translation("c") == make_rational(-6)
        mapping, _ = diet_action(diet421)
        for i in range(1, 8):
            left = make_rational(i - 1)
            assert t.apply(left) == make_rational(mapping[i - 1] - 1)

    def test_single_cell_fixed(self):
        spec = diet_spec((1, 1), "ab")
        mapping, cycles = diet_action(spec)
        assert mapping == (1, 2)
        assert cycles == ((1,), (2,))
        assert diet_lyndon_multiset(spec) == ("a", "b")

    def test_validation(self):
        with pytest.raises(DomainError):
            diet_spec((0, 2), "ab")
        with pytest.raises(DomainError):
            diet_spec((1, 2), "ac")
        with pytest.raises(DomainError, match="discrete size 99999999999999999999 exceeds"):
            diet_spec((99999999999999999999,), "a")

    def test_random_rational_generator(self):
        rng = random.Random(5)
        for _ in range(20):
            t = random_rational_iet(rng, rng.randint(2, 5), steppable=True)
            lo, hi = t.domain()
            assert lo == make_rational(0) and hi == make_rational(1)
            assert t.perm.images[-1] != t.alphabet.letters[-1]
            assert t.perm.images[0] != t.alphabet.letters[0]
