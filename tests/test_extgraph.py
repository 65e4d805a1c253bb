"""Extension graphs, orders, and the clustering criterion they encode."""

import itertools
import random

import pytest

from ietbwt.alphabet import Perm
from ietbwt.coding import LanguageSample, diet_language, language, language_of_periodic
from ietbwt.errors import DomainError
from ietbwt.exact import make_rational
from ietbwt.extgraph import (
    ClassifyReport,
    ExtensionGraph,
    _order_index,
    classify_language,
    compatible,
    extension_graph,
)
from ietbwt.iet import Iet, diet_spec
from ietbwt.words import is_pi_clustering

from conftest import periodic_report, random_quadratic_iet, random_rational_iet


LEFT_421 = ("c", "b", "a")
RIGHT_421 = ("a", "b", "c")


def _components(g):
    """The graph's components by breadth-first search from each vertex not
    yet reached, left vertices ("L", a) and right vertices ("R", b)."""
    adjacent = {("L", a): set() for a in g.left}
    adjacent.update({("R", b): set() for b in g.right})
    for a, b in g.edges:
        adjacent["L", a].add(("R", b))
        adjacent["R", b].add(("L", a))
    comps, seen = [], set()
    for v in adjacent:
        if v in seen:
            continue
        comp, queue = {v}, [v]
        for u in queue:
            fresh = adjacent[u] - comp
            comp |= fresh
            queue.extend(fresh)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


@pytest.fixture
def lang421(diet421):
    return diet_language(diet421, 8)


def test_graph_of_empty_word(lang421):
    g = extension_graph(lang421, "")
    assert g.left == ("a", "b", "c")
    assert g.right == ("a", "b", "c")
    assert set(g.edges) == {("a", "a"), ("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")}
    assert g.is_bispecial()
    assert g.is_tree()
    assert compatible(g, LEFT_421, RIGHT_421)


def test_graph_of_a(lang421):
    g = extension_graph(lang421, "a")
    assert set(g.edges) == {("a", "c"), ("c", "a"), ("b", "b")}
    assert g.is_forest()
    assert not g.is_tree()
    assert compatible(g, LEFT_421, RIGHT_421)


def test_graph_of_ba(lang421):
    g = extension_graph(lang421, "ba")
    assert g.edges == (("a", "b"),)
    assert not g.is_bispecial()
    assert compatible(g, LEFT_421, RIGHT_421)


def test_diet_language_is_ordered_alsinic(lang421):
    report = classify_language(lang421, LEFT_421, RIGHT_421, max_word_len=6)
    assert report.alsinic
    assert report.ordered_alsinic
    assert report.first_non_forest is None
    assert report.first_incompatible is None


def test_incompatible_pair_detected():
    g = ExtensionGraph("x", ("a", "b"), ("a", "b"), (("a", "b"), ("b", "a")))
    assert g.is_forest()
    assert len(_components(g)) == 2 and not g.is_tree()
    assert not compatible(g, ("a", "b"), ("a", "b"))
    assert compatible(g, ("b", "a"), ("a", "b"))


def test_compatible_rejects_repeated_order_letter():
    g = ExtensionGraph("x", ("a", "b"), ("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(DomainError, match="left order 'aba' repeats a letter"):
        compatible(g, ("a", "b", "a"), ("a", "b"))
    with pytest.raises(DomainError, match="right order 'bab' repeats a letter"):
        compatible(g, ("b", "a"), ("b", "a", "b"))


def test_cycle_is_not_forest():
    g = ExtensionGraph(
        "x",
        ("a", "b"),
        ("a", "b"),
        (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")),
    )
    assert not g.is_forest()
    assert len(_components(g)) == 1


def test_compatible_requires_order_coverage():
    g = ExtensionGraph("x", ("a", "b"), ("a",), (("a", "a"),))
    with pytest.raises(DomainError):
        compatible(g, ("a",), ("a",))


def test_graph_guards(lang421, diet421):
    with pytest.raises(DomainError):
        extension_graph(lang421, "bb")
    shallow = diet_language(diet421, 3)
    with pytest.raises(DomainError):
        extension_graph(shallow, "aa")


def test_components_match_regions_of_e5(e5):
    lang = language(e5, 2)
    g = extension_graph(lang, "")
    comps = _components(g)
    regions = e5.regions()
    assert len(comps) == len(regions)
    by_component = {
        frozenset(b for side, b in comp if side == "R") for comp in comps
    }
    by_region: dict = {}
    for letter in e5.alphabet:
        slot_lo = e5.image_interval(letter)[0]
        idx = next(
            i for i, (rlo, rhi) in enumerate(regions) if rlo <= slot_lo < rhi
        )
        by_region.setdefault(idx, set()).add(letter)
    assert by_component == {frozenset(v) for v in by_region.values()}


def test_shape_matches_components():
    """Every bipartite graph on two and three vertices a side: a forest has
    one more vertex than edges per component, and connected means one
    component."""
    left, right = ("a", "b", "c"), ("x", "y")
    pairs = [(a, b) for a in left for b in right]
    for mask in range(1 << len(pairs)):
        edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        g = ExtensionGraph("w", left, right, edges)
        comps = len(_components(g))
        assert g.is_forest() == (len(left) + len(right) == len(edges) + comps)
        assert g.is_tree() == (g.is_forest() and comps <= 1)


def test_classify_flags_incompatible_word():
    lang = language_of_periodic("aab", 5)
    bad = classify_language(lang, ("a", "b"), ("a", "b"), max_word_len=3)
    assert not bad.ordered_alsinic
    assert bad.first_incompatible == ""
    good = classify_language(lang, ("b", "a"), ("a", "b"), max_word_len=3)
    assert good.ordered_alsinic


def test_classify_rejects_repeated_order_letter():
    lang = language_of_periodic("aab", 5)
    with pytest.raises(DomainError, match="left order 'aba' repeats a letter"):
        classify_language(lang, ("a", "b", "a"), ("a", "b"))
    with pytest.raises(DomainError, match="right order 'bb' repeats a letter"):
        classify_language(lang, ("a", "b"), ("b", "b"))


def test_periodic_report_matches_bwt_for_banana():
    letters = ("a", "b", "n")
    clustered = Perm(letters, ("n", "b", "a"))
    assert is_pi_clustering("banana", clustered)
    assert periodic_report("banana", clustered).ordered_alsinic
    identity = Perm(letters, letters)
    assert not is_pi_clustering("banana", identity)
    assert not periodic_report("banana", identity).ordered_alsinic


def test_periodic_report_equivalence_small_words():
    letters = ("a", "b", "c")
    words = ["ab", "aab", "abc", "aabab", "aacab", "abcabc"[:5]]
    for w in words:
        for row in itertools.permutations(letters):
            p = Perm(letters, row)
            expected = is_pi_clustering(w, p)
            got = periodic_report(w, p).ordered_alsinic
            assert got == expected, (w, row)


# -- the per-factor probes as an oracle for the extension table ----------


def _probed_graph(lang, word):
    """extension_graph as it read the sample: one membership probe per
    letter and per pair of letters."""
    if word not in lang:
        raise DomainError("%r is not in the language" % word)
    if lang.bound < len(word) + 2:
        raise DomainError(
            "language sampled to %d is too shallow for a length-%d factor"
            % (lang.bound, len(word))
        )
    letters = tuple(lang.alphabet)
    left = tuple(a for a in letters if a + word in lang)
    right = tuple(b for b in letters if word + b in lang)
    edges = tuple((a, b) for a in left for b in right if a + word + b in lang)
    return ExtensionGraph(word, left, right, edges)


def _probed_classify(lang, left_order, right_order, max_word_len=None):
    """classify_language with a probed graph and a union-find per factor."""
    _order_index("left", left_order)
    _order_index("right", right_order)
    if max_word_len is not None and max_word_len < 0:
        raise DomainError("factor length must be non-negative, got %d" % max_word_len)
    if lang.bound < 2:
        raise DomainError("language depth %d is below 2, too shallow to classify" % lang.bound)
    if max_word_len is None:
        max_word_len = lang.bound - 2
    if lang.bound < max_word_len + 2:
        raise DomainError(
            "need language depth %d to classify factors up to length %d"
            % (max_word_len + 2, max_word_len)
        )
    first_non_tree = first_non_forest = first_incompatible = None
    checked = 0
    for n in range(max_word_len + 1):
        for w in lang.words_of_length(n):
            g = _probed_graph(lang, w)
            checked += 1
            forest, connected = g._union()
            if first_non_tree is None and not (forest and connected):
                first_non_tree = w
            if g.is_bispecial():
                if first_non_forest is None and not forest:
                    first_non_forest = w
                if first_incompatible is None and not compatible(g, left_order, right_order):
                    first_incompatible = w
    return ClassifyReport(
        left_order=tuple(left_order),
        right_order=tuple(right_order),
        max_word_len=max_word_len,
        words_checked=checked,
        dendric=first_non_tree is None,
        alsinic=first_non_forest is None,
        ordered_alsinic=first_incompatible is None,
        first_non_tree=first_non_tree,
        first_non_forest=first_non_forest,
        first_incompatible=first_incompatible,
    )


def _outcome(f, *args):
    """A call's JSON, or the message of the DomainError it raised."""
    try:
        return f(*args).to_json()
    except DomainError as exc:
        return "DomainError: %s" % exc


def _agree(lang, orders, max_lens=(None,)):
    """Every graph up to the bound, and every report, match the oracle's;
    returns how many reports saw a star that is not a tree."""
    probes = sorted(lang.words) + ["zz", "a" * (lang.bound + 1)]
    for w in probes:
        assert _outcome(extension_graph, lang, w) == _outcome(_probed_graph, lang, w), w
    star_non_trees = 0
    for left, right in orders:
        for m in max_lens:
            got = _outcome(classify_language, lang, left, right, m)
            assert got == _outcome(_probed_classify, lang, left, right, m), (left, right, m)
            if isinstance(got, dict) and got["first_non_tree"] is not None:
                star_non_trees += not extension_graph(lang, got["first_non_tree"]).is_bispecial()
    return star_non_trees


def _reducible_iet(rng, k):
    """A rational map whose row keeps a proper prefix block invariant."""
    letters = "abcde"[:k]
    j = rng.randint(1, k - 1)
    head, tail = list(letters[:j]), list(letters[j:])
    rng.shuffle(head)
    rng.shuffle(tail)
    lengths = {x: make_rational(rng.randint(1, 9), 10) for x in letters}
    return Iet(letters, lengths, "".join(head + tail))


def _order_pairs(rng, letters, row):
    """The row against the base order, two shuffled orders, and a left order
    missing a letter."""
    shuffled = [rng.sample(letters, len(letters)) for _ in range(2)]
    return [(tuple(row), tuple(letters)), tuple(map(tuple, shuffled)),
            (tuple(letters[:-1]), tuple(letters))]


def test_extension_table_matches_probes_on_iet_languages():
    rng = random.Random(25)
    for k in (3, 4, 5):
        for make in (random_rational_iet, random_quadratic_iet, _reducible_iet):
            for _ in range(2):
                t = make(rng, k)
                lang = language(t, 6)
                orders = _order_pairs(rng, t.alphabet.letters, t.perm.images)
                _agree(lang, orders, (None, 0, 2, 5, -1))


def test_extension_table_matches_probes_on_periodic_and_diet_languages(diet421):
    rng = random.Random(26)
    langs = [language_of_periodic(w, 7) for w in ("banana", "aab", "abcacb", "abcd")]
    langs += [diet_language(diet421, 6), diet_language(diet_spec((3, 1, 2), "bca"), 5)]
    for lang in langs:
        letters = lang.alphabet
        _agree(lang, _order_pairs(rng, letters, letters[::-1]), (None, 1, 3))


def test_extension_table_matches_probes_on_samples_not_factor_closed():
    """Random word sets, some with a letter outside the alphabet: the table
    must not read a missing prefix, suffix or letter as an extension."""
    rng = random.Random(27)
    star_non_trees = samples = 0
    while samples < 200:
        letters = tuple("abc"[: rng.randint(2, 3)])
        bound = rng.randint(1, 4)
        spelling = letters + ("z",) * (rng.random() < 0.3)
        keep = rng.uniform(0.3, 0.9)
        words = {
            "".join(p)
            for n in range(bound + 1)
            for p in itertools.product(spelling, repeat=n)
            if rng.random() < keep
        }
        if all(w[1:] in words and w[:-1] in words for w in words if w):
            continue  # factor-closed
        samples += 1
        levels = tuple(tuple(sorted(w for w in words if len(w) == n)) for n in range(bound + 1))
        lang = LanguageSample(letters, bound, levels)
        star_non_trees += _agree(lang, _order_pairs(rng, letters, letters[::-1]), (None, 0, 1))
    assert star_non_trees > 0  # stars that are not trees are decided from counts
