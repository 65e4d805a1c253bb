"""Extension graphs, orders, and the clustering criterion they encode."""

import itertools

import pytest

from ietbwt.alphabet import Perm
from ietbwt.coding import diet_language, language, language_of_periodic
from ietbwt.errors import DomainError
from ietbwt.extgraph import (
    ExtensionGraph,
    classify_language,
    compatible,
    extension_graph,
)
from ietbwt.words import is_pi_clustering

from conftest import periodic_report


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
