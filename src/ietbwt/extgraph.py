"""Extension graphs of language factors and the orderings that certify
clustering: a factor's graph joins left extensions to right extensions,
and a language is classified by whether every graph is a tree, a forest,
or a forest compatible with a pair of vertex orders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coding import LanguageSample
from .errors import DomainError


@dataclass(frozen=True)
class ExtensionGraph:
    """Bipartite graph of one factor: an edge (a, b) records that the word
    extends to awb inside the language."""

    word: str
    left: tuple
    right: tuple
    edges: tuple

    def is_bispecial(self) -> bool:
        return len(self.left) >= 2 and len(self.right) >= 2

    def _union(self) -> tuple:
        """One union-find: (forest, connected).  An edge that merges two
        components leaves one fewer; any other closes a cycle."""
        parent: dict = {}

        def find(v):
            while v in parent:
                v = parent[v]
            return v

        merges = 0
        for a, b in self.edges:
            ra, rb = find(("L", a)), find(("R", b))
            if ra != rb:
                parent[ra] = rb
                merges += 1
        return merges == len(self.edges), len(self.left) + len(self.right) - merges <= 1

    def is_forest(self) -> bool:
        return self._union()[0]

    def is_tree(self) -> bool:
        return all(self._union())

    def to_json(self) -> dict:
        return {
            "word": self.word,
            "left": list(self.left),
            "right": list(self.right),
            "edges": [list(e) for e in self.edges],
        }


def _extensions(lang: LanguageSample, n: int) -> dict:
    """Each length-n factor's left and right letters in the alphabet, and the pairs
    (a, b) of them with awb in the sample, read once from its words of lengths n+1, n+2."""
    alphabet, table = frozenset(lang.alphabet), {w: ([], [], []) for w in lang.words_of_length(n)}
    for v in lang.words_of_length(n + 1):
        if v[0] in alphabet and (e := table.get(v[1:])):
            e[0].append(v[0])
        if v[-1] in alphabet and (e := table.get(v[:-1])):
            e[1].append(v[-1])
    for u in lang.words_of_length(n + 2):
        if (e := table.get(u[1:-1])) and u[0] in e[0] and u[-1] in e[1]:
            e[2].append((u[0], u[-1]))
    return table


def _graph(letters: tuple, word: str, lefts, rights, pairs) -> ExtensionGraph:
    """A table entry as a graph, its vertices and edges in alphabet order."""
    # tuples from lists, not generators (see coding._sorted_levels)
    left = tuple([a for a in letters if a in lefts])
    right = tuple([b for b in letters if b in rights])
    edges = tuple([(a, b) for a in left for b in right if (a, b) in pairs])
    return ExtensionGraph(word, left, right, edges)


def extension_graph(lang: LanguageSample, word: str) -> ExtensionGraph:
    """The graph of a factor, read off the language sample.  The sample
    must be deep enough to decide every two-sided extension."""
    table = _extensions(lang, len(word))
    if word not in table:
        raise DomainError("%r is not in the language" % word)
    if lang.bound < len(word) + 2:
        raise DomainError(
            "language sampled to %d is too shallow for a length-%d factor"
            % (lang.bound, len(word))
        )
    return _graph(tuple(lang.alphabet), word, *table[word])


def _order_index(side: str, order) -> dict:
    """Each letter's position in an order that must not repeat a letter."""
    index = {x: i for i, x in enumerate(order)}
    if len(index) != len(order):
        raise DomainError("%s order %r repeats a letter" % (side, "".join(order)))
    return index


def compatible(graph: ExtensionGraph, left_order, right_order) -> bool:
    """Whether the edge relation is monotone: strictly increasing left
    vertices never see decreasing right vertices."""
    li = _order_index("left", left_order)
    ri = _order_index("right", right_order)
    for a in graph.left:
        if a not in li:
            raise DomainError("left order misses vertex %r" % a)
    for b in graph.right:
        if b not in ri:
            raise DomainError("right order misses vertex %r" % b)
    for a, b in graph.edges:
        for c, d in graph.edges:
            if li[a] < li[c] and ri[b] > ri[d]:
                return False
    return True


@dataclass
class ClassifyReport:
    left_order: tuple
    right_order: tuple
    max_word_len: int
    words_checked: int
    dendric: bool
    alsinic: bool
    ordered_alsinic: bool
    first_non_tree: Optional[str]
    first_non_forest: Optional[str]
    first_incompatible: Optional[str]

    def to_json(self) -> dict:
        out = dict(vars(self))  # the fields, in order
        out.update(left_order="".join(self.left_order), right_order="".join(self.right_order))
        return out


def classify_language(
    lang: LanguageSample,
    left_order,
    right_order,
    max_word_len: Optional[int] = None,
) -> ClassifyReport:
    """Check every factor up to the length bound, one extension table per
    length.  Graphs of factors that are not bispecial are stars, forests
    compatible with any orders, so only bispecial factors get a graph."""
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
    checked, letters = 0, tuple(lang.alphabet)
    for n in range(max_word_len + 1):
        for w, (lefts, rights, pairs) in _extensions(lang, n).items():
            checked += 1
            if len(lefts) < 2 or len(rights) < 2:  # a star: a tree when |L| + |R| - |E| <= 1
                if first_non_tree is None and len(lefts) + len(rights) - len(pairs) > 1:
                    first_non_tree = w
                continue
            g = _graph(letters, w, lefts, rights, pairs)
            forest, connected = g._union()
            if first_non_tree is None and not (forest and connected):
                first_non_tree = w
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
