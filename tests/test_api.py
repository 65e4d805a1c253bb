"""The public names, and the benchmark tracer's hooks into them: the tracer
wraps named functions and methods from outside, so a deleted name breaks
only traced benchmark runs unless these tests catch it."""

import ast
import os

import ietbwt
from ietbwt.coding import cylinders
from ietbwt.iet import Iet

from conftest import fv, make_e5

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_all_names_resolve():
    assert [name for name in ietbwt.__all__ if not hasattr(ietbwt, name)] == []


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracer

    letter_at = Iet.letter_at
    traced = tracer.Tracer()
    try:
        traced.install()
        assert Iet.letter_at is not letter_at
        make_e5().apply(fv(0))
        assert traced.calls["iet.letter_at"] == 1
    finally:
        traced.uninstall()
    assert Iet.letter_at is letter_at
    assert ietbwt.coding.cylinders is cylinders


def test_tracer_sees_every_induction_step(monkeypatch):
    """`induction.step.incl_s` sums the spans of split, right_step and
    left_step; the driver must call them through their module names."""
    monkeypatch.syspath_prepend(BENCH)
    import tracer

    traced = tracer.Tracer()
    try:
        traced.install()
        chain = ietbwt.induce_to_cylinder(make_e5(), "c")
    finally:
        traced.uninstall()
    assert len(chain.records) == 5
    assert traced.calls["induction.split"] == 2
    assert traced.calls["induction.right_step"] + traced.calls["induction.left_step"] == 3


def test_only_iet_reads_the_integer_frame():
    """The frame's pairs and their helpers have one owner: no other module
    imports an underscore name from .exact or .iet, or reads a frame
    attribute."""
    frame = {"_frame", "_cuts", "_image_cuts", "_tau", "_rank", "_widths", "_wide"}
    package = os.path.dirname(ietbwt.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "iet.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module in ("exact", "iet"):
                found += [(name, a.name) for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr in frame:
                found.append((name, node.attr))
    assert found == []
