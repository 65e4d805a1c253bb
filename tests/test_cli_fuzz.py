"""Seeded CLI fuzzing: random argument lists drawn from pools of good and
bad values must end in exit code 0, 1, 2 or 64, never in a traceback."""

import io
import json
import random

import pytest

from ietbwt.cli import main

SEED = 20261018
CASES = 500

WORDS = ["", "a", "ab", "ba", "c", "aab", "abc", "banana", "zz", "1/0", "-1"]
ROWS = ["ba", "ab", "cba", "a", "", "aa", "xy"]
VALUES = ["0", "1/3", "1/2", "-1", "1/0", "sqrt(5)", "1/3+1/4*sqrt(5)", "", "x", "0.5"]
SMALL_INTS = ["-1", "0", "1", "2", "3", "", "x", "1/0"]
CHEAP_INTS = SMALL_INTS + ["100"]
LENGTHS = [
    "a=1/3,b=2/3",
    "a=-1/2+1/2*sqrt(5),b=3/2-1/2*sqrt(5)",
    "a=1/6,b=1/2,c=1/3",
    "a=1/0,b=1",
    "a=sqrt(5),b=sqrt(2)",
    "a=-1,b=2",
    "a=1,b",
    "a=1,a=2",
    "",
    "=1",
]
DIETS = ["4,2,1/cba", "1,1/ba", "2,3/ab", "1/0", "-1,2/ba", "", "x/ba", "1,2,3/abc"]
ORDERS = ["ab", "ba", "abn", "nab", "", "aa", "cba"]

_GOOD = {"alphabet": "ab", "lengths": {"a": "1/3", "b": "2/3"}, "permutation": "ba"}
JSON_TEXTS = [
    json.dumps(_GOOD),
    json.dumps(dict(_GOOD, origin="1/2")),
    "{",
    "",
    "[1, 2]",
    "null",
    '"ab"',
    '{"alphabet": "ab"}',
    json.dumps(dict(_GOOD, alphabet=5)),
    json.dumps(dict(_GOOD, alphabet=["a", 1])),
    json.dumps(dict(_GOOD, lengths=["1/3", "2/3"])),
    json.dumps(dict(_GOOD, lengths={"a": 0.5, "b": "1/2"})),
    json.dumps(dict(_GOOD, lengths={"a": "1/0", "b": "1"})),
    json.dumps(dict(_GOOD, lengths={"a": "-1", "b": "2"})),
    json.dumps(dict(_GOOD, lengths={"a": {"p": "x"}, "b": "1"})),
    json.dumps(dict(_GOOD, permutation=5)),
    json.dumps(dict(_GOOD, permutation="aa")),
    json.dumps(dict(_GOOD, origin={"p": 1, "d": -3})),
    json.dumps(dict(_GOOD, lengths={"a": {"p": True}, "b": "1"})),
    json.dumps(dict(_GOOD, lengths={"a": {"p": "0.5"}, "b": "1/2"})),
    json.dumps(dict(_GOOD, origin={"p": 0, "q": "1e1", "d": 5})),
    json.dumps(dict(_GOOD, origin={"p": 0, "q": 1, "d": True})),
]
BAD_VALUE_OBJECTS = JSON_TEXTS[-4:]

IET_OPTIONS = {
    "--iet": None,  # filled with paths per test
    "--lengths": LENGTHS,
    "--row": ROWS,
    "--origin": VALUES,
    "--diet": DIETS,
}
FORMATS = ["text", "json", "dot", "xml", ""]

# Each subcommand: positional pools, then its own options and their pools.
COMMANDS = {
    "info": ([], dict(IET_OPTIONS, **{"--probe": CHEAP_INTS})),
    "eval": ([], dict(IET_OPTIONS, **{"--point": VALUES, "--steps": CHEAP_INTS})),
    "orbit": ([], dict(IET_OPTIONS, **{"--point": VALUES, "--steps": CHEAP_INTS})),
    "language": (
        [],
        dict(IET_OPTIONS, **{"--periodic": WORDS, "--depth": SMALL_INTS}),
    ),
    "cylinders": ([], dict(IET_OPTIONS, **{"--depth": SMALL_INTS})),
    "returns": ([], dict(IET_OPTIONS, **{"--word": WORDS, "--max-len": SMALL_INTS})),
    "induce": ([], dict(IET_OPTIONS, **{"--word": WORDS, "--max-steps": CHEAP_INTS})),
    "bwt": ([WORDS], {"--order": ORDERS}),
    "ebwt": ([WORDS, WORDS], {"--order": ORDERS}),
    "cluster": ([WORDS], {"--order": ORDERS, "--perm": ORDERS, "--all": []}),
    "lyndon": ([WORDS], {"--order": ORDERS}),
    "diet": ([DIETS], {}),
    "extgraph": (
        [],
        dict(
            IET_OPTIONS,
            **{"--periodic": WORDS, "--depth": SMALL_INTS, "--word": WORDS},
        ),
    ),
    "classify": (
        [],
        dict(
            IET_OPTIONS,
            **{
                "--periodic": WORDS,
                "--depth": SMALL_INTS,
                "--left": ORDERS,
                "--right": ORDERS,
                "--max-len": SMALL_INTS,
            },
        ),
    ),
    "verify": (
        [],
        dict(
            IET_OPTIONS,
            **{
                "--check": ["returns", "symmetric", "induction", "bogus"],
                "--word-len": SMALL_INTS,
                "--return-len": SMALL_INTS,
            },
        ),
    ),
}


def _argv(rng: random.Random, paths: list) -> list:
    if rng.random() < 0.03:
        return rng.choice([[], ["bogus"], ["--help"], ["bwt", "--help"]])
    command = rng.choice(sorted(COMMANDS))
    positionals, options = COMMANDS[command]
    argv = [command]
    for pool in positionals:
        if rng.random() < 0.95:
            argv.append(rng.choice(pool))
    names = sorted(options) + ["--format"]
    for _ in range(rng.randint(0, 5)):
        name = rng.choice(names)
        if rng.random() < 0.05:
            name = rng.choice(["--depth", "--word", "--bogus", "--iet"])
        if name == "--format":
            argv += [name, rng.choice(FORMATS)]
        elif name == "--iet":
            argv += [name, rng.choice(paths)]
        elif options.get(name) == []:
            argv.append(name)
        else:
            argv += [name, rng.choice(options.get(name) or WORDS)]
    return argv


@pytest.fixture
def json_paths(tmp_path):
    paths = ["-", str(tmp_path / "missing.json"), str(tmp_path)]
    for i, text in enumerate(JSON_TEXTS):
        path = tmp_path / ("map%d.json" % i)
        path.write_text(text)
        paths.append(str(path))
    return paths


def test_random_argument_lists_exit_cleanly(capsys, monkeypatch, json_paths):
    rng = random.Random(SEED)
    codes = {}
    for _ in range(CASES):
        argv = _argv(rng, json_paths)
        monkeypatch.setattr("sys.stdin", io.StringIO(rng.choice(JSON_TEXTS)))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            pytest.fail("%r raised %r" % (argv, exc))
        capsys.readouterr()
        assert code in (0, 1, 2, 64), argv
        codes[code] = codes.get(code, 0) + 1
    # The pools reach success, domain errors and usage errors alike.
    assert codes.get(0, 0) > 50 and codes.get(1, 0) > 50 and codes.get(64, 0) > 50


@pytest.mark.parametrize("text", BAD_VALUE_OBJECTS)
def test_bad_value_objects_exit_1(tmp_path, capsys, text):
    """A bool, a decimal or an exponent inside a value object is refused."""
    path = tmp_path / "map.json"
    path.write_text(text)
    assert main(["info", "--iet", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "refusing" in err
