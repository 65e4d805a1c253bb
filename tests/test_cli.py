"""Command line behavior: outputs, formats, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

import ietbwt
from ietbwt.cli import main

from conftest import BAD_PERMUTATIONS


RAT2 = ["--lengths", "a=1/3,b=2/3", "--row", "ba"]
E5 = [
    "--lengths",
    "a=1/6,b=-1/4+1/4*sqrt(5),c=3/4-1/4*sqrt(5),d=1/6,e=1/6",
    "--row",
    "ecbda",
]
BANANA = ["--periodic", "banana"]

# Exact text output of every subcommand; the README examples come first.
GOLDEN_TEXT = [
    (
        ["info", "--diet", "4,2,1/cba"],
        """alphabet: abc
permutation: cba
domain: [0, 7)
lengths: a=4 b=2 c=1
translations: a=3 b=-3 c=-6
zero connections: none
invariant blocks: none
connection: 1 -> 4 after 1
""",
    ),
    (
        ["returns"] + E5 + ["--word", "b", "--max-len", "12"],
        "left: b bc\nright: b cb\ncomplete: True\n",
    ),
    (
        ["induce"] + E5 + ["--word", "c"],
        """steps: right_merge split split left_top left_bottom
final: bc / cb on [-1/12 + 1/4*sqrt(5), 2/3)
return b -> cbb
return c -> cb
""",
    ),
    (
        ["verify"] + E5 + ["--check", "returns", "--word-len", "2", "--return-len", "10"],
        "checked: 11\nok: True\n",
    ),
    (
        ["classify"] + BANANA + ["--depth", "8", "--left", "nba", "--right", "abn"],
        "dendric: False\nalsinic: True\nordered alsinic: True\n",
    ),
    (
        ["classify"] + BANANA + ["--depth", "8", "--left", "abn", "--right", "abn"],
        "dendric: False\nalsinic: True\nordered alsinic: False\n"
        "first incompatible: ''\n",
    ),
    (
        ["info"] + E5,
        """alphabet: abcde
permutation: ecbda
domain: [0, 1)
lengths: a=1/6 b=-1/4 + 1/4*sqrt(5) c=3/4 - 1/4*sqrt(5) d=1/6 e=1/6
translations: a=5/6 b=3/4 - 1/4*sqrt(5) c=1/4 - 1/4*sqrt(5) d=0 e=-5/6
zero connections: 1/6 2/3 5/6
invariant blocks: bc bcd d
connection: 1/6 -> 1/6 after 0
""",
    ),
    (
        ["language"] + E5 + ["--depth", "3"],
        "1: a b c d e\n2: ae bb bc cb dd ea\n3: aea bbc bcb cbb cbc ddd eae\n",
    ),
    (
        ["language"] + BANANA + ["--depth", "4"],
        "1: a b n\n2: ab an ba na\n3: aba ana ban nab nan\n"
        "4: aban anab anan bana naba nana\n",
    ),
    (
        ["diet", "4,2,1/cba"],
        "word: aaaabbc\ncycles: (1,4,7) (2,5) (3,6)\nlyndon: aac ab ab\n",
    ),
    (["orbit"] + RAT2 + ["--point", "0", "--steps", "3"], "abb\n0\n2/3\n1/3\n"),
    (
        ["cluster", "banana", "--all"],
        "clustering: True\npermutation: nba\ncompletions: nba\n",
    ),
    (["cluster", "abca"], "clustering: True\npermutation: cab\n"),
    (["ebwt", "aac", "ab", "ab"], "cbbaaaa\n"),
    (["lyndon", "banana"], "abanan\n"),
    (
        ["extgraph"] + BANANA + ["--word", "a"],
        "left: b n\nright: b n\nedges: bn nb nn\n",
    ),
    (
        ["extgraph"] + BANANA + ["--word", "a", "--format", "dot"],
        """graph extensions {
  "L:b";
  "L:n";
  "R:b";
  "R:n";
  "L:b" -- "R:n";
  "L:n" -- "R:b";
  "L:n" -- "R:n";
}
""",
    ),
]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def e5_path(tmp_path, e5):
    path = tmp_path / "e5.json"
    path.write_text(json.dumps(e5.to_json()))
    return str(path)


def test_bwt_text(capsys):
    code, out, _ = run(capsys, ["bwt", "banana"])
    assert code == 0
    assert out.strip() == "nnbaaa"


def test_bwt_json_with_order(capsys):
    data = run_json(capsys, ["bwt", "banana", "--order", "nab"])
    assert data["output"] == "aabnna"
    assert data["order"] == "nab"


def test_ebwt_chain(capsys):
    data = run_json(capsys, ["ebwt", "aac", "ab", "ab"])
    assert data["output"] == "cbbaaaa"
    assert data["conjugates"] == ["aac", "ab", "ab", "aca", "ba", "ba", "caa"]


def test_cluster_infer(capsys):
    data = run_json(capsys, ["cluster", "banana"])
    assert data["clustering"] is True
    assert data["permutation"] == "nba"


def test_cluster_with_candidate(capsys):
    code, out, _ = run(capsys, ["cluster", "banana", "--order", "abn", "--perm", "nba"])
    assert code == 0
    assert out.strip() == "clustering"
    code, out, _ = run(capsys, ["cluster", "banana", "--order", "abn", "--perm", "abn"])
    assert code == 0
    assert out.strip() == "not clustering"


def test_lyndon(capsys):
    data = run_json(capsys, ["lyndon", "banana"])
    assert data["representative"] == "abanan"
    assert data["root"] == "banana"
    assert data["is_lyndon"] is False
    assert data["parikh"] == {"a": 3, "b": 1, "n": 2}


def test_diet(capsys):
    data = run_json(capsys, ["diet", "4,2,1/cba"])
    assert data["word"] == "aaaabbc"
    assert data["mapping"] == [4, 5, 6, 7, 2, 3, 1]
    assert data["cycles"] == [[1, 4, 7], [2, 5], [3, 6]]
    assert data["lyndon"] == ["aac", "ab", "ab"]
    assert data["parikh"] == [4, 2, 1]


def test_info_inline(capsys):
    data = run_json(capsys, ["info"] + RAT2)
    assert data["permutation"] == "ba"
    assert data["domain"] == ["0", "1"]
    assert data["translations"] == {"a": "2/3", "b": "-1/3"}


def test_info_e5_file(capsys, e5_path):
    data = run_json(capsys, ["info", "--iet", e5_path])
    assert data["permutation"] == "ecbda"
    assert data["zero_connections"] == ["1/6", "2/3", "5/6"]
    assert data["invariant_blocks"] == ["bc", "bcd", "d"]
    assert data["connection"] == {"start": "1/6", "end": "1/6", "steps": 0}


def test_eval(capsys):
    code, out, _ = run(capsys, ["eval"] + RAT2 + ["--point", "0", "--steps", "2"])
    assert code == 0
    assert out.strip() == "1/3"


def test_orbit(capsys):
    data = run_json(capsys, ["orbit"] + RAT2 + ["--point", "0", "--steps", "3"])
    assert data["word"] == "abb"
    assert data["points"] == ["0", "2/3", "1/3"]


def test_orbit_walks_once(capsys, monkeypatch):
    from ietbwt.iet import Iet

    calls = []
    letter_at = Iet.letter_at

    def counted(self, x):
        calls.append(x)
        return letter_at(self, x)

    monkeypatch.setattr(Iet, "letter_at", counted)
    data = run_json(capsys, ["orbit"] + RAT2 + ["--point", "1/7", "--steps", "100"])
    assert len(calls) == 100
    assert len(data["word"]) == len(data["points"]) == 100
    assert data["points"] == [str(x) for x in calls]


def test_language_periodic(capsys):
    data = run_json(capsys, ["language", "--periodic", "ab", "--depth", "3"])
    assert data["2"] == ["ab", "ba"]
    assert data["3"] == ["aba", "bab"]


def test_cylinders(capsys):
    data = run_json(capsys, ["cylinders"] + RAT2 + ["--depth", "1"])
    assert data == {"a": ["0", "1/3"], "b": ["1/3", "1"]}


def test_returns(capsys, e5_path):
    data = run_json(
        capsys, ["returns", "--iet", e5_path, "--word", "b", "--max-len", "4"]
    )
    assert data["left"] == ["b", "bc"]
    assert data["right"] == ["b", "cb"]
    assert data["complete"] is True


def test_induce(capsys, e5_path):
    data = run_json(capsys, ["induce", "--iet", e5_path, "--word", "c"])
    kinds = [s["kind"] for s in data["steps"]]
    assert kinds == ["right_merge", "split", "split", "left_top", "left_bottom"]
    assert data["morphism"]["rules"] == {"b": "cbb", "c": "cb"}


def test_extgraph_dot(capsys):
    code, out, _ = run(
        capsys,
        ["extgraph", "--diet", "4,2,1/cba", "--depth", "6", "--word", "ba", "--format", "dot"],
    )
    assert code == 0
    assert '"L:a" -- "R:b";' in out


def test_classify_periodic(capsys):
    data = run_json(
        capsys,
        [
            "classify",
            "--periodic",
            "banana",
            "--depth",
            "8",
            "--left",
            "nba",
            "--right",
            "abn",
        ],
    )
    assert data["ordered_alsinic"] is True
    data = run_json(
        capsys,
        [
            "classify",
            "--periodic",
            "banana",
            "--depth",
            "8",
            "--left",
            "abn",
            "--right",
            "abn",
        ],
    )
    assert data["ordered_alsinic"] is False


def test_verify_diet(capsys):
    data = run_json(
        capsys,
        [
            "verify",
            "--diet",
            "4,2,1/cba",
            "--check",
            "returns",
            "--word-len",
            "2",
            "--return-len",
            "6",
        ],
    )
    assert data["ok"] is True
    assert data["failures"] == []


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["cluster"])
    assert exc.value.code == 64


def test_domain_error_exits_1(capsys):
    code, _, err = run(capsys, ["bwt", "banana", "--order", "ab"])
    assert code == 1
    assert "error" in err
    for source in (["--periodic", "ab"], ["--diet", "4,2,1/cba"]):
        code, out, err = run(capsys, ["language"] + source + ["--depth", "-1"])
        assert (code, out) == (1, "")
        assert "depth must be non-negative" in err


def test_bad_inputs_exit_1(capsys, tmp_path):
    code, out, err = run(capsys, ["lyndon", ""])
    assert (code, out) == (1, "") and "empty word" in err
    bad_fields = [
        ("lengths", ["1/3", "2/3"], "lengths must be an object"),
        ("alphabet", 5, "alphabet must be a string or a list"),
        ("alphabet", "", "alphabet must be non-empty"),
    ]
    bad_fields += [("permutation", p, "cannot read permutation from") for p in BAD_PERMUTATIONS]
    for i, (field, value, message) in enumerate(bad_fields):
        obj = {"alphabet": "ab", "lengths": {"a": "1/3", "b": "2/3"}, "permutation": "ba"}
        obj[field] = value
        path = tmp_path / ("bad_%d.json" % i)
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, ["info", "--iet", str(path)])
        assert (code, out) == (1, "") and message in err
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"alphabet": "\xe9b"}')
    code, out, err = run(capsys, ["info", "--iet", str(path)])
    assert (code, out) == (1, "") and "cannot read" in err and "utf-8" in err
    for word_len in ("0", "-1"):
        code, out, err = run(capsys, ["verify"] + RAT2 + ["--word-len", word_len])
        assert (code, out) == (1, "") and "word length must be at least 1" in err
    code, out, err = run(capsys, ["info", "--diet", ",".join("1" * 27) + "/" + "a" * 27])
    assert (code, out) == (1, "") and "need 1 <= k <= 26, got 27" in err
    code, out, err = run(capsys, ["cylinders"] + RAT2 + ["--depth", "-1"])
    assert (code, out) == (1, "") and "depth must be non-negative" in err


def test_zero_denominator_exits_1(capsys):
    code, _, err = run(capsys, ["info", "--lengths", "a=1/0,b=1", "--row", "ba"])
    assert code == 1
    assert err.startswith("error:")


def test_missing_iet_exits_1(capsys):
    code, _, err = run(capsys, ["info"])
    assert code == 1
    assert "describe the map" in err


def test_cap_exceeded_exits_2(capsys, e5_path):
    code, _, err = run(
        capsys, ["induce", "--iet", e5_path, "--word", "c", "--max-steps", "1"]
    )
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("argv, expected", GOLDEN_TEXT)
def test_golden_text(capsys, argv, expected):
    assert run(capsys, argv) == (0, expected, "")


def test_cylinders_text_is_level_by_level():
    """Words are listed by length, then as language() sorts them, whatever
    the hash seed."""
    src = os.path.dirname(os.path.dirname(ietbwt.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    argv = [sys.executable, "-m", "ietbwt.cli", "cylinders"] + RAT2 + ["--depth", "2"]
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        out = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.splitlines() == [
            "a: [0, 1/3)",
            "b: [1/3, 1)",
            "ab: [0, 1/3)",
            "ba: [1/3, 2/3)",
            "bb: [2/3, 1)",
        ]


def test_negative_search_bounds_exit_1(capsys):
    code, out, err = run(capsys, ["induce"] + RAT2 + ["--word", "a", "--max-steps", "-1"])
    assert (code, out) == (1, "") and "step cap must be non-negative" in err
    code, out, err = run(capsys, ["info"] + RAT2 + ["--probe", "-1"])
    assert (code, out) == (1, "") and "search depth must be non-negative" in err


def test_empty_option_values_are_not_ignored(capsys):
    code, out, err = run(capsys, ["info"] + RAT2 + ["--origin", ""])
    assert (code, out, err) == (1, "", "error: empty value\n")
    for cmd in (["language"], ["extgraph", "--word", "a"]):
        code, out, err = run(capsys, cmd + ["--periodic", ""])
        assert (code, out, err) == (1, "", "error: empty word\n")
