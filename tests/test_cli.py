"""Command line behavior: outputs, formats, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

import ietbwt
from ietbwt import cli
from ietbwt.cli import build_parser, main

from conftest import BAD_PERMUTATIONS, REPEATED_CYCLES


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


# Help screens and usage errors at 80 columns, recorded with Python 3.11's
# argparse from the CLI that built every subcommand's parser on each call.
CHOICES = (
    "{info,eval,orbit,language,cylinders,returns,induce,bwt,ebwt,cluster,lyndon,diet,"
    "extgraph,classify,verify}"
)
TOP_USAGE = "usage: ietbwt [-h]\n              %s\n              ...\n" % CHOICES
TOP_HELP = (
    TOP_USAGE
    + """
Command line front end. Exit codes: 0 on success, 1 for domain errors (bad
input, undefined operations), 2 when an iteration cap is exhausted, 64 for
usage errors.

positional arguments:
  %s
    info                geometry and combinatorics of a map
    eval                apply the map to a point
    orbit               coding and points of an orbit
    language            factors of the coding language
    cylinders           intervals coded by each word
    returns             return words of a factor
    induce              induce onto the cylinder of a word
    bwt                 transform of a single word
    ebwt                transform of a multiset of words
    cluster             clustering verdict for a word
    lyndon              rotation facts about a word
    diet                discrete exchange facts
    extgraph            extension graph of a factor
    classify            tree, forest, and order checks
    verify              library-wide consistency reports

options:
  -h, --help            show this help message and exit
"""
    % CHOICES
)
IET_OPTIONS_HELP = """\
  --iet PATH            JSON description, - for stdin
  --lengths SPEC        comma separated letter=value pairs, e.g.
                        a=1/6,b=-1/4+1/4*sqrt(5)
  --row ROW             image order, one letter per slot
  --origin VALUE        left end of the domain
  --diet SPEC           discrete spec as counts/row, e.g. 4,2,1/cba
"""
COMMAND_HELP = {
    "info": """usage: ietbwt info [-h] [--iet PATH] [--lengths SPEC] [--row ROW]
                   [--origin VALUE] [--diet SPEC] [--format {text,json}]
                   [--probe PROBE]

options:
  -h, --help            show this help message and exit
"""
    + IET_OPTIONS_HELP
    + """  --format {text,json}
  --probe PROBE         connection search depth
""",
    "eval": """usage: ietbwt eval [-h] [--iet PATH] [--lengths SPEC] [--row ROW]
                   [--origin VALUE] [--diet SPEC] [--format {text,json}]
                   --point POINT [--steps STEPS]

options:
  -h, --help            show this help message and exit
"""
    + IET_OPTIONS_HELP
    + """  --format {text,json}
  --point POINT
  --steps STEPS
""",
    "orbit": """usage: ietbwt orbit [-h] [--iet PATH] [--lengths SPEC] [--row ROW]
                    [--origin VALUE] [--diet SPEC] [--format {text,json}]
                    --point POINT [--steps STEPS]

options:
  -h, --help            show this help message and exit
"""
    + IET_OPTIONS_HELP
    + """  --format {text,json}
  --point POINT
  --steps STEPS
""",
    "language": """usage: ietbwt language [-h] [--iet PATH] [--lengths SPEC] [--row ROW]
                       [--origin VALUE] [--diet SPEC] [--format {text,json}]
                       [--periodic WORD] [--depth DEPTH]

options:
  -h, --help            show this help message and exit
"""
    + IET_OPTIONS_HELP
    + """  --format {text,json}
  --periodic WORD       use the closure of a word
  --depth DEPTH
""",
    "cylinders": """usage: ietbwt cylinders [-h] [--iet PATH] [--lengths SPEC] [--row ROW]
                        [--origin VALUE] [--diet SPEC] [--format {text,json}]
                        [--depth DEPTH]

options:
  -h, --help            show this help message and exit
"""
    + IET_OPTIONS_HELP
    + """  --format {text,json}
  --depth DEPTH
""",
    "returns": """usage: ietbwt returns [-h] [--iet PATH] [--lengths SPEC] [--row ROW]
                      [--origin VALUE] [--diet SPEC] [--format {text,json}]
                      --word WORD [--max-len MAX_LEN]

options:
  -h, --help            show this help message and exit
"""
    + IET_OPTIONS_HELP
    + """  --format {text,json}
  --word WORD
  --max-len MAX_LEN
""",
    "induce": """usage: ietbwt induce [-h] [--iet PATH] [--lengths SPEC] [--row ROW]
                     [--origin VALUE] [--diet SPEC] [--format {text,json}]
                     --word WORD [--max-steps MAX_STEPS]

options:
  -h, --help            show this help message and exit
"""
    + IET_OPTIONS_HELP
    + """  --format {text,json}
  --word WORD
  --max-steps MAX_STEPS
""",
    "bwt": """usage: ietbwt bwt [-h] [--format {text,json}] [--order ORDER] word

positional arguments:
  word

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --order ORDER
""",
    "ebwt": """usage: ietbwt ebwt [-h] [--format {text,json}] [--order ORDER]
                   words [words ...]

positional arguments:
  words

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --order ORDER
""",
    "cluster": """usage: ietbwt cluster [-h] [--format {text,json}] [--order ORDER]
                      [--perm PERM] [--all]
                      word

positional arguments:
  word

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --order ORDER
  --perm PERM           candidate permutation as a one line row
  --all                 list all completions
""",
    "lyndon": """usage: ietbwt lyndon [-h] [--format {text,json}] [--order ORDER] word

positional arguments:
  word

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --order ORDER
""",
    "diet": """usage: ietbwt diet [-h] [--format {text,json}] spec

positional arguments:
  spec                  counts/row, e.g. 4,2,1/cba

options:
  -h, --help            show this help message and exit
  --format {text,json}
""",
    "extgraph": """usage: ietbwt extgraph [-h] [--iet PATH] [--lengths SPEC] [--row ROW]
                       [--origin VALUE] [--diet SPEC]
                       [--format {text,json,dot}] [--periodic WORD]
                       [--depth DEPTH] --word WORD

options:
  -h, --help            show this help message and exit
"""
    + IET_OPTIONS_HELP
    + """  --format {text,json,dot}
  --periodic WORD
  --depth DEPTH
  --word WORD
""",
    "classify": """usage: ietbwt classify [-h] [--iet PATH] [--lengths SPEC] [--row ROW]
                       [--origin VALUE] [--diet SPEC] [--format {text,json}]
                       [--periodic WORD] [--depth DEPTH] --left LEFT --right
                       RIGHT [--max-len MAX_LEN]

options:
  -h, --help            show this help message and exit
"""
    + IET_OPTIONS_HELP
    + """  --format {text,json}
  --periodic WORD
  --depth DEPTH
  --left LEFT           left vertex order
  --right RIGHT         right vertex order
  --max-len MAX_LEN
""",
    "verify": """usage: ietbwt verify [-h] [--iet PATH] [--lengths SPEC] [--row ROW]
                     [--origin VALUE] [--diet SPEC] [--format {text,json}]
                     [--check {returns,symmetric,induction}]
                     [--word-len WORD_LEN] [--return-len RETURN_LEN]

options:
  -h, --help            show this help message and exit
"""
    + IET_OPTIONS_HELP
    + """  --format {text,json}
  --check {returns,symmetric,induction}
  --word-len WORD_LEN
  --return-len RETURN_LEN
""",
}
HELP_CASES = [(["--help"], TOP_HELP), (["-h", "verify"], TOP_HELP)] + [
    ([name, "--help"], text) for name, text in COMMAND_HELP.items()
]


def _usage(command):
    """The usage lines that open a subcommand's help screen."""
    return COMMAND_HELP[command].split("\n\n")[0] + "\n"


INVALID_COMMAND = (
    "ietbwt: error: argument command: invalid choice: %r (choose from 'info', 'eval', "
    "'orbit', 'language', 'cylinders', 'returns', 'induce', 'bwt', 'ebwt', 'cluster', "
    "'lyndon', 'diet', 'extgraph', 'classify', 'verify')\n"
)
UNRECOGNIZED = "ietbwt: error: unrecognized arguments: --bogus\n"
USAGE_ERRORS = [
    ([], TOP_USAGE + "ietbwt: error: the following arguments are required: command\n"),
    (["bogus"], TOP_USAGE + INVALID_COMMAND % "bogus"),
    (["--format", "json"], TOP_USAGE + INVALID_COMMAND % "json"),
    (["--", "bwt", "banana"], TOP_USAGE + INVALID_COMMAND % "--"),
    (
        ["cluster"],
        _usage("cluster") + "ietbwt cluster: error: the following arguments are required: word\n",
    ),
    (["verify"] + RAT2 + ["--bogus"], TOP_USAGE + UNRECOGNIZED),
    (
        ["verify"] + RAT2 + ["--check", "nope"],
        _usage("verify")
        + "ietbwt verify: error: argument --check: invalid choice: 'nope' "
        "(choose from 'returns', 'symmetric', 'induction')\n",
    ),
    # an option ahead of the subcommand name: the subcommand still parses the rest
    (["--bogus", "bwt", "banana"], TOP_USAGE + UNRECOGNIZED),
    (
        ["--bogus", "bwt"],
        _usage("bwt") + "ietbwt bwt: error: the following arguments are required: word\n",
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
    code, out, err = run(capsys, ["cluster", "aab", "--order", "ab", "--perm", "ba", "--all"])
    assert (code, out) == (1, "") and "--all" in err and "--perm" in err


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
    from ietbwt.exact import parse_value
    from ietbwt.iet import Iet

    calls = []
    coding = Iet._coding

    def counted(self, x, n):
        calls.append((x, n))
        return coding(self, x, n)

    monkeypatch.setattr(Iet, "_coding", counted)
    data = run_json(capsys, ["orbit"] + RAT2 + ["--point", "1/7", "--steps", "100"])
    x = parse_value("1/7")
    assert calls == [(x, 100)]
    assert len(data["word"]) == len(data["points"]) == 100
    t, points = Iet("ab", {"a": parse_value("1/3"), "b": parse_value("2/3")}, "ba"), []
    for letter in data["word"]:
        assert t.letter_at(x) == letter
        points.append(str(x))
        x = t.apply(x)
    assert data["points"] == points


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


def test_classify_names_a_bad_depth_or_length(capsys):
    argv = ["classify", "--periodic", "ab", "--left", "ab", "--right", "ab"]
    code, out, err = run(capsys, argv + ["--depth", "1"])
    assert (code, out) == (1, "") and "language depth 1 is below 2" in err
    code, out, err = run(capsys, argv + ["--max-len", "-1"])
    assert (code, out) == (1, "") and "factor length must be non-negative, got -1" in err


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


@pytest.mark.parametrize("argv, expected", HELP_CASES)
def test_help_text(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (0, expected, "")


@pytest.mark.parametrize("argv, expected", USAGE_ERRORS)
def test_usage_error_text(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (64, "", expected)


@pytest.fixture
def built(monkeypatch):
    """The progs of the parsers built from now on, starting from an empty
    parser cache: a subcommand's parser reads "ietbwt <name>"."""
    progs = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    build_parser.cache_clear()
    yield progs
    build_parser.cache_clear()  # no counted parser outlives the test


def test_only_the_named_subcommand_is_built(capsys, built):
    assert run(capsys, ["bwt", "banana"]) == (0, "nnbaaa\n", "")
    assert built == ["ietbwt bwt"]


def test_each_parser_is_built_once(capsys, built):
    for _ in range(2):
        assert run(capsys, ["bwt", "banana"]) == (0, "nnbaaa\n", "")
        assert run(capsys, ["lyndon", "ba"]) == (0, "ab\n", "")
    assert built == ["ietbwt bwt", "ietbwt lyndon"]


def test_unknown_arguments_end_in_the_full_parsers_error(capsys, monkeypatch):
    """A subcommand's parser leaves unknown arguments to the full parser,
    whose usage line and error are printed as if it had parsed the call."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["verify"] + RAT2 + ["--bogus"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (64, "", TOP_USAGE + UNRECOGNIZED)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert (exc.value.code, *capsys.readouterr()) == (64, "", TOP_USAGE + UNRECOGNIZED)


# each size-bearing command and the library call it makes
OUT_OF_MEMORY = [
    (["diet", "4,2,1/cba"], "diet_action"),
    (["orbit"] + RAT2 + ["--point", "0"], "trajectory"),
    (["language", "--periodic", "ab"], "language_of_periodic"),
    (["cylinders"] + RAT2, "cylinders"),
    (["bwt", "banana"], "bwt"),
    (["ebwt", "ab", "b"], "ebwt"),
]


@pytest.mark.parametrize("argv, call", OUT_OF_MEMORY)
def test_out_of_memory_exits_1(capsys, monkeypatch, argv, call):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, call, exhausted)
    assert run(capsys, argv) == (1, "", "error: out of memory in %s\n" % argv[0])


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["ietbwt", "bwt", "banana"])
    assert run(capsys, None) == (0, "nnbaaa\n", "")


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
    for return_len in ("0", "-3"):
        code, out, err = run(capsys, ["verify"] + RAT2 + ["--return-len", return_len])
        assert (code, out) == (1, "") and "return length must be at least 1" in err
    argv = ["classify"] + RAT2 + ["--left", "aba", "--right", "ab"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "") and "left order 'aba' repeats a letter" in err
    code, out, err = run(capsys, ["info", "--diet", ",".join("1" * 27) + "/" + "a" * 27])
    assert (code, out) == (1, "") and "need 1 <= k <= 26, got 27" in err
    for point in ("3*", "1/2*"):
        code, out, err = run(capsys, ["eval"] + RAT2 + ["--point", point])
        assert (code, out) == (1, "") and "cannot parse term %r" % point in err
    spec = ["--diet", "99999999999999999999/a"]
    for argv in (["diet", spec[1]], ["language", *spec], ["extgraph", *spec, "--word", "a"],
                 ["classify", *spec, "--left", "a", "--right", "a"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "") and "discrete size 99999999999999999999" in err, argv
    depth = ["--depth", "99999999999999999999"]
    for argv in (["language", "--periodic", "ab", *depth],
                 ["extgraph", "--periodic", "ab", *depth, "--word", "a"],
                 ["classify", "--periodic", "ab", *depth, "--left", "ab", "--right", "ab"],
                 ["language", "--diet", "2,1/ba", *depth]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "") and "periodic text of 1000000000000000000" in err, argv
    code, out, err = run(capsys, ["cylinders"] + RAT2 + ["--depth", "-1"])
    assert (code, out) == (1, "") and "depth must be non-negative" in err
    abc = {"alphabet": "abc", "lengths": {"a": "1/3", "b": "1/3", "c": "1/3"}}
    for i, perm in enumerate(REPEATED_CYCLES):
        path = tmp_path / ("cycles_%d.json" % i)
        path.write_text(json.dumps(dict(abc, permutation=perm)))
        code, out, err = run(capsys, ["info", "--iet", str(path)])
        assert (code, out) == (1, "") and "appears twice" in err


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


def test_induction_cap_names_the_factor(capsys):
    """The step cap on a map whose factor dbd needs more than 200 steps
    still exits 2, and the message names the factor, the steps it took by
    kind and the domain it reached."""
    lengths = "a=-2/3+1/2*sqrt(5),b=3/2-1/4*sqrt(5),c=7/6,d=1/6+1/2*sqrt(5)"
    argv = ["verify", "--lengths", lengths, "--row", "dabc", "--origin", "5/6-1/4*sqrt(5)",
            "--check", "induction", "--word-len", "3"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    prefix = "cap exceeded: induction did not reach the cylinder within 200 steps; "
    assert err.startswith(prefix) and err.endswith(")\n"), err
    word, kinds, domain = err[len(prefix) : -1].split("; ")
    assert word == "word 'dbd'"
    counts = dict(item.split(" ") for item in kinds[len("steps by kind: ") :].split(", "))
    assert kinds.startswith("steps by kind: ") and sum(map(int, counts.values())) == 200
    assert set(counts) <= {side + "_" + k for side in ("left", "right")
                           for k in ("top", "bottom", "merge")} | {"split"}
    assert domain == "domain reached [-377/6 + 119/4*sqrt(5), 3 + 1/2*sqrt(5))"


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
    for argv in (["cluster", "abc", "--order", ""], ["cluster", "abc", "--perm", ""]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "") and err.startswith("error: "), argv
