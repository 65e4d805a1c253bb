"""Command line front end.

Exit codes: 0 on success, 1 for domain errors (bad input, undefined
operations), 2 when an iteration cap is exhausted, 64 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import accumulate

from . import verify
from .alphabet import Perm
from .coding import (
    cylinders,
    diet_language,
    language,
    language_of_periodic,
    left_return_words,
    right_return_words,
    trajectory,
)
from .errors import CapExceeded, DomainError
from .exact import parse_value
from .extgraph import classify_language, extension_graph
from .iet import Iet, diet_spec, diet_action, diet_lyndon_multiset, diet_to_iet, iet_from_json
from .induction import induce_to_cylinder
from .words import (
    bwt,
    ebwt,
    infer_clustering_permutation,
    is_lyndon,
    is_pi_clustering,
    lyndon_representative,
    parikh,
    primitive_root,
)


# report functions by name, looked up on the verify module when a check runs,
# so a wrapper installed there (as the benchmark's tracer does) is called
_CHECKS = {
    "returns": "verify_return_clustering",
    "symmetric": "verify_perfect_clustering_symmetric",
    "induction": "verify_induction_consistency",
}


class _Parser(argparse.ArgumentParser):
    """Usage problems exit with a dedicated code instead of argparse's 2,
    which this tool reserves for exhausted caps."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, "%s: error: %s\n" % (self.prog, message))


def _parse_diet_spec(text):
    try:
        counts, row = text.split("/")
        composition = tuple(int(p) for p in counts.split(","))
    except ValueError as exc:
        raise DomainError("bad discrete spec %r, expected counts/row" % text) from exc
    return diet_spec(composition, row)


def _load_iet(args) -> Iet:
    if args.diet is not None:
        return diet_to_iet(_parse_diet_spec(args.diet))
    if args.iet is not None:
        try:
            if args.iet == "-":
                raw = sys.stdin.read()
            else:
                with open(args.iet, "r", encoding="utf-8") as fh:
                    raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError("cannot read %s: %s" % (args.iet, exc)) from exc
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DomainError("invalid JSON in %s: %s" % (args.iet, exc)) from exc
        return iet_from_json(obj)
    if args.lengths is None or args.row is None:
        raise DomainError("describe the map with --iet, --diet, or --lengths and --row")
    lengths = {}
    letters = []
    for part in args.lengths.split(","):
        if "=" not in part:
            raise DomainError("bad lengths entry %r" % part)
        letter, value = part.split("=", 1)
        letter = letter.strip()
        letters.append(letter)
        lengths[letter] = parse_value(value)
    origin = parse_value(args.origin) if args.origin is not None else None
    return Iet(letters, lengths, args.row, origin=origin)


def _load_language(args):
    if args.periodic is not None:
        return language_of_periodic(args.periodic, args.depth)
    if args.diet is not None:
        return diet_language(_parse_diet_spec(args.diet), args.depth)
    return language(_load_iet(args), args.depth)


def _iv(interval):
    return [str(interval[0]), str(interval[1])]


def _span(interval) -> str:
    return "[%s, %s)" % tuple(interval)


def _lines(data, *keys):
    """Text lines 'label: value' read from the JSON object.  The label is
    the key with '_' as a space; a list is joined with spaces and a dict
    is written as k=v pairs."""
    out = []
    for key in keys:
        value = data[key]
        if isinstance(value, list):
            value = " ".join(value)
        elif isinstance(value, dict):
            value = " ".join("%s=%s" % kv for kv in value.items())
        out.append("%s: %s" % (key.replace("_", " "), value))
    return out


# -- subcommands ---------------------------------------------------------
# Each handler returns (data, lines): the object --format json prints and
# its text (or dot) rendering.  main is the only writer to stdout.


def cmd_info(args):
    t = _load_iet(args)
    probe = t.keane_probe(args.probe)
    data = {
        "alphabet": str(t.alphabet),
        "permutation": t.perm.one_line(),
        "domain": _iv(t.domain()),
        "lengths": {x: str(t.lengths[x]) for x in t.alphabet},
        "translations": {x: str(t.translation(x)) for x in t.alphabet},
        "discontinuities": [str(v) for v in t.discontinuities()],
        "inverse_discontinuities": [str(v) for v in t.discontinuities_inverse()],
        "zero_connections": [str(v) for v in t.zero_connections()],
        "regions": [_iv(r) for r in t.regions()],
        "invariant_blocks": ["".join(b) for b in t.invariant_blocks()],
        "connection": None
        if probe is None
        else {"start": str(probe.start), "end": str(probe.end), "steps": probe.steps},
    }
    lines = (
        _lines(data, "alphabet", "permutation")
        + ["domain: " + _span(data["domain"])]
        + _lines(data, "lengths", "translations")
        + [
            "zero connections: " + (" ".join(data["zero_connections"]) or "none"),
            "invariant blocks: " + (" ".join(data["invariant_blocks"]) or "none"),
            "connection: "
            + (
                "none found"
                if probe is None
                else "%s -> %s after %d" % (probe.start, probe.end, probe.steps)
            ),
        ]
    )
    return data, lines


def cmd_eval(args):
    t = _load_iet(args)
    x = parse_value(args.point)
    y = t.apply_n(x, args.steps)
    return {"point": str(y)}, [str(y)]


def cmd_orbit(args):
    t = _load_iet(args)
    x = parse_value(args.point)
    word = trajectory(t, x, args.steps)
    # one point per letter; --steps 0 keeps the start
    points = list(accumulate(map(t.translation, word), initial=x))[: max(args.steps, 1)]
    data = {"word": word, "points": [str(p) for p in points]}
    return data, [word] + data["points"]


def cmd_language(args):
    lang = _load_language(args)
    data = {
        str(n): list(lang.words_of_length(n)) for n in range(1, args.depth + 1)
    }
    return data, _lines(data, *data)


def cmd_cylinders(args):
    table = cylinders(_load_iet(args), args.depth)
    data = {w: _iv(level[w]) for level in table.levels[1:] for w in sorted(level)}
    return data, ["%s: %s" % (w, _span(iv)) for w, iv in data.items()]


def cmd_returns(args):
    t = _load_iet(args)
    lang = language(t, args.max_len + len(args.word))
    left, complete = left_return_words(lang, args.word, args.max_len)
    right, _ = right_return_words(lang, args.word, args.max_len)
    data = {
        "word": args.word,
        "left": sorted(left),
        "right": sorted(right),
        "complete": complete,
    }
    return data, _lines(data, "left", "right", "complete")


def cmd_induce(args):
    t = _load_iet(args)
    chain = induce_to_cylinder(t, args.word, max_steps=args.max_steps)
    final = chain.final
    lines = [
        "steps: " + " ".join(chain.kinds() or ("none",)),
        "final: %s / %s on %s"
        % (final.alphabet, final.perm.one_line(), _span(final.domain())),
    ]
    lines += ["return %s -> %s" % (x, chain.morphism(x)) for x in final.alphabet]
    return chain.to_json(), lines


def cmd_bwt(args):
    res = bwt(args.word, args.order)
    data = {
        "input": args.word,
        "order": "".join(res.order),
        "output": res.output,
        "runs": ["%s:%d" % r for r in res.runs],
        "rotations": list(res.rotations),
    }
    return data, [res.output]


def cmd_ebwt(args):
    res = ebwt(args.words, args.order)
    data = {
        "input": list(args.words),
        "order": "".join(res.order),
        "output": res.output,
        "conjugates": list(res.rotations),
    }
    return data, [res.output]


def cmd_cluster(args):
    if args.perm is not None:
        if args.all:
            raise DomainError("--all lists completions of an inferred permutation, not of --perm")
        base = tuple(sorted(set(args.word))) if args.order is None else args.order
        perm = Perm.from_one_line(base, args.perm)
        verdict = is_pi_clustering(args.word, perm)
        data = {
            "word": args.word,
            "permutation": args.perm,
            "clustering": verdict,
        }
        return data, ["clustering" if verdict else "not clustering"]
    res = bwt(args.word, args.order)
    perm = infer_clustering_permutation(args.word, args.order)
    completions = ()
    if args.all and perm is not None:
        completions = infer_clustering_permutation(args.word, args.order, all_completions=True)
    data = {
        "word": args.word,
        "output": res.output,
        "clustering": perm is not None,
        "permutation": None if perm is None else perm.one_line(),
        "completions": [p.one_line() for p in completions],
    }
    keys = ("clustering", "permutation") + (("completions",) if completions else ())
    return data, _lines(data, *keys)


def cmd_lyndon(args):
    word = args.word
    data = {
        "word": word,
        "representative": lyndon_representative(word, args.order),
        "root": primitive_root(word),
        "is_lyndon": is_lyndon(word, args.order),
        "parikh": parikh(word),
    }
    return data, [data["representative"]]


def cmd_diet(args):
    spec = _parse_diet_spec(args.spec)
    mapping, cycles = diet_action(spec)
    data = {
        "word": spec.word(),
        "mapping": list(mapping),
        "cycles": [list(c) for c in cycles],
        "lyndon": list(diet_lyndon_multiset(spec)),
        "parikh": list(spec.composition),
    }
    cycles_line = "cycles: " + " ".join(
        "(%s)" % ",".join(str(i) for i in c) for c in cycles
    )
    return data, _lines(data, "word") + [cycles_line] + _lines(data, "lyndon")


def cmd_extgraph(args):
    g = extension_graph(_load_language(args), args.word)
    data = g.to_json()
    data["bispecial"] = g.is_bispecial()
    data["tree"] = g.is_tree()
    data["forest"] = g.is_forest()
    if args.format == "dot":
        lines = (
            ["graph extensions {"]
            + ['  "L:%s";' % a for a in g.left]
            + ['  "R:%s";' % b for b in g.right]
            + ['  "L:%s" -- "R:%s";' % e for e in g.edges]
            + ["}"]
        )
    else:
        edges = " ".join("%s%s" % e for e in g.edges)
        lines = _lines(data, "left", "right") + ["edges: " + edges]
    return data, lines


def cmd_classify(args):
    lang = _load_language(args)
    report = classify_language(
        lang, tuple(args.left), tuple(args.right), args.max_len
    )
    data = report.to_json()
    lines = _lines(data, "dendric", "alsinic", "ordered_alsinic")
    if report.first_incompatible is not None:
        lines.append("first incompatible: %r" % report.first_incompatible)
    return data, lines


def cmd_verify(args):
    check = getattr(verify, _CHECKS[args.check])
    report = check(_load_iet(args), args.word_len, args.return_len)
    data = report.to_json()
    keys = ("checked", "ok") + (() if report.ok else ("failures",))
    return data, _lines(data, *keys)


_IET_ARGS = (
    ("--iet", dict(metavar="PATH", help="JSON description, - for stdin")),
    ("--lengths", dict(metavar="SPEC", help="comma separated letter=value pairs, "
                       "e.g. a=1/6,b=-1/4+1/4*sqrt(5)")),
    ("--row", dict(metavar="ROW", help="image order, one letter per slot")),
    ("--origin", dict(metavar="VALUE", help="left end of the domain")),
    ("--diet", dict(metavar="SPEC", help="discrete spec as counts/row, e.g. 4,2,1/cba")),
)
_FORMAT = ("--format", dict(choices=("text", "json"), default="text"))
_IET = _IET_ARGS + (_FORMAT,)  # how most subcommands open
_ORDER = ("--order", {})
_PERIODIC = ("--periodic", dict(metavar="WORD"))
_POINT = ("--point", dict(required=True))
_WORD = ("--word", dict(required=True))


def _int(flag, default, help=None):
    return flag, dict(type=int, default=default, help=help)


# Every subcommand: its help line, its handler, and its arguments in the
# order --help lists them.
_COMMANDS = {
    "info": ("geometry and combinatorics of a map", cmd_info,
             _IET + (_int("--probe", 64, "connection search depth"),)),
    "eval": ("apply the map to a point", cmd_eval, _IET + (_POINT, _int("--steps", 1))),
    "orbit": ("coding and points of an orbit", cmd_orbit,
              _IET + (_POINT, _int("--steps", 10))),
    "language": ("factors of the coding language", cmd_language, _IET + (
        ("--periodic", dict(metavar="WORD", help="use the closure of a word")),
        _int("--depth", 4))),
    "cylinders": ("intervals coded by each word", cmd_cylinders,
                  _IET + (_int("--depth", 2),)),
    "returns": ("return words of a factor", cmd_returns,
                _IET + (_WORD, _int("--max-len", 10))),
    "induce": ("induce onto the cylinder of a word", cmd_induce,
               _IET + (_WORD, _int("--max-steps", 200))),
    "bwt": ("transform of a single word", cmd_bwt, (_FORMAT, ("word", {}), _ORDER)),
    "ebwt": ("transform of a multiset of words", cmd_ebwt,
             (_FORMAT, ("words", dict(nargs="+")), _ORDER)),
    "cluster": ("clustering verdict for a word", cmd_cluster, (
        _FORMAT, ("word", {}), _ORDER,
        ("--perm", dict(help="candidate permutation as a one line row")),
        ("--all", dict(action="store_true", help="list all completions")))),
    "lyndon": ("rotation facts about a word", cmd_lyndon, (_FORMAT, ("word", {}), _ORDER)),
    "diet": ("discrete exchange facts", cmd_diet,
             (_FORMAT, ("spec", dict(help="counts/row, e.g. 4,2,1/cba")))),
    "extgraph": ("extension graph of a factor", cmd_extgraph, _IET_ARGS + (
        ("--format", dict(choices=("text", "json", "dot"), default="text")),
        _PERIODIC, _int("--depth", 8), _WORD)),
    "classify": ("tree, forest, and order checks", cmd_classify, _IET + (
        _PERIODIC, _int("--depth", 8),
        ("--left", dict(required=True, help="left vertex order")),
        ("--right", dict(required=True, help="right vertex order")),
        _int("--max-len", None))),
    "verify": ("library-wide consistency reports", cmd_verify, _IET + (
        ("--check", dict(choices=list(_CHECKS), default="returns")),
        _int("--word-len", 2), _int("--return-len", 10))),
}


def _add_arguments(parser, arguments) -> None:
    for flag, kw in arguments:
        parser.add_argument(flag, **kw)


@cache
def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of one subcommand's arguments, or the full parser when
    command is None, built once per process.  A subcommand's parser is the
    one the full parser would add for it: same prog, help and usage errors."""
    if command is not None:
        parser = _Parser(prog="ietbwt " + command)
        _add_arguments(parser, _COMMANDS[command][2])
        return parser
    parser = _Parser(prog="ietbwt", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help, _, arguments) in _COMMANDS.items():
        _add_arguments(subs.add_parser(name, help=help), arguments)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A call whose first argument names a subcommand is parsed by that
    # subcommand's parser alone, and the full parser reports what it does not
    # know.  Any other call (no arguments, --help, an unknown name, an option
    # before the name) gets the full parser, whose help or usage error it prints.
    if argv and argv[0] in _COMMANDS:
        args, unknown = build_parser(argv[0]).parse_known_args(argv[1:])
        if unknown:
            build_parser().error("unrecognized arguments: %s" % " ".join(unknown))
        args.command = argv[0]
    else:
        args = build_parser().parse_args(argv)
    try:
        data, lines = _COMMANDS[args.command][1](args)
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory in %s" % args.command, file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
