"""Command-line interface.

Rule files are line-oriented: each nonblank line is either a comment
starting with ``#`` or a rule ``attrs -> attrs`` whose sides are
whitespace-separated tokens of letters, digits, and underscores.  Either
side may be empty.  The attribute universe is ordered by first appearance
in the input, and every rational in the output is printed exactly as
``p/q``; the only float ever emitted is the explicitly approximate
midpoint of a critical-threshold bracket.

Exit codes: 0 holds / true / success, 1 does not hold / false,
2 usage or parse error, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import functools
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from .entailment import (
    EntailmentQuery,
    EntailmentVerdict,
    Method,
    decide,
    prune as prune_rules,
)
from .homogeneity import ImplicationSet, enforces_homogeneity
from .model import (
    AttrSet,
    AttributeCapError,
    AttributeUniverse,
    Dataset,
    PartialImplication,
    _Frozen,
)
from .threshold import critical_threshold

# ``argparse`` and ``json`` are imported where a command first needs them,
# and rule files are read with the builtin ``open``, so that a library
# caller's ``import pientail`` loads none of ``argparse``, ``json`` or
# ``pathlib``.
if TYPE_CHECKING:
    import argparse

_TOKEN = re.compile(r"[A-Za-z0-9_]+\Z")
# What ``_scan_attrs`` and ``scan_rule`` accept, checked in one match: ``\s``
# is exactly the whitespace ``str.split`` splits on.
_ATTRS = re.compile(r"[A-Za-z0-9_\s]*")
_RULE = re.compile(r"[A-Za-z0-9_\s]*->[A-Za-z0-9_\s]*")


class RuleParseError(ValueError):
    """A malformed rule line, carrying its line number when known."""


class ParsedRule(_Frozen):
    """A rule as raw token lists, before any universe exists."""

    _fields = ("lhs", "rhs")

    def __init__(self, lhs: tuple[str, ...], rhs: tuple[str, ...]) -> None:
        self.__dict__.update(lhs=lhs, rhs=rhs)


def _scan_attrs(text: str, line_no: int | None = None) -> tuple[str, ...]:
    where = f" on line {line_no}" if line_no is not None else ""
    tokens = text.split()
    for token in tokens:
        if not _TOKEN.match(token):
            raise RuleParseError(f"invalid attribute token {token!r}{where}")
    return tuple(tokens)


def scan_rule(text: str, line_no: int | None = None) -> ParsedRule:
    """Parse one ``attrs -> attrs`` rule into raw tokens."""
    where = f" on line {line_no}" if line_no is not None else ""
    parts = text.split("->")
    if len(parts) != 2:
        raise RuleParseError(f"expected exactly one '->'{where}: {text.strip()!r}")
    return ParsedRule(
        lhs=_scan_attrs(parts[0], line_no), rhs=_scan_attrs(parts[1], line_no)
    )


def _rule_set(text: str, *extra: str) -> tuple[ImplicationSet, list[int]]:
    """Parse a rule file into an implication set over the universe of its
    tokens followed by those of the ``extra`` groups (whitespace-separated
    tokens, already checked), and the bitmask of each extra group.

    One pass: ``_RULE`` checks each rule line whole (``scan_rule`` runs only
    to raise a bad line's error), and each token takes the next bit
    position on its first appearance."""
    groups: list[str] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and line[0] != "#":
            if not _RULE.fullmatch(line):
                scan_rule(line, line_no)  # raises the line's error
            groups += line.split("->")
    positions: dict[str, int] = {}
    masks = []
    for group in (*groups, *extra):
        bits = 0
        for token in group.split():
            bits |= 1 << positions.setdefault(token, len(positions))
        masks.append(bits)
    universe = AttributeUniverse(tuple(positions))
    sides = [AttrSet(universe, bits) for bits in masks[: len(groups)]]
    rules = tuple(map(PartialImplication, sides[::2], sides[1::2]))
    return ImplicationSet(universe, rules), masks[len(groups) :]


def parse_rules(text: str) -> ImplicationSet:
    """Parse a rule file into an implication set over its own universe."""
    return _rule_set(text)[0]


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise RuleParseError(f"cannot parse {text!r} as a rational") from exc


def parse_gamma(text: str) -> Fraction:
    """Parse a threshold given as ``p/q`` or as an exact decimal literal."""
    value = _rational(text)
    if not 0 <= value <= 1:
        raise RuleParseError(f"gamma must lie in [0, 1], got {text}")
    return value


def _parse_tolerance(text: str) -> Fraction:
    value = _rational(text)
    if value <= 0:
        raise RuleParseError("tolerance must be positive")
    return value


def _frac(value: Fraction) -> str:
    return "%d/%d" % value.as_integer_ratio()


def _dataset_map(dataset: Dataset | None) -> dict[str, int] | None:
    if dataset is None:
        return None
    return {str(transaction): count for transaction, count in dataset.items()}


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _print_json(payload: dict, indent: int | None = 2) -> None:
    import json

    print(json.dumps(payload, indent=indent))


def _print_dataset(dataset: Dataset) -> None:
    for transaction, count in dataset.items():
        label = str(transaction) if transaction else "(empty transaction)"
        print(f"  {label}  x{count}")


def _load_query(args: argparse.Namespace) -> EntailmentQuery:
    text = _read(args.premises)
    if not _RULE.fullmatch(args.conclusion):
        scan_rule(args.conclusion)  # raises the conclusion's error
    premises, (lhs, rhs) = _rule_set(text, *args.conclusion.split("->"))
    universe = premises.universe
    conclusion = PartialImplication(AttrSet(universe, lhs), AttrSet(universe, rhs))
    return EntailmentQuery(premises, conclusion, parse_gamma(args.gamma))


def _emit_verdict(verdict: EntailmentVerdict, gamma: Fraction, as_json: bool) -> int:
    cert = verdict.certificate
    lams = None if cert is None else [_frac(m) for m in cert]
    if as_json:
        payload = {
            "holds": verdict.holds,
            "regime": verdict.regime.value,
            "gamma": _frac(gamma),
            "lambda": lams,
            "counterexample": _dataset_map(verdict.counterexample),
        }
        _print_json(payload)
    elif verdict.holds:
        print(f"entailment holds at gamma {_frac(gamma)} (regime: {verdict.regime.value})")
        if lams is not None:
            print("certificate multipliers:", " ".join(lams))
    else:
        print(
            f"entailment does not hold at gamma {_frac(gamma)} "
            f"(regime: {verdict.regime.value})"
        )
        if verdict.counterexample is not None:
            print("counterexample dataset:")
            _print_dataset(verdict.counterexample)
    return 0 if verdict.holds else 1


def _cmd_entail(args: argparse.Namespace) -> int:
    query = _load_query(args)
    verdict = decide(query, Method(args.method))
    return _emit_verdict(verdict, query.gamma, args.json)


def _cmd_counterexample(args: argparse.Namespace) -> int:
    query = _load_query(args)
    verdict = decide(query, Method.AUTO)
    if args.json:
        payload = {
            "holds": verdict.holds,
            "regime": verdict.regime.value,
            "counterexample": _dataset_map(verdict.counterexample),
        }
        _print_json(payload)
    elif verdict.holds:
        print("no counterexample: the entailment holds")
    else:
        print("counterexample dataset:")
        _print_dataset(verdict.counterexample)
    # Success for this command means a counterexample was produced.
    return 1 if verdict.holds else 0


def _cmd_gamma_star(args: argparse.Namespace) -> int:
    text = _read(args.premises)
    if not _ATTRS.fullmatch(args.antecedent):
        _scan_attrs(args.antecedent)  # raises the bad token's error
    premises, (bits,) = _rule_set(text, args.antecedent)
    antecedent = AttrSet(premises.universe, bits)
    bracket = critical_threshold(premises, antecedent, _parse_tolerance(args.tol))
    (a, b), (c, d) = bracket.lower.as_integer_ratio(), bracket.upper.as_integer_ratio()
    # float(bracket.midpoint) without Fraction arithmetic: the same value in
    # one correctly rounded integer division
    midpoint = (a * d + c * b) / (2 * b * d)
    lo, up, lams = f"{a}/{b}", f"{c}/{d}", [_frac(m) for m in bracket.multipliers]
    if args.json:
        # the text of json.dumps(payload, indent=2): every string is a ratio
        # of digits, and a bracket has at least one multiplier
        lam = ",\n    ".join([f'"{m}"' for m in lams])
        print(
            f'{{\n  "gamma_star_lower": "{lo}",\n  "gamma_star_upper": "{up}",\n'
            f'  "tolerance": "{_frac(bracket.tolerance)}",\n'
            f'  "gamma_star_midpoint_approx": {midpoint!r},\n'
            f'  "lambda": [\n    {lam}\n  ]\n}}'
        )
    else:
        print(f"critical threshold within [{lo}, {up}] (~{midpoint:.6f})")
        print("multipliers at upper bound:", " ".join(lams))
    return 0


def _cmd_nice(args: argparse.Namespace) -> int:
    rules = parse_rules(_read(args.premises))
    nice = enforces_homogeneity(rules)
    if args.json:
        _print_json({"nice": nice}, indent=None)
    else:
        print("enforces homogeneity" if nice else "does not enforce homogeneity")
    return 0 if nice else 1


def _cmd_prune(args: argparse.Namespace) -> int:
    rules = parse_rules(_read(args.rules))
    kept = prune_rules(rules, parse_gamma(args.gamma))
    dropped = len(rules) - len(kept)
    if args.json:
        _print_json({"kept": [str(rule) for rule in kept], "dropped": dropped})
    else:
        for rule in kept:
            print(rule)
        if dropped:
            print(f"# dropped {dropped} redundant rule(s)", file=sys.stderr)
    return 0


_REQUIRED = {"required": True}
# Each command's help, handler and options, with the keywords of their
# ``add_argument``; every command also takes the flag ``--json``.
_COMMANDS = {
    "entail": ("decide whether premises entail a conclusion", _cmd_entail, {
        "--gamma": {**_REQUIRED, "help": "confidence threshold, e.g. 1/2 or 0.57"},
        "--premises": {**_REQUIRED, "help": "rule file with the premises"},
        "--conclusion": {**_REQUIRED, "help": "conclusion rule, e.g. 'A C -> B'"},
        "--method": {"choices": [m.value for m in Method], "default": Method.AUTO.value,
                     "help": "decision route (default: auto)"},
    }),
    "counterexample": ("produce a dataset refuting an entailment", _cmd_counterexample,
                       dict.fromkeys(["--gamma", "--premises", "--conclusion"], _REQUIRED)),
    "gamma-star": (
        "bracket the critical threshold of premises vs an antecedent", _cmd_gamma_star, {
            "--premises": _REQUIRED,
            "--antecedent": {**_REQUIRED, "help": "attribute list, e.g. 'B C D H'"},
            "--tol": {"default": "1/100000", "help": "bracket width (default 1/100000)"},
        },
    ),
    "nice": ("check whether a rule set enforces homogeneity", _cmd_nice,
             {"--premises": _REQUIRED}),
    "prune": ("drop rules entailed by the remaining ones", _cmd_prune,
              {"--gamma": _REQUIRED, "--rules": {**_REQUIRED, "help": "rule file to prune"}}),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: one subparser per command of ``_COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pientail",
        description=(
            "Exact entailment, redundancy, and critical thresholds for "
            "partial implications (association rules) at a confidence threshold."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option, keywords in options.items():
            command.add_argument(option, **keywords)
        command.add_argument("--json", action="store_true", help="emit a JSON object")
        command.set_defaults(handler=handler)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The attributes the full parser gives ``argv``, read from
    ``_COMMANDS`` without argparse when ``argv`` is a command followed only
    by its options' full names, ``--json`` alone and every other option
    with one value that does not start with ``-`` and is among its choices,
    with every required option given (an option's destination is its name
    without the dashes); None for any other ``argv``."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    values = {"json": False, **{o[2:]: kw.get("default") for o, kw in options.items()}}
    missing = {o for o, kw in options.items() if kw.get("required")}
    words = iter(argv[1:])
    for option in words:
        if option == "--json":
            values["json"] = True
            continue
        value, keywords = next(words, "-"), options.get(option)
        if keywords is None or value.startswith("-"):
            return None
        if value not in keywords.get("choices", [value]):
            return None
        values[option[2:]] = value
        missing.discard(option)
    if missing:
        return None
    return SimpleNamespace(command=argv[0], **values, handler=handler)


# The parser of ``run``, built on its first call and reused: building it
# costs more than a parse.
_parser = functools.cache(build_parser)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes.

    A plain call (``_plain_args``) is read without argparse, which it
    neither imports nor builds a parser for; the full parser parses every
    other call and reports its errors."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    try:
        if args is None:
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except AttributeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RuleParseError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
