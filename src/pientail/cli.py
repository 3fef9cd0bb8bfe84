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
from typing import TYPE_CHECKING, Iterable, Sequence

from .entailment import (
    EntailmentQuery,
    EntailmentVerdict,
    Method,
    decide,
    prune as prune_rules,
)
from .homogeneity import ImplicationSet, enforces_homogeneity
from .model import (
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


def scan_rules(text: str) -> list[ParsedRule]:
    """Parse a rule file into raw token rules, skipping blanks and comments."""
    rules = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rules.append(scan_rule(stripped, line_no))
    return rules


def build_universe(token_groups: Iterable[Iterable[str]]) -> AttributeUniverse:
    """Universe over all tokens, ordered by first appearance."""
    names: list[str] = []
    seen: set[str] = set()
    for group in token_groups:
        for token in group:
            if token not in seen:
                seen.add(token)
                names.append(token)
    return AttributeUniverse(tuple(names))


def _rule_set(text: str, *extra: Sequence[str]) -> ImplicationSet:
    """Parse a rule file into an implication set over the universe of its
    tokens followed by the ``extra`` token groups."""
    parsed = scan_rules(text)
    universe = build_universe(
        [*(group for rule in parsed for group in (rule.lhs, rule.rhs)), *extra]
    )
    return ImplicationSet(
        universe,
        tuple(
            PartialImplication(universe.attrs(*rule.lhs), universe.attrs(*rule.rhs))
            for rule in parsed
        ),
    )


def parse_rules(text: str) -> ImplicationSet:
    """Parse a rule file into an implication set over its own universe."""
    return _rule_set(text)


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
    return f"{value.numerator}/{value.denominator}"


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
    conclusion = scan_rule(args.conclusion)
    premises = _rule_set(text, conclusion.lhs, conclusion.rhs)
    universe = premises.universe
    return EntailmentQuery(
        premises=premises,
        conclusion=PartialImplication(
            universe.attrs(*conclusion.lhs), universe.attrs(*conclusion.rhs)
        ),
        gamma=parse_gamma(args.gamma),
    )


def _emit_verdict(verdict: EntailmentVerdict, gamma: Fraction, as_json: bool) -> int:
    if as_json:
        payload = {
            "holds": verdict.holds,
            "regime": verdict.regime.value,
            "gamma": _frac(gamma),
            "lambda": (
                [_frac(m) for m in verdict.certificate]
                if verdict.certificate is not None
                else None
            ),
            "counterexample": _dataset_map(verdict.counterexample),
        }
        _print_json(payload)
    elif verdict.holds:
        print(f"entailment holds at gamma {_frac(gamma)} (regime: {verdict.regime.value})")
        if verdict.certificate is not None:
            print("certificate multipliers:", " ".join(_frac(m) for m in verdict.certificate))
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
    antecedent_tokens = _scan_attrs(args.antecedent)
    premises = _rule_set(text, antecedent_tokens)
    antecedent = premises.universe.attrs(*antecedent_tokens)
    bracket = critical_threshold(premises, antecedent, _parse_tolerance(args.tol))
    lower, upper = bracket.lower, bracket.upper
    # float(bracket.midpoint) without Fraction arithmetic: the same value in
    # one correctly rounded integer division
    num = lower.numerator * upper.denominator + upper.numerator * lower.denominator
    midpoint = num / (2 * lower.denominator * upper.denominator)
    lo, up, lams = _frac(lower), _frac(upper), [_frac(m) for m in bracket.multipliers]
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
    if args.json:
        payload = {
            "kept": [str(rule) for rule in kept],
            "dropped": len(rules) - len(kept),
        }
        _print_json(payload)
    else:
        for rule in kept:
            print(rule)
        dropped = len(rules) - len(kept)
        if dropped:
            print(f"# dropped {dropped} redundant rule(s)", file=sys.stderr)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit a JSON object")


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


def _build() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each command's own subparser by name."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pientail",
        description=(
            "Exact entailment, redundancy, and critical thresholds for "
            "partial implications (association rules) at a confidence threshold."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    entail = sub.add_parser("entail", help="decide whether premises entail a conclusion")
    entail.add_argument("--gamma", required=True, help="confidence threshold, e.g. 1/2 or 0.57")
    entail.add_argument("--premises", required=True, help="rule file with the premises")
    entail.add_argument("--conclusion", required=True, help="conclusion rule, e.g. 'A C -> B'")
    entail.add_argument(
        "--method",
        choices=[m.value for m in Method],
        default=Method.AUTO.value,
        help="decision route (default: auto)",
    )
    _add_common(entail)
    entail.set_defaults(handler=_cmd_entail)

    counter = sub.add_parser(
        "counterexample", help="produce a dataset refuting an entailment"
    )
    counter.add_argument("--gamma", required=True)
    counter.add_argument("--premises", required=True)
    counter.add_argument("--conclusion", required=True)
    _add_common(counter)
    counter.set_defaults(handler=_cmd_counterexample)

    star = sub.add_parser(
        "gamma-star", help="bracket the critical threshold of premises vs an antecedent"
    )
    star.add_argument("--premises", required=True)
    star.add_argument("--antecedent", required=True, help="attribute list, e.g. 'B C D H'")
    star.add_argument("--tol", default="1/100000", help="bracket width (default 1/100000)")
    _add_common(star)
    star.set_defaults(handler=_cmd_gamma_star)

    nice = sub.add_parser("nice", help="check whether a rule set enforces homogeneity")
    nice.add_argument("--premises", required=True)
    _add_common(nice)
    nice.set_defaults(handler=_cmd_nice)

    prune = sub.add_parser("prune", help="drop rules entailed by the remaining ones")
    prune.add_argument("--gamma", required=True)
    prune.add_argument("--rules", required=True, help="rule file to prune")
    _add_common(prune)
    prune.set_defaults(handler=_cmd_prune)

    return parser, sub.choices


# The parsers of ``run``, built on its first call and reused: building them
# costs more than a parse.
_parsers = functools.cache(_build)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes.

    A call that names its command first is parsed by that command's own
    subparser alone, as the full parser would hand it on; the full parser
    parses the rest (help, no or an unknown command, options before the
    command) and any call with leftover arguments, and reports them."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    try:
        command = commands.get(argv[0]) if argv else None
        args, extra = command.parse_known_args(argv[1:]) if command else (None, None)
        if command is None or extra:
            args = parser.parse_args(argv)
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
