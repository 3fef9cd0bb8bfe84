"""Command-line interface: rule parsing, exit codes, and output formats."""

import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import pientail as pt
from pientail import cli
from pientail.cli import (
    RuleParseError,
    _rule_set,
    build_parser,
    parse_gamma,
    parse_rules,
    run,
    scan_rule,
)

PAIR_RULES = "A -> B C\nA -> B D\n"
CYCLE_RULES = "B -> A C H\nC -> A D\nD -> A B\n"
CHAIN_RULES = "".join(f"x{i} -> x{i + 1}\n" for i in range(29))  # over x0 .. x29


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.rules"
    path.write_text(PAIR_RULES)
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.rules"
    path.write_text(CYCLE_RULES)
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.rules"
    path.write_text(CHAIN_RULES)
    return str(path)


class TestParsing:
    def test_parse_rules_basic(self):
        rules = parse_rules("A -> B C\n\n# comment\nB C -> D\n")
        assert len(rules) == 2
        assert [str(r) for r in rules] == ["A -> B C", "B C -> D"]
        assert rules.universe.names == ("A", "B", "C", "D")

    def test_empty_sides(self):
        rules = parse_rules("A ->\n-> B\n->\n")
        assert [str(r) for r in rules] == ["A ->", "-> B", "->"]

    def test_universe_ordered_by_first_appearance(self):
        rules = parse_rules("Z -> A\nM -> Z Q\n")
        assert rules.universe.names == ("Z", "A", "M", "Q")

    def test_multicharacter_tokens(self):
        rules = parse_rules("beer_6pack -> chips salsa2\n")
        assert str(rules[0]) == "beer_6pack -> chips salsa2"

    def test_missing_arrow_reports_line(self):
        with pytest.raises(RuleParseError, match="line 3"):
            parse_rules("A -> B\n# fine\nA B\n")

    def test_double_arrow_rejected(self):
        with pytest.raises(RuleParseError, match="exactly one '->'"):
            scan_rule("A -> B -> C")

    def test_bad_token_rejected(self):
        with pytest.raises(RuleParseError, match="invalid attribute token"):
            parse_rules("A -> B,C\n")

    def test_thirty_attribute_chain_parses(self):
        rules = parse_rules(CHAIN_RULES)
        assert len(rules) == 29
        assert rules.universe.names == tuple(f"x{i}" for i in range(30))

    def test_round_trip(self):
        text = "A -> B C\nA ->\n-> B\nlong_name -> other9\n"
        rules = parse_rules(text)
        again = parse_rules("\n".join(str(r) for r in rules))
        assert [str(r) for r in again] == [str(r) for r in rules]


def _two_pass_rule_set(text, *extra):
    """The loader as two passes, the reference for ``_rule_set``: scan every
    line to token tuples, then order the universe by first appearance over
    the rules' sides and the extra groups."""
    parsed = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parsed.append(scan_rule(stripped, line_no))
    groups = [side for rule in parsed for side in (rule.lhs, rule.rhs)]
    groups += [tuple(group.split()) for group in extra]
    names = []
    for group in groups:
        for token in group:
            if token not in names:
                names.append(token)
    universe = pt.AttributeUniverse(tuple(names))
    masks = [universe.attrs(*group).bits for group in groups]
    return names, masks[: 2 * len(parsed)], masks[2 * len(parsed) :]


_GOOD_TOKENS = ("A", "B", "C", "x1", "beer_6pack", "_", "Z9", "a" * 12)
_BAD_TOKENS = ("B,C", "\u00e9", "-", ">", "A-B", "#c", "A>")
_SPACES = (" ", "  ", "\t", "\u00a0", "\u2003", " \t ")


def _random_side(rng, bad_rate):
    tokens = [
        rng.choice(_BAD_TOKENS) if rng.random() < bad_rate else rng.choice(_GOOD_TOKENS)
        for _ in range(rng.randrange(4))
    ]
    text = "".join(rng.choice(_SPACES) + token for token in tokens)
    return text + rng.choice(("", *_SPACES))


def _random_rule_text(rng):
    """A seeded rule file: rules with empty sides, repeated and bad
    tokens, lines with 0 or 2 arrows, comments and blank lines, under
    ``\\n`` or ``\\r\\n`` endings."""
    lines = []
    for _ in range(rng.randrange(7)):
        kind = rng.random()
        if kind < 0.1:
            line = rng.choice(("", " ", "\t", "\u00a0", "\u2003"))
        elif kind < 0.2:
            line = rng.choice(("", "  ", "\t")) + "#" + _random_side(rng, 0.5) + " -> -> x"
        else:
            arrows = 1 if kind < 0.96 else rng.choice((0, 2))
            sides = [_random_side(rng, 0.02) for _ in range(arrows + 1)]
            line = rng.choice(("->", " -> ", "\t->")).join(sides)
        lines.append(line)
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n", "\r\n"))


class TestLoaderEquivalence:
    def test_one_pass_matches_two_passes(self):
        """``parse_rules`` and ``_rule_set`` with extra groups give the
        rules, universe order and extra masks of the two-pass reference,
        and the same ``RuleParseError`` message on every bad file; the
        one-match checks ``_ATTRS`` and ``_RULE`` accept exactly what
        ``_scan_attrs`` and ``scan_rule`` accept."""
        rng = random.Random(37)
        parsed, failed = 0, {"expected": 0, "invalid": 0}
        for _ in range(2000):
            text = _random_rule_text(rng)
            extra = [_random_side(rng, 0) for _ in range(rng.randrange(3))]
            try:
                expected = _two_pass_rule_set(text, *extra)
            except RuleParseError as exc:
                failed[str(exc).split()[0]] += 1
                for load in (lambda: parse_rules(text), lambda: _rule_set(text, *extra)):
                    with pytest.raises(RuleParseError) as caught:
                        load()
                    assert str(caught.value) == str(exc)
                continue
            parsed += 1
            names, rule_masks, extra_masks = expected
            rules, masks = _rule_set(text, *extra)
            assert rules.universe.names == tuple(names)
            pairs = [(r.antecedent.bits, r.consequent.bits) for r in rules]
            assert [m for pair in pairs for m in pair] == rule_masks
            assert masks == extra_masks
            alone = parse_rules(text)
            assert [str(r) for r in alone] == [str(r) for r in rules]
            assert rules.universe.names[: alone.universe.size] == alone.universe.names
        assert parsed > 1000 and min(failed.values()) > 100
        for _ in range(2000):
            side = _random_side(rng, 0.2)
            rule = side + rng.choice(("", "->", "->->")) + _random_side(rng, 0.2)
            for check, scan, text in (
                (cli._ATTRS, cli._scan_attrs, side),
                (cli._RULE, scan_rule, rule),
            ):
                try:
                    scan(text)
                except RuleParseError:
                    assert not check.fullmatch(text)
                else:
                    assert check.fullmatch(text)


class TestParseGamma:
    def test_accepted_forms(self):
        assert parse_gamma("1/2") == F(1, 2)
        assert parse_gamma("0.57") == F(57, 100)
        assert parse_gamma("1e-5") == F(1, 100000)
        assert parse_gamma("0") == 0
        assert parse_gamma("1") == 1

    def test_rejected_forms(self):
        for bad in ("3/2", "-1/10", "abc", "1/0", ""):
            with pytest.raises(RuleParseError):
                parse_gamma(bad)


class TestEntailCommand:
    def test_holds_exit_zero(self, pair_file, capsys):
        code = run(
            ["entail", "--gamma", "1/2", "--premises", pair_file,
             "--conclusion", "A C D -> B"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "entailment holds at gamma 1/2" in out
        assert "1/2 1/2" in out

    def test_fails_exit_one(self, pair_file, capsys):
        code = run(
            ["entail", "--gamma", "49/100", "--premises", pair_file,
             "--conclusion", "A C D -> B"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "does not hold" in out
        assert "x49" in out

    def test_json_payload_on_hold(self, pair_file, capsys):
        code = run(
            ["entail", "--gamma", "1/2", "--premises", pair_file,
             "--conclusion", "A C D -> B", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "holds": True,
            "regime": "high-gamma",
            "gamma": "1/2",
            "lambda": ["1/2", "1/2"],
            "counterexample": None,
        }

    def test_json_payload_on_failure(self, pair_file, capsys):
        code = run(
            ["entail", "--gamma", "49/100", "--premises", pair_file,
             "--conclusion", "A C D -> B", "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is False
        assert payload["lambda"] is None
        assert payload["counterexample"] == {"A B C": 49, "A B D": 49, "A C D": 2}

    def test_method_lp(self, pair_file, capsys):
        code = run(
            ["entail", "--gamma", "1/2", "--premises", pair_file,
             "--conclusion", "A C D -> B", "--method", "lp", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["regime"] == "lp-direct"

    def test_unknown_method_is_usage_error(self, pair_file, capsys):
        for method in ("bogus", "charact"):
            code = run(
                ["entail", "--gamma", "1/2", "--premises", pair_file,
                 "--conclusion", "A C D -> B", "--method", method]
            )
            assert code == 2, method
        capsys.readouterr()

    def test_gamma_out_of_range(self, pair_file, capsys):
        code = run(
            ["entail", "--gamma", "7/2", "--premises", pair_file,
             "--conclusion", "A C D -> B"]
        )
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        """Every command that reads a rule file exits 2 on a missing one,
        with the ``OSError`` message on stderr and nothing on stdout."""
        nope = str(tmp_path / "nope.rules")
        for argv in (
            ["entail", "--gamma", "1/2", "--premises", nope, "--conclusion", "A -> B"],
            ["counterexample", "--gamma", "1/2", "--premises", nope,
             "--conclusion", "A -> B"],
            ["gamma-star", "--premises", nope, "--antecedent", "A"],
            ["nice", "--premises", nope],
            ["prune", "--gamma", "1/2", "--rules", nope],
        ):
            for extra in ([], ["--json"]):
                assert run([*argv, *extra]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == (
                    f"error: [Errno 2] No such file or directory: {nope!r}\n"
                )

    def test_malformed_rules_file(self, tmp_path, capsys):
        path = tmp_path / "bad.rules"
        path.write_text("A -> B\nA B\n")
        code = run(
            ["entail", "--gamma", "1/2", "--premises", str(path),
             "--conclusion", "A -> B"]
        )
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_enumeration_cap_exit_three(self, tmp_path, capsys):
        wide = " ".join(f"x{i}" for i in range(21))
        path = tmp_path / "wide.rules"
        path.write_text(f"{wide} -> y\n")
        code = run(
            ["entail", "--gamma", "1/2", "--premises", str(path),
             "--conclusion", "x0 -> y"]
        )
        assert code == 3
        assert "error" in capsys.readouterr().err


class TestCounterexampleCommand:
    def test_found_exit_zero(self, pair_file, capsys):
        code = run(
            ["counterexample", "--gamma", "49/100", "--premises", pair_file,
             "--conclusion", "A C D -> B", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is False
        assert payload["counterexample"] == {"A B C": 49, "A B D": 49, "A C D": 2}

    def test_holds_exit_one(self, pair_file, capsys):
        code = run(
            ["counterexample", "--gamma", "1/2", "--premises", pair_file,
             "--conclusion", "A C D -> B"]
        )
        assert code == 1
        assert "no counterexample" in capsys.readouterr().out


class TestGammaStarCommand:
    def test_cycle_bracket_json(self, cycle_file, capsys):
        code = run(
            ["gamma-star", "--premises", cycle_file,
             "--antecedent", "B C D H", "--tol", "1/100000", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        lower = F(payload["gamma_star_lower"])
        upper = F(payload["gamma_star_upper"])
        assert upper - lower <= F(1, 100000)
        assert abs(payload["gamma_star_midpoint_approx"] - 0.56984) < 1e-4
        assert payload["tolerance"] == "1/100000"
        lams = [F(m) for m in payload["lambda"]]
        assert len(lams) == 3 and sum(lams) == 1

    def test_text_output(self, cycle_file, capsys):
        code = run(
            ["gamma-star", "--premises", cycle_file,
             "--antecedent", "B C D H", "--tol", "1/1024"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "critical threshold within" in out
        assert "multipliers at upper bound:" in out

    def test_bad_tolerance(self, cycle_file, capsys):
        code = run(
            ["gamma-star", "--premises", cycle_file,
             "--antecedent", "B C D H", "--tol", "0"]
        )
        assert code == 2
        capsys.readouterr()

    def test_empty_rule_file(self, tmp_path, capsys):
        path = tmp_path / "empty.rules"
        path.write_text("")
        code = run(["gamma-star", "--premises", str(path), "--antecedent", "A B"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: critical threshold needs at least one premise\n"


class TestNiceCommand:
    def test_cycle_is_nice(self, cycle_file, capsys):
        code = run(["nice", "--premises", cycle_file])
        assert code == 0
        assert "enforces homogeneity" in capsys.readouterr().out

    def test_subset_is_not(self, tmp_path, capsys):
        path = tmp_path / "sub.rules"
        path.write_text("B -> A C H\nC -> A D\n")
        code = run(["nice", "--premises", str(path), "--json"])
        assert code == 1
        assert json.loads(capsys.readouterr().out) == {"nice": False}


class TestPruneCommand:
    def test_drops_redundant_rule(self, tmp_path, capsys):
        path = tmp_path / "rules.rules"
        path.write_text("A -> B C\nA -> B D\nA C D -> B\n")
        code = run(["prune", "--gamma", "1/2", "--rules", str(path)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["A -> B C", "A -> B D"]
        assert "dropped 1" in captured.err

    def test_json_payload(self, tmp_path, capsys):
        path = tmp_path / "rules.rules"
        path.write_text("A -> B C\nA -> B\n")
        code = run(["prune", "--gamma", "1/2", "--rules", str(path), "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {
            "kept": ["A -> B C"],
            "dropped": 1,
        }


    def test_attribute_cap_only_where_a_decide_needs_rows(self, tmp_path, capsys):
        """A prune over 22 attributes whose decides all fail structurally
        keeps every rule; one whose decide of ``x0 -> x1`` probes a table
        that holds the wide rule passes the cap and exits 3."""
        wide = " ".join(f"x{i}" for i in range(21))
        rules = [f"{wide} -> y", "x0 -> x1 x2", "x1 -> x2"]
        path = tmp_path / "wide.rules"
        path.write_text("\n".join(rules) + "\n")
        code = run(["prune", "--gamma", "3/5", "--rules", str(path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == rules
        path.write_text("\n".join([*rules, "x0 -> x1 x3", "x0 -> x1"]) + "\n")
        code = run(["prune", "--gamma", "3/5", "--rules", str(path)])
        assert code == 3
        assert "enumeration cap" in capsys.readouterr().err


class TestWideUniverse:
    """A rule file over any number of attributes parses; only an
    enumeration over more than 20 occurring attributes exits 3."""

    def test_nice_prune_and_one_premise_entail(self, chain_file, tmp_path, capsys):
        assert run(["nice", "--premises", chain_file]) == 1
        assert capsys.readouterr().out == "does not enforce homogeneity\n"
        assert run(["prune", "--gamma", "3/5", "--rules", chain_file]) == 0
        assert capsys.readouterr().out == CHAIN_RULES
        path = tmp_path / "one.rules"
        path.write_text("x0 -> " + " ".join(f"x{i}" for i in range(1, 30)) + "\n")
        code = run(
            ["entail", "--gamma", "1/2", "--premises", str(path),
             "--conclusion", "x0 x5 -> x29"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "entailment holds at gamma 1/2 (regime: one-premise)",
            "certificate multipliers: 1/1",
        ]

    def test_gamma_one_by_horn_closure(self, chain_file, tmp_path, capsys):
        """``--gamma 1`` reads no rows under ``--method auto``: a 22-rule
        chain entails its ends and a prune of the whole chain keeps it."""
        path = tmp_path / "chain22.rules"
        path.write_text("".join(CHAIN_RULES.splitlines(keepends=True)[:22]))
        code = run(
            ["entail", "--gamma", "1", "--premises", str(path), "--conclusion", "x0 -> x22"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "entailment holds at gamma 1/1 (regime: horn-closure)",
            "certificate multipliers: " + " ".join(["1/1"] * 22),
        ]
        assert run(["prune", "--gamma", "1", "--rules", chain_file]) == 0
        assert capsys.readouterr().out == CHAIN_RULES

    def test_enumeration_past_the_cap_exits_three(self, chain_file, tmp_path, capsys):
        """``Method.LP``, at ``gamma = 1`` too, and the cone probe of the
        paper cycle, in a file that also holds the chain."""
        path = tmp_path / "cycle_chain.rules"
        path.write_text(CYCLE_RULES + CHAIN_RULES)
        for argv in (
            ["--gamma", "1", "--premises", chain_file, "--conclusion", "x0 -> x22",
             "--method", "lp"],
            ["--gamma", "1/2", "--premises", chain_file, "--conclusion", "x0 -> x22",
             "--method", "lp"],
            ["--gamma", "57/100", "--premises", str(path), "--conclusion", "B C D H -> A"],
        ):
            assert run(["entail", *argv]) == 3
            assert "exceed the enumeration cap of 20" in capsys.readouterr().err


class TestTopLevel:
    def test_help_is_success(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_max_attrs_is_a_usage_error(self, pair_file, cycle_file, capsys):
        """The enumeration cap is fixed: no subcommand takes ``--max-attrs``."""
        for argv in (
            ["entail", "--gamma", "1/2", "--premises", pair_file,
             "--conclusion", "A C D -> B"],
            ["counterexample", "--gamma", "49/100", "--premises", pair_file,
             "--conclusion", "A C D -> B"],
            ["gamma-star", "--premises", cycle_file, "--antecedent", "B C D H"],
            ["nice", "--premises", cycle_file],
            ["prune", "--gamma", "1/2", "--rules", pair_file],
        ):
            assert run(argv) in (0, 1)
            capsys.readouterr()
            assert run([*argv, "--max-attrs", "20"]) == 2
            assert "unrecognized arguments: --max-attrs 20" in capsys.readouterr().err

    def test_console_entry_point(self, pair_file):
        proc = subprocess.run(
            [sys.executable, "-m", "pientail.cli", "entail",
             "--gamma", "3/4", "--premises", pair_file,
             "--conclusion", "A C D -> B"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "entailment holds" in proc.stdout

    def test_package_entry_point(self, pair_file):
        """``python -m pientail`` runs the CLI: the same stdout as
        ``python -m pientail.cli`` and nothing on stderr."""
        args = ["entail", "--gamma", "3/4", "--premises", pair_file,
                "--conclusion", "A C D -> B"]
        package, module = (
            subprocess.run([sys.executable, "-m", entry, *args],
                           capture_output=True, text=True)
            for entry in ("pientail", "pientail.cli")
        )
        assert package.returncode == 0
        assert package.stderr == ""
        assert package.stdout == module.stdout
        assert package.stdout.startswith("entailment holds at gamma 3/4")


class TestParserReuse:
    def test_repeated_calls_give_identical_results(self, pair_file, cycle_file, capsys):
        """``run`` builds its parser on the first call and reuses it.  One
        call per subcommand, a usage error and two help requests, made twice
        in a row, give the same stdout and exit codes both times, and no
        option of one call leaks into the next."""
        from pientail import cli

        entail = ["entail", "--gamma", "1/2", "--premises", pair_file,
                  "--conclusion", "A C D -> B"]
        calls = [
            [*entail, "--json"],
            entail,
            ["counterexample", "--gamma", "1/4", "--premises", pair_file,
             "--conclusion", "A C D -> B", "--json"],
            ["gamma-star", "--premises", cycle_file, "--antecedent", "B C D H",
             "--tol", "1/1000", "--json"],
            ["nice", "--premises", cycle_file],
            ["prune", "--gamma", "1/2", "--rules", pair_file, "--json"],
            [*entail, "--method", "bogus"],
            ["--help"],
            ["gamma-star", "--help"],
        ]

        def one_round():
            results = []
            for argv in calls:
                code = run(argv)
                results.append((code, capsys.readouterr().out))
            return results

        first = one_round()
        assert [code for code, _ in first] == [0, 0, 0, 0, 0, 0, 2, 0, 0]
        assert first[0][1].startswith("{") and not first[1][1].startswith("{")
        assert one_round() == first
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli._parser()


# Each command's options, as (option, value) pairs, over the rule files of
# ``TestDispatch``.
COMMAND_OPTIONS = {
    "entail": [
        ("--gamma", "1/2"), ("--premises", "pair"), ("--conclusion", "A C D -> B"),
    ],
    "counterexample": [
        ("--gamma", "49/100"), ("--premises", "pair"), ("--conclusion", "A C D -> B"),
    ],
    "gamma-star": [
        ("--premises", "cycle"), ("--antecedent", "B C D H"), ("--tol", "1/1000"),
    ],
    "nice": [("--premises", "cycle")],
    "prune": [("--gamma", "1/2"), ("--rules", "pair")],
}


def _command_variants(command, options):
    """Calls of one command that its subparser accepts or rejects in
    different ways: as given, options reordered (with ``--json``), as
    ``--opt=value``, with an abbreviated option, ``--help``, a required
    option missing, an unknown option and an extra positional."""
    flat = [a for pair in options for a in pair]
    short = {"--premises": "--prem", "--rules": "--rul"}
    yield [command, *flat]
    yield [command, *[a for pair in options[::-1] for a in pair], "--json"]
    yield [command, *[f"{o}={v}" for o, v in options]]
    yield [command, *[short.get(a, a) for a in flat]]
    yield [command, "--help"]
    yield [command, *flat[2:]]
    yield [command, *flat, "--bogus", "1"]
    yield [command, *flat, "extra"]


def _plain_edges(star, pair_file):
    """Calls at the edges of what ``_plain_args`` takes: a repeated option,
    an empty value, values and options that start with ``-``, a missing
    value, ``--``, help, and the choices of ``--method``."""
    entail = ["entail", "--gamma", "1/2", "--premises", pair_file,
              "--conclusion", "A C D -> B"]
    return [
        [*star, "--antecedent", "B C D H", "--json", "--json"],
        [*star, "--antecedent", ""],
        [*star, "--tol", "-1/2"],
        [*star, "--premises", "nope", "--premises", star[2]],
        [*entail, "--method", "lp"],
        [*entail, "--method", "bogus"],
        [*star, "--tol"],
        [*star, "--", "--json"],
        [*star, "-h"],
        [*star, "--antecedent", "-B"],
        [*star, "--json", "x"],
        [*entail, "--method", "auto", "--json"],
        [*entail, "--gamma", "--json"],
    ]


class TestDispatch:
    """``run`` reads a plain call with ``_plain_args``, and parses every
    other call with the full parser.  Either way it must answer as the full
    parser alone does: the same exit code, stdout and stderr as
    ``build_parser().parse_args`` followed by the handler it sets."""

    @staticmethod
    def _full_parser(argv):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        return args.handler(args)

    def test_every_call_matches_the_full_parser(self, pair_file, cycle_file, capsys):
        files = {"pair": pair_file, "cycle": cycle_file}
        calls = [
            argv
            for command, options in COMMAND_OPTIONS.items()
            for argv in _command_variants(
                command, [(o, files.get(v, v)) for o, v in options]
            )
        ]
        star = ["gamma-star", "--premises", cycle_file, "--antecedent", "B C D H"]
        calls += [[], ["--help"], ["frobnicate"], ["gamma"], ["--json", *star]]
        calls += _plain_edges(star, pair_file)
        codes = []
        for argv in calls:
            code = run(argv)
            got = (code, *capsys.readouterr())
            want = (self._full_parser(argv), *capsys.readouterr())
            assert got == want, argv
            codes.append(code)
        # each command: four accepted calls, help, and three usage errors
        assert codes[:45] == [0, 0, 0, 0, 0, 2, 2, 2] * 5 + [2, 0, 2, 2, 2]
        assert codes[45:] == [0, 0, 2, 0, 0, 2, 2, 2, 0, 2, 2, 0, 2]

    def test_plain_args_match_the_full_parser(self, pair_file, cycle_file):
        """``_plain_args`` gives the attributes of the full parser's
        namespace for every call it takes, and takes the plain calls of
        each command."""
        star = ["gamma-star", "--premises", cycle_file, "--antecedent", "B C D H"]
        files = {"pair": pair_file, "cycle": cycle_file}
        calls = [
            argv
            for command, options in COMMAND_OPTIONS.items()
            for argv in _command_variants(
                command, [(o, files.get(v, v)) for o, v in options]
            )
        ] + _plain_edges(star, pair_file)
        taken = []
        for argv in calls:
            args = cli._plain_args(argv)
            if args is not None:
                assert vars(args) == vars(build_parser().parse_args(argv)), argv
            taken.append(args is not None)
        # the first two variants of each command, then the edges
        assert taken[:40] == [True, True, False, False, False, False, False, False] * 5
        assert taken[40:] == [True, True, False, True, True, False, False, False,
                              False, False, False, True, False]
        assert cli._plain_args([]) is None and cli._plain_args(["--json", *star]) is None
        # seeded mutations of each command's plain call: a token inserted,
        # replaced or deleted, up to three times
        words = ["--gamma", "--premises", "--method", "--tol", "--json", "1/2", "lp",
                 "bogus", "", "-1", "--", "--tol=1/2", "--prem", "-h", "a -b"]
        rng = random.Random(3707)
        parser, taken = build_parser(), 0
        for _ in range(3000):
            command, options = rng.choice(list(COMMAND_OPTIONS.items()))
            rest = [a for pair in options for a in pair]
            for _ in range(rng.randrange(4)):
                i = rng.randrange(len(rest) + 1)
                if not rest or rng.random() < 0.5:
                    rest.insert(i, rng.choice(words))
                elif rng.random() < 0.5:
                    rest[i - 1] = rng.choice(words)
                else:
                    del rest[i - 1]
            args = cli._plain_args([command, *rest])
            if args is not None:
                assert vars(args) == vars(parser.parse_args([command, *rest])), rest
                taken += 1
        assert taken > 500

    def test_a_plain_call_loads_no_argparse(self, cycle_file):
        """A plain call is read without importing ``argparse``; a call that
        ``_plain_args`` does not take loads it for the full parser."""
        script = (
            "import sys\nfrom pientail.cli import run\nrun(sys.argv[1:])\n"
            "print('argparse' in sys.modules)"
        )
        for option, loaded in (("--premises", "False"), ("--prem", "True")):
            argv = ["gamma-star", option, cycle_file, "--antecedent", "B C D H"]
            proc = subprocess.run(
                [sys.executable, "-c", script, *argv], capture_output=True, text=True
            )
            assert proc.stdout.splitlines()[-1] == loaded, proc.stderr


# sha256 of the exit code and stdout of every call in ``_gamma_star_calls``,
# each hashed as the code, a newline, then the output.  Computed with the
# sources of commit 7c81c40, whose ``run`` parsed every call with the full
# parser and printed through ``json.dumps``.
GAMMA_STAR_DIGEST = "fbbd26a5a63d348ed554ae6b9d0fea5e84a8bf43c1f2158b76f77b24f3ad6ab8"
CORPUS_BUDGET_S = 10.0


def _gamma_star_calls(rng):
    """The paper cycle, then 150 rotated 3-cycles ``x_i -> A x_{i+1}`` and 36
    cycles of length 2, 4 or 5, each with shuffled antecedent tokens, a
    seeded first rule, and at random up to two extra consequent attributes
    (which the antecedent holds or not), at seeded tolerances: rule-file
    texts, antecedents and tolerances."""
    yield CYCLE_RULES, "B C D H", "1/1000000"
    letters = "EFGIJKLMNOPQRSTUVWXYZ"
    for n in [3] * 150 + [2, 4, 5] * 12:
        target, *chain = rng.sample(letters, n + 1)
        extra = rng.sample([c for c in letters if c not in chain and c != target], 2)
        rules = [[chain[i], [target, chain[(i + 1) % n]]] for i in range(n)]
        antecedent = list(chain)
        for name in extra:
            if rng.random() < 0.5:
                rules[rng.randrange(n)][1].append(name)
                if rng.random() < 0.7:
                    antecedent.append(name)
        first = rng.randrange(n)
        rules = rules[first:] + rules[:first]
        rng.shuffle(antecedent)
        text = "".join(f"{lhs} -> {' '.join(rhs)}\n" for lhs, rhs in rules)
        tol = rng.choice(("1/1000000", "1/1000", "1e-9", "1/3"))
        yield text, " ".join(antecedent), tol


def test_gamma_star_corpus_output_is_pinned(tmp_path, capsys):
    """``gamma-star --json`` over a seeded corpus of cycles prints, byte for
    byte, what it printed when ``run`` parsed every call with the full
    parser and the payload went through ``json.dumps`` (the digest above),
    within ``CORPUS_BUDGET_S``."""
    start = time.perf_counter()
    digest = hashlib.sha256()
    for i, (text, antecedent, tol) in enumerate(_gamma_star_calls(random.Random(32))):
        path = tmp_path / f"{i}.rules"
        path.write_text(text)
        code = run(
            ["gamma-star", "--premises", str(path), "--antecedent", antecedent,
             "--tol", tol, "--json"]
        )
        captured = capsys.readouterr()
        assert captured.err == ""
        digest.update(f"{code}\n{captured.out}".encode())
    assert i == 186
    assert digest.hexdigest() == GAMMA_STAR_DIGEST
    assert time.perf_counter() - start < CORPUS_BUDGET_S


ALL_RULES = "A -> B C\nA -> B D\nA C D -> B\n"

# Each command's exit code, stdout and stderr, byte for byte, without and
# with ``--json``.
GOLDEN = {
    "entail-holds": (
        ["entail", "--gamma", "1/2", "--premises", "pair", "--conclusion", "A C D -> B"],
        (0,
         "entailment holds at gamma 1/2 (regime: high-gamma)\n"
         "certificate multipliers: 1/2 1/2\n",
         ""),
        (0,
         '{\n  "holds": true,\n  "regime": "high-gamma",\n  "gamma": "1/2",\n'
         '  "lambda": [\n    "1/2",\n    "1/2"\n  ],\n  "counterexample": null\n}\n',
         ""),
    ),
    "entail-fails": (
        ["entail", "--gamma", "49/100", "--premises", "pair",
         "--conclusion", "A C D -> B"],
        (1,
         "entailment does not hold at gamma 49/100 (regime: low-gamma)\n"
         "counterexample dataset:\n  A B C  x49\n  A B D  x49\n  A C D  x2\n",
         ""),
        (1,
         '{\n  "holds": false,\n  "regime": "low-gamma",\n  "gamma": "49/100",\n'
         '  "lambda": null,\n  "counterexample": {\n    "A B C": 49,\n'
         '    "A B D": 49,\n    "A C D": 2\n  }\n}\n',
         ""),
    ),
    "counterexample": (
        ["counterexample", "--gamma", "49/100", "--premises", "pair",
         "--conclusion", "A C D -> B"],
        (0, "counterexample dataset:\n  A B C  x49\n  A B D  x49\n  A C D  x2\n", ""),
        (0,
         '{\n  "holds": false,\n  "regime": "low-gamma",\n  "counterexample": {\n'
         '    "A B C": 49,\n    "A B D": 49,\n    "A C D": 2\n  }\n}\n',
         ""),
    ),
    "gamma-star": (
        ["gamma-star", "--premises", "cycle", "--antecedent", "B C D H",
         "--tol", "1/1000"],
        (0,
         "critical threshold within [583/1024, 73/128] (~0.569824)\n"
         "multipliers at upper bound: 5329/12369 4015/12369 3025/12369\n",
         ""),
        (0,
         '{\n  "gamma_star_lower": "583/1024",\n  "gamma_star_upper": "73/128",\n'
         '  "tolerance": "1/1000",\n  "gamma_star_midpoint_approx": 0.56982421875,\n'
         '  "lambda": [\n    "5329/12369",\n    "4015/12369",\n    "3025/12369"\n'
         '  ]\n}\n',
         ""),
    ),
    "nice": (
        ["nice", "--premises", "cycle"],
        (0, "enforces homogeneity\n", ""),
        (0, '{"nice": true}\n', ""),
    ),
    "prune": (
        ["prune", "--gamma", "1/2", "--rules", "all"],
        (0, "A -> B C\nA -> B D\n", "# dropped 1 redundant rule(s)\n"),
        (0,
         '{\n  "kept": [\n    "A -> B C",\n    "A -> B D"\n  ],\n  "dropped": 1\n}\n',
         ""),
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_output_is_pinned(self, name, as_json, tmp_path, capsys):
        files = {"pair": PAIR_RULES, "cycle": CYCLE_RULES, "all": ALL_RULES}
        for stem, text in files.items():
            (tmp_path / f"{stem}.rules").write_text(text)
        argv, text_output, json_output = GOLDEN[name]
        argv = [str(tmp_path / f"{a}.rules") if a in files else a for a in argv]
        code = run([*argv, "--json"] if as_json else argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            json_output if as_json else text_output
        )
