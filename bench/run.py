"""Benchmark of pientail: seeded workloads, checked outputs, one JSON line.

Run from the repository root:

    python3 bench/run.py --workload decide-mix --seed 1 --seconds 20 --trace 0

One caller in one process makes library calls back to back (a closed loop,
no threads).  An operation is one library call.  Rounds of operations are
generated from the seed (round ``r`` from ``(seed, r)``), and whole rounds
run until the next one would end past ``--seconds``.

Times are reported in reference seconds (``calibrate``): between calls,
reference units run for a quarter of the last call's time, and each call is
scaled by the speed of the units just before and just after it, so that a
slow spell of the host moves the figures less than it moves wall time.
Throughput is operations completed per reference second of call time.

Outputs are checked by ``witness`` after each round, in a forked child, so
that neither the checker's time nor its memory enters the figures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds traced, and prints the per-layer metrics of ``tracing``,
import times, and the tracing overhead against a separate untraced process
given the same seed (so no interpreter sees an input twice).  The last line
of standard output is the JSON result; exit status is 0 only when a result
was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import calibrate
import tracing
import witness
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

# Fresh interpreters timed per run for setup_s; one more runs first to
# write bytecode caches.
SETUP_SAMPLES = 15
IMPORTTIME_SAMPLES = 3
# Reference time run beside each measured second, with the shortest block
# of units run between two calls (see ``calibrate``), and reference units
# run before and after each timed import.
REFERENCE_SHARE = 0.25
REFERENCE_MIN_BLOCK_S = 0.002
SETUP_REFERENCE_UNITS = 250
# Rounds of a traced run, sized to a few seconds of work each, so that its
# counts repeat exactly for a seed.
TRACE_ROUNDS = {"decide-mix": 3, "wide-enum": 1, "prune": 5, "gamma-star": 1}
# Share of the traced call time that the layer spans must cover, which
# shows that the rebound attributes are the ones the calls go through.
MIN_SPAN_COVERAGE = 0.9
SUBPROCESS_TIMEOUT_S = 60


@dataclass
class Op:
    """One timed library call and the check of its output."""

    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is right
    prepare: Callable[[], None] | None = None  # untimed, runs before call


# ------------------------------------------------------------ library inputs

def _universe(pt, names):
    return pt.AttributeUniverse(tuple(names))


def _rules(pt, universe, rules):
    return pt.ImplicationSet(
        universe,
        tuple(
            pt.PartialImplication(universe.attrs(*ante), universe.attrs(*cons))
            for ante, cons in rules
        ),
    )


def _query(pt, q: workloads.Query):
    universe = _universe(pt, q.names)
    ante, cons = q.conclusion
    return pt.EntailmentQuery(
        _rules(pt, universe, q.premises),
        pt.PartialImplication(universe.attrs(*ante), universe.attrs(*cons)),
        q.gamma,
    )


def verdict_error(premises, conclusion, gamma, verdict) -> str | None:
    """Check a verdict's witness with ``witness``; None when it proves it."""
    if verdict.holds:
        if verdict.certificate is None:
            return "holds without a certificate"
        if not witness.certificate_ok(premises, conclusion, gamma, verdict.certificate):
            return f"certificate {verdict.certificate} does not certify"
        return None
    if verdict.counterexample is None:
        return "fails without a counterexample"
    data = [(t.names, c) for t, c in verdict.counterexample.items()]
    if not witness.counterexample_ok(premises, conclusion, gamma, data):
        return f"counterexample {verdict.counterexample} does not refute"
    return None


# ----------------------------------------------------------------- workloads

def decide_mix_round(pt, seed: int, r: int, scratch: Path) -> list[Op]:
    ops = []
    for q in workloads.decide_mix(seed, r):
        query = _query(pt, q)
        ops.append(Op(
            lambda query=query: pt.decide(query),
            lambda verdict, q=q: verdict_error(q.premises, q.conclusion, q.gamma, verdict),
        ))
    return ops


def _perturbed(certificate: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """The certificate with its largest multiplier cut by a tenth."""
    i = max(range(len(certificate)), key=lambda j: certificate[j])
    out = list(certificate)
    out[i] = out[i] * Fraction(9, 10)
    return tuple(out)


def wide_enum_round(pt, seed: int, r: int, scratch: Path) -> list[Op]:
    """Per query: decide (auto), decide (LP), and check_certificate on the
    returned certificate and on a perturbed copy.  When the query fails,
    uniform and all-ones multipliers stand in for the certificate: by weak
    duality both must be rejected."""
    ops = []
    for q in workloads.wide_enum(seed, r):
        query = _query(pt, q)
        state: dict[str, Any] = {}

        def decide_auto(query=query, state=state):
            state["auto"] = pt.decide(query)
            return state["auto"]

        def check_auto(verdict, q=q):
            return verdict_error(q.premises, q.conclusion, q.gamma, verdict)

        def check_lp(verdict, q=q, state=state):
            if verdict.holds != state["auto"].holds:
                return "LP and auto verdicts differ"
            return verdict_error(q.premises, q.conclusion, q.gamma, verdict)

        def trials(state=state, k=len(q.premises)):
            auto = state["auto"]
            if auto.holds:
                state["trials"] = [auto.certificate, _perturbed(auto.certificate)]
            else:
                state["trials"] = [(Fraction(1, k),) * k, (Fraction(1),) * k]

        def check_trial(accepted, index, q=q, state=state):
            lams = state["trials"][index]
            expected = witness.certificate_ok(q.premises, q.conclusion, q.gamma, lams)
            if accepted != expected:
                return f"check_certificate({lams}) = {accepted}, independent check {expected}"
            if index == 0 and accepted != state["auto"].holds:
                return "check_certificate contradicts the verdict"
            return None

        ops += [
            Op(decide_auto, check_auto),
            Op(lambda query=query: pt.decide(query, pt.Method.LP), check_lp),
        ]
        for index in (0, 1):
            ops.append(Op(
                lambda query=query, state=state, index=index:
                    pt.check_certificate(query, state["trials"][index]),
                functools.partial(check_trial, index=index),
                trials if index == 0 else None,
            ))
    return ops


def prune_error(pt, spec: workloads.RuleSet, kept) -> str | None:
    """Survivors must entail every dropped rule, and no survivor may be
    entailed by the other survivors; every witness is checked."""
    kept_rules = [(rule.antecedent.names, rule.consequent.names) for rule in kept]
    survivors, dropped, cursor = [], [], 0
    for rule in spec.rules:
        if cursor < len(kept_rules) and kept_rules[cursor] == rule:
            survivors.append(rule)
            cursor += 1
        else:
            dropped.append(rule)
    if cursor != len(kept_rules):
        return "kept rules are not a subsequence of the input"

    def decide(premises, conclusion):
        query = _query(pt, workloads.Query(
            spec.names, tuple(premises), conclusion, spec.gamma))
        verdict = pt.decide(query)
        return verdict, verdict_error(premises, conclusion, spec.gamma, verdict)

    for rule in dropped:
        verdict, error = decide(survivors, rule)
        if error or not verdict.holds:
            return f"survivors do not entail dropped {rule}: {error}"
    for i, rule in enumerate(survivors):
        verdict, error = decide(survivors[:i] + survivors[i + 1:], rule)
        if error or verdict.holds:
            return f"survivor {rule} is entailed by the others: {error}"
    return None


def prune_round(pt, seed: int, r: int, scratch: Path) -> list[Op]:
    ops = []
    for spec in workloads.prune(seed, r):
        rules = _rules(pt, _universe(pt, spec.names), spec.rules)
        ops.append(Op(
            lambda rules=rules, spec=spec: pt.prune(rules, spec.gamma),
            lambda kept, spec=spec: prune_error(pt, spec, kept),
        ))
    return ops


def bracket_error(pt, cycle: workloads.Cycle, code: int, out: str) -> str | None:
    """A gamma-star bracket is right when it is at most ``tolerance`` wide,
    its multipliers reach ``upper`` on the independent check, the paper's
    value lies inside it when given, and ``antecedent -> conclusion`` holds
    at ``upper`` and fails at ``lower`` with checked witnesses (for a cycle
    only the full premise set meets the combination conditions)."""
    if code != 0:
        return f"gamma-star exited {code}"
    payload = json.loads(out)
    lower = Fraction(payload["gamma_star_lower"])
    upper = Fraction(payload["gamma_star_upper"])
    lams = [Fraction(m) for m in payload["lambda"]]
    if not 0 < lower < upper or upper - lower > cycle.tolerance:
        return f"bracket [{lower}, {upper}] is not an interval of width <= {cycle.tolerance}"
    if not witness.threshold_multipliers_ok(cycle.rules, cycle.antecedent, lams, upper):
        return f"multipliers {lams} do not reach {upper}"
    if cycle.contains is not None and not lower <= cycle.contains <= upper:
        return f"bracket [{lower}, {upper}] misses {cycle.contains}"
    names = tuple(dict.fromkeys(
        [a for rule in cycle.rules for side in rule for a in side] + list(cycle.antecedent)
    ))
    conclusion = (cycle.antecedent, (cycle.conclusion,))
    for gamma, holds in ((upper, True), (lower, False)):
        query = workloads.Query(names, cycle.rules, conclusion, gamma)
        verdict = pt.decide(_query(pt, query))
        if verdict.holds != holds:
            return f"decide at {gamma} gives holds={verdict.holds}"
        error = verdict_error(cycle.rules, conclusion, gamma, verdict)
        if error:
            return f"at {gamma}: {error}"
    return None


def _rule_file(rules) -> str:
    return "".join(f"{' '.join(ante)} -> {' '.join(cons)}\n" for ante, cons in rules)


def gamma_star_round(pt, seed: int, r: int, scratch: Path) -> list[Op]:
    ops = []
    for i, cycle in enumerate(workloads.gamma_star(seed, r)):
        path = scratch / f"gamma-star-{i}.rules"
        argv = ["gamma-star", "--premises", str(path),
                "--antecedent", " ".join(cycle.antecedent),
                "--tol", str(cycle.tolerance), "--json"]

        def call(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = pt.cli.run(argv)
            return code, out.getvalue()

        ops.append(Op(
            call,
            lambda result, cycle=cycle: bracket_error(pt, cycle, *result),
            lambda path=path, cycle=cycle: path.write_text(_rule_file(cycle.rules)),
        ))
    return ops


ROUNDS = {
    "decide-mix": decide_mix_round,
    "wide-enum": wide_enum_round,
    "prune": prune_round,
    "gamma-star": gamma_star_round,
}


# ------------------------------------------------------------------- running

@dataclass
class Pass:
    """What one pass over some rounds measured."""

    latencies: list[float] = field(default_factory=list)  # reference seconds
    call_s: float = 0.0  # wall seconds spent in the calls
    attempted: int = 0
    raised: int = 0
    wrong: int = 0
    rounds: int = 0

    @property
    def failed(self) -> int:
        return self.raised + self.wrong


def check_apart(done: list[tuple[Op, Any]]) -> list[str | None]:
    """Check outputs in a forked child, so that the checker's memory stays
    out of the peak of the measured process."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            errors = []
            for op, output in done:
                try:
                    errors.append(op.check(output))
                except Exception:
                    errors.append(f"check raised:\n{traceback.format_exc()}")
            with os.fdopen(write, "w") as pipe:
                json.dump(errors, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"checker process exited with status {status}")
    return json.loads(text)


def run_rounds(make_round: Callable[[int], list[Op]], seconds: float | None,
               rounds: int | None = None, tracer=None) -> Pass:
    """Whole rounds, either a fixed number or as many as end within
    ``seconds`` (always at least one), with ``tracer`` installed around
    each call when given."""
    result = Pass()
    start = time.perf_counter()
    meter = calibrate.Meter(REFERENCE_SHARE, REFERENCE_MIN_BLOCK_S)
    while True:
        round_start = time.perf_counter()
        ops = make_round(result.rounds)
        meter.restart()
        done = []
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            result.attempted += 1
            begin = time.perf_counter()
            try:
                with tracer if tracer is not None else contextlib.nullcontext():
                    output = op.call()
            except Exception:
                result.raised += 1
                traceback.print_exc(file=sys.stderr)
            else:
                done.append((op, output))
            took = time.perf_counter() - begin
            result.call_s += took
            result.latencies.append(meter.scaled(took))
        wrong = [error for error in check_apart(done) if error is not None]
        for error in wrong:
            print(f"wrong output: {error}", file=sys.stderr)
        result.wrong += len(wrong)
        result.rounds += 1
        now = time.perf_counter()
        if rounds is not None:
            if result.rounds >= rounds:
                return result
        elif now - start + (now - round_start) > seconds:
            return result


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Timed in the fresh interpreter itself, between reference units run just
# before and just after it (``calibrate`` imports nothing the library does).
_IMPORT = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import calibrate
calibrate.unit()
before = calibrate.unit_seconds(int(sys.argv[2]))
start = time.perf_counter()
import pientail
took = time.perf_counter() - start
after = calibrate.unit_seconds(int(sys.argv[2]))
print(took * 2 * calibrate.UNIT_S / (before + after))
"""


def fresh_import_s() -> float:
    """Reference seconds a fresh interpreter spends in ``import pientail``."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT, str(BENCH), str(SETUP_REFERENCE_UNITS)],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_s() -> float:
    """Median reference seconds of ``import pientail`` in a fresh interpreter."""
    fresh_import_s()
    return statistics.median(fresh_import_s() for _ in range(SETUP_SAMPLES))


def importtime_s() -> dict[str, float]:
    """Cumulative import seconds of numpy and pientail from ``-X importtime``
    (a package that is not imported is left out)."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import pientail"],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    out = {}
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("numpy", "pientail"):
            out[parts[2].strip()] = int(parts[1].strip()) / 1e6
    return out


def untraced_call_s(workload: str, seed: int) -> float:
    """Reference seconds of the traced rounds' calls run untraced, in a
    fresh process given the same seed."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0",
         "--untraced-rounds", str(TRACE_ROUNDS[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["call_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(make_round, seconds: float) -> tuple[Pass, dict]:
    """Set-up time, then the timed rounds and the metrics users see."""
    setup = setup_s()
    result = run_rounds(make_round, seconds)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": ((result.attempted - result.failed) / sum(result.latencies), "op/s"),
        "op_p50_ms": (statistics.median(result.latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return result, metrics


def per_layer(make_round, workload: str, seed: int, dump: Path | None = None
              ) -> tuple[Pass, dict, str | None]:
    """Per-layer figures of ``TRACE_ROUNDS`` traced rounds; the spans and
    counters are written to ``dump`` when given."""
    tracer = tracing.Tracer(sys.modules)
    result = run_rounds(make_round, None, TRACE_ROUNDS[workload], tracer)
    if dump is not None:
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps({"spans": tracer.spans, "counters": tracer.counters}))
    layers = tracer.layer_metrics()
    metrics = {
        name: (value, "s" if name.endswith("_s") else "count")
        for name, value in layers.items()
    }
    imports = [importtime_s() for _ in range(IMPORTTIME_SAMPLES)]
    for package in ("numpy", "pientail"):
        metrics[f"import.{package}_s"] = (
            statistics.median(sample.get(package, 0.0) for sample in imports), "s")
    metrics["trace.overhead_s"] = (
        sum(result.latencies) - untraced_call_s(workload, seed), "s")
    return result, metrics, coverage_error(tracer, result.call_s)


def coverage_error(tracer: tracing.Tracer, call_s: float) -> str | None:
    """None when the layer self times cover between ``MIN_SPAN_COVERAGE``
    and all of ``call_s``, the wall seconds of the traced calls.  Spans nest
    inside the timed calls, so the upper end holds by construction; the
    lower end fails when the calls bypass the rebound attributes."""
    covered = sum(tracer.self_times().values())
    if MIN_SPAN_COVERAGE * call_s <= covered <= call_s:
        return None
    return f"layer spans cover {covered} s of {call_s} s of traced calls"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--untraced-rounds", type=int, default=0, metavar="N",
                        help="run N rounds untraced and print only their call "
                             "time in reference seconds (the baseline of --trace 1)")
    args = parser.parse_args(argv)

    if not (SRC / "pientail" / "__init__.py").is_file():
        print(f"error: no pientail sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pientail as pt

    if Path(pt.__file__).resolve().parent != SRC / "pientail":
        print(f"error: imported pientail from {pt.__file__}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as scratch:
        build = ROUNDS[args.workload]

        def make_round(r: int) -> list[Op]:
            return build(pt, args.seed, r, Path(scratch))

        error = None
        if args.untraced_rounds:
            result = run_rounds(make_round, None, args.untraced_rounds)
            print(json.dumps({"call_s": sum(result.latencies)}))
            return 0
        if args.trace:
            dump = TRACE_DIR / f"{args.workload}-{args.seed}.json"
            result, metrics, error = per_layer(make_round, args.workload, args.seed, dump)
        else:
            result, metrics = end_to_end(make_round, args.seconds)
    if error:
        print(error, file=sys.stderr)
    print(f"rounds: {result.rounds}", file=sys.stderr)
    print(json.dumps({
        "correct": result.wrong == 0 and error is None,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
