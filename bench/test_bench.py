"""Self-tests of the benchmark: the witness checker rejects corrupted
witnesses, and a short seeded run of every workload fails no operation.

Run from the repository root:

    python3 bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pientail as pt  # noqa: E402

import run  # noqa: E402
import witness  # noqa: E402
import workloads  # noqa: E402

CYCLE = workloads.PAPER_CYCLE
CYCLE_CONCLUSION = (workloads.PAPER_ANTECEDENT, ("A",))


class TypeSpaceTest(unittest.TestCase):
    def test_masks_list_every_type_once(self):
        space = witness.TypeSpace(["p", "q", "r", "s"])
        for t in range(16):
            for i, name in enumerate(space.attrs):
                self.assertEqual(space.containing([name]) >> t & 1, t >> i & 1)
        self.assertEqual(space.containing([]), space.everything)
        self.assertEqual(space.everything, (1 << 16) - 1)


class CertificateTest(unittest.TestCase):
    def test_single_premise_multiplier_nudged_below_one(self):
        rule = (("A",), ("B",))
        half = Fraction(1, 2)
        self.assertTrue(witness.certificate_ok([rule], rule, half, [Fraction(1)]))
        # The violating type {A} needs -lambda * gamma <= -gamma.
        nudged = [Fraction(999, 1000)]
        self.assertFalse(witness.certificate_ok([rule], rule, half, nudged))

    def test_cycle_uniform_multipliers_nudged(self):
        third = Fraction(1, 3)
        gamma = Fraction(2, 3)
        self.assertTrue(witness.certificate_ok(CYCLE, CYCLE_CONCLUSION, gamma, [third] * 3))
        nudged = [third - Fraction(1, 1000), third, third]
        self.assertFalse(witness.certificate_ok(CYCLE, CYCLE_CONCLUSION, gamma, nudged))
        query = run._query(pt, workloads.Query(
            ("A", "B", "C", "D", "H"), CYCLE, CYCLE_CONCLUSION, gamma))
        self.assertFalse(pt.check_certificate(query, nudged))

    def test_wrong_length_and_negative_multipliers(self):
        rule = (("A",), ("B",))
        self.assertFalse(witness.certificate_ok([rule], rule, Fraction(1, 2), []))
        self.assertFalse(witness.certificate_ok([rule], rule, Fraction(1, 2), [Fraction(-1)]))


class CounterexampleTest(unittest.TestCase):
    premise = (("A",), ("B",))
    conclusion = (("A",), ("C",))
    half = Fraction(1, 2)

    def test_count_off_by_one(self):
        good = [(("A", "B"), 1), (("A",), 1)]
        self.assertTrue(witness.counterexample_ok([self.premise], self.conclusion, self.half, good))
        # One more {A} drops the premise's confidence to 1/3.
        bad = [(("A", "B"), 1), (("A",), 2)]
        self.assertFalse(witness.counterexample_ok([self.premise], self.conclusion, self.half, bad))

    def test_nonpositive_counts(self):
        bad = [(("A", "B"), 1), (("A",), 0)]
        self.assertFalse(witness.counterexample_ok([self.premise], self.conclusion, self.half, bad))

    def test_library_counterexample_and_its_corruption(self):
        gamma = Fraction(1, 2)
        query = workloads.Query(("A", "B", "C", "D", "H"), CYCLE, CYCLE_CONCLUSION, gamma)
        verdict = pt.decide(run._query(pt, query))
        self.assertFalse(verdict.holds)
        self.assertIsNone(run.verdict_error(CYCLE, CYCLE_CONCLUSION, gamma, verdict))
        items = [(t.names, c) for t, c in verdict.counterexample.items()]
        # Dropping every transaction that covers the conclusion leaves
        # nothing that violates it.
        kept = [(t, c) for t, c in items if not set(CYCLE_CONCLUSION[0]) <= set(t)]
        self.assertFalse(witness.counterexample_ok(CYCLE, CYCLE_CONCLUSION, gamma, kept))


class BracketTest(unittest.TestCase):
    def test_swapped_bracket(self):
        cycle = workloads.Cycle(
            CYCLE, workloads.PAPER_ANTECEDENT, "A", Fraction(1, 1024), workloads.PAPER_GAMMA_STAR)
        with run.tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench-") as scratch:
            path = Path(scratch) / "cycle.rules"
            path.write_text(run._rule_file(cycle.rules))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = pt.cli.run(["gamma-star", "--premises", str(path),
                                   "--antecedent", "B C D H", "--tol", "1/1024", "--json"])
        self.assertIsNone(run.bracket_error(pt, cycle, code, out.getvalue()))
        payload = json.loads(out.getvalue())
        payload["gamma_star_lower"], payload["gamma_star_upper"] = (
            payload["gamma_star_upper"], payload["gamma_star_lower"])
        self.assertIsNotNone(run.bracket_error(pt, cycle, code, json.dumps(payload)))

    def test_threshold_multipliers_below_the_threshold(self):
        lams = [Fraction(1, 3)] * 3
        antecedent = workloads.PAPER_ANTECEDENT
        # The worst ratio of uniform multipliers on the cycle is 2/3.
        two_thirds = Fraction(2, 3)
        self.assertTrue(witness.threshold_multipliers_ok(CYCLE, antecedent, lams, two_thirds))
        below = two_thirds - Fraction(1, 1000)
        self.assertFalse(witness.threshold_multipliers_ok(CYCLE, antecedent, lams, below))


class ShortRunTest(unittest.TestCase):
    def one_round(self, workload: str, tracer=None) -> run.Pass:
        with run.tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench-") as scratch:
            return run.run_rounds(
                lambda r: run.ROUNDS[workload](pt, 7, r, Path(scratch)),
                None, 1, tracer)

    def test_every_workload_fails_nothing(self):
        for workload in run.ROUNDS:
            with self.subTest(workload=workload):
                result = self.one_round(workload)
                self.assertGreater(result.attempted, 0)
                self.assertEqual(result.failed, 0)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        def prune_round(r):
            return run.prune_round(pt, 3, r, run.ROOT)

        _, metrics = run.end_to_end(prune_round, 0)
        self.assertEqual(set(metrics), {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(
            {name: unit for name, (_, unit) in metrics.items()},
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
        )
        result, layers, error = run.per_layer(prune_round, "prune", 3)
        self.assertIsNone(error)
        self.assertEqual(result.failed, 0)
        self.assertEqual(set(layers), {m["name"] for m in spec["per_layer"]})
        self.assertEqual(set(run.ROUNDS), {w["name"] for w in spec["workloads"]})

    def test_wrong_output_counts_as_failed(self):
        ops = [run.Op(lambda: 1, lambda out: None), run.Op(lambda: 2, lambda out: "off by one")]
        result = run.run_rounds(lambda r: ops, None, 2)
        self.assertEqual((result.attempted, result.wrong, result.raised), (4, 2, 0))
        self.assertEqual(len(result.latencies), 4)

    def test_traced_counts_repeat(self):
        counts = []
        for _ in range(2):
            tracer = run.tracing.Tracer(sys.modules)
            self.one_round("decide-mix", tracer)
            counts.append({k: v for k, v in tracer.layer_metrics().items()
                           if not k.endswith("_s")})
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["entailment.decide.calls"], 30)

    def test_spans_must_cover_the_traced_calls(self):
        tracer = run.tracing.Tracer(sys.modules)
        traced = self.one_round("decide-mix", tracer)
        self.assertIsNone(run.coverage_error(tracer, traced.call_s))
        # Calls that bypass the bindings leave the spans short of the call time.
        bypassed = self.one_round("decide-mix")
        self.assertIsNotNone(run.coverage_error(tracer, traced.call_s + bypassed.call_s))


if __name__ == "__main__":
    unittest.main()
