"""Fast self-test of the benchmark harness on synthetic input.

    python3 perfbench/selftest.py

Needs neither the program under test nor numpy.
"""

from __future__ import annotations

import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (Ledger, Rebinder, Tracer, exit_code,  # noqa: E402
                     median_pass, median_with_count, self_times, timed)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            [0, None, "a", 0.0, 10.0],
            [1, 0, "b", 1.0, 4.0],
            [2, 1, "c", 2.0, 3.0],
            [3, 0, "d", 5.0, 7.0],
        ]
        st = self_times(spans)
        self.assertAlmostEqual(st[0], 10.0 - 3.0 - 2.0)
        self.assertAlmostEqual(st[1], 3.0 - 1.0)
        self.assertAlmostEqual(st[2], 1.0)
        self.assertAlmostEqual(st[3], 2.0)

    def test_overlapping_children_counted_once(self):
        spans = [[0, None, "a", 0.0, 10.0], [1, 0, "b", 1.0, 5.0],
                 [2, 0, "c", 3.0, 6.0]]
        self.assertAlmostEqual(self_times(spans)[0], 10.0 - 5.0)

    def test_recorded_spans_nest(self):
        tracer = Tracer()
        inner = timed(tracer, "x.inner", lambda: 1)
        outer = timed(tracer, "x.outer", lambda: inner() + 1)
        tracer.active = True
        self.assertEqual(outer(), 2)
        (o, o_parent, *_), (i, i_parent, *_) = tracer.spans
        self.assertIsNone(o_parent)
        self.assertEqual(i_parent, o)
        st = self_times(tracer.spans)
        self.assertGreaterEqual(st[o], 0.0)
        self.assertLessEqual(st[o], tracer.spans[0][4] - tracer.spans[0][3])

    def test_inactive_tracer_records_nothing(self):
        tracer = Tracer()
        self.assertEqual(timed(tracer, "x.f", lambda: 3)(), 3)
        self.assertEqual(tracer.spans, [])


class Rebinding(unittest.TestCase):
    def test_every_namespace_rebound_and_restored(self):
        def f():
            return "f"

        home = types.ModuleType("home")
        user = types.ModuleType("user")
        home.f = f
        user.g = f          # imported under another name
        tracer = Tracer()
        rb = Rebinder()
        hits = rb.everywhere([home, user], f, timed(tracer, "home.f", f))
        self.assertEqual(hits, 2)
        tracer.active = True
        self.assertEqual(user.g(), "f")
        self.assertEqual(home.f(), "f")
        self.assertEqual([s[2] for s in tracer.spans], ["home.f", "home.f"])
        rb.restore()
        self.assertIs(home.f, f)
        self.assertIs(user.g, f)

    def test_after_hook_records_counts(self):
        tracer = Tracer()
        g = timed(tracer, "x.g", lambda n: list(range(n)),
                  lambda t, out, args: t.record("x.len", len(out)))
        tracer.active = True
        g(3)
        g(5)
        self.assertEqual(tracer.values["x.len"], [3, 5])


class Median(unittest.TestCase):
    def test_median_with_count(self):
        self.assertEqual(median_with_count([3.0, 1.0, 2.0]), (2.0, 3))
        self.assertEqual(median_with_count([4.0, 1.0, 2.0, 3.0]), (2.5, 4))
        with self.assertRaises(ValueError):
            median_with_count([])


class MedianPass(unittest.TestCase):
    def test_each_step_at_its_median(self):
        samples = {"setup": [3.0, 2.0, 4.0], "solve": [1.5, 1.0, 1.25, 2.0]}
        self.assertEqual(median_pass(samples, {"setup": 1, "solve": 2}),
                         (5.75, 7))
        with self.assertRaises(KeyError):
            median_pass(samples, {"missing": 1})


class Failures(unittest.TestCase):
    def test_counting(self):
        ledger = Ledger()
        self.assertTrue(ledger.check("ok", True))
        self.assertFalse(ledger.check("bad", False, "detail"))
        self.assertEqual(ledger.call("fine", lambda: 7)[0], 7)
        self.assertIsNone(ledger.call("boom", lambda: 1 / 0))
        self.assertEqual(ledger.attempted, 4)
        self.assertEqual(ledger.failed, 2)
        self.assertEqual(ledger.failed_share, 0.5)
        self.assertTrue(ledger.failures[0].startswith("bad: detail"))
        self.assertIn("ZeroDivisionError", ledger.failures[1])


class ExitCodes(unittest.TestCase):
    def test_system_exit(self):
        def raising(code):
            def entry(args, prog_name=None):
                raise SystemExit(code)
            return entry

        self.assertEqual(exit_code(raising(None), []), 0)
        self.assertEqual(exit_code(raising(0), []), 0)
        self.assertEqual(exit_code(raising(2), []), 2)
        self.assertEqual(exit_code(raising("message"), []), 1)
        self.assertEqual(exit_code(lambda args, prog_name=None: None, []), 0)

    def test_click_group(self):
        try:
            import click
        except ImportError:
            self.skipTest("click not installed")

        @click.group()
        def main():
            pass

        @main.command()
        @click.option("--code", type=int, default=0)
        def run(code):
            sys.exit(code)

        self.assertEqual(exit_code(main, ["run"]), 0)
        self.assertEqual(exit_code(main, ["run", "--code", "1"]), 1)
        self.assertEqual(exit_code(main, ["nope"]), 2)


if __name__ == "__main__":
    unittest.main()
