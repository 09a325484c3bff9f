#!/usr/bin/env python3
"""Unit tests for scripts/bench_gate.py; no build needed.

    python3 scripts/test_bench_gate.py

Each test feeds judge() synthetic perfbench result lines for both
sides of every BENCHMARK.json workload and checks the exit code and
the annotations it prints.
"""

import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_gate  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def result_line(scale=None, correct=True, drop=()):
    """One perfbench result line: every end-to-end metric at 100 units,
    times the factor @p scale gives it, minus the metrics in @p drop."""
    scale = scale or {}
    metrics = {name: {"value": 100.0 * scale.get(name, 1.0),
                      "unit": m["unit"]}
               for name, m in METRICS.items() if name not in drop}
    return json.dumps({"correct": correct, "attempted": 10,
                       "failed": 0 if correct else 1, "metrics": metrics})


def judge(head, base=(0, result_line()), differs=False, workload=None):
    """Gate every workload with @p base against @p head (only on
    @p workload if given; the others get equal sides)."""
    runs = {}
    for w in SPEC["workloads"]:
        side = head if workload in (None, w["name"]) else base
        runs[w["name"]] = [(base, side)] * bench_gate.PAIRS
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, summary = bench_gate.judge(SPEC, runs, differs)
    return code, summary, out.getvalue()


class GateTest(unittest.TestCase):
    def test_equal_sides_pass(self):
        code, summary, out = judge((0, result_line()))
        self.assertEqual(code, 0)
        self.assertNotIn("::warning::", out)
        self.assertNotIn("::error::", out)
        for table in summary["workloads"].values():
            self.assertEqual(table["ops_per_s"]["verdict"], "ok")
            self.assertEqual(table["setup_s"]["verdict"], "info")
            self.assertEqual(table["ops_per_s"]["ratio"], 1.0)

    def test_fifteen_percent_slower_warns(self):
        head = (0, result_line({"ops_per_s": 0.85}))
        code, summary, out = judge(head, workload="dse_sweep")
        self.assertEqual(code, 0)
        self.assertIn("::warning::dse_sweep: ops_per_s", out)
        self.assertEqual(
            summary["workloads"]["dse_sweep"]["ops_per_s"]["verdict"],
            "warn")
        self.assertNotIn("::error::", out)

    def test_twenty_five_percent_worse_fails(self):
        for metric, factor in (("ops_per_s", 0.75),
                               ("latency_ms_p99", 1.25)):
            with self.subTest(metric=metric):
                head = (0, result_line({metric: factor}))
                code, _, out = judge(head, workload="serve_cold")
                self.assertEqual(code, 1)
                self.assertIn(f"::error::serve_cold: {metric}", out)
                self.assertEqual(out.count("::error::"), 1)

    def test_ungated_metric_only_reported(self):
        head = (0, result_line({"peak_rss_mb": 2.0, "setup_s": 2.0}))
        code, summary, _ = judge(head)
        self.assertEqual(code, 0)
        table = summary["workloads"]["serve_hot"]
        self.assertEqual(table["peak_rss_mb"]["ratio"], 2.0)
        self.assertEqual(table["peak_rss_mb"]["verdict"], "info")

    def test_broken_run_exits_2(self):
        for name, head in (
                ("correct false", (0, result_line(correct=False))),
                ("non-zero exit", (1, result_line())),
                ("no result line", (0, "")),
                ("missing metric",
                 (0, result_line(drop=("latency_ms_p50",))))):
            with self.subTest(name):
                code, _, out = judge(head, workload="guided_search")
                self.assertEqual(code, 2)
                self.assertIn("::error::guided_search: head run", out)

    def test_different_benchmark_code_only_warns(self):
        head = (0, result_line({"ops_per_s": 0.5}))
        code, _, out = judge(head, differs=True)
        self.assertEqual(code, 0)
        self.assertNotIn("::error::", out)
        self.assertIn("::warning::dse_sweep: ops_per_s", out)
        # A base that cannot run the head's benchmark only warns too,
        # but a broken head still fails.
        code, _, _ = judge((0, result_line()), base=(2, ""), differs=True)
        self.assertEqual(code, 0)
        code, _, _ = judge((2, ""), differs=True)
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
