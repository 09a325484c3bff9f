#!/usr/bin/env python3
"""Perf-regression gate: a change against its merge-base, on one machine.

Usage, from the root of the change's checkout:

    git worktree add --detach ../base "$(git merge-base HEAD origin/main)"
    python3 scripts/bench_gate.py --base-dir ../base --head-dir .

For every workload in the head's BENCHMARK.json the gate runs PAIRS
pairs of `python3 perfbench/run.py --trace 0` at the benchmark's
run_seconds, one seed per pair. Each side runs its own perfbench/run.py
and builds into its own .bench_build/. The order alternates (base first,
then head first), so a drifting machine slows both sides alike.
perfbench pins itself to one CPU and calibrates every timing.

Each pair gives a head/base ratio per end-to-end metric, and the gate
judges the median ratio over the pairs. Rates (units per second) and the
p50/p99 latencies are gated: worse by more than FAIL in the metric's
`better` direction fails, worse by more than WARN warns. The other
metrics (one-shot set-up time, p95, peak RSS, accuracy) are reported
only. When perfbench/ or BENCHMARK.json differ between the two sides,
the sides run different benchmark code, so a regression or a failed
base run is downgraded to a warning.

The A/B summary (base and head medians, the per-pair ratios and their
median, per workload and metric) is written to bench_ab.json in the
current directory.

Exit codes: 0 pass (warnings allowed), 1 a gated metric regressed past
FAIL, 2 a run failed, printed `correct: false` or lacked a gated metric.
Output is plain text plus GitHub workflow commands (::error:: and
::warning::), so findings surface as annotations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
FAIL = 0.20  # median ratio worse than this fraction fails the gate.
WARN = 0.10  # ... worse than this warns.
SUMMARY = "bench_ab.json"
BENCHMARK_CODE = ("perfbench", "BENCHMARK.json")


class RunFailed(Exception):
    def __init__(self, side, message):
        super().__init__(f"{side} run {message}")
        self.side = side


def is_gated(metric):
    """Closed-loop rates and the p50/p99 percentiles average many
    operations; one-shot values are too noisy to block a change on."""
    return "/s" in metric["unit"] or metric["name"].endswith(("_p50", "_p99"))


def parse_run(run, side):
    """(exit code, stdout) of one perfbench run -> {metric: value}."""
    returncode, stdout = run
    if returncode != 0:
        raise RunFailed(side, f"exited {returncode}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = {name: float(m["value"])
                   for name, m in result["metrics"].items()}
    except (IndexError, KeyError, TypeError, ValueError):
        raise RunFailed(side, "printed no result line") from None
    if result.get("correct") is not True:
        raise RunFailed(side, "printed correct: false")
    return metrics


def judge(spec, runs, benchmark_differs=False):
    """Gate {workload: [(base run, head run), ...]} -> (exit code, summary).

    A run is (exit code, stdout) of `perfbench/run.py`."""
    regressed = broken = 0
    warned = []
    summary = {"pairs": PAIRS, "benchmark_differs": benchmark_differs,
               "workloads": {}}

    def problem(message, base_side):
        nonlocal broken
        if base_side and benchmark_differs:
            print(f"::warning::{message} (the sides run different "
                  f"benchmark code, not failing)")
            warned.append(message)
        else:
            print(f"::error::{message}")
            broken += 1

    for workload in (w["name"] for w in spec["workloads"]):
        try:
            pairs = [(parse_run(base, "base"), parse_run(head, "head"))
                     for base, head in runs.get(workload, [])]
        except RunFailed as e:
            problem(f"{workload}: {e}", e.side == "base")
            continue
        if not pairs:
            problem(f"{workload}: no runs", False)
            continue

        table = summary["workloads"][workload] = {}
        for metric in spec["end_to_end"]:
            name, gated = metric["name"], is_gated(metric)
            lacking = [side for side, i in (("base", 0), ("head", 1))
                       if any(name not in p[i] for p in pairs)]
            if lacking:
                if gated:
                    problem(f"{workload}: {' and '.join(lacking)} run "
                            f"lacks gated metric '{name}'",
                            lacking == ["base"])
                continue
            ratios = [h[name] / b[name] for b, h in pairs]
            ratio = statistics.median(ratios)
            worse = 1 - ratio if metric["better"] == "higher" else ratio - 1
            verdict = "info"
            if gated:
                verdict = ("fail" if worse > FAIL
                           else "warn" if worse > WARN else "ok")
            entry = table[name] = {
                "base": statistics.median(b[name] for b, _ in pairs),
                "head": statistics.median(h[name] for _, h in pairs),
                "ratio": ratio, "pair_ratios": ratios, "gated": gated,
                "verdict": verdict}

            line = (f"{workload}: {name}: head/base {ratio:.3f} (pairs "
                    f"{' '.join(f'{r:.3f}' for r in ratios)}; base "
                    f"{entry['base']:.4g}, head {entry['head']:.4g} "
                    f"{metric['unit']}, {metric['better']} is better)")
            if verdict == "fail" and not benchmark_differs:
                print(f"::error::{line}: {worse:.1%} worse, past the "
                      f"{FAIL:.0%} gate")
                regressed += 1
            elif verdict in ("fail", "warn"):
                note = (" (the sides run different benchmark code, not "
                        "failing)" if verdict == "fail" else "")
                print(f"::warning::{line}: {worse:.1%} worse, past the "
                      f"{WARN:.0%} warning line{note}")
                warned.append(f"{workload}: {name}")
            else:
                print(f"{verdict}: {line}")

    code = 2 if broken else 1 if regressed else 0
    print(f"\nbench-gate: {len(spec['workloads'])} workloads, "
          f"{regressed} regressed, {broken} broken, {len(warned)} warned "
          f"(fail past {FAIL:.0%}, warn past {WARN:.0%} on the median "
          f"head/base ratio of {PAIRS} pairs)")
    for item in warned:
        print(f"  warned: {item}")
    summary["exit_code"] = code
    return code, summary


def run_side(root, workload, seed, seconds):
    """One untraced perfbench run of the checkout at @p root."""
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    if proc.returncode:
        sys.stdout.write(proc.stderr[-4000:])
    return proc.returncode, proc.stdout


def benchmark_differs(base_dir, head_dir):
    """True if the head's perfbench/ or BENCHMARK.json differ from the
    base's commit."""
    rev = subprocess.run(["git", "-C", base_dir, "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, text=True, check=True)
    diff = subprocess.run(["git", "-C", head_dir, "diff", "--quiet",
                           rev.stdout.strip(), "--", *BENCHMARK_CODE])
    if diff.returncode not in (0, 1):
        raise subprocess.CalledProcessError(diff.returncode, diff.args)
    return diff.returncode == 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base-dir", required=True,
                    help="checkout of the merge-base")
    ap.add_argument("--head-dir", required=True,
                    help="checkout of the change")
    args = ap.parse_args()
    dirs = {"base": os.path.abspath(args.base_dir),
            "head": os.path.abspath(args.head_dir)}

    try:
        with open(os.path.join(dirs["head"], "BENCHMARK.json")) as f:
            spec = json.load(f)
        differs = benchmark_differs(dirs["base"], dirs["head"])
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print(f"::error::bench-gate: {e}")
        return 2
    if differs:
        print("perfbench/ or BENCHMARK.json differ between the sides: "
              "regressions are reported as warnings")

    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = []
        for i in range(PAIRS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            out = {side: run_side(dirs[side], workload, i + 1,
                                  spec["run_seconds"]) for side in order}
            runs[workload].append((out["base"], out["head"]))
            print(f"{workload}: pair {i + 1}/{PAIRS} ran ({order[0]} "
                  f"first)", flush=True)
            if out["base"][0] or out["head"][0]:
                break  # a broken side stays broken; judge() reports it.

    code, summary = judge(spec, runs, differs)
    with open(SUMMARY, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
