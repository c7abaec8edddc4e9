"""Compare two benchmark result sets, metric by metric and workload by workload.

Usage (from the repository root)::

    python bench/compare.py BASELINE.json CANDIDATE.json

Both files are result sets written by ``bench/run.py --runs N --record PATH``.
For every (metric, workload) pair the sets share, the report gives each
side's median and quartiles and one verdict:

* ``regression`` -- the candidate's median is worse than the baseline's by
  more than the metric's bound;
* ``unresolved`` -- the spread between the quartiles of either side, as a
  share of its median, exceeds the bound, so the medians cannot be told
  apart, unless every run of one side beats every run of the other;
* ``better`` -- the candidate's median is better by more than the bound;
* ``ok`` -- otherwise;
* ``unbounded`` -- the metric has no bound; its quartiles are shown only.

Any rise in the error rate (failed over attempted, all runs pooled) is a
regression.  The exit code is 1 when any pair is a regression or
unresolved, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

ERROR_RATE = "error_rate"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """The distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(baseline: Sequence[float], candidate: Sequence[float], better: str, bound: float) -> str:
    """The verdict for one metric on one workload (see the module docs)."""
    sign = 1.0 if better == "higher" else -1.0
    base_median = quartiles(baseline)[1]
    gain = sign * (quartiles(candidate)[1] - base_median) / abs(base_median) if base_median else 0.0
    a = [sign * value for value in baseline]
    b = [sign * value for value in candidate]
    separated = min(b) > max(a) or max(b) < min(a)
    if max(spread(baseline), spread(candidate)) > bound and not separated:
        return "unresolved"
    if gain < -bound:
        return "regression"
    if gain > bound:
        return "better"
    return "ok"


def error_verdict(baseline: Sequence[dict], candidate: Sequence[dict]) -> Tuple[float, float, str]:
    """Pooled error rates of both sides; any rise is a regression."""

    def rate(runs: Sequence[dict]) -> float:
        return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))

    old, new = rate(baseline), rate(candidate)
    return old, new, "regression" if new > old else "ok"


def compare(baseline: dict, candidate: dict) -> List[dict]:
    """One row per (workload, metric) pair both result sets measured."""
    table: Dict[str, dict] = {**candidate.get("metrics", {}), **baseline.get("metrics", {})}
    by_workload: Dict[str, Dict[str, List[dict]]] = defaultdict(lambda: {"a": [], "b": []})
    for side, document in (("a", baseline), ("b", candidate)):
        for run in document["runs"]:
            by_workload[run["workload"]][side].append(run)
    rows = []
    for workload, sides in sorted(by_workload.items()):
        if not sides["a"] or not sides["b"]:
            continue
        for name, spec in table.items():
            if name == ERROR_RATE:
                old, new, outcome = error_verdict(sides["a"], sides["b"])
                rows.append(_row(workload, name, spec, [old], [new], outcome))
                continue
            a = [r["metrics"][name]["value"] for r in sides["a"] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in sides["b"] if name in r["metrics"]]
            if a and b:
                bound = spec.get("bound")
                outcome = "unbounded" if bound is None else verdict(a, b, spec["better"], bound)
                rows.append(_row(workload, name, spec, a, b, outcome))
    return rows


def _row(workload: str, name: str, spec: dict, a: Sequence[float], b: Sequence[float], outcome: str) -> dict:
    return {
        "workload": workload,
        "metric": name,
        "unit": spec["unit"],
        "bound": spec["bound"],
        "a": quartiles(a),
        "b": quartiles(b),
        "spread": max(spread(a), spread(b)),
        "runs": (len(a), len(b)),
        "verdict": outcome,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="result set of the parent (bench/run.py --record)")
    parser.add_argument("candidate", help="result set of the change")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.baseline, args.candidate):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    print(
        f"{'workload':14} {'metric':18} {'baseline q1/median/q3':>30} "
        f"{'candidate q1/median/q3':>30} {'change':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    for row in rows:
        (a1, a2, a3), (b1, b2, b3) = row["a"], row["b"]
        change = (b2 - a2) / abs(a2) * 100.0 if a2 else 0.0
        bound = "-" if row["bound"] is None else f"{row['bound'] * 100:.0f}%"
        print(
            f"{row['workload']:14} {row['metric']:18} "
            f"{a1:9.4g} {a2:9.4g} {a3:9.4g} {row['unit']:>2}  "
            f"{b1:9.4g} {b2:9.4g} {b3:9.4g} {row['unit']:>2}  "
            f"{change:+7.1f}% {row['spread'] * 100:6.1f}% {bound:>6}  {row['verdict']}"
        )
    regressions = sum(row["verdict"] == "regression" for row in rows)
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    print(f"{len(rows)} comparisons: {regressions} regression(s), {unresolved} unresolved")
    return 1 if regressions or unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
