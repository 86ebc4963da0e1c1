"""Unit coverage for the bench shape guard (schema v6 rules).

The benchmark runner is exercised end to end by CI's ``--check`` run;
these tests pin the *rules* — the one-sided latency bound, the
``decision_path`` round-0 shape and the actionable shape-failure
messages — against hand-built documents, so a
rule regression fails fast without re-running every scenario.
"""

import json
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[2] / "benchmarks"
if str(_BENCH) not in sys.path:  # run_all expects its own dir importable
    sys.path.insert(0, str(_BENCH))

from run_all import (  # noqa: E402
    SCHEMA,
    check,
    compare,
    round0_dominates,
)


def test_schema_is_v6():
    assert SCHEMA == "bench-abgb/v6"


def test_latency_improvement_never_fails():
    baseline = {"latency_ms": {"p50": 42.9, "p95": 80.0}}
    current = {"latency_ms": {"p50": 23.5, "p95": 30.0}}
    assert compare(baseline, current, tolerance=0.25) == []


def test_latency_regression_over_10pct_fails():
    baseline = {"latency_ms": {"p50": 20.0}}
    current = {"latency_ms": {"p50": 22.1}}  # +10.5%
    problems = compare(baseline, current, tolerance=0.25)
    assert len(problems) == 1
    assert "latency regressed" in problems[0]
    # ...but within the one-sided bound it passes.
    assert compare(baseline, {"latency_ms": {"p50": 21.9}}, tolerance=0.25) == []


def test_critical_path_latency_means_are_one_sided_too():
    baseline = {"critical_path": {"mean_latency_ms": 30.0}}
    faster = {"critical_path": {"mean_latency_ms": 10.0}}
    slower = {"critical_path": {"mean_latency_ms": 40.0}}
    assert compare(baseline, faster, tolerance=0.25) == []
    assert compare(baseline, slower, tolerance=0.25) != []


def test_round0_dominates_rule():
    assert round0_dominates({"round0_fraction": 1.0})
    assert round0_dominates({"round0_fraction": 0.96})
    assert not round0_dominates({"round0_fraction": 0.5})
    # A run with no consensus at all trivially passes.
    assert round0_dominates({"round0_fraction": None})


def _empty_baseline(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"scenarios": {}}))
    return path


def test_shape_failure_quotes_the_measured_detail(tmp_path):
    # A false shape flag must surface the scenario's shape_detail string
    # (measured value + bound) — a bare flag name is not actionable.
    detail = "demo ratio 2.7 <= bound 2.0"
    doc = {
        "scenarios": {
            "demo": {
                "shape": {"ratio_bounded": False, "other": True},
                "shape_detail": {"ratio_bounded": detail},
            }
        }
    }
    problems = check(doc, _empty_baseline(tmp_path), tolerance=0.25)
    assert len(problems) == 1
    assert "scenarios.demo.shape.ratio_bounded" in problems[0]
    assert detail in problems[0]
