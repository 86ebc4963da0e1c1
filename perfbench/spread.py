"""Run a workload over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload commute --seeds 1-10 --seconds 20

Each seed runs ``perfbench/run.py`` in a fresh interpreter, one after
another; a seed whose correctness check fails is reported and its
metrics still count.  For every metric the report gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  With ``--bounds`` the
spread is compared with the bound each metric has in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)

    bounds = {}
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            for metric in json.load(fh)["end_to_end"]:
                bounds[metric["name"]] = metric["bound"]
    except (OSError, KeyError, ValueError):
        pass

    values: dict[str, list[float]] = {}
    incorrect: list[int] = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=600, check=False,
        )
        if proc.returncode not in (0, 1):
            print(f"seed {seed}: exit {proc.returncode}")
            print(proc.stdout[-2000:] + proc.stderr[-2000:])
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            incorrect.append(seed)
            print(f"seed {seed}: correctness check FAILED ({result['failed']} of "
                  f"{result['attempted']} ops condemned)")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in sorted(result["metrics"].items())), flush=True)

    within = True
    for name, series in sorted(values.items()):
        q1, q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
            within = within and spread <= bound
        print(f"{name:28s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:7.4f}  bound {bound}  {verdict}")
    if incorrect:
        print(f"correctness check failed on seeds {incorrect}")
    return 0 if within and not incorrect else 1


if __name__ == "__main__":
    sys.exit(main())
