"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout of this repository::

    python3 perfbench/run.py --workload commute --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload exactly as users get the program and
prints the end-to-end metrics; ``--trace 1`` adds a traced run that
wraps each layer's entry points and prints the per-layer metrics.  Every
metric is printed as ``name value unit`` and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A fuller record with run metadata is written to
``.perfbench_out/``.  The exit code is 1 when a correctness check fails
and 2 when the run cannot start (no ``src/repro``, an unknown workload,
or a ``--seconds`` too short to define every metric).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys

OUT_DIR = ".perfbench_out"

E2E_UNITS = {
    "deliveries_per_wall_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "deliver_p50_ms": "ms",
    "deliver_p99_ms": "ms",
    "max_rate_under_slo": "ops/s",
    "datagrams_per_delivery": "1",
    "bytes_per_delivery": "B",
    "service_gap_ms": "ms",
}


def source_digest(root: str) -> str:
    """SHA-256 over the program's source files (names and contents)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = measure.run_end_to_end(workload, args.seed, args.seconds)
    undefined = [name for name, value in run.e2e.items() if not math.isfinite(value)]
    if undefined:
        print(f"perfbench: --seconds {args.seconds:g} is too short for {args.workload}: "
              f"{', '.join(undefined)} undefined", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "correct": not run.violations,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "violations": run.violations[:20],
        "samples": run.samples,
        "end_to_end": run.e2e,
        "unscaled": run.unscaled,
    }
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        layers = measure.run_layers(workload, args.seed, args.seconds, run, out_dir)
        record["per_layer"] = layers.metrics
        record["span_file"] = os.path.relpath(layers.span_file, root)
        record["correct"] = record["correct"] and not layers.violations
        record["violations"] += layers.violations[:20]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(layers.metrics.items())}
    else:
        metrics = {name: {"value": run.e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}

    for name, unit in E2E_UNITS.items():
        print(f"{name} {run.e2e[name]:.6g} {unit}")
    print(f"failed_frac {record['failed_frac']:.6g} 1")
    for name, count in sorted(run.samples.items()):
        print(f"samples.{name} {count} count")
    if args.trace:
        for name, (value, unit) in sorted(layers.metrics.items()):
            print(f"{name} {value:.6g} {unit}")
        print(f"span_file {record['span_file']}")
    for violation in record["violations"]:
        print(f"VIOLATION {violation}")

    out = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
