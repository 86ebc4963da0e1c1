"""End-to-end and per-layer measurement of one workload run."""

from __future__ import annotations

import gc
import math
import os
import resource
from dataclasses import dataclass

from gate import run_gate
from workloads import (
    CALIBRATION_REF_S,
    LADDER,
    REFERENCE_RATE,
    SETUP_SAMPLES,
    SLO_P99_MS,
    Group,
    StepResult,
    median,
)

#: The traced run and its untraced twin offer this share of the
#: end-to-end run's simulated load: the wrappers record several spans
#: per datagram, and the span list must fit in memory.
TRACE_SHARE = 0.25


@dataclass
class EndToEnd:
    e2e: dict
    attempted: int
    failed: int
    violations: list
    samples: dict
    curve: dict
    #: The wall-clock figures before scaling to the reference speed.
    unscaled: dict


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gate_step(workload, step: StepResult, drained: bool) -> tuple[list, set]:
    """Correctness gate for one step's histories."""
    return run_gate(
        step.group.histories,
        step.owed,
        relation=None if workload.abcast else workload.relation,
        total_order=workload.abcast,
        agreement=drained,
    )


def failed_ops(step: StepResult, condemned: set, count_late: bool) -> int:
    """Ops condemned by the gate, plus (with ``count_late``) ops not
    delivered everywhere they are owed by the end of the drain window."""
    failed = 0
    for mid in step.group.due:
        times = step.group.delivered.get(mid, {})
        late = count_late and any(key not in times for key in step.owed)
        failed += mid in condemned or late
    return failed


def run_end_to_end(workload, seed: int, seconds: float) -> EndToEnd:
    """The untraced run: the program exactly as users get it."""
    span_ms = seconds * workload.sim_ms_per_s
    setups = []
    ladder = workload.abcast
    # Set-up is sampled on throwaway groups plus every step's own group
    # (a ladder runs at least three steps when it works at all).
    builds = SETUP_SAMPLES - (3 if ladder else 1)
    for _ in range(builds):
        group = Group(seed, workload.n, workload.relation, workload.link, workload.recovery)
        setups.append((group.setup_s, group.calibration))
        group = None
        gc.collect()
    violations: list = []
    attempted = failed = 0
    curve: dict = {}
    reference = None
    for rate in (LADDER if ladder else (workload.rate,)):
        step = workload.step(seed, rate, span_ms)
        setups.append((step.group.setup_s, step.group.calibration))
        meets = step.meets_slo()
        found, condemned = gate_step(workload, step, drained=step.undelivered == 0)
        violations += [f"{rate:g} ops/s: {v}" for v in found]
        attempted += len(step.group.due)
        # Past the knee a step is cut before it drains: its late ops are
        # shed load (seen in delivered_frac), not failures.
        failed += failed_ops(step, condemned, count_late=rate <= REFERENCE_RATE)
        curve[rate] = {
            "p50_ms": step.p50,
            "p99_ms": step.p99,
            "delivered_frac": 1.0 - step.undelivered / max(1, len(step.group.due)),
            "meets_slo": meets,
        }
        if rate == workload.rate:
            reference = step
            # Later ladder steps build larger worlds; memory is read at
            # the reference step so that it compares like with like.
            peak_rss = peak_rss_mb()
        else:
            step.group = None
        gc.collect()
        if not meets and rate >= REFERENCE_RATE:
            break
    e2e = end_to_end_metrics(reference, curve, setups)
    e2e["peak_rss_mb"] = peak_rss
    unscaled = {
        "deliveries_per_wall_s": reference.phase.raw_rate(),
        "setup_s": median([s for s, _ in setups]),
        "calibration_loop_s": median(reference.phase.calibration),
    }
    samples = {
        "deliver_latency": len(reference.latencies),
        "deliver_beyond_p99": sum(1 for x in reference.latencies if x > reference.p99),
        "setup": len(setups),
        "service_gap": len(reference.gaps),
        "wall_slices": len(reference.phase.slices),
    }
    return EndToEnd(e2e, attempted, failed, violations, samples, curve, unscaled)


def end_to_end_metrics(step: StepResult, curve: dict, setups: list) -> dict:
    phase = step.phase
    step.gaps = step.service_gaps()
    return {
        "deliveries_per_wall_s": phase.rate(),
        # Set-up time at the calibration loop's reference speed, like
        # deliveries_per_wall_s.
        "setup_s": median([s for s, _ in setups]) * CALIBRATION_REF_S
        / median([c for _, c in setups]),
        "deliver_p50_ms": step.p50,
        "deliver_p99_ms": step.p99,
        "max_rate_under_slo": max_rate_under_slo(curve),
        "datagrams_per_delivery": phase.counters.get("net.sent", 0) / phase.deliveries,
        "bytes_per_delivery": phase.counters.get("net.bytes", 0) / phase.deliveries,
        "service_gap_ms": median(step.gaps),
    }


def max_rate_under_slo(curve: dict) -> float:
    """Highest offered rate meeting the p99 limit.

    Between the highest passing step and the step above it, the limit's
    crossing is interpolated linearly in log p99; with no step above
    (a fixed-rate workload) it is the passing rate itself, and 0 when no
    step passes.
    """
    rates = sorted(curve)
    passing = [r for r in rates if curve[r]["meets_slo"]]
    if not passing:
        return 0.0
    low = passing[-1]
    above = [r for r in rates if r > low]
    if not above:
        return float(low)
    high = above[0]
    p_low, p_high = curve[low]["p99_ms"], curve[high]["p99_ms"]
    if p_high <= SLO_P99_MS:
        # The step above held the p99 limit but not the drain: no crossing.
        return float(low)
    share = math.log(SLO_P99_MS / p_low) / math.log(p_high / p_low)
    return low + (high - low) * share


@dataclass
class Layers:
    metrics: dict
    span_file: str
    violations: list


def ratio(numerator: float, denominator: float) -> float:
    """A per-unit ratio; 0 when the layer did no work on this workload."""
    return numerator / denominator if denominator else 0.0


def delivery_digest(group: Group) -> list:
    return sorted((key, [m.id for m in seq]) for key, seq in group.histories.items())


def run_layers(workload, seed: int, seconds: float, run: EndToEnd, out_dir: str) -> Layers:
    """Per-layer metrics: counters and the program's own span tree from
    an untraced run, self time and call counts from its traced twin."""
    from repro.sim import critpath
    from tracer import Tracer

    gc.collect()

    span_ms = seconds * workload.sim_ms_per_s * TRACE_SHARE
    plain = workload.step(seed, workload.rate, span_ms)
    violations, _ = gate_step(workload, plain, drained=True)
    phase, group = plain.phase, plain.group
    c = phase.counters
    n = phase.deliveries
    world = group.world
    spans = world.trace.spans
    paths = critpath.summarize_deliveries(spans, "gdeliver", "gbcast")
    ordering = critpath.summarize_deliveries(spans, "adeliver", "abcast")
    decide_delays = sorted(critpath.decision_delays(spans))
    decided = sum(c.get(k, 0) for k in c if k.startswith("consensus.decided_round_"))
    by_layer = paths.get("by_layer_ms", {})
    metrics = {
        "sim.events_per_delivery": (ratio(phase.events, n), "1"),
        "sim.peak_pending": (float(phase.peak_pending), "count"),
        "tracing.spans_per_delivery": (ratio(len(spans) - phase.spans_before, n), "1"),
        "tracing.records_per_delivery": (
            ratio(len(world.trace.records) - phase.records_before, n), "1"),
        "transport.dropped": (float(sum(v for k, v in c.items()
                                        if k.startswith("net.dropped.")
                                        or k == "net.stale_incarnation_dropped")), "count"),
        "rc.datagrams_per_delivery": (ratio(c.get("net.sent.rc", 0), n), "1"),
        "rc.retransmit_ratio": (ratio(c.get("rc.retransmits", 0), c.get("rc.sent", 0)), "1"),
        "fd.datagrams_per_delivery": (ratio(c.get("net.sent.fd", 0), n), "1"),
        "fd.suppressed_ratio": (ratio(c.get("fd.suppressed", 0),
                                      c.get("fd.suppressed", 0) + c.get("fd.explicit_hb", 0)), "1"),
        "rbcast.relay_ratio": (ratio(c.get("rb.relayed", 0) + c.get("rb.forwarded", 0),
                                     c.get("rb.broadcasts", 0)), "1"),
        "rbcast.suspect_floods": (float(c.get("rb.suspect_floods", 0)), "count"),
        "consensus.msgs_per_decide": (ratio(c.get("consensus.messages", 0), decided), "1"),
        "consensus.round0_fraction": (ratio(c.get("consensus.decided_round_0", 0), decided), "1"),
        "consensus.decide_p50_ms": (median(decide_delays) if decide_delays else 0.0, "ms"),
        "abcast.ops_per_instance": (ratio(c.get("abcast.delivered", 0),
                                          c.get("abcast.instances", 0)), "1"),
        "abcast.ordering_wait_ms": (ordering.get("mean_ordering_wait_ms", 0.0), "ms"),
        "abcast.pull_retries": (float(c.get("abcast.pull_retries", 0)), "count"),
        "gbcast.fast_fraction": (ratio(c.get("gbcast.delivered.fast", 0),
                                       c.get("gbcast.delivered", 0)), "1"),
        "gbcast.endstages_per_op": (ratio(c.get("gbcast.endstages", 0),
                                          c.get("gbcast.broadcasts", 0)), "1"),
        "gbcast.datagrams_per_delivery": (ratio(c.get("net.sent.gbcast", 0), n), "1"),
        "membership.views_installed": (float(c.get("gm.views_installed", 0)), "count"),
        "membership.state_transfers": (float(c.get("gm.state_transfers", 0)), "count"),
        "membership.rejoin_ms": (median(group.rejoin_ms) if group.rejoin_ms else 0.0, "ms"),
        "monitoring.fd_suspicions": (float(c.get("monitoring.fd_suspicions", 0)), "count"),
        "monitoring.output_suspicions": (float(c.get("monitoring.output_suspicions", 0)), "count"),
        "monitoring.exclusions_requested": (
            float(c.get("monitoring.exclusions_requested", 0)), "count"),
    }
    for layer in ("rc", "rbcast", "consensus", "abcast", "gbcast"):
        metrics[f"{layer}.critpath_ms"] = (by_layer.get(layer, 0.0), "ms")
    reference = delivery_digest(group)
    plain_rate = phase.rate()
    plain = phase = group = world = spans = None
    gc.collect()

    tracer = Tracer()
    traced = workload.step(seed, workload.rate, span_ms, tracer)
    found, _ = gate_step(workload, traced, drained=True)
    violations += found
    if delivery_digest(traced.group) != reference:
        violations.append("traced run delivered differently from its untraced twin")
    # Wall-time attribution covers the offered-load window, the window
    # deliveries_per_wall_s is measured over.
    self_ns, calls, covered = tracer.totals(traced.phase.load_spans)
    n = traced.phase.load_deliveries
    wall_ns = traced.phase.load_wall_s * 1e9
    residual_ns = wall_ns - covered
    metrics["sim.self_us_per_delivery"] = (ratio(residual_ns / 1e3, n), "us")
    metrics["sim.residual_share"] = (residual_ns / wall_ns, "1")
    metrics["traced_run.overhead"] = (ratio(traced.phase.rate(), plain_rate), "1")
    metrics["rbcast.bytes_per_delivery"] = (ratio(tracer.rb_bytes, traced.phase.deliveries), "B")
    for layer in ("transport", "wire"):
        metrics[f"{layer}.calls_per_delivery"] = (ratio(calls.get(layer, 0), n), "1")
    for layer in ("transport", "wire", "rc", "fd", "rbcast", "consensus", "abcast", "gbcast",
                  "membership"):
        metrics[f"{layer}.self_us_per_delivery"] = (ratio(self_ns.get(layer, 0) / 1e3, n), "us")
    for rate in LADDER:
        point = run.curve.get(rate) if workload.abcast else None
        metrics[f"curve.p50_ms.r{rate}"] = (point["p50_ms"] if point else 0.0, "ms")
        metrics[f"curve.p99_ms.r{rate}"] = (point["p99_ms"] if point else 0.0, "ms")
        metrics[f"curve.delivered_frac.r{rate}"] = (point["delivered_frac"] if point else 0.0, "1")

    span_file = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.csv.gz")
    tracer.write(span_file)
    return Layers(metrics, span_file, violations)
