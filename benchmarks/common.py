"""Shared helpers for the benchmark harness.

Every bench reproduces one artefact of the paper (a figure, a conflict
table, or a Section 4 claim).  Since the paper reports *arguments* rather
than absolute numbers, each bench prints the rows that support (or would
refute) the corresponding claim and asserts the claim's *shape* — who
wins, and roughly by how much.

The tables are printed with output capture disabled so they appear in
``pytest benchmarks/ --benchmark-only`` runs.
"""

from __future__ import annotations

import math
from typing import Any

from repro.sim.world import World


def fmt(value: Any) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        return f"{value:.2f}"
    return str(value)


def fmt_table(headers: list[str], rows: list[list[Any]]) -> str:
    cells = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def line(parts, pad=" "):
        return " | ".join(p.ljust(w, pad) for p, w in zip(parts, widths))
    out = [line(headers), line(["-" * w for w in widths], pad="-")]
    out += [line(r) for r in cells]
    return "\n".join(out)


def report(capsys, title: str, headers: list[str], rows: list[list[Any]], note: str = "") -> None:
    with capsys.disabled():
        print(f"\n{'=' * 74}")
        print(f"  {title}")
        print(f"{'=' * 74}")
        print(fmt_table(headers, rows))
        if note:
            print(f"\n  {note}")


def report_text(capsys, title: str, body: str) -> None:
    with capsys.disabled():
        print(f"\n{'=' * 74}")
        print(f"  {title}")
        print(f"{'=' * 74}")
        print(body)


def once(benchmark, fn):
    """Run the scenario exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def teardown_leaks(world: World, timeout: float = 30_000.0) -> int:
    """Scenario teardown for latency-interval hygiene.

    Scenario exit conditions (a view installed, one message delivered)
    routinely fire while later broadcasts are still in flight, leaving
    their latency intervals open.  This drains the world until the open
    gauge reaches zero (or ``timeout`` simulated ms pass), then abandons
    whatever is left — those intervals can never close once the world is
    discarded, and they must not linger as phantom leaks.  Returns the
    number still open *after* the drain, which the benches assert to be
    zero.
    """
    recorder = world.metrics.latency
    world.run_until(lambda: recorder.open_intervals() == 0, timeout=timeout)
    leaked = recorder.open_intervals()
    recorder.abandon_if(lambda _tag, _key: True)
    return leaked


#: Layers excluded from per-delivery protocol cost: failure-detector
#: heartbeats are constant background noise, not per-message work, and
#: used to skew every per-delivery table in long runs.
NON_PROTOCOL_LAYERS = ("fd",)


def sent_by_layer(world: World) -> dict[str, int]:
    """Per-layer ``net.sent`` breakdown (excluding the per-port detail)."""
    return {
        layer: count
        for layer, count in world.metrics.counters.by_prefix("net.sent.").items()
        if not layer.startswith("port.")
    }


def bytes_by_layer(world: World) -> dict[str, int]:
    """Per-layer ``net.bytes`` breakdown (wire-byte cost model).

    Structural estimates from ``repro.net.wire.wire_size``, attributed
    per segment even through coalesced batches — the measurement half of
    the dissemination-vs-ordering split: msgs/delivery alone cannot show
    that ordering traffic stopped carrying payload bodies.

    The per-sender ``net.bytes.sent.<pid>`` counters live in the same
    namespace and are excluded here.
    """
    return {
        layer: count
        for layer, count in world.metrics.counters.by_prefix("net.bytes.").items()
        if not layer.startswith("sent.")
    }


def protocol_messages_sent(world: World) -> int:
    """Datagrams sent by protocol layers (heartbeat traffic excluded)."""
    by_layer = sent_by_layer(world)
    return sum(
        count for layer, count in by_layer.items() if layer not in NON_PROTOCOL_LAYERS
    )


def per_delivery_messages(world: World, delivered: int) -> float:
    """Protocol datagrams per delivery, from the per-layer counters.

    FD heartbeats are excluded: they scale with wall-clock time and group
    size, not with deliveries, and conflated the §4.1/§4.2 cost tables.
    """
    if delivered == 0:
        return math.nan
    return protocol_messages_sent(world) / delivered


def causal_trees_complete(block: dict) -> bool:
    """Every delivery's causal tree runs origin send → deliver, and the
    span tree has no orphans, cycles or ring-buffer drops (``block`` is
    a ``repro.sim.critpath.summarize_deliveries`` summary)."""
    return (
        block["deliveries"] > 0
        and block["complete"] == block["deliveries"]
        and block["integrity_errors"] == 0
        and block["spans_dropped"] == 0
    )


#: Failure-free runs must decide (almost) every consensus instance in
#: round 0: with the fast path on, nothing escapes round 0 unless a
#: coordinator actually crashes (in practice the fraction is 1.0).
ROUND0_FLOOR = 0.95


def round0_fraction(world: World) -> float:
    """Fraction of the world's consensus instances decided in round 0
    (the ``consensus.decided_round_<r>`` counters).  A run with no
    consensus at all counts as 1.0: nothing escaped round 0."""
    rounds = world.metrics.counters.by_prefix("consensus.decided_round_")
    decided = sum(rounds.values())
    return rounds.get("0", 0) / decided if decided else 1.0
