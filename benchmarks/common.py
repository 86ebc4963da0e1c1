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
    number still open *after* the drain: the figure the
    ``no_leaked_latency_intervals`` shape flags assert to be zero.
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

    The per-sender ``net.bytes.sent.<pid>`` breakdown lives in the same
    counter namespace and is excluded here; see :func:`bytes_by_node`.
    """
    return {
        layer: count
        for layer, count in world.metrics.counters.by_prefix("net.bytes.").items()
        if not layer.startswith("sent.")
    }


def bytes_by_node(world: World) -> dict[str, int]:
    """Per-sender wire bytes (``net.bytes.sent.<pid>``).

    Per-process observability for the wire cost model: the aggregate
    byte count cannot show which process's NIC carried the load (e.g. a
    flood origin sending every payload copy).
    """
    return dict(world.metrics.counters.by_prefix("net.bytes.sent."))


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
