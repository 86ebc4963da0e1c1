"""Root sampling of the causal span tree.

A ``World`` keeps the spans of one trace in ``span_sample`` (16 by
default), decided at the trace's root by a CRC-32 of its id.  A kept
trace must be exactly what the full (``span_sample=1``) run records for
it, and a dropped one must leave nothing behind.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import pytest

from repro.core.api import GroupCommunication
from repro.core.new_stack import build_new_group
from repro.gbcast.conflict import DEPOSIT, WITHDRAWAL, bank_relation
from repro.net.topology import LinkModel
from repro.sim import critpath
from repro.sim.tracing import UNSAMPLED, SpanLog, TraceLog
from repro.sim.world import World

SAMPLE = 16


def kept(trace: str, sample: int = SAMPLE) -> bool:
    return zlib.crc32(trace.encode()) % sample == 0


@lru_cache(maxsize=None)
def bank_run(span_sample: int) -> World:
    """Paced bank ops, one trace each: deposits take the gbcast fast
    path, every fourth op is a withdrawal and is ordered."""
    world = World(seed=5, default_link=LinkModel(3.0, 8.0), span_sample=span_sample)
    stacks = build_new_group(world, 3, conflict=bank_relation())
    apis = [GroupCommunication(s) for s in stacks.values()]
    world.start()
    ops = 48
    for i in range(ops):
        cls = WITHDRAWAL if i % 4 == 3 else DEPOSIT
        world.scheduler.at(
            20.0 * i + 1.0, lambda i=i, c=cls: apis[i % 3].gbcast(("op", i), c)
        )
    assert world.run_until(lambda: all(len(a.delivered) == ops for a in apis), timeout=60_000)
    world.run_for(200.0)
    return world


def fields(span):
    return (span.sid, span.trace, span.parent, span.pid, span.layer, span.name,
            span.kind, span.start, span.end, span.details)


def test_world_samples_by_default_and_span_logs_keep_everything():
    assert World().spans.sample == SAMPLE
    assert World(span_sample=1).spans.sample == 1
    assert SpanLog().sample == 1
    assert TraceLog().spans.sample == 1
    with pytest.raises(ValueError):
        SpanLog(sample=0)


def test_sampled_run_is_the_full_run_filtered_by_trace():
    full = bank_run(1)
    sampled = bank_run(SAMPLE)
    expected = [fields(s) for s in full.spans.spans if kept(s.trace)]
    assert 0 < len(expected) < len(full.spans)
    assert [fields(s) for s in sampled.spans.spans] == expected
    # Sampling is observability only: the runs are otherwise identical.
    assert sampled.metrics.counters.snapshot() == full.metrics.counters.snapshot()
    assert sampled.now == full.now


def test_sampled_deliveries_have_whole_causal_trees():
    spans = bank_run(SAMPLE).spans
    assert spans.check_integrity() == []
    block = critpath.summarize_deliveries(spans, "gdeliver", "gbcast")
    assert block["deliveries"] > 0
    assert block["complete"] == block["deliveries"]
    for record in critpath.delivery_paths(spans, "gdeliver", "gbcast"):
        root = record["path"][0]
        assert root.parent is None and root.sid == root.trace


def test_unsampled_traces_leave_nothing_behind():
    spans = bank_run(SAMPLE).spans
    assert all(kept(trace) for trace in spans._hops)
    assert all(s is not UNSAMPLED for s in spans.spans)
    assert UNSAMPLED.details is None


def test_descendants_of_an_unsampled_root_stay_unsampled():
    log = SpanLog(sample=2)
    # Root ids of one process are p00.r0, p00.r1, ...: find one of each.
    roots = [log.begin("p00", "app", "root", "proc", 0.0, parent=None) for _ in range(8)]
    dropped = next(r for r in roots if r is UNSAMPLED)
    recorded = next(r for r in roots if r is not UNSAMPLED)
    assert kept(recorded.trace, 2) and recorded in log.spans
    # A message id would key a new root, but not under an unsampled parent.
    assert log.begin("p01", "app", "hop", "transit", 1.0, parent=dropped, mid="p01#9") is dropped
    inner = []
    log.activate(dropped)
    log.wrap("p01", "app", "send", "send", 1.0, "p01#9",
             lambda: inner.append(log.point("p01", "app", "x", "proc", 1.0)))
    assert log.current() is dropped
    log.restore(None)
    assert inner == [dropped]
    dropped.note(bytes=1)
    assert dropped.details is None
    assert len(log.spans) == sum(1 for r in roots if r is not UNSAMPLED)
