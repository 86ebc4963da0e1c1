"""Trace artifacts record payload *sizes*, never payload bodies.

Two guards: every attribute string in a Chrome-trace export is truncated
at :data:`repro.sim.tracing.MAX_ATTR_CHARS`, and the export's size is
payload-size-independent — a 4 KiB-payload sweep produces (to within
repr-digit noise) the same artifact as a 64 B sweep, because spans note
``bytes=<n>`` instead of embedding bodies.
"""

from __future__ import annotations

import json

from repro.core.new_stack import build_new_group
from repro.net.topology import LinkModel
from repro.net.wire import Blob
from repro.sim.tracing import MAX_ATTR_CHARS
from repro.sim.world import World

from tests.abcast.test_id_only_ordering import bcast, logs
from tests.conftest import run_until

#: Truncated strings carry an "…(+N chars)" marker on top of the cap.
_MARKER_SLACK = 24


def _traced_run(payload):
    world = World(seed=17, default_link=LinkModel(1.0, 2.0), span_sample=1)
    stacks = build_new_group(world, 3)
    world.start()
    for i in range(4):
        bcast(stacks, "p00", ("op", i, payload) if payload is not None else ("op", i))
    assert run_until(
        world,
        lambda: all(len(log) == 4 for log in logs(stacks).values()),
        timeout=30_000,
    )
    return world


def _all_arg_strings(export: dict):
    for event in export["traceEvents"]:
        for value in event.get("args", {}).values():
            if isinstance(value, str):
                yield value


def test_export_attributes_are_truncated_even_for_giant_reprs(tmp_path):
    # A pathological payload with a huge repr (a real 10 KB string, not
    # a Blob) must not blow up the export: _json_safe truncates every
    # attribute at the cap, with an explicit marker.
    world = _traced_run("x" * 10_000)
    path = world.trace.export_chrome(str(tmp_path / "giant.json"))
    export = json.loads(open(path, encoding="utf-8").read())
    for text in _all_arg_strings(export):
        assert len(text) <= MAX_ATTR_CHARS + _MARKER_SLACK, text[:200]


def test_export_size_is_payload_size_independent(tmp_path):
    # The 64 B vs 4 KiB sweep: same schedule, payload modelled by Blob.
    # Bodies never materialise (Blob reprs are a dozen chars) and spans
    # note sizes, so the artifacts differ only in repr digit counts.
    small = _traced_run(Blob(64)).trace.export_chrome(str(tmp_path / "64.json"))
    large = _traced_run(Blob(4096)).trace.export_chrome(str(tmp_path / "4k.json"))
    small_bytes = len(open(small, "rb").read())
    large_bytes = len(open(large, "rb").read())
    assert large_bytes < small_bytes * 1.05
    # And the spans actually carried byte sizes for the large bodies.
    export = json.loads(open(large, encoding="utf-8").read())
    noted = [
        e["args"]["bytes"]
        for e in export["traceEvents"]
        if isinstance(e.get("args", {}).get("bytes"), int)
    ]
    assert any(b > 4096 for b in noted)
