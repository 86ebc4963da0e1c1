"""Id-only stage closures: ``ENDSTAGE(k, ids)`` and apply-when-present.

A closure names the sorted ids of its sender's acked set; the bodies
travel once, in their ``CHK`` rbcast.  These tests pin down what that
costs the ordering path: an adelivered closure freezes stage-k acking at
once but applies only when every body it names is here, a body a
joiner's snapshot fenced out arrives through abcast's PULL/PUSH repair,
the quorum variant's gathers follow the ordered stage, and a closure's
wire size does not grow with the bodies it orders.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig, build_new_group
from repro.gbcast.conflict import RBCAST_CLASS
from repro.gbcast.quorum import GATHER_OK_PORT
from repro.gbcast.thrifty import ENDSTAGE_CLASS
from repro.net.message import AppMessage, MsgId
from repro.net.topology import LinkModel
from repro.net.wire import Blob, payload_size
from repro.sim.world import World

from tests.conftest import new_group, run_until


def commuting(sender: str, seq: int, body) -> AppMessage:
    """A gbcast message of a class that commutes with itself."""
    return AppMessage(MsgId(sender, seq), sender, body, RBCAST_CLASS)


def closure(sender: str, stage: int, ids) -> AppMessage:
    return AppMessage(MsgId(sender, 900 + stage), sender, (stage, tuple(ids)), ENDSTAGE_CLASS)


def closure_deliveries(gb) -> list[tuple[str, str]]:
    return [(m.payload, path) for m, path in gb.delivered_log if m.msg_class == RBCAST_CLASS]


def test_closure_before_its_body_freezes_then_delivers_in_id_order():
    world, stacks, _ = new_group(seed=71)
    world.run_for(50.0)
    gb = stacks["p02"].gbcast
    stage = gb.stage
    first = commuting("p01", 500, "first")
    second = commuting("p01", 501, "second")
    gb._on_chk("p01", second, MsgId("p01!rb", 1))  # only the later body is here
    assert second.id in gb._acked
    gb._on_adeliver(closure("p00", stage, [first.id, second.id]))
    # Stage k is closed in the total order: frozen, nothing delivered.
    assert gb._frozen and gb.stage == stage
    assert closure_deliveries(gb) == []
    late = commuting("p00", 502, "late")
    gb._on_chk("p00", late, MsgId("p00!rb", 1))
    assert late.id not in gb._acked  # no stage-k ack after the freeze
    world.run_for(5.0)
    assert closure_deliveries(gb) == []
    # The missing CHK lands: the closure applies, in id order.
    gb._on_chk("p01", first, MsgId("p01!rb", 0))
    assert closure_deliveries(gb) == [("first", "closure"), ("second", "closure")]
    assert gb.stage == stage + 1 and not gb._frozen
    assert late.id in gb._acked  # re-acked under stage k + 1
    counters = world.metrics.counters
    assert counters.get("gbcast.closure_waits") == 1
    # The CHK beat the repair interval: no PULL was ever sent.
    assert counters.get("abcast.pulls_sent") == 0


def test_closures_queue_behind_a_waiting_head():
    world, stacks, _ = new_group(seed=72)
    world.run_for(50.0)
    gb = stacks["p02"].gbcast
    stage = gb.stage
    missing = commuting("p01", 600, "head")
    present = commuting("p01", 601, "next")
    gb._on_chk("p01", present, MsgId("p01!rb", 1))
    gb._on_adeliver(closure("p00", stage, [missing.id]))
    gb._on_adeliver(closure("p01", stage + 1, [present.id]))
    # A second closure for stage k is stale in the total order.
    gb._on_adeliver(closure("p01", stage, [present.id]))
    assert closure_deliveries(gb) == []
    gb._on_chk("p01", missing, MsgId("p01!rb", 0))
    assert closure_deliveries(gb) == [("head", "closure"), ("next", "closure")]
    assert gb.stage == stage + 2


def test_joiner_pulls_a_closure_body_its_snapshot_lacks():
    # The donor has ordered ENDSTAGE(k) but not applied it: it still
    # lacks the body, so the snapshot carries the closure without it,
    # and the joiner resumes past the closure in the abcast order.  Only
    # the closer ever held the body; the PULL repair must fetch it for
    # both of them.
    world, stacks, _ = new_group(seed=73)
    world.run_for(50.0)
    closer, donor, joiner = (stacks[pid].gbcast for pid in ("p00", "p01", "p02"))
    stage = donor.stage
    body = commuting("p00", 700, "fenced-out")
    closer._pending[body.id] = body
    donor._on_adeliver(closure("p00", stage, [body.id]))
    cut = donor.snapshot()
    assert cut["closures"] == [("p00", (body.id,))]
    assert body.id not in cut["pending"]
    joiner.install_snapshot(cut)
    assert joiner._frozen
    assert run_until(
        world,
        lambda: all(("fenced-out", "closure") in closure_deliveries(gb) for gb in (donor, joiner)),
        timeout=5_000,
    )
    assert donor.stage == joiner.stage == stage + 1
    assert not joiner._frozen and not joiner._closures
    counters = world.metrics.counters
    assert counters.get("gbcast.closure_waits") == 2
    assert counters.get("abcast.pull_served") == 2  # the closer answered both
    assert counters.get("abcast.pull_misses") == 0
    world.run_for(500.0)
    assert not stacks["p02"].abcast._fetches  # the repair dissolved


def test_quorum_gathers_follow_the_ordered_stage():
    # Quorum variant: once ENDSTAGE(k) is ordered, a GATHER for k is
    # stale, and one for k + 1 must wait until closure k has applied
    # here; before that, this process's acked set is still stage k's.
    world, stacks, _ = new_group(count=4, seed=74, config=StackConfig(quorum_fast_path=True))
    world.run_for(50.0)
    gb = stacks["p03"].gbcast
    stage = gb.stage
    missing = commuting("p01", 800, "slow-chk")
    gb._on_adeliver(closure("p00", stage, [missing.id]))
    replies = []
    gb.channel.send = lambda dst, port, payload: replies.append((dst, port, payload))
    gb._on_gather("p00", stage)
    gb._on_gather("p00", stage + 1)
    assert replies == []
    gb._on_chk("p01", missing, MsgId("p01!rb", 0))
    gb._on_gather("p00", stage + 1)
    assert replies == [("p00", GATHER_OK_PORT, (stage + 1, ()))]


def endstage_size(body_bytes: int, count: int) -> int:
    world = World(seed=5)
    stacks = build_new_group(world, 3)
    world.start()
    gb = stacks["p00"].gbcast
    for seq in range(count):
        message = commuting("p01", seq, ("op", seq, Blob(body_bytes)))
        gb._on_chk("p01", message, MsgId("p01!rb", seq))
    sent = []
    gb.abcast.abcast = sent.append
    gb._close_stage("test")
    (endstage,) = sent
    assert endstage.msg_class == ENDSTAGE_CLASS
    return payload_size(endstage)


@settings(max_examples=15, deadline=None)
@given(count=st.integers(min_value=1, max_value=12))
def test_endstage_wire_size_does_not_depend_on_body_size(count):
    small = endstage_size(64, count)
    assert small == endstage_size(4096, count)
    assert small < 64 * count + 200  # ids, not bodies


def test_ordered_traffic_sends_each_body_once_not_through_abcast():
    # The byte budget of the ordered path: 4 KiB bodies via
    # GroupCommunication.abcast on bandwidth-limited links.  Every op
    # conflicts with the one before, so the closer closes a stage for
    # every op or two (a closure may deliver two), and abcast carries
    # closures only; were bodies riding them again, the abcast layer
    # would move several bodies per delivery.
    world = World(seed=3, default_link=LinkModel(3.0, 8.0, bytes_per_ms=2000))
    stacks = build_new_group(world, 5)
    apis = {pid: GroupCommunication(stack) for pid, stack in stacks.items()}
    delivered = []
    for api in apis.values():
        api.on_gdeliver(delivered.append)
    world.start()
    world.run_for(200.0)
    pids = sorted(apis)
    ops = 40
    for i in range(ops):
        world.scheduler.at(
            world.now + 50.0 * i, lambda i=i: apis[pids[i % 5]].abcast(("op", i, Blob(4096)))
        )
    assert run_until(world, lambda: len(delivered) == ops * 5, timeout=30_000)
    counters = world.metrics.counters
    assert counters.get("gbcast.endstages") >= ops // 2
    assert counters.get("net.bytes.abcast") / len(delivered) < 4096
