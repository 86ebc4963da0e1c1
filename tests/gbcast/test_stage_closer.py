"""One closer per stage: only the view head abcasts ``ENDSTAGE`` on conflict.

The closer (``stage_closer``: the head of the view, also the round-0
consensus coordinator) closes a stage as soon as it sees a conflict; the
other members freeze, note the conflict and close the stage themselves
if it is still open ``fast_path_timeout`` later (the *fallback*).  Each case
runs on the base algorithm and on the quorum variant, which inherits the
rule through ``_try_ack``.
"""

import pytest

from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig, build_new_group
from repro.gbcast.conflict import ConflictRelation
from repro.gbcast.thrifty import stage_closer
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.sim.world import World

from tests.conftest import run_until

VARIANTS = [pytest.param(False, id="thrifty"), pytest.param(True, id="quorum")]


def ordered_group(quorum, seed=1, **knobs):
    """n=5 on a 1-2 ms LAN, exclusion out of reach; returns world,
    stacks, facades and a per-member log of (time, payload) deliveries."""
    config = StackConfig(
        quorum_fast_path=quorum,
        monitoring=MonitoringPolicy(exclusion_timeout=100_000.0),
        **knobs,
    )
    world = World(seed=seed, default_link=LinkModel(1.0, 1.0))
    stacks = build_new_group(world, 5, config=config)
    apis = {pid: GroupCommunication(stack) for pid, stack in stacks.items()}
    logs = {pid: [] for pid in stacks}
    for pid, api in apis.items():
        api.on_gdeliver(lambda m, log=logs[pid]: log.append((world.now, m.payload)))
    world.start()
    return world, stacks, apis, logs


def closures(world, reason=None):
    """Trace records of stage closures started (a gather, for quorum)."""
    records = world.trace.select(component="gbcast", event="endstage") + world.trace.select(
        component="gbcast", event="gather_start"
    )
    started = [r for r in records if r.details.get("reason") != "gather"]
    if reason is not None:
        started = [r for r in started if r.details.get("reason") == reason]
    return sorted(started, key=lambda r: r.time)


def payloads(log):
    return [payload for _t, payload in log]


def app_log(stack):
    return [m.payload for m, _p in stack.gbcast.delivered_log if not m.msg_class.startswith("_")]


@pytest.mark.parametrize("quorum", VARIANTS)
def test_failure_free_ordered_traffic_sends_one_endstage_per_stage(quorum):
    world, stacks, apis, logs = ordered_group(quorum)
    assert stage_closer(stacks["p03"].membership.current_members()) == "p00"
    pids = sorted(apis)
    ops = 30
    for i in range(ops):
        world.scheduler.at(20.0 * i + 1.0, lambda i=i: apis[pids[i % 5]].abcast(("op", i)))
    assert run_until(world, lambda: all(len(log) == ops for log in logs.values()))
    world.run_for(100.0)
    assert len({tuple(payloads(log)) for log in logs.values()}) == 1
    (closed,) = {stack.gbcast.stage for stack in stacks.values()}
    # Every op conflicts with the one before it: the stages really close.
    assert closed >= ops // 2
    counters = world.metrics.counters
    assert counters.get("gbcast.endstages") == closed
    assert {r.pid for r in closures(world)} == {"p00"}
    assert counters.get("gbcast.fallback_closures") == 0
    # Each member starts at most one consensus instance per closed stage.
    assert counters.get("abcast.instances") <= closed * len(pids)


@pytest.mark.parametrize("quorum", VARIANTS)
def test_a_non_closer_stops_acking_at_a_conflict(quorum):
    # p02 sends "m1" (ordered) then "m2" (free).  The closer p00 hears
    # both before p01's conflicting "x" and acks them; p01 and p02 ack
    # "x" or "m1" first and hit the conflict.  Were p01 to keep acking,
    # "m2" would gather every ack and be fast-delivered before the
    # closure delivers "m1": p02's messages out of order.
    relation = ConflictRelation.build(["free", "ordered"], [("ordered", "ordered")])
    config = StackConfig(
        quorum_fast_path=quorum,
        monitoring=MonitoringPolicy(exclusion_timeout=100_000.0),
    )
    world = World(seed=1, default_link=LinkModel(1.0, 0.0))
    stacks = build_new_group(world, 3, config=config, conflict=relation)
    world.transport.set_link("p01", "p00", LinkModel(20.0, 0.0))
    world.start()
    world.run_for(50.0)
    stacks["p01"].gbcast.gbcast_payload("x", "ordered")
    stacks["p02"].gbcast.gbcast_payload("m1", "ordered")
    stacks["p02"].gbcast.gbcast_payload("m2", "free")
    assert run_until(world, lambda: all(len(app_log(s)) == 3 for s in stacks.values()))
    for stack in stacks.values():
        log = app_log(stack)
        assert log.index("m1") < log.index("m2"), (stack.pid, log)
    assert {r.pid for r in closures(world)} == {"p00"}


@pytest.mark.parametrize("quorum", VARIANTS)
def test_survivors_deliver_within_a_suspicion_timeout_of_a_closer_crash(quorum):
    # The fallback is pushed out of reach: the survivors' suspicion of
    # the crashed closer must close the stage, and consensus must not
    # give its crashed round-0 coordinator a second timeout of grace.
    timeout = 300.0
    world, stacks, apis, logs = ordered_group(
        quorum, suspicion_timeout=timeout, fast_path_timeout=10_000.0
    )
    world.run_for(50.0)
    world.crash("p00")
    crashed_at = world.now
    apis["p01"].abcast("a")
    apis["p02"].abcast("b")
    survivors = ["p01", "p02", "p03", "p04"]
    assert run_until(world, lambda: all(len(logs[p]) == 2 for p in survivors))
    assert len({tuple(payloads(logs[p])) for p in survivors}) == 1
    last = max(t for p in survivors for t, _payload in logs[p])
    assert last - crashed_at <= timeout + 30.0
    assert world.metrics.counters.get("gbcast.fallback_closures") == 0


@pytest.mark.parametrize("quorum", VARIANTS)
def test_a_muted_closer_is_covered_by_the_fallback(quorum):
    # "a" is fast-delivered everywhere, so no member has an ack left to
    # time out.  Then the closer is muted: it keeps receiving, but
    # nothing it sends gets out, and it is not suspected (suspicion
    # timeout far away).  "b" conflicts with "a", still in every acked
    # set; the other members close the stage once it has stayed open
    # for fast_path_timeout.
    fast_path_timeout = 100.0
    world, stacks, apis, logs = ordered_group(
        quorum, suspicion_timeout=5_000.0, fast_path_timeout=fast_path_timeout
    )
    world.run_for(50.0)
    apis["p01"].abcast("a")
    assert run_until(world, lambda: all(len(log) == 1 for log in logs.values()))
    assert not closures(world)
    world.mute("p00")
    sent_at = world.now
    apis["p02"].abcast("b")
    world.run_for(400.0)
    fallbacks = closures(world, "fallback")
    assert fallbacks and "p00" not in {r.pid for r in fallbacks}
    # Before that, only the muted closer tried, and its closure is lost.
    early = [r for r in closures(world) if r.time < fallbacks[0].time]
    assert {(r.pid, r.details["reason"]) for r in early} == {("p00", "conflict")}
    # The tick runs every fast_path_timeout / 2.
    first = fallbacks[0].time - sent_at
    assert fast_path_timeout <= first <= 1.5 * fast_path_timeout + 10.0
    assert world.metrics.counters.get("gbcast.fallback_closures") == len(fallbacks)
    world.unmute("p00")
    assert run_until(world, lambda: all(len(log) == 2 for log in logs.values()))
    assert len({tuple(payloads(log)) for log in logs.values()}) == 1
