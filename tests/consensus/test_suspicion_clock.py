"""Consensus measures a peer's silence from when it was last heard.

Consensus watches only the participants of undecided instances, so its
peer list empties whenever it goes idle.  A peer's suspicion baseline
must survive those idle spells (``keep_baselines``): otherwise a
coordinator that crashed while consensus was idle gets a full timeout of
fresh grace when the next instance starts, and the group waits two
timeouts instead of one.
"""

from repro.core.new_stack import StackConfig, build_new_group
from repro.fd.heartbeat import HeartbeatFailureDetector
from repro.gbcast.conflict import DEPOSIT, bank_relation
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.sim.world import World

from tests.conftest import run_until

TIMEOUT = 300.0


def test_crashed_coordinator_costs_one_suspicion_timeout():
    # The group is idle when p00 (round-0 coordinator) crashes; a
    # commuting deposit then stalls on p00's missing ack until the
    # suspicion nudge closes the stage through consensus, whose first
    # instance must not wait out another timeout for p00.
    world = World(seed=1, default_link=LinkModel(1.0, 1.0))
    config = StackConfig(
        suspicion_timeout=TIMEOUT,
        monitoring=MonitoringPolicy(exclusion_timeout=10 * TIMEOUT),
    )
    stacks = build_new_group(world, 3, config=config, conflict=bank_relation())
    delivered = {}
    for pid, stack in stacks.items():
        stack.gbcast.on_gdeliver(lambda m, pid=pid: delivered.setdefault(pid, world.now))
    world.start()
    world.run_for(100.0)
    world.crash("p00")
    crashed_at = world.now
    stacks["p01"].gbcast.gbcast_payload(("deposit", 1), DEPOSIT)
    assert run_until(world, lambda: {"p01", "p02"} <= set(delivered))
    assert max(delivered.values()) - crashed_at <= TIMEOUT + 30.0


def detector(pids):
    world = World(seed=1, default_link=LinkModel(1.0, 0.0))
    world.spawn(len(pids))
    fd = HeartbeatFailureDetector(world.process("p00"), lambda: list(pids), 10.0)
    return world, fd


def test_kept_baseline_survives_an_empty_peer_list():
    world, fd = detector(["p00", "p01", "p02"])
    watched = []
    kept = fd.monitor(lambda: list(watched), 50.0, keep_baselines=True)
    plain = fd.monitor(lambda: list(watched), 50.0)
    world.start()
    world.run_for(100.0)
    fd._on_heartbeat("p01", (0, 1))  # p01 last heard at t=100
    world.run_for(100.0)
    watched.append("p01")
    world.run_for(20.0)
    # Silent for 120 ms: the kept baseline says so at once, while the
    # plain monitor's clock started when p01 entered its peer list.
    assert kept.suspected("p01") and not plain.suspected("p01")
    world.run_for(60.0)
    assert plain.suspected("p01")


def test_a_recovered_peer_gets_fresh_grace():
    world, fd = detector(["p00", "p01", "p02"])
    watched = []
    kept = fd.monitor(lambda: list(watched), 50.0, keep_baselines=True)
    world.start()
    world.run_for(50.0)
    fd._on_heartbeat("p01", (0, 1))
    world.run_for(50.0)
    fd._on_heartbeat("p01", (1, 1))  # p01 crashed and recovered: t=100
    world.run_for(100.0)
    watched.append("p01")
    world.run_for(20.0)
    # Re-admitted after recovery: its clock restarts when it is watched.
    assert not kept.suspected("p01")
    world.run_for(60.0)
    assert kept.suspected("p01")
