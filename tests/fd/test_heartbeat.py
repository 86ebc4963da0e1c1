"""Unit tests for the heartbeat failure detector and its monitors."""

from hypothesis import given
from hypothesis import strategies as st

from repro.fd.heartbeat import HEARTBEAT_BYTES, HeartbeatFailureDetector
from repro.net.topology import LinkModel
from repro.net.wire import wire_size
from repro.sim.world import World

from tests.conftest import run_until


def fd_world(count=3, seed=1, hb=10.0, link=None):
    world = World(seed=seed, default_link=link or LinkModel(1.0, 1.0))
    pids = world.spawn(count)
    fds = {
        pid: HeartbeatFailureDetector(world.process(pid), lambda p=pids: list(p), hb)
        for pid in pids
    }
    return world, fds


def test_no_suspicion_without_failures():
    world, fds = fd_world()
    monitor = fds["p00"].monitor(["p01", "p02"], timeout=50.0)
    world.start()
    world.run_for(2_000.0)
    assert monitor.suspects == set()


def test_crashed_process_gets_suspected():
    world, fds = fd_world()
    monitor = fds["p00"].monitor(["p01", "p02"], timeout=50.0)
    world.start()
    world.run_for(200.0)
    world.crash("p02")
    assert run_until(world, lambda: "p02" in monitor.suspects, timeout=1_000)
    assert "p01" not in monitor.suspects


def test_suspicion_revised_when_heartbeats_resume():
    # Diamond-S-style behaviour: a partition causes a (wrong) suspicion
    # which is withdrawn once communication is restored.
    world, fds = fd_world()
    suspected, trusted = [], []
    monitor = fds["p00"].monitor(
        ["p01"], timeout=50.0, on_suspect=suspected.append, on_trust=trusted.append
    )
    world.start()
    world.run_for(100.0)
    world.split([["p00"], ["p01", "p02"]])
    assert run_until(world, lambda: "p01" in monitor.suspects, timeout=1_000)
    world.heal()
    assert run_until(world, lambda: "p01" not in monitor.suspects, timeout=1_000)
    assert suspected == ["p01"]
    assert trusted == ["p01"]


def test_independent_timeouts_per_monitor():
    # Section 3.3.2: consensus uses a small timeout, monitoring a large
    # one, over the same heartbeat stream.
    world, fds = fd_world()
    small = fds["p00"].monitor(["p01"], timeout=40.0)
    large = fds["p00"].monitor(["p01"], timeout=5_000.0)
    world.start()
    world.run_for(100.0)
    world.crash("p01")
    assert run_until(world, lambda: "p01" in small.suspects, timeout=2_000)
    assert "p01" not in large.suspects
    assert run_until(world, lambda: "p01" in large.suspects, timeout=10_000)


def test_stopped_monitor_reports_nothing():
    world, fds = fd_world()
    monitor = fds["p00"].monitor(["p01"], timeout=50.0)
    world.start()
    world.run_for(100.0)
    monitor.stop()
    world.crash("p01")
    world.run_for(2_000.0)
    assert monitor.suspects == set()
    monitor.restart()
    assert run_until(world, lambda: "p01" in monitor.suspects, timeout=1_000)


def test_monitor_forgets_departed_peers():
    world, fds = fd_world()
    peers = ["p01", "p02"]
    monitor = fds["p00"].monitor(lambda: list(peers), timeout=50.0)
    world.start()
    world.run_for(100.0)
    world.crash("p02")
    assert run_until(world, lambda: "p02" in monitor.suspects, timeout=1_000)
    peers.remove("p02")
    world.run_for(100.0)
    assert monitor.suspects == set()


def test_never_suspects_self():
    world, fds = fd_world()
    monitor = fds["p00"].monitor(["p00", "p01"], timeout=10.0)
    world.start()
    world.run_for(1_000.0)
    assert "p00" not in monitor.suspects


@given(st.integers(0, 2**70), st.integers(0, 2**70))
def test_heartbeat_size_is_the_wire_size_of_its_payload(incarnation, epoch):
    assert HEARTBEAT_BYTES == wire_size((incarnation, epoch))


def test_heartbeats_are_charged_their_wire_size():
    world, fds = fd_world(count=2)
    world.start()
    world.run_for(100.0)
    counters = world.metrics.counters
    assert counters.get("fd.explicit_hb") > 0
    assert counters.get("net.bytes.fd") == HEARTBEAT_BYTES * counters.get("fd.explicit_hb")
