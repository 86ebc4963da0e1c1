"""The monitor sweep guard is exact, and it keeps sweeps O(1) per beat.

Beats and heartbeat arrivals poll every monitor; a full sweep over the
monitor's peers runs only when a suspicion could change (see
``Monitor._poll``).  The guard is an optimisation, never a behaviour:
the differential property below replays random schedules against an
always-sweep reference and demands the same timed ``suspect``/``trust``
callbacks, and the fingerprints pin default-stack scenarios that do
suspect, recorded with the always-sweep detector.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.new_stack import build_new_group
from repro.explore.runner import run_scenario
from repro.explore.scenario import ScenarioConfig, StackKnobs
from repro.fd.adaptive import adaptive_monitor
from repro.fd.heartbeat import HeartbeatFailureDetector, Monitor
from repro.net.topology import LinkModel
from repro.sim.world import World
from repro.workload.generators import FaultEvent, FaultPlan

PEERS = ("p01", "p02", "p03", "p04")

#: Gaps between scheduled operations: integral and binary-inexact steps,
#: so ``now - last_heard`` lands on, just under and just over timeouts.
GAPS = st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5, 5.0, 10.0, 15.0, 20.0, 30.0, 45.0])

OPERATIONS = st.one_of(
    st.tuples(st.just("heartbeat"), st.sampled_from(PEERS)),
    st.tuples(st.just("traffic"), st.sampled_from(PEERS)),
    st.tuples(st.just("piggyback"), st.sampled_from(PEERS)),
    st.tuples(st.just("reincarnate"), st.sampled_from(PEERS)),
    st.tuples(st.just("stale"), st.sampled_from(PEERS)),
    st.tuples(st.just("peers"), st.lists(st.sampled_from(PEERS + ("p00",)), max_size=5)),
    st.tuples(st.just("stop"), st.integers(0, 3)),
    st.tuples(st.just("restart"), st.integers(0, 3)),
    st.tuples(st.just("timeout"), st.sampled_from([12.0, 20.0, 25.0, 40.0, 0.1])),
    st.tuples(st.just("silence"), st.none()),
)


@contextmanager
def counted_sweeps():
    """Count every full ``Monitor._check`` sweep while the block runs."""
    counter = {"sweeps": 0}
    original = Monitor._check

    def counting(self, raw=None):
        counter["sweeps"] += 1
        original(self, raw)

    Monitor._check = counting
    try:
        yield counter
    finally:
        Monitor._check = original


def _replay(schedule, guarded: bool):
    """Run ``schedule`` against one detector; the timed callback log."""
    world = World(seed=1, default_link=LinkModel(1.0, 0.0))
    pids = world.spawn(5)
    fd = HeartbeatFailureDetector(world.process("p00"), lambda: list(pids), 10.0)
    current = list(PEERS)
    log: list[tuple] = []

    def callbacks(index):
        def suspect(peer):
            log.append((world.now, index, "suspect", peer))

        def trust(peer):
            log.append((world.now, index, "trust", peer))

        return {"on_suspect": suspect, "on_trust": trust}

    monitors = [
        fd.monitor(lambda: list(current), 25.0, **callbacks(0)),
        fd.monitor(["p01", "p02", "p03"], 40.0, **callbacks(1)),
        adaptive_monitor(
            fd, lambda: list(current), safety_factor=1.0, margin=1.0,
            min_timeout=15.0, max_timeout=60.0, **callbacks(2),
        ),
        fd.monitor(lambda: list(current), 25.0, keep_baselines=True, **callbacks(3)),
    ]
    if not guarded:
        for mon in monitors:
            mon._poll = mon._check
    incarnation = {peer: 0 for peer in PEERS}
    epoch = {peer: 0 for peer in PEERS}

    def apply(kind, arg):
        if kind in ("heartbeat", "reincarnate", "piggyback", "traffic", "stale"):
            if kind == "reincarnate":
                incarnation[arg] += 1
            epoch[arg] += 1
            if kind == "traffic":
                fd._on_traffic(arg, incarnation[arg], "app")
            elif kind == "piggyback":
                fd.note_piggyback_sample(arg, incarnation[arg], epoch[arg])
            elif kind == "stale":
                fd._on_heartbeat(arg, (incarnation[arg] - 1, epoch[arg]))
            else:
                fd._on_heartbeat(arg, (incarnation[arg], epoch[arg]))
        elif kind == "peers":
            current[:] = arg
        elif kind == "stop":
            monitors[arg].stop()
        elif kind == "restart":
            monitors[arg].restart()
        elif kind == "timeout":
            monitors[0].timeout = arg

    world.start()
    at = 0.0
    for gap, (kind, arg) in schedule:
        at += gap
        world.scheduler.at(at, apply, kind, arg)
    world.run_for(at + 150.0)
    return log, [sorted(mon.suspects) for mon in monitors]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(GAPS, OPERATIONS), max_size=60))
def test_guarded_polls_match_an_always_sweep_reference(schedule):
    assert _replay(schedule, guarded=True) == _replay(schedule, guarded=False)


def test_guard_skips_sweeps_on_a_steady_stream():
    # The property above would hold vacuously if the guard never
    # skipped: on a steady heartbeat stream most polls must not sweep.
    schedule = [(2.0, ("heartbeat", PEERS[i % 4])) for i in range(200)]
    sweeps = {}
    for guarded in (True, False):
        with counted_sweeps() as counter:
            log, _ = _replay(schedule, guarded)
        sweeps[guarded] = counter["sweeps"]
        # Silence after the stream: every monitor suspects at the end.
        assert {entry[1] for entry in log if entry[2] == "suspect"} == {0, 1, 2, 3}
    assert sweeps[True] * 4 < sweeps[False]


def test_idle_group_sweeps_at_most_once_per_monitor_per_beat():
    # An idle n=9 group: every process hears a heartbeat from each of 8
    # peers per beat.  Sweeping on each arrival cost O(n) sweeps of O(n)
    # peers per beat for every monitor; the guard leaves at most one.
    world = World(seed=3)
    stacks = build_new_group(world, 9)
    world.start()
    world.run_for(200.0)
    with counted_sweeps() as counter:
        world.run_for(1_000.0)
    beats = 1_000.0 / stacks["p00"].fd.heartbeat_interval
    monitors = sum(len(stack.fd._monitors) for stack in stacks.values())
    assert 0 < counter["sweeps"] <= monitors * beats
    assert all(not stack.suspicion_monitor.suspects for stack in stacks.values())


# ----------------------------------------------------------------------
# Default-stack scenarios that suspect, pinned byte for byte
# ----------------------------------------------------------------------
#: Fingerprints recorded with the always-sweep detector.  Each scenario
#: partitions, crashes and recovers a member of a default stack (the
#: consensus fast path on, as in ``StackConfig``), so monitors suspect
#: and trust peers many times over.  Re-recorded (always-sweep and
#: guarded runs agree) when only the stage closer began closing stages
#: on conflict and consensus began keeping its peers' baselines.
SUSPECTING_FINGERPRINTS = {
    "n4_partition_crash_recover": (
        ScenarioConfig(
            seed=3, processes=4, duration=1200.0, rate=25.0, conflict_weight=0.5,
            stack=StackKnobs(consensus_fast_path=True),
            plan=FaultPlan([
                FaultEvent(at=200.0, kind="partition", target=[["p00", "p01", "p02"], ["p03"]]),
                FaultEvent(at=450.0, kind="heal"),
                FaultEvent(at=600.0, kind="crash", target="p01"),
                FaultEvent(at=900.0, kind="recover", target="p01"),
            ]),
        ),
        "618bd81572b763c1f454f3c9e8da471fc49b6c132f1b36cad1c3400ebcc8ddff",
    ),
    "n5_partition_crash_recover": (
        ScenarioConfig(
            seed=8, processes=5, duration=1200.0, rate=30.0,
            stack=StackKnobs(consensus_fast_path=True),
            plan=FaultPlan([
                FaultEvent(
                    at=150.0, kind="partition",
                    target=[["p00", "p01", "p02", "p03"], ["p04"]],
                ),
                FaultEvent(at=400.0, kind="heal"),
                FaultEvent(at=500.0, kind="crash", target="p02"),
                FaultEvent(at=850.0, kind="recover", target="p02"),
            ]),
        ),
        "dd2d374f94c2c83f9848f565e27196e6a1eeec487f0eee06612f145b5cf661e7",
    ),
    "n5_lazy_split_crash_recover": (
        ScenarioConfig(
            seed=13, processes=5, duration=1000.0, rate=25.0, conflict_weight=0.5,
            stack=StackKnobs(consensus_fast_path=True, relay_policy="lazy"),
            plan=FaultPlan([
                FaultEvent(
                    at=250.0, kind="partition",
                    target=[["p00", "p01", "p02"], ["p03", "p04"]],
                ),
                FaultEvent(at=420.0, kind="heal"),
                FaultEvent(at=550.0, kind="crash", target="p00"),
                FaultEvent(at=800.0, kind="recover", target="p00"),
            ]),
        ),
        "a68c5816bac29b73a88537c8da60ca2b941d1c613d2d8ef94c2f9af8fb0ed91d",
    ),
}


def test_suspecting_scenarios_are_byte_identical_to_pins(monkeypatch):
    suspicions = []
    trace = HeartbeatFailureDetector.trace

    def counting(self, event, **details):
        if event == "suspect":
            suspicions.append(self.pid)
        trace(self, event, **details)

    monkeypatch.setattr(HeartbeatFailureDetector, "trace", counting)
    for name, (config, expected) in SUSPECTING_FINGERPRINTS.items():
        suspicions.clear()
        result, _world = run_scenario(config)
        assert result.violation is None, (name, result.violation)
        assert result.converged, name
        assert suspicions, name
        assert result.fingerprint == expected, name
