"""Mutation testing of the harness itself: a deliberately injected
ordering bug must be caught, shrunk, and replayed from its repro file —
the acceptance criterion of the exploration subsystem."""

import pytest

from repro.explore.explorer import (
    adversarial_plan,
    explore_seed,
    probe_instants,
    replay_repro,
    reproduces_invariant,
    scenario_for_seed,
    write_repro,
)
from repro.explore.runner import run_scenario
from repro.explore.scenario import ScenarioConfig
from repro.explore.shrink import shrink_scenario
from repro.workload.generators import FaultEvent, FaultPlan

#: A mutated scenario with deliberately redundant fault noise the
#: shrinker should strip away.
MUTATED = ScenarioConfig(
    seed=3,
    processes=4,
    duration=1_200.0,
    rate=30.0,
    conflict_weight=0.8,
    plan=FaultPlan(
        [
            FaultEvent(at=700.0, kind="partition", target=[["p00", "p01", "p02"], ["p03"]]),
            FaultEvent(at=800.0, kind="heal"),
            FaultEvent(at=900.0, kind="crash", target="p03"),
            FaultEvent(at=1_100.0, kind="recover", target="p03"),
        ]
    ),
    mutation="reorder_conflicting",
)


def test_reorder_bug_is_caught_online():
    result, _world = run_scenario(MUTATED)
    assert result.violation is not None
    assert result.violation["invariant"] == "conflict-order"
    assert result.violation["phase"] == "online"
    # Fail-fast: the run aborted at the violation, long before the horizon.
    assert result.sim_time < MUTATED.duration


def test_skip_bug_is_caught_posthoc():
    config = ScenarioConfig(
        seed=3, processes=4, duration=1_200.0, rate=30.0, conflict_weight=0.8,
        mutation="skip_delivery",
    )
    result, _world = run_scenario(config)
    assert result.violation is not None
    assert result.violation["invariant"] == "agreement"
    assert result.violation["phase"] == "posthoc"


def test_caught_bug_is_shrunk_and_replays_from_its_repro_file(tmp_path):
    result, _world = run_scenario(MUTATED)
    invariant = result.violation["invariant"]

    shrunk, attempts = shrink_scenario(
        MUTATED, reproduces_invariant(invariant), max_attempts=60
    )
    assert attempts > 0
    assert len(shrunk.plan.events) <= len(MUTATED.plan.events)
    assert shrunk.processes <= MUTATED.processes
    assert shrunk.duration <= MUTATED.duration
    # The fault noise is irrelevant to the injected bug: all stripped.
    assert shrunk.plan.events == []

    shrunk_result, _world = run_scenario(shrunk)
    assert shrunk_result.violation["invariant"] == invariant

    path = write_repro(tmp_path / "repro.json", shrunk, shrunk_result)
    matches, replayed, expected = replay_repro(path)
    assert matches, (replayed.violation, expected)
    assert replayed.fingerprint == shrunk_result.fingerprint


def test_unknown_mutation_is_rejected():
    config = ScenarioConfig(seed=0, mutation="no-such-bug")
    with pytest.raises(ValueError, match="unknown mutation"):
        run_scenario(config)


def test_probe_finds_protocol_sensitive_instants():
    instants = probe_instants(scenario_for_seed(1))
    assert len(instants) > 10
    assert instants == sorted(instants)


def test_adversarial_plans_keep_the_group_live():
    muted = 0
    for seed in range(12):
        config = scenario_for_seed(seed)
        plan = adversarial_plan(config, probe_instants(config))
        minority = max(1, (config.processes - 1) // 2)
        assert len(plan.crashed_pids()) <= minority
        partitions = [e for e in plan.events if e.kind == "partition"]
        heals = [e for e in plan.events if e.kind == "heal"]
        assert len(heals) == len(partitions), "every partition must heal"
        for event in partitions:
            smallest = min(len(g) for g in event.target)
            assert smallest <= minority
        # Mutes aim at the closer (the initial view head) and heal well
        # inside the exclusion timeout.
        mutes = [e for e in plan.events if e.kind == "mute"]
        unmutes = [e for e in plan.events if e.kind == "unmute"]
        assert [e.target for e in mutes] == [e.target for e in unmutes]
        assert {e.target for e in mutes} <= {"p00"}
        for mute, unmute in zip(mutes, unmutes):
            assert mute.at < unmute.at <= mute.at + 0.4 * config.stack.exclusion_timeout
        muted += len(mutes)
    assert muted > 0


def test_mute_events_name_one_pid_and_shrink_with_it():
    from repro.explore.shrink import restrict_plan

    with pytest.raises(ValueError):
        FaultEvent.from_json_obj({"at": 1.0, "kind": "mute"})
    plan = FaultPlan([
        FaultEvent(at=10.0, kind="mute", target="p00"),
        FaultEvent(at=20.0, kind="mute", target="p03"),
        FaultEvent(at=90.0, kind="unmute", target="p00"),
    ])
    assert FaultPlan.from_json_obj(plan.to_json_obj()) == plan
    kept = restrict_plan(plan, {"p00", "p01", "p02"})
    assert [(e.kind, e.target) for e in kept.events] == [("mute", "p00"), ("unmute", "p00")]


def test_explored_seed_runs_clean_on_the_current_stack():
    report = explore_seed(0)
    assert report.result.violation is None
    assert report.result.converged


def test_byte_flags_change_only_the_body_size_and_the_link_bandwidth():
    from dataclasses import replace

    from repro.explore.runner import build_world

    plain = scenario_for_seed(7)
    assert plain.payload_bytes is None and plain.link.bytes_per_ms is None
    heavy = scenario_for_seed(7, payload_bytes=4096, bytes_per_ms=2000.0)
    assert heavy == replace(
        plain, payload_bytes=4096, link=replace(plain.link, bytes_per_ms=2000.0)
    )
    obj = heavy.to_json_obj()
    assert obj["link"]["bytes_per_ms"] == 2000.0
    assert ScenarioConfig.from_json_obj(obj) == heavy
    world, _stacks, _panel = build_world(heavy)
    assert world.transport.default_link.bytes_per_ms == 2000.0
