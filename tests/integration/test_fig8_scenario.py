"""Integration: the exact Fig. 8 scenario, both outcomes.

Three replicas s1 s2 s3; at (approximately) the same time t the primary
s1 g-broadcasts an update for a client request, and s2 — suspecting s1 —
g-broadcasts primary-change(s1).  The conflict relation guarantees only
two outcomes: the update is delivered everywhere before the change
(request took effect), or the change is delivered first everywhere and
the update is ignored as stale (the client retries).  We find seeds
exhibiting each outcome and check both satisfy the paper's guarantees.

The servers start in the order s1 s2 s3 = p01 p02 p00, as after one
earlier rotation.  Generic broadcast's stage closer is the head of the
group view, p00, so here it is s3, a bystander to the race: which of the
two messages reaches it first decides the outcome.  With s1 at the view
head the closer would be the primary itself, which acks its own update
before anything else arrives, and the update would win every race.
"""

from repro.core.new_stack import StackConfig
from repro.gbcast.conflict import PASSIVE_REPLICATION, PRIMARY_CHANGE, UPDATE
from repro.replication.primary_backup import attach_passive_replicas

from tests.conftest import new_group, run_until


def apply_kv(state, command):
    key, value = command
    new_state = dict(state)
    new_state[key] = value
    return new_state, ("stored", key, value)


#: s1, s2, s3.
SERVERS = ["p01", "p02", "p00"]
ROTATED = ("p02", "p00", "p01")


def fig8_race(seed, config=None):
    """Run the race; returns (outcome, replicas, world)."""
    world, stacks, _ = new_group(
        count=3, seed=seed, conflict=PASSIVE_REPLICATION, config=config
    )
    replicas = attach_passive_replicas(stacks, apply_kv, {})
    for replica in replicas.values():
        replica.server_list = list(SERVERS)
    world.start()
    world.run_for(50.0)
    # t: s1 processes a request and updates; s2 simultaneously suspects s1.
    stacks["p01"].gbcast.gbcast_payload(
        ("update", 0, "client", 0, {"req": "done"}, ("stored", "req", "done")), UPDATE
    )
    stacks["p02"].gbcast.gbcast_payload(("primary_change", "p01"), PRIMARY_CHANGE)
    assert run_until(
        world,
        lambda: all(r.epoch == 1 for r in replicas.values()),
        timeout=30_000,
    )
    run_until(
        world,
        lambda: all(
            len([e for e, _p in s.gbcast.delivered_log if not e.msg_class.startswith("_")]) == 2
            for s in stacks.values()
        ),
        timeout=30_000,
    )
    applied = {pid: r.state.get("req") for pid, r in replicas.items()}
    values = set(applied.values())
    assert len(values) == 1, f"replicas diverged: {applied}"
    outcome = "update-first" if values.pop() == "done" else "change-first"
    return outcome, replicas, world


def test_outcomes_are_always_consistent():
    # Classic three-phase rounds: the race is timing-decided, so over
    # many seeds both Fig. 8 interleavings occur.
    outcomes = set()
    classic = StackConfig(consensus_fast_path=False)
    for seed in range(25):
        outcome, replicas, world = fig8_race(seed, config=classic)
        outcomes.add(outcome)
        # In both cases all servers rotated to [s2; s3; s1].
        lists = {tuple(r.server_list) for r in replicas.values()}
        assert lists == {ROTATED}
        # The old primary stays in the membership (no exclusion).
        assert all(
            "p01" in s for s in lists
        )
    # Over many seeds both Fig. 8 outcomes occur.
    assert outcomes == {"update-first", "change-first"}, outcomes


def test_fast_path_outcome_is_consistent():
    # Round-0 fast path (the new stack's default): whatever the outcome,
    # every replica agrees on it and on the rotated server list — the
    # Fig. 8 guarantee is outcome-agnostic.  The coordinator is the
    # closer, a bystander here, so both outcomes still occur.
    outcomes = set()
    for seed in range(12):
        outcome, replicas, world = fig8_race(seed)
        outcomes.add(outcome)
        lists = {tuple(r.server_list) for r in replicas.values()}
        assert lists == {ROTATED}
    assert outcomes == {"update-first", "change-first"}, outcomes


def test_client_retry_after_change_first_outcome():
    # Whatever the outcome, a client that re-issues its request to the
    # new primary eventually gets an answer.
    from repro.replication.client import spawn_client

    world, stacks, _ = new_group(count=3, seed=101, conflict=PASSIVE_REPLICATION)
    replicas = attach_passive_replicas(stacks, apply_kv, {})
    client = spawn_client(world, sorted(stacks), mode="primary", retry_timeout=300.0)
    world.start()
    world.run_for(50.0)
    # Force a primary change just as the client submits.
    stacks["p01"].gbcast.gbcast_payload(("primary_change", "p00"), PRIMARY_CHANGE)
    results = []
    client.submit(("k", 7), callback=results.append)
    assert run_until(world, lambda: bool(results), timeout=60_000)
    assert results[0] == ("stored", "k", 7)
    assert run_until(
        world,
        lambda: all(r.state.get("k") == 7 for r in replicas.values()),
        timeout=30_000,
    )
