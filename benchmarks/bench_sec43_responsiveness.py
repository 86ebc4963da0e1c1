"""Section 4.3 — "higher responsiveness": post-crash latency vs. the cost
of false suspicions.

Two sweeps:

1. post-crash abcast latency as a function of the failure-detection
   timeout, for the new architecture and the Isis-style stack — both
   track the timeout;
2. the cost of a FALSE suspicion (a correct member silent for 600 ms):
   the traditional stack kills the wrongly suspected process (exclusion +
   re-join + state transfer), the new architecture shrugs it off.

Together they give the paper's conclusion: traditional stacks are forced
to use timeouts larger than the worst silent period, so their *effective*
post-crash latency is much larger than what the new architecture achieves
with a small suspicion timeout.
"""

from common import causal_trees_complete, once, report, report_text, teardown_leaks

from repro.core.new_stack import StackConfig, build_new_group
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.sim.critpath import summarize_deliveries
from repro.sim.world import World
from repro.traditional.isis import IsisConfig, build_isis_group

SILENCE_MS = 600.0

#: New-architecture post-crash latency at the 200 ms timeout when this
#: bound was set (ms).  The headline figure may improve freely but must
#: not regress by more than 10%.
NEW_ARCH_POST_CRASH_200_MS = 420.0
REGRESSION = 1.10


def new_arch_post_crash(timeout, seed=3):
    """Post-crash abcast latency of the new architecture.

    Returns the latency, the latency intervals the teardown drain left
    open, and the drained world (for its causal span tree)."""
    world = World(seed=seed, span_sample=1)
    config = StackConfig(
        suspicion_timeout=timeout,
        monitoring=MonitoringPolicy(exclusion_timeout=200_000.0),
    )
    stacks = build_new_group(world, 3, config=config)
    world.start()
    world.run_for(200.0)
    world.crash("p00")
    start = world.now
    stacks["p01"].gbcast.gbcast_payload("urgent", "abcast")
    assert world.run_until(
        lambda: any(m.payload == "urgent" for m, _p in stacks["p01"].gbcast.delivered_log),
        timeout=300_000,
    )
    latency = world.now - start
    return latency, teardown_leaks(world), world


def isis_post_crash(timeout, seed=3):
    """Post-crash abcast latency of the Isis-style stack, and the latency
    intervals the teardown drain left open."""
    world = World(seed=seed)
    stacks = build_isis_group(world, 3, config=IsisConfig(exclusion_timeout=timeout))
    world.start()
    world.run_for(200.0)
    world.crash("p00")
    start = world.now
    stacks["p01"].abcast_payload("urgent")
    assert world.run_until(
        lambda: "urgent" in stacks["p01"].delivered_payloads(), timeout=600_000
    )
    latency = world.now - start
    return latency, teardown_leaks(world)


def silence(world, pid, peers, duration):
    for dst in peers:
        world.transport.set_link(pid, dst, LinkModel(1.0, 1.0, drop_prob=1.0))
    world.scheduler.at(
        world.now + duration,
        lambda: [world.transport.set_link(pid, dst, LinkModel(1.0, 1.0)) for dst in peers],
    )


def false_suspicion_cost(timeout, seed=4):
    """Processes killed by a false suspicion in each architecture, the
    state transfers Isis is forced into, and the latency intervals the
    teardown drains of both worlds left open."""
    world = World(seed=seed)
    config = StackConfig(
        suspicion_timeout=timeout,
        monitoring=MonitoringPolicy(exclusion_timeout=20 * SILENCE_MS),
    )
    build_new_group(world, 3, config=config)
    world.start()
    world.run_for(200.0)
    silence(world, "p02", ["p00", "p01"], SILENCE_MS)
    world.run_for(5 * SILENCE_MS)
    new_kills = int(world.processes["p02"].crashed)

    world2 = World(seed=seed)
    build_isis_group(world2, 3, config=IsisConfig(exclusion_timeout=timeout))
    world2.start()
    world2.run_for(200.0)
    silence(world2, "p02", ["p00", "p01"], SILENCE_MS)
    world2.run_for(5 * SILENCE_MS)
    isis_kills = world2.metrics.counters.get("tgm.self_kills")
    isis_state_transfers_needed = isis_kills  # each kill forces a re-join
    leaked = teardown_leaks(world) + teardown_leaks(world2)
    return new_kills, isis_kills, isis_state_transfers_needed, leaked


def test_sec43_responsiveness(benchmark, capsys):
    timeouts = (50.0, 200.0, 1_000.0)

    def run():
        latency_rows, worlds, leaked = [], {}, 0
        for t in timeouts:
            new_ms, new_leaked, worlds[t] = new_arch_post_crash(t)
            isis_ms, isis_leaked = isis_post_crash(t)
            latency_rows.append([f"{t:.0f}", new_ms, isis_ms])
            leaked += new_leaked + isis_leaked
        cost_rows = []
        for t in (100.0, 200.0):
            new_kills, isis_kills, transfers, cost_leaked = false_suspicion_cost(t)
            cost_rows.append([f"{t:.0f}", new_kills, isis_kills, transfers])
            leaked += cost_leaked
        return latency_rows, cost_rows, worlds[200.0], leaked

    latency_rows, cost_rows, headline_world, leaked = once(benchmark, run)
    report(
        capsys,
        "Sec. 4.3 (a)  Post-crash abcast latency vs. FD timeout",
        ["FD timeout ms", "new architecture ms", "Isis (traditional) ms"],
        latency_rows,
        note="Both track the timeout — the question is which timeout each "
        "architecture can AFFORD.",
    )
    report(
        capsys,
        f"Sec. 4.3 (b)  Cost of a false suspicion ({SILENCE_MS:.0f} ms silence of a correct member)",
        ["FD timeout ms", "new arch: processes killed", "Isis: processes killed",
         "Isis: forced state transfers"],
        cost_rows,
        note="The traditional stack kills the wrongly suspected (correct!) "
        "process; re-inclusion needs a join + state transfer (Sec. 4.3).",
    )
    new_effective = latency_rows[1][1]     # new arch @ 200 ms (safe: 0 kills)
    isis_effective = latency_rows[2][2]    # Isis @ 1000 ms (> worst silence)
    report_text(
        capsys,
        "Sec. 4.3 (c)  Effective responsiveness",
        f"  new architecture, 200 ms timeout (safe): {new_effective:9.1f} ms after a crash\n"
        f"  Isis, forced to 1000 ms (> {SILENCE_MS:.0f} ms silence): {isis_effective:9.1f} ms after a crash\n"
        f"  responsiveness advantage: {isis_effective / new_effective:.1f}x",
    )
    # The paper's shape: wrong suspicions are free for the new stack and
    # fatal for the traditional one...
    assert all(r[1] == 0 for r in cost_rows)
    assert all(r[2] >= 1 for r in cost_rows)
    # ...so the effective post-crash latency gap is large (the measured
    # advantage is ~2.4x: Isis is forced to a 1000 ms timeout while the
    # new stack safely runs 200 ms).
    assert isis_effective > 2 * new_effective
    assert new_effective <= NEW_ARCH_POST_CRASH_200_MS * REGRESSION
    # Every run drains without leaking a latency interval, and the
    # headline run's deliveries each own a complete causal tree.
    assert leaked == 0
    cp = summarize_deliveries(headline_world.spans)
    assert causal_trees_complete(cp), cp
