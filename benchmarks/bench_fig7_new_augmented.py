"""Fig. 7 — the new architecture, augmented with generic broadcast.

Regenerates the thrifty property the figure adds to the overview stack:
atomic broadcast is invoked ONLY when conflicting messages are actually
broadcast.  We sweep the fraction of conflicting traffic from 0 to 1 and
measure how often the generic broadcast component had to fall back to
atomic broadcast, and what it cost.
"""

from common import once, report

from repro.gbcast.conflict import ConflictRelation
from repro.core.new_stack import build_new_group
from repro.sim.randomness import fork_rng
from repro.sim.world import World

#: "commuting" messages never conflict; "ordered" conflict with everything.
RELATION = ConflictRelation.build(
    ["commuting", "ordered"],
    [("ordered", "ordered"), ("ordered", "commuting")],
)

MESSAGES = 24


def run_mix(conflict_fraction, seed=20):
    world = World(seed=seed)
    stacks = build_new_group(world, 3, conflict=RELATION)
    world.start()
    rng = fork_rng(seed, f"mix-{conflict_fraction}")
    pids = sorted(stacks)
    ordered_count = round(MESSAGES * conflict_fraction)
    classes = ["ordered"] * ordered_count + ["commuting"] * (MESSAGES - ordered_count)
    rng.shuffle(classes)
    for i, msg_class in enumerate(classes):
        sender = pids[i % len(pids)]
        world.scheduler.at(
            world.now + (i % 6) * 5.0,
            lambda s=sender, c=msg_class, i=i: stacks[s].gbcast.gbcast_payload(("m", i), c),
        )
    assert world.run_until(
        lambda: all(
            len([m for m, _p in s.gbcast.delivered_log if not m.msg_class.startswith("_")])
            == MESSAGES
            for s in stacks.values()
        ),
        timeout=120_000,
    )
    counters = world.metrics.counters
    lat = world.metrics.latency
    return [
        f"{conflict_fraction:.0%}",
        counters.get("consensus.proposals"),
        counters.get("gbcast.endstages"),
        counters.get("gbcast.conflicts_detected"),
        lat.stats("gbcast.commuting").mean,
        lat.stats("gbcast.ordered").mean,
    ]


def test_fig7_new_augmented(benchmark, capsys):
    def run():
        return [run_mix(f) for f in (0.0, 0.25, 0.5, 1.0)]

    rows = once(benchmark, run)
    report(
        capsys,
        "Fig. 7  New architecture (augmented): generic broadcast over abcast",
        ["conflicting traffic", "consensus proposals", "stage closures",
         "conflicts detected", "commuting latency ms", "ordered latency ms"],
        rows,
        note=(
            "Shape: with 0% conflicting traffic atomic broadcast (consensus) is "
            "NEVER invoked (the thrifty property, Sec. 3.2.1); closures and "
            "consensus grow with the conflict rate, and non-conflicting traffic "
            "stays cheaper than conflicting traffic throughout."
        ),
    )
    # 0% conflicts: zero consensus, pure fast path.
    assert rows[0][1] == 0 and rows[0][2] == 0
    # Conflicts cost consensus; monotone-ish growth across the sweep.
    assert rows[3][1] > 0
    assert rows[3][2] >= rows[1][2]
