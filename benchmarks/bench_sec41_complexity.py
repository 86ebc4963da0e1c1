"""Section 4.1 — "less complex stack": the ordering problem is solved once.

Static dimension: in how many distinct components does each architecture
solve an ordering problem?  Dynamic dimension: how many distinct ordering
*protocols* actually execute in a run that includes a membership change?
The new architecture funnels everything (messages, view changes, stage
closures) through the single consensus-based atomic broadcast.
"""

from common import (
    ROUND0_FLOOR,
    causal_trees_complete,
    once,
    report,
    round0_fraction,
    teardown_leaks,
)

from repro.core.new_stack import build_new_group
from repro.sim.critpath import summarize_deliveries
from repro.sim.world import World
from repro.traditional.ensemble import EnsembleStack
from repro.traditional.isis import IsisStack
from repro.traditional.phoenix import PhoenixStack
from repro.traditional.rmp import RMPStack
from repro.traditional.totem import TotemStack

NEW_ARCH_ORDERING_SOLVERS = [
    "atomic broadcast (orders messages, view changes, and — via stage "
    "closure — conflicting generic broadcasts)",
]


def dynamic_protocols_new_arch():
    """Count the distinct ordering mechanisms that executed in a run with
    traffic + a membership change.

    Returns the mechanisms and the world, drained by the teardown, with
    the number of latency intervals the drain left open."""
    world = World(seed=30, span_sample=1)
    stacks = build_new_group(world, 3)
    world.start()
    for i in range(5):
        stacks["p00"].gbcast.gbcast_payload(("m", i), "abcast")
    stacks["p01"].membership.remove("p02")
    assert world.run_until(
        lambda: stacks["p00"].membership.view.id == 1, timeout=60_000
    )
    counters = world.metrics.counters
    mechanisms = []
    if counters.get("consensus.decided"):
        mechanisms.append("consensus sequence (abcast)")
    # Views were ordered by...? They rode abcast: no separate protocol ran.
    assert counters.get("gm.views_installed") > 0
    # The view-installed exit condition fires while the tail of the
    # gbcast traffic is still in flight; drain it so those latency
    # intervals close instead of leaking.
    leaked = teardown_leaks(world)
    return mechanisms, world, leaked


def test_sec41_complexity(benchmark, capsys):
    def run():
        rows = [
            ["new architecture", 1, "; ".join(NEW_ARCH_ORDERING_SOLVERS)[:58] + "..."],
        ]
        for stack in (IsisStack, PhoenixStack, RMPStack, TotemStack, EnsembleStack):
            rows.append(
                [stack.__name__.replace("Stack", ""), len(stack.ORDERING_SOLVERS),
                 "; ".join(s.split(" (")[0] for s in stack.ORDERING_SOLVERS)]
            )
        return rows, *dynamic_protocols_new_arch()

    rows, dynamic, world, leaked = once(benchmark, run)
    report(
        capsys,
        "Sec. 4.1  Where is the ordering problem solved?",
        ["architecture", "ordering solvers", "components that order"],
        rows,
        note=(
            f"Dynamic check (new architecture, run incl. a view change): the "
            f"only ordering protocol that executed was {dynamic} — view changes "
            f"rode the same consensus sequence as application messages.  "
            f"Traditional stacks solve ordering in 2-3 places (views, messages, "
            f"messages-vs-views)."
        ),
    )
    assert rows[0][1] == 1
    assert all(r[1] >= 2 for r in rows[1:])
    assert dynamic == ["consensus sequence (abcast)"]
    # The run's own health: no latency interval leaks, every delivery
    # owns a complete causal tree, and — the membership change being
    # voluntary, not a crash — every instance decides in round 0.
    assert leaked == 0
    cp = summarize_deliveries(world.spans)
    assert causal_trees_complete(cp), cp
    assert round0_fraction(world) >= ROUND0_FLOOR
