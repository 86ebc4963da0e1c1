"""Table 2 (Section 3.3) — the rbcast / abcast conflict relation of the
generic broadcast component's client operations.

Exercises all four cells through the application facade: two concurrent
rbcasts may reorder; rbcast/abcast and abcast/abcast pairs are totally
ordered; and a pure-rbcast workload never invokes consensus (the cheap
cell really is cheap).
"""

from common import once, report

from repro.core.api import GroupCommunication
from repro.core.new_stack import build_new_group
from repro.sim.world import World

SEEDS = range(20)


def race_pair(kind_a, kind_b, seed):
    world = World(seed=seed)
    stacks = build_new_group(world, 3)
    apis = {pid: GroupCommunication(s) for pid, s in stacks.items()}
    world.start()
    world.run_for(30.0)
    getattr(apis["p00"], kind_a)("A")
    getattr(apis["p01"], kind_b)("B")
    assert world.run_until(
        lambda: all(len(a.delivered) == 2 for a in apis.values()), timeout=60_000
    )
    orders = {tuple(a.delivered_payloads()) for a in apis.values()}
    consensus_used = world.metrics.counters.get("consensus.proposals") > 0
    return orders, consensus_used


def cell(kind_a, kind_b):
    diverged = False
    consensus_ever = False
    for seed in SEEDS:
        orders, used = race_pair(kind_a, kind_b, seed)
        diverged |= len(orders) > 1
        consensus_ever |= used
    return diverged, consensus_ever


def test_tab2_conflict_relation(benchmark, capsys):
    def run():
        rows = []
        for a, b, conflicts in (
            ("rbcast", "rbcast", False),
            ("rbcast", "abcast", True),
            ("abcast", "abcast", True),
        ):
            diverged, consensus_ever = cell(a, b)
            rows.append([f"{a} / {b}",
                         "conflict" if conflicts else "no conflict",
                         "observed" if diverged else "never",
                         "yes" if consensus_ever else "no"])
        return rows

    rows = once(benchmark, run)
    report(
        capsys,
        "Table 2 (Sec. 3.3)  rbcast / abcast conflict relation, 20 seeds/cell",
        ["operations", "paper cell", "cross-process reorder", "consensus ever invoked"],
        rows,
        note=(
            "Shape: rbcast/rbcast never needs consensus and may reorder; any "
            "pair involving abcast is totally ordered across processes.  "
            "Generic broadcast subsumes both primitives under one component "
            "(Sec. 3.3, Fig. 9)."
        ),
    )
    assert rows[0][3] == "no"       # rbcast/rbcast: consensus never ran
    assert rows[1][2] == "never"    # rbcast/abcast ordered
    assert rows[2][2] == "never"    # abcast/abcast ordered
