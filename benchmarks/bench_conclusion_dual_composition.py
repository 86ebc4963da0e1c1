"""Conclusion — "the two implementations share the same protocol code at
each module, and differ only in the way interactions (events) are routed".

The paper implemented its architecture in Appia and in Cactus.  We
reproduce the duality with two compositions of the *same* component
classes: direct method wiring (`repro.core.new_stack`) vs. event routing
through the composition kernel (`repro.core.composed`).  The bench runs
the identical workload over both and verifies byte-identical behaviour,
while counting what differs: the routed events.
"""

from common import once, report

from repro.core.composed import build_composed_group
from repro.core.new_stack import build_new_group
from repro.sim.world import World

BURST = 10


def run_direct():
    world = World(seed=77)
    stacks = build_new_group(world, 3)
    world.start()
    for i in range(BURST):
        stacks["p00"].gbcast.gbcast_payload(("m", i), "abcast")
    logs = lambda pid: [
        m.payload
        for m, _p in stacks[pid].gbcast.delivered_log
        if not m.msg_class.startswith("_")
    ]
    assert world.run_until(
        lambda: all(len(logs(p)) == BURST for p in stacks), timeout=120_000
    )
    return {
        "history": {p: logs(p) for p in stacks},
        "net": world.metrics.counters.get("net.sent"),
        "hops": world.metrics.counters.get("ens.event_hops"),
        "latency": world.metrics.latency.stats("gbcast").mean,
    }


def run_composed():
    world = World(seed=77)
    group = build_composed_group(world, 3)
    world.start()
    for i in range(BURST):
        group["p00"].gbcast(("m", i), "abcast")
    assert world.run_until(
        lambda: all(len(g.delivered_payloads()) == BURST for g in group.values()),
        timeout=120_000,
    )
    return {
        "history": {p: group[p].delivered_payloads() for p in group},
        "net": world.metrics.counters.get("net.sent"),
        "hops": world.metrics.counters.get("ens.event_hops"),
        "latency": world.metrics.latency.stats("gbcast").mean,
    }


def test_conclusion_dual_composition(benchmark, capsys):
    def run():
        return run_direct(), run_composed()

    direct, composed = once(benchmark, run)
    identical = direct["history"] == composed["history"]
    report(
        capsys,
        "Conclusion  Same protocol code, two composition frameworks",
        ["composition", "delivered histories", "datagrams", "routed events", "latency ms"],
        [
            ["direct wiring (Cactus-like)", f"{BURST} msgs x 3 procs", direct["net"],
             direct["hops"], direct["latency"]],
            ["event routing (Appia-like)", "identical" if identical else "DIVERGED",
             composed["net"], composed["hops"], composed["latency"]],
        ],
        note=(
            "Shape: both compositions produce byte-identical delivery "
            "histories and identical wire traffic; only the event-routing "
            "counter differs — the protocol code is shared, the routing is "
            "not (paper conclusion)."
        ),
    )
    assert identical
    assert direct["net"] == composed["net"]
    assert composed["hops"] > direct["hops"]
