"""The benchmark's three open-loop workloads, driven through the group API.

Every group is built the way an application builds one:
``World(seed=..., default_link=LinkModel(3.0, 8.0))`` with no trace flags,
``build_new_group(..., config=StackConfig())`` and one
``GroupCommunication`` facade per member; ``churn`` adds
``enable_recovery``.  Ops are generated from the seed before the run and
each is scheduled at its due time on the simulated clock, so the load is
open-loop: a slow stack delays deliveries, never the offered load, and
the generator is never late (the scheduler refuses past-due events).
Each op is timed in simulated ms from its due time to its delivery at
every member that owes it.

The simulated length of a run is fixed by ``--seconds`` through
``Workload.sim_ms_per_s`` (calibrated so that a run at the calibration commit
takes roughly that many wall seconds on a 2-vCPU container), never by
the wall clock: simulated results depend only on the seed and the
requested length, and a slower program takes longer to run the same work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial

from repro import GroupCommunication, StackConfig, World, build_new_group, enable_recovery
from repro.gbcast.conflict import ABCAST_CLASS, RBCAST_ABCAST, bank_relation
from repro.net.topology import LinkModel
from repro.sim.randomness import fork_rng
from repro.workload.generators import BroadcastOp, FaultPlan, bank_mix

WARMUP_MS = 200.0
DRAIN_MS = 3_000.0
SLICE_MS = 500.0
SLO_P99_MS = 500.0
LADDER = (10, 20, 30, 40, 60, 80, 120, 160, 240, 320)
REFERENCE_RATE = 20
SETUP_SAMPLES = 15
PROBE_EVERY_MS = 250.0

#: ``churn`` crashes these two members in turn; ``p00`` is the round-0
#: consensus coordinator.  Downtime exceeds the default 2 s exclusion
#: timeout, so each victim is excluded and rejoins through a membership
#: join with state transfer.  The first crash falls 10 ms before an op
#: is due, never on the same instant.
CHURN_VICTIMS = ("p00", "p01")
CHURN_DOWNTIME_MS = 2_500.0
CHURN_GAP_MS = 500.0
CHURN_CYCLE_MS = 2 * (CHURN_DOWNTIME_MS + CHURN_GAP_MS)
CHURN_FIRST_CRASH_MS = 490.0

#: Reference time of :func:`calibration_loop`.  Wall-clock rates and
#: times are reported at this machine speed (see ``Phase.rate``).
CALIBRATION_REF_S = 0.010


def calibration_loop() -> float:
    """Wall seconds taken by a fixed loop of integer arithmetic.

    The loop allocates no object the cyclic GC tracks, so it measures the
    speed the machine currently gives this process, not the program's
    heap.  Runs on a shared host drift by tens of percent within minutes;
    sampling this loop between slices of a run and scaling by it keeps
    that drift out of wall-clock metrics, while any change in the
    program's own cost still shows in full.
    """
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - started


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of pre-sorted values."""
    if not sorted_values:
        return float("nan")
    rank = max(1, -(-len(sorted_values) * fraction // 1))
    return sorted_values[int(rank) - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if not ordered:
        return float("nan")
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Group:
    """One simulated group plus the benchmark's delivery log."""

    def __init__(self, seed, n, relation, link, recovery=False, tracer=None):
        self.calibration = calibration_loop()
        started = time.perf_counter()
        self.tracer = tracer
        self.world = World(seed=seed, default_link=link)
        self.stacks = build_new_group(self.world, n, conflict=relation, config=StackConfig())
        self.apis: dict = {}
        #: "pid/incarnation" -> application deliveries in local order.
        self.histories: dict = {}
        #: MsgId -> {"pid/incarnation": simulated delivery time}.
        self.delivered: dict = {}
        self.due: dict = {}
        self.deliveries = 0
        self.rejoin_ms: list[float] = []
        if tracer is not None:
            tracer.attach_world(self.world)
        for pid, stack in sorted(self.stacks.items()):
            self._attach(pid, stack)
        if recovery:
            enable_recovery(
                self.world, self.stacks, conflict=relation, config=StackConfig(),
                on_rebuild=self._rebuilt,
            )
        self.world.start()
        self.world.run_for(WARMUP_MS)
        self.setup_s = time.perf_counter() - started

    def _attach(self, pid, stack):
        api = self.apis[pid] = GroupCommunication(stack)
        key = f"{pid}/{stack.process.incarnation}"
        history = self.histories[key] = []
        api.on_gdeliver(partial(self._on_deliver, key, history))
        if self.tracer is not None:
            self.tracer.attach_process(stack.process, api)

    def _on_deliver(self, key, history, message):
        history.append(message)
        self.delivered.setdefault(message.id, {})[key] = self.world.now
        self.deliveries += 1

    def _rebuilt(self, pid, stack):
        recovered_at = [self.world.now]

        def on_view(view):
            if recovered_at and pid in view:
                self.rejoin_ms.append(self.world.now - recovered_at.pop())

        stack.membership.on_new_view(on_view)
        self._attach(pid, stack)

    def sender(self, index: int) -> str:
        """The op's drawn sender, or the next live member after it."""
        pids = sorted(self.stacks)
        for k in range(len(pids)):
            pid = pids[(index + k) % len(pids)]
            view = self.stacks[pid].membership.view
            if not self.world.processes[pid].crashed and view is not None and pid in view:
                return pid
        raise RuntimeError("no live member to send from")

    def fire(self, op, abcast: bool) -> None:
        api = self.apis[self.sender(op.sender_index)]
        if abcast:
            mid = api.abcast(op.payload)
        else:
            mid = api.gbcast(op.payload, op.msg_class)
        self.due[mid] = self.world.now

    def run_timed(self, ops, abcast: bool, span_ms: float) -> "Phase":
        """Offer ``ops`` from now on, then drain; wall time in slices."""
        world = self.world
        start = world.now
        for op in ops:
            world.scheduler.at(start + op.at, self.fire, op, abcast)
        phase = Phase(load_end=start + span_ms)
        counters = world.metrics.counters
        counters_before = counters.snapshot()
        events_before = world.scheduler.events_processed
        # Older versions of the program have no span log.
        phase.spans_before = len(world.trace.spans) if hasattr(world.trace, "spans") else 0
        phase.records_before = len(world.trace.records)
        while world.now < phase.load_end:
            phase.calibration.append(calibration_loop())
            before = self.deliveries
            tick = time.perf_counter()
            world.run_for(min(SLICE_MS, phase.load_end - world.now))
            phase.slices.append((self.deliveries - before, time.perf_counter() - tick))
            phase.peak_pending = max(phase.peak_pending, world.scheduler.pending())
        phase.load_wall_s = sum(wall for _, wall in phase.slices)
        phase.load_deliveries = self.deliveries
        if self.tracer is not None:
            phase.load_spans = len(self.tracer.spans)
        world.run_for(DRAIN_MS)
        phase.end = world.now
        phase.counters = {
            k: v - counters_before.get(k, 0) for k, v in counters.snapshot().items()
        }
        phase.events = world.scheduler.events_processed - events_before
        phase.deliveries = self.deliveries
        return phase


@dataclass
class Phase:
    """Measurements of one timed phase (offered load, then drain).

    Wall-clock figures cover the offered-load window only, in slices of
    ``SLICE_MS`` simulated ms; counters and deliveries cover the drain too.
    """

    load_end: float
    end: float = 0.0
    #: (deliveries, wall seconds) per slice of the offered-load window.
    slices: list = field(default_factory=list)
    #: :func:`calibration_loop` time taken before each slice.
    calibration: list = field(default_factory=list)
    peak_pending: int = 0
    load_wall_s: float = 0.0
    load_deliveries: int = 0
    load_spans: int = 0
    deliveries: int = 0
    events: int = 0
    counters: dict = field(default_factory=dict)
    spans_before: int = 0
    records_before: int = 0

    def raw_rate(self) -> float:
        """Median over slices of deliveries per wall second."""
        return median([d / w for d, w in self.slices if w > 0])

    def rate(self) -> float:
        """:meth:`raw_rate` at the calibration loop's reference speed."""
        return self.raw_rate() * median(self.calibration) / CALIBRATION_REF_S


@dataclass
class StepResult:
    """One offered-load step: its group, ops, phase and per-op latencies."""

    rate: float
    group: Group
    phase: Phase
    owed: list
    #: Instants the service gap is measured from (see :meth:`service_gaps`).
    probes: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    undelivered: int = 0
    gaps: list = field(default_factory=list)

    def measure(self) -> None:
        """Per-op latency at each owed member; an op still missing at the
        end of the drain window counts from its due time to that end (a
        lower bound, at least ``DRAIN_MS``, so it misses the limit)."""
        lat = []
        undelivered = 0
        end = self.phase.end
        for mid, due in self.group.due.items():
            times = self.group.delivered.get(mid, {})
            missing = False
            for key in self.owed:
                t = times.get(key)
                if t is None:
                    t = end
                    missing = True
                lat.append(t - due)
            undelivered += missing
        lat.sort()
        self.latencies = lat
        self.undelivered = undelivered

    @property
    def p50(self) -> float:
        return percentile(self.latencies, 0.50)

    @property
    def p99(self) -> float:
        return percentile(self.latencies, 0.99)

    def meets_slo(self) -> bool:
        return self.undelivered == 0 and self.p99 <= SLO_P99_MS

    def service_gaps(self) -> list[float]:
        """Per probe instant: time until the first op due at or after it
        is delivered at every member that owes it."""
        due_sorted = sorted((due, mid) for mid, due in self.group.due.items())
        gaps = []
        j = 0
        for instant in self.probes:
            while j < len(due_sorted) and due_sorted[j][0] < instant:
                j += 1
            if j == len(due_sorted):
                break
            mid = due_sorted[j][1]
            times = self.group.delivered.get(mid, {})
            gaps.append(max(times.get(key, self.phase.end) for key in self.owed) - instant)
        return gaps


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    rate: float
    abcast: bool
    #: Simulated ms of offered load per requested wall second.
    sim_ms_per_s: float
    withdraw_fraction: float = 0.0
    recovery: bool = False
    bytes_per_ms: float | None = None

    @property
    def relation(self):
        return RBCAST_ABCAST if self.abcast else bank_relation()

    @property
    def link(self) -> LinkModel:
        if self.bytes_per_ms is None:
            return LinkModel(3.0, 8.0)
        return LinkModel(3.0, 8.0, bytes_per_ms=self.bytes_per_ms)

    def ops(self, seed: int, rate: float, span_ms: float) -> list:
        """The op stream: a constant-rate open loop, op i due at i / rate.

        Latency-vs-rate curves are measured at a constant rate; with
        Poisson arrivals the p99 of a run would mostly be a property of
        the seed's arrival clumps (and, on ``churn``, of how close an op
        happens to fall to a crash).  The seed draws each op's sender,
        class and body.
        """
        gap = 1_000.0 / rate
        count = int(span_ms / gap)
        if self.abcast:
            from repro.net.wire import Blob

            rng = fork_rng(seed, f"{self.name}-{rate}")
            return [
                BroadcastOp(i * gap, rng.randrange(self.n), ("op", i, Blob(4096)), ABCAST_CLASS)
                for i in range(count)
            ]
        # bank_mix's Poisson stream, long enough to hold ``count`` ops,
        # supplies the deposit/withdrawal mix.
        drawn = bank_mix(2 * span_ms, rate, self.withdraw_fraction, self.n, seed=seed)
        return [replace(op, at=i * gap) for i, op in enumerate(drawn[:count])]

    def owed(self, group: Group) -> list[str]:
        """Members that owe every op: those the fault plan never crashes."""
        crashed = CHURN_VICTIMS if self.recovery else ()
        return [f"{pid}/0" for pid in sorted(group.stacks) if pid not in crashed]

    def faults(self, span_ms: float, start: float) -> FaultPlan:
        """Rolling restarts of the victims, one down at a time, repeated
        while the last victim can recover within the offered-load window."""
        events = []
        t = start + CHURN_FIRST_CRASH_MS
        while t + CHURN_CYCLE_MS - CHURN_GAP_MS <= start + span_ms:
            events += FaultPlan.rolling_restart(
                list(CHURN_VICTIMS), start=t, downtime=CHURN_DOWNTIME_MS, gap=CHURN_GAP_MS
            ).events
            t += CHURN_CYCLE_MS
        return FaultPlan(events)

    def step(self, seed: int, rate: float, span_ms: float, tracer=None) -> StepResult:
        group = Group(seed, self.n, self.relation, self.link, self.recovery, tracer)
        ops = self.ops(seed, rate, span_ms)
        start = group.world.now
        if self.recovery:
            plan = self.faults(span_ms, start)
            plan.apply(group.world)
            probes = [e.at for e in plan.events if e.kind == "crash"]
        else:
            probes = [start + k * PROBE_EVERY_MS
                      for k in range(1, math.ceil(span_ms / PROBE_EVERY_MS))]
        if tracer is not None:
            tracer.reset()
        phase = group.run_timed(ops, self.abcast, span_ms)
        if tracer is not None:
            tracer.detach()
        result = StepResult(rate, group, phase, self.owed(group), probes)
        result.measure()
        return result

#: ``churn`` is not listed in BENCHMARK.json while the program fails its
#: conflict-order check on some seeds (DESIGN.md, "Open defect").
WORKLOADS = {
    "commute": Workload("commute", n=9, rate=100.0, abcast=False, sim_ms_per_s=450.0),
    "ordered_ramp": Workload("ordered_ramp", n=5, rate=REFERENCE_RATE, abcast=True,
                             sim_ms_per_s=500.0, bytes_per_ms=2000.0),
    "churn": Workload("churn", n=5, rate=20.0, abcast=False, sim_ms_per_s=1_500.0,
                      withdraw_fraction=0.3, recovery=True),
}
