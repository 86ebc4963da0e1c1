"""Scenario configuration: everything one exploration run needs, as data.

A :class:`ScenarioConfig` fully determines a run — seed, group size,
workload mix, link behaviour, stack knobs, fault plan, budgets, optional
injected mutation — and round-trips through JSON, which is what makes
failing schedules shrinkable, storable in a corpus, and replayable
byte-identically (``python -m repro explore --replay FILE``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.gbcast.conflict import (
    ABCAST_CLASS,
    DEPOSIT,
    RBCAST_ABCAST,
    RBCAST_CLASS,
    WITHDRAWAL,
    ConflictRelation,
    bank_relation,
)
from repro.workload.generators import FaultPlan

#: Named conflict relations a scenario can run under, with their
#: (conflicting class, commuting class) pair for the workload mix.
RELATIONS: dict[str, tuple[ConflictRelation, str, str]] = {
    "rbcast_abcast": (RBCAST_ABCAST, ABCAST_CLASS, RBCAST_CLASS),
    "bank": (bank_relation(), WITHDRAWAL, DEPOSIT),
}


@dataclass(frozen=True)
class LinkConfig:
    """Stochastic link behaviour of the scenario's network."""

    delay_min: float = 1.0
    delay_jitter: float = 1.0
    drop_prob: float = 0.0
    dup_prob: float = 0.0
    #: Bandwidth term of :class:`repro.net.topology.LinkModel`: ``None``
    #: keeps transit delay independent of datagram size.
    bytes_per_ms: float | None = None

    def to_json_obj(self) -> dict:
        return {
            "delay_min": self.delay_min,
            "delay_jitter": self.delay_jitter,
            "drop_prob": self.drop_prob,
            "dup_prob": self.dup_prob,
            "bytes_per_ms": self.bytes_per_ms,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "LinkConfig":
        return LinkConfig(**obj)


@dataclass(frozen=True)
class StackKnobs:
    """The subset of :class:`repro.core.new_stack.StackConfig` the
    explorer sweeps (plus the monitoring exclusion timeout)."""

    abcast_window: int = 1
    suspicion_timeout: float = 60.0
    fast_path_timeout: float = 250.0
    exclusion_timeout: float = 2_000.0
    relay_policy: str = "eager"
    coalesce_delay: float | None = None
    #: Consensus round-0 fast path.  Defaults off here — unlike
    #: ``StackConfig`` — so pre-fast-path corpus entries and repro files
    #: (which omit the key) keep replaying their pinned legacy schedules
    #: byte-identically; the sweep and newer entries opt in explicitly.
    consensus_fast_path: bool = False

    def to_json_obj(self) -> dict:
        return {
            "abcast_window": self.abcast_window,
            "suspicion_timeout": self.suspicion_timeout,
            "fast_path_timeout": self.fast_path_timeout,
            "exclusion_timeout": self.exclusion_timeout,
            "relay_policy": self.relay_policy,
            "coalesce_delay": self.coalesce_delay,
            "consensus_fast_path": self.consensus_fast_path,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "StackKnobs":
        # Repro files written while rbcast also had ring/tree routing
        # store a ``dissemination`` key.  Flood is the only routing left,
        # so ``"flood"`` files replay unchanged and the others cannot.
        obj = dict(obj)
        dissemination = obj.pop("dissemination", "flood")
        if dissemination != "flood":
            raise ValueError(
                f"dissemination={dissemination!r} needs the ring/tree dissemination "
                "overlay, which was removed; only flood routing can be replayed"
            )
        return StackKnobs(**obj)


@dataclass(frozen=True)
class ScenarioConfig:
    """One deterministic exploration scenario."""

    seed: int = 0
    processes: int = 3
    duration: float = 2_000.0           # workload window, simulated ms
    rate: float = 20.0                  # broadcasts per simulated second
    relation: str = "rbcast_abcast"
    conflict_weight: float = 0.3        # weight of the conflicting class
    payload_bytes: int | None = None    # modelled app payload size (Blob)
    link: LinkConfig = field(default_factory=LinkConfig)
    stack: StackKnobs = field(default_factory=StackKnobs)
    plan: FaultPlan = field(default_factory=FaultPlan)
    budget_events: int = 200_000
    quiesce_timeout: float = 60_000.0   # max extra simulated ms to converge
    quiet_window: float = 400.0         # no-progress window ending the run
    mutation: str | None = None         # deliberate bug injection (tests)

    def __post_init__(self) -> None:
        if self.processes < 2:
            raise ValueError("a scenario needs at least 2 processes")
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if not 0.0 <= self.conflict_weight <= 1.0:
            raise ValueError("conflict_weight must be in [0, 1]")

    # ------------------------------------------------------------------
    # Derived pieces
    # ------------------------------------------------------------------
    def conflict_relation(self) -> ConflictRelation:
        return RELATIONS[self.relation][0]

    def class_weights(self) -> dict[str, float]:
        _, conflicting, commuting = RELATIONS[self.relation]
        return {
            conflicting: self.conflict_weight,
            commuting: 1.0 - self.conflict_weight,
        }

    def fifo_checkable(self) -> bool:
        """Whether per-sender-per-class FIFO is checkable on this run.

        Sender order is **not** an invariant of generic broadcast: the
        underlying reliable broadcast delivers on *first receipt over any
        path*.  Under the **eager** relay policy every path carries a
        prefix of the sender's same-class stream in order (the direct
        channel is per-peer FIFO, and relayers forward their own
        first-receipt merge, complete and in order), so the merge stays
        FIFO through any loss, duplication, partition or crash.  A
        **lazy-relay** suspicion flood instead re-injects only the
        *retained* (not-yet-stable) suffix of a sender's stream — a
        flooded later message can legally overtake an earlier one, and a
        false suspicion can trigger that with no fault plan at all.
        Cross-class order is never asserted (the observer keys streams
        by class): commuting messages deliberately bypass the staging
        machinery that conflicting messages wait on.
        """
        return self.stack.relay_policy == "eager"

    def incarnation_checkable(self) -> bool:
        """Whether incarnation-monotonicity is checkable on this run.

        A message broadcast by a sender's old incarnation just before
        its crash may legally be delivered *after* messages of the
        recovered incarnation: uniform agreement requires every member
        to deliver the straggler whenever any member did, and
        re-admission installs no view barrier to flush it (Section 4.3
        deliberately decouples recovery from view changes).  The
        monotonicity check is therefore asserted only when stragglers
        cannot outlive the crash-to-recover gap: no recoveries at all,
        or prompt delivery paths — eager relay on a loss-free,
        duplicate-free link with no partitions buffering traffic.  What
        it then catches is real fencing bugs: a transport accepting a
        dead incarnation's retransmissions as fresh traffic.
        """
        if not self.plan.recovered_pids():
            return True
        return (
            self.stack.relay_policy == "eager"
            and self.link.drop_prob == 0.0
            and self.link.dup_prob == 0.0
            and not any(e.kind == "partition" for e in self.plan.events)
        )

    def with_plan(self, plan: FaultPlan) -> "ScenarioConfig":
        return replace(self, plan=plan)

    def with_processes(self, processes: int) -> "ScenarioConfig":
        return replace(self, processes=processes)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json_obj(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "processes": self.processes,
            "duration": self.duration,
            "rate": self.rate,
            "relation": self.relation,
            "conflict_weight": self.conflict_weight,
            "payload_bytes": self.payload_bytes,
            "link": self.link.to_json_obj(),
            "stack": self.stack.to_json_obj(),
            "plan": self.plan.to_json_obj(),
            "budget_events": self.budget_events,
            "quiesce_timeout": self.quiesce_timeout,
            "quiet_window": self.quiet_window,
            "mutation": self.mutation,
        }

    @staticmethod
    def from_json_obj(obj: dict[str, Any]) -> "ScenarioConfig":
        return ScenarioConfig(
            seed=int(obj["seed"]),
            processes=int(obj["processes"]),
            duration=float(obj["duration"]),
            rate=float(obj["rate"]),
            relation=obj.get("relation", "rbcast_abcast"),
            conflict_weight=float(obj.get("conflict_weight", 0.3)),
            payload_bytes=(
                None
                if obj.get("payload_bytes") is None
                else int(obj["payload_bytes"])
            ),
            link=LinkConfig.from_json_obj(obj.get("link", {})),
            stack=StackKnobs.from_json_obj(obj.get("stack", {})),
            plan=FaultPlan.from_json_obj(obj.get("plan", [])),
            budget_events=int(obj.get("budget_events", 200_000)),
            quiesce_timeout=float(obj.get("quiesce_timeout", 60_000.0)),
            quiet_window=float(obj.get("quiet_window", 400.0)),
            mutation=obj.get("mutation"),
        )
