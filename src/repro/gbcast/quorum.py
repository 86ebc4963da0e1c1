"""Quorum-based thrifty generic broadcast (Aguilera et al. [1] style).

The base implementation (:mod:`repro.gbcast.thrifty`) fast-delivers a
message on acks from *all* current members — simple, but one slow or
crashed member disables the fast path until the stage is closed.  This
variant requires only a **quorum** of

    q = n - f,   f = ⌊(n - 1) / 3⌋

acks (for n ≤ 3 this degenerates to all-ack).  With n > 3f the fast path
keeps working through up to f crashes — the availability the paper's
reference [1] buys with quorums.

The price is a *gather* round at stage closure: a single process's acked
set no longer suffices (it may miss messages fast-delivered elsewhere),
so the closing process first collects the acked ids of ``n - f``
members, each of which **freezes** its stage-k acking when it replies.
A message *qualifies* for the closure set if its id appears in at least
``q - f`` of the collected sets:

* (completeness) if some process fast-delivered m, at least q members
  acked m before freezing; at most f of them are missing from any
  collection of n - f sets, so m appears ≥ q - f times;
* (exclusivity) two conflicting messages cannot both qualify: their
  acker sets are disjoint within a stage, so together they would need
  2(q - f) = 2(n - 2f) ≤ n - f collected sets, i.e. n ≤ 3f —
  contradiction.  The qualifying set is therefore conflict-free and safe
  to deliver in deterministic order, exactly like the base algorithm's
  closure set.

The qualifying ids then ride atomic broadcast as the stage's
``ENDSTAGE(k, ids)``; everything else (the ordered-closure queue, apply
when bodies are present, stage bump, re-acking, excluded-sender rule) is
inherited from the base class.  The gatherer need not hold every
qualifying body: like any process, it pulls what it lacks before the
closure applies.  Gather messages are checked against the *ordered*
stage: once ``ENDSTAGE(k)`` is adelivered, stage k takes no more
gathers even while its closure waits for bodies.  Who gathers is
inherited too: on a conflict only the stage closer (the view head, see
:func:`repro.gbcast.thrifty.stage_closer`) starts a gather at once, and
any other member freezes on the conflict and starts its own once the
stage has stayed open for the fast-path timeout; suspicion and timeout
closures start a gather on any member.  As in the base class this only
decides who collects and sends a closure, and any member's qualifying
set is a valid closure.  Liveness additions: a
frozen process that sees no closure within the fast-path timeout starts
its own gather, so a crashed gatherer cannot wedge the stage.
"""

from __future__ import annotations

from collections import Counter

from repro.gbcast.thrifty import ENDSTAGE_CLASS, ThriftyGenericBroadcast
from repro.net.message import AppMessage, MsgId

GATHER_PORT = "gb.gather"
GATHER_OK_PORT = "gb.gather_ok"


class QuorumGenericBroadcast(ThriftyGenericBroadcast):
    """Generic broadcast with an n−f ack quorum fast path (n > 3f)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._gathering: dict[int, dict[str, tuple[MsgId, ...]]] = {}
        self._frozen_since: float | None = None
        self.register_port(GATHER_PORT, self._on_gather)
        self.register_port(GATHER_OK_PORT, self._on_gather_ok)

    # ------------------------------------------------------------------
    # Quorum arithmetic
    # ------------------------------------------------------------------
    def _f(self) -> int:
        return (len(self.group_provider()) - 1) // 3

    def ack_quorum(self) -> int:
        return len(self.group_provider()) - self._f()

    # ------------------------------------------------------------------
    # Fast path: quorum instead of all
    # ------------------------------------------------------------------
    def _check_fast(self, mid: MsgId) -> None:
        message = self._pending.get(mid)
        if message is None:
            return
        members = set(self.group_provider())
        if self.pid not in members:
            return
        acks = self._acks_received.get(mid, set()) & members
        if len(acks) >= self.ack_quorum():
            self._deliver(message, "fast")

    def _suspects_block_fast_path(self) -> bool:
        members = set(self.group_provider())
        suspected = set(self.suspicion_provider()) & members
        return len(suspected) > self._f()

    # ------------------------------------------------------------------
    # Stage closure: gather, then abcast the qualifying set
    # ------------------------------------------------------------------
    def _close_stage(self, reason: str) -> None:
        stage = self._stage
        if stage != self._ordered_stage or stage in self._gathering:
            return  # stage already closed in the total order, or gathering
        self._gathering[stage] = {}
        self._conflict_since = None
        self.trace("gather_start", stage=stage, reason=reason)
        self.world.metrics.counters.inc("gbcast.gathers")
        for member in self.group_provider():
            self.channel.send(member, GATHER_PORT, stage)

    def _on_gather(self, src: str, stage: int) -> None:
        if stage != self._stage or stage != self._ordered_stage:
            # Stale, or a stage ahead of ours: our acked set belongs to
            # a stage whose closure is ordered but not applied here yet.
            return
        # Freeze: no more stage-k acks once our set is reported.  A member
        # already frozen on a conflict starts the watchdog here too.
        if self._frozen_since is None:
            self._frozen = True
            self._frozen_since = self.now
            self._arm_tick()  # frozen stages need the frozen-timeout watchdog
        self.channel.send(src, GATHER_OK_PORT, (stage, tuple(sorted(self._acked))))

    def _on_gather_ok(self, src: str, payload: tuple) -> None:
        stage, acked = payload
        if stage != self._ordered_stage:
            return
        collection = self._gathering.get(stage)
        if collection is None:
            return
        collection[src] = acked
        members = self.group_provider()
        needed = len(members) - self._f()
        if len(collection) < needed:
            return
        # Qualifying set: present in >= quorum - f of the collected sets.
        threshold = self.ack_quorum() - self._f()
        counts: Counter[MsgId] = Counter()
        for acked_ids in collection.values():
            counts.update(acked_ids)
        qualifying = tuple(mid for mid, c in sorted(counts.items()) if c >= threshold)
        del self._gathering[stage]
        self._abcast_closure(stage, qualifying, "gather")

    # ------------------------------------------------------------------
    # Liveness: a frozen stage must not depend on one gatherer
    # ------------------------------------------------------------------
    def _tick_needed(self) -> bool:
        # Unlike the base class, a frozen quorum stage still needs the
        # tick: a crashed gatherer must not wedge the stage forever.
        return self._waiting() or self._frozen

    def _timeout_tick(self) -> None:
        self._tick_armed = False
        self.world.metrics.counters.inc("gbcast.ticks")
        if self._frozen_since is not None:
            stalled = (
                self.now - self._frozen_since > self.fast_path_timeout
                and self._stage not in self._gathering
            )
            if stalled:
                self._frozen_since = self.now
                self._close_stage("frozen-timeout")
        elif self._may_close():
            self._close_if_overdue()
        self._arm_tick()

    def _on_adeliver(self, message: AppMessage) -> None:
        closing = (
            message.msg_class == ENDSTAGE_CLASS
            and message.payload[0] == self._ordered_stage
            and message.sender in self.group_provider()
        )
        super()._on_adeliver(message)
        if closing:
            self._frozen_since = None
            self._gathering.pop(message.payload[0], None)
