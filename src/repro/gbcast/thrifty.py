"""Thrifty generic broadcast (Sections 3.2, 3.3; Aguilera et al. [1]).

The key component of the paper's new architecture.  It delivers
non-conflicting messages on a cheap *fast path* and invokes atomic
broadcast only when conflicting messages are actually broadcast — the
"thrifty" property the paper relies on in Sections 3.2.1 and 4.2.

Stage-based algorithm (see DESIGN.md §5 for the safety argument):

* To g-broadcast ``m``: reliably broadcast ``CHK(m)``.
* In stage ``k``, a process that r-delivers ``m`` ACKs it to all members
  iff ``m`` does not conflict with anything it already ACKed in stage
  ``k`` — so each process's acked set is pairwise non-conflicting.
* ``m`` is **fast-delivered** once ACKs from *all* current view members
  arrive (no atomic broadcast involved).
* A process that cannot ACK ``m`` (conflict) **closes the stage** if it
  is the stage's *closer* (:func:`stage_closer`: the first member of
  the current view, which is also the round-0 coordinator of every
  consensus instance): it atomically broadcasts ``ENDSTAGE(k, ids)``,
  the sorted ids of its stage-k acked set, and freezes.  Any other
  member freezes too but only notes when it saw the conflict; if stage
  ``k`` is still not closed in the total order ``fast_path_timeout``
  later (the closer crashed, is muted, or never saw the conflict), its
  timeout tick closes the stage itself.  A nudge (ack timeout, failure
  suspicion) closes at once on any member, frozen on a conflict or not.
  The freeze is what keeps per-sender FIFO (below): a member that kept
  acking past a conflict could fast-deliver a sender's later message
  before the closure delivers its earlier, conflicting one.  Closures carry ids, never
  bodies: a body crosses the wire once, in its ``CHK`` rbcast, and a
  closure costs O(ids).
* The closer rule only decides who *sends* a closure: any member's
  closure is valid, and every adelivered one is processed exactly as
  before, so safety does not depend on it.  It saves the stale copies —
  with every member closing, each conflict cost one ``ENDSTAGE`` per
  member, each an rbcast flood and a consensus slot, and all but the
  first ordered were void.  The round-0 coordinator is the closer
  because it holds its own closure locally and so proposes it at once.
* The first adelivered ``ENDSTAGE(k, ids)`` from a current member
  freezes stage-k acking everywhere and is queued.  Queued closures
  apply strictly in order, each **once its bodies are present**
  (pending or already delivered): applying delivers the undelivered
  ids in id order, bumps to stage ``k + 1`` and re-acks pending
  messages.  A body still missing — its ``CHK`` is slow, or a joiner's
  snapshot fenced it out — is pulled through abcast's PULL/PUSH repair
  (``gbcast.closure_waits`` counts each wait).

Invariants enforced (and tested property-style in
``tests/properties/test_gbcast_properties.py``):

* conflicting delivered messages are delivered in the same relative
  order at every process;
* non-conflicting messages may be delivered in different orders (this is
  the point — no ordering cost);
* in conflict-free, suspicion-free runs, **no** atomic broadcast is ever
  invoked;
* per-sender FIFO (footnote 9 of the paper) is *emergent*: the reliable
  channels are FIFO, relays preserve per-origin order, processes ack in
  rdeliver order, closure sets are delivered in MsgId (= send) order,
  and fast-path completion is a max over per-link FIFO ack arrivals —
  so a later message from a sender can never overtake an earlier one.
  :class:`repro.gbcast.fifo.FifoSender` provides the same guarantee by
  construction, independent of transport properties.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.abcast.consensus_based import BodyCache, ConsensusAtomicBroadcast
from repro.broadcast.rbcast import ReliableBroadcast
from repro.gbcast.conflict import AckedClassIndex, ConflictRelation
from repro.net.message import AppMessage, MsgId
from repro.net.reliable import ReliableChannel
from repro.sim.process import Component, Process
from repro.sim.scheduler import Timer

CHK_TAG = "gb.chk"
ACK_PORT = "gb.ack"
ENDSTAGE_CLASS = "_gb.endstage"
#: Owner name of the ``CHK`` bodies on abcast's PULL/PUSH repair.
BODY_OWNER = "gbcast"

GdeliverFn = Callable[[AppMessage], None]
GroupProvider = Callable[[], list[str]]


def stage_closer(members: list[str]) -> str | None:
    """The member that closes a stage on conflict: the head of the view,
    which is also ``participants[0]``, the round-0 coordinator of every
    consensus instance abcast starts in that view."""
    return members[0] if members else None


class ThriftyGenericBroadcast(Component):
    """Generic broadcast over rbcast (fast path) + abcast (conflicts)."""

    def __init__(
        self,
        process: Process,
        channel: ReliableChannel,
        rbcast: ReliableBroadcast,
        abcast: ConsensusAtomicBroadcast,
        conflict: ConflictRelation,
        group_provider: GroupProvider,
        fast_path_timeout: float = 250.0,
        ack_delay: float = 0.0,
        max_ack_batch: int = 32,
    ) -> None:
        super().__init__(process, "gbcast")
        self.channel = channel
        self.rbcast = rbcast
        self.abcast = abcast
        self.conflict = conflict
        self.group_provider = group_provider
        self.fast_path_timeout = fast_path_timeout
        #: Ack piggybacking: acks are buffered per destination and
        #: flushed ``ack_delay`` ms later as one batched datagram (0.0
        #: still coalesces every ack generated within one event cascade —
        #: stage-closure re-acks, reorder-buffer drains — at no latency
        #: cost).  ``max_ack_batch`` caps the batch per datagram.
        self.ack_delay = ack_delay
        self.max_ack_batch = max(1, max_ack_batch)
        self._stage = 0
        #: The stage the next adelivered closure must name: ``_stage``
        #: plus the closures ordered but not yet applied.
        self._ordered_stage = 0
        self._frozen = False
        #: Closures adelivered (so valid and in the total order) but not
        #: yet applied, oldest first: ``(sender, ids)`` for stages
        #: ``_stage``, ``_stage + 1``, ...
        self._closures: deque[tuple[str, tuple[MsgId, ...]]] = deque()
        #: Ids whose bodies the head closure waits on, and the timer that
        #: starts pulling them (see :meth:`_await_bodies`).
        self._awaited: set[MsgId] = set()
        self._pull_timer: Timer | None = None
        #: Recently delivered bodies, for peers that pull them.
        self._bodies = BodyCache(abcast.body_cache_limit)
        self._acked: set[MsgId] = set()
        #: Per-class view of ``_acked``: makes the ack conflict decision
        #: O(#conflicting classes) instead of a scan over every acked
        #: message.  Kept in lockstep with ``_acked`` (messages stay in
        #: both until the stage closes).
        self._ack_index = AckedClassIndex(conflict)
        self._ack_times: dict[MsgId, float] = {}
        #: When this process (not the closer) froze on a conflict in the
        #: current stage without closing it: the tick closes the stage
        #: itself if it is still open ``fast_path_timeout`` later.
        self._conflict_since: float | None = None
        self._acks_received: dict[MsgId, set[str]] = {}
        self._pending: dict[MsgId, AppMessage] = {}
        self._delivered: set[MsgId] = set()
        self._ack_buffer: dict[str, list[tuple[int, MsgId]]] = {}
        self._ack_flush_scheduled = False
        self._tick_armed = False
        self._callbacks: list[GdeliverFn] = []
        #: Optional: the stack wires this to its small-timeout monitor so
        #: a fast path stalled by a suspected member closes immediately
        #: instead of waiting for the ack timeout (Section 4.3).
        self.suspicion_provider: Callable[[], set] = set
        self.delivered_log: list[tuple[AppMessage, str]] = []
        self.register_port(ACK_PORT, self._on_ack)
        rbcast.register(CHK_TAG, self._on_chk, layer="gbcast")
        abcast.on_adeliver(self._on_adeliver)
        abcast.serve_bodies(BODY_OWNER, self._body, self._add_body)

    def start(self) -> None:
        self._arm_tick()

    # ------------------------------------------------------------------
    # Client interface (Fig. 9: rbcast/abcast in, gdeliver out)
    # ------------------------------------------------------------------
    def on_gdeliver(self, callback: GdeliverFn) -> None:
        self._callbacks.append(callback)

    def gbcast(self, message: AppMessage) -> None:
        """Generic-broadcast ``message`` (its class drives ordering)."""
        self.world.metrics.counters.inc("gbcast.broadcasts")
        self.world.metrics.counters.inc(f"gbcast.broadcasts.{message.msg_class}")
        self.world.metrics.latency.begin("gbcast", message.id, self.now)
        self.world.metrics.latency.begin(
            f"gbcast.{message.msg_class}", message.id, self.now
        )
        spans = self.spans
        span = spans.wrap(
            self.pid, "gbcast", "gbcast", "send", self.now, message.id,
            self.rbcast.rbcast, CHK_TAG, message,
        )
        if span is not None:
            spans.remember_send(message.id, span)

    def gbcast_payload(self, payload, msg_class: str) -> AppMessage:
        """Convenience: wrap ``payload`` in a fresh message and g-broadcast."""
        message = AppMessage(self.process.msg_ids.next(), self.pid, payload, msg_class)
        self.gbcast(message)
        return message

    @property
    def stage(self) -> int:
        return self._stage

    def undelivered_count(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def _on_chk(self, _origin: str, message: AppMessage, _mid: MsgId) -> None:
        self._add_body(message)

    def _add_body(self, message: AppMessage) -> None:
        """A body arrived, by its ``CHK`` rbcast or by PULL repair."""
        if message.id in self._delivered or message.id in self._pending:
            return
        self._pending[message.id] = message
        self._try_ack(message)
        self._close_if_suspects_block()
        if message.id in self._awaited:
            self._awaited.discard(message.id)
            self.abcast.body_arrived(message.id)
            if not self._awaited:
                self._pull_timer.cancel()
                self._apply_closures()

    def _body(self, mid: MsgId) -> AppMessage | None:
        body = self._pending.get(mid)
        return body if body is not None else self._bodies.get(mid)

    def _suspects_block_fast_path(self) -> bool:
        """True when current suspicions make the fast path unreachable."""
        suspected = set(self.suspicion_provider()) & set(self.group_provider())
        return bool(suspected)

    def _close_if_suspects_block(self) -> None:
        if not self._may_close() or not self._pending:
            return
        if self._suspects_block_fast_path():
            self._close_stage("suspect")

    def _try_ack(self, message: AppMessage) -> None:
        if self._frozen or message.id in self._acked:
            return
        if self.pid not in self.group_provider():
            return
        if self._ack_index.clashes(message.msg_class):
            self.trace("conflict", mid=str(message.id), cls=message.msg_class)
            self.world.metrics.counters.inc("gbcast.conflicts_detected")
            if stage_closer(self.group_provider()) == self.pid:
                self._close_stage("conflict")
            else:
                self._frozen = True
                self._conflict_since = self.now
                self._arm_tick()
            return
        self._acked.add(message.id)
        self._ack_index.add(message.msg_class)
        self._ack_times[message.id] = self.now
        for member in self.group_provider():
            self._ack_buffer.setdefault(member, []).append((self._stage, message.id))
        if not self._ack_flush_scheduled:
            self._ack_flush_scheduled = True
            self.schedule(self.ack_delay, self._flush_acks)
        self._arm_tick()

    def _flush_acks(self) -> None:
        """Send buffered acks, piggybacked into one datagram per member.

        Every ack accumulated since the last flush to the same member
        rides a single channel message (chunked at ``max_ack_batch``) —
        cutting ``net.sent`` whenever acks are generated in bursts:
        stage-closure re-acking, FIFO reorder drains, or bursty senders
        with a non-zero ``ack_delay``.
        """
        self._ack_flush_scheduled = False
        buffer, self._ack_buffer = self._ack_buffer, {}
        for member, acks in buffer.items():
            for i in range(0, len(acks), self.max_ack_batch):
                chunk = acks[i : i + self.max_ack_batch]
                if len(chunk) > 1:
                    self.world.metrics.counters.inc(
                        "gbcast.acks_piggybacked", len(chunk) - 1
                    )
                self.channel.send(member, ACK_PORT, chunk)

    def _on_ack(self, src: str, payload) -> None:
        # Batched form: a list of (stage, mid) pairs; tolerate a single
        # bare pair for direct-injection tests and older peers.
        acks = payload if isinstance(payload, list) else [payload]
        for stage, mid in acks:
            if stage != self._stage or mid in self._delivered:
                continue
            self._acks_received.setdefault(mid, set()).add(src)
            self._check_fast(mid)

    def _check_fast(self, mid: MsgId) -> None:
        message = self._pending.get(mid)
        if message is None:
            return
        members = set(self.group_provider())
        if self.pid not in members:
            return
        if members <= self._acks_received.get(mid, set()):
            self._deliver(message, "fast")

    # ------------------------------------------------------------------
    # Stage closure (the only place atomic broadcast is invoked)
    # ------------------------------------------------------------------
    def nudge(self) -> None:
        """External unblock request (failure suspicion from the stack)."""
        if self._may_close() and self._pending:
            self._close_stage("nudge")

    def _tick_needed(self) -> bool:
        """Is there outstanding work the timeout tick must watch?

        Idle processes must not wake up: an unconditional re-arm every
        ``fast_path_timeout / 2`` inflates ``events_processed`` and slows
        every simulation for nothing.  The tick is re-armed from the
        points where work appears (acking a message, noting a conflict,
        unfreezing a stage).
        """
        return self._waiting() and self._may_close()

    def _may_close(self) -> bool:
        """Neither closed by us nor closed in the total order yet: acking
        is open, or frozen only on a conflict left to the closer."""
        return not self._frozen or self._conflict_since is not None

    def _waiting(self) -> bool:
        """Acked messages not delivered yet, or a conflict left to the closer."""
        return bool(self._ack_times) or self._conflict_since is not None

    def _close_if_overdue(self) -> None:
        """Close the stage once a noted conflict (the closer's closure
        never came: the *fallback*) or an ack has waited
        ``fast_path_timeout``."""
        deadline = self.now - self.fast_path_timeout
        if self._conflict_since is not None and self._conflict_since <= deadline:
            self.world.metrics.counters.inc("gbcast.fallback_closures")
            self._close_stage("fallback")
        elif any(t <= deadline for t in self._ack_times.values()):
            self._close_stage("timeout")

    def _arm_tick(self) -> None:
        if self._tick_armed or not self._tick_needed():
            return
        self._tick_armed = True
        self.schedule(self.fast_path_timeout / 2, self._timeout_tick)

    def _timeout_tick(self) -> None:
        self._tick_armed = False
        self.world.metrics.counters.inc("gbcast.ticks")
        if self._may_close():
            self._close_if_overdue()
        self._arm_tick()

    def _close_stage(self, reason: str) -> None:
        if not self._may_close():
            return
        self._frozen = True
        self._conflict_since = None
        self._abcast_closure(self._stage, tuple(sorted(self._acked)), reason)

    def _abcast_closure(self, stage: int, ids: tuple[MsgId, ...], reason: str) -> None:
        self.trace("endstage", stage=stage, reason=reason, size=len(ids))
        self.world.metrics.counters.inc("gbcast.endstages")
        endstage = AppMessage(
            self.process.msg_ids.next(), self.pid, (stage, ids), ENDSTAGE_CLASS
        )
        self.abcast.abcast(endstage)

    def _on_adeliver(self, message: AppMessage) -> None:
        if message.msg_class != ENDSTAGE_CLASS:
            return
        stage, ids = message.payload
        if stage != self._ordered_stage:
            return  # a closure for this stage was already ordered
        if message.sender not in self.group_provider():
            # Section 3 safety rule: stage closures from processes that
            # were excluded before this point in the total order are void.
            self.trace("endstage_ignored", sender=message.sender)
            return
        # Stage ``stage`` is closed in the total order: no more acks in
        # it, even while its closure waits for bodies.
        self._frozen = True
        self._conflict_since = None
        self._ordered_stage += 1
        self._closures.append((message.sender, ids))
        if len(self._closures) == 1:
            self._apply_closures()
        # Otherwise the head is waiting for bodies or being applied right
        # now; this closure applies after it.

    def _apply_closures(self) -> None:
        """Apply queued closures in order while their bodies are present.

        Applying the head delivers its undelivered ids in id order, bumps
        the stage and re-acks the pending set.  A head that names a body
        not received yet waits for it, from its ``CHK`` rbcast or from
        the PULL repair, whichever lands first; everything queued behind
        it waits too.
        """
        while self._closures:
            sender, ids = self._closures[0]
            missing = [
                mid for mid in ids if mid not in self._pending and mid not in self._delivered
            ]
            if missing:
                self._await_bodies(sender, missing)
                return
            for mid in sorted(ids):
                if mid not in self._delivered:
                    self._deliver(self._pending[mid], "closure")
            self._closures.popleft()
            self._stage += 1
            self._frozen = bool(self._closures)
            self._acked.clear()
            self._ack_index.clear()
            self._ack_times.clear()
            self._conflict_since = None
            self._acks_received.clear()
            # Re-process what is still pending under the new stage.
            for mid in sorted(self._pending):
                self._try_ack(self._pending[mid])
            self._close_if_suspects_block()
            self._arm_tick()

    def _await_bodies(self, sender: str, missing: list[MsgId]) -> None:
        if self._awaited:
            return  # already waiting for this head's bodies
        self._awaited = set(missing)
        self.world.metrics.counters.inc("gbcast.closure_waits")
        self.trace("closure_wait", stage=self._stage, missing=len(missing))
        # A missing CHK is usually just behind the closure (rbcast
        # delivers it eventually); pull only if it is still missing one
        # repair interval later, e.g. when a joiner's snapshot fenced it
        # out.  The closer acked every id it names, so it held the
        # bodies: ask it first.
        self._pull_timer = self.schedule(
            self.abcast.pull_retry_interval, self._pull_awaited, sender
        )

    def _pull_awaited(self, sender: str) -> None:
        self.abcast.pull_bodies(BODY_OWNER, self._stage, sender, sorted(self._awaited))

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, message: AppMessage, path: str) -> None:
        if message.id in self._delivered:
            return
        self._delivered.add(message.id)
        self._pending.pop(message.id, None)
        self._bodies.add(message)
        # NOTE: the message stays in self._acked until the stage closes.
        # Removing it here would let a conflicting message be acked in
        # the same stage (its blocker gone) and ride a closure set ahead
        # of processes that fast-delivered this one — breaking the
        # conflict order.  The acked set IS the stage's history.
        self._ack_times.pop(message.id, None)
        self._acks_received.pop(message.id, None)
        self.world.metrics.counters.inc("gbcast.delivered")
        self.world.metrics.counters.inc(f"gbcast.delivered.{path}")
        self.world.metrics.latency.end("gbcast", message.id, self.now)
        self.world.metrics.latency.end(
            f"gbcast.{message.msg_class}", message.id, self.now
        )
        self.delivered_log.append((message, path))
        self.trace("gdeliver", mid=str(message.id), path=path, cls=message.msg_class)
        spans = self.spans
        prev = spans.current()
        if spans.enabled:
            # Record the delivery in the message's own trace.  Closures,
            # the re-acks after them and reliable-channel batches run in
            # the context of some other message; a delivery made there
            # hangs off the message's send span instead.
            send = spans.send_span(message.id)
            if send is not None and (prev is None or prev.trace != send.trace):
                spans.activate(send)
            spans.point(
                self.pid, "gbcast", "gdeliver", "deliver", self.now, mid=message.id
            ).note(path=path)
        try:
            for callback in self._callbacks:
                callback(message)
        finally:
            spans.restore(prev)

    # ------------------------------------------------------------------
    # State transfer support
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "stage": self._stage,
            "delivered": set(self._delivered),
            "pending": dict(self._pending),
            "closures": list(self._closures),
        }

    def install_snapshot(self, snapshot: dict) -> None:
        if self._awaited:
            self._pull_timer.cancel()
            self.abcast.cancel_pull(BODY_OWNER, self._stage)
            self._awaited = set()
        self._stage = snapshot["stage"]
        # Closures the donor had ordered but not applied: the abcast
        # position resumes past them, so they come from here.
        self._closures = deque(snapshot["closures"])
        self._ordered_stage = self._stage + len(self._closures)
        if self._closures:
            self._frozen = True
            # Apply them once the whole snapshot is in, the application
            # state included: what they deliver must land on top of it.
            self.schedule(0.0, self._apply_closures)
        self._delivered = set(snapshot["delivered"])
        # Purge anything buffered before the snapshot arrived (rbcast may
        # have redelivered old, not-yet-stable packets to a joiner or a
        # recovered incarnation while it waited for state transfer) that
        # the snapshot proves already delivered.
        self._pending = {
            mid: msg for mid, msg in self._pending.items() if mid not in self._delivered
        }
        for mid, msg in snapshot["pending"].items():
            if mid not in self._delivered:
                self._pending.setdefault(mid, msg)
