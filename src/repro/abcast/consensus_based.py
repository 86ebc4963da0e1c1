"""Atomic broadcast as a sequence of consensus instances [10].

This is the basic component of the paper's new architecture
(Section 3.1.1): it requires only a ◇S failure detector, tolerates
f < n/2 crashes *without* any group membership below it, and never
blocks on a wrong suspicion.

Algorithm (Chandra–Toueg transformation, id-only variant):

* ``abcast(m)`` reliably broadcasts ``m`` — this is the only time the
  payload body crosses the wire (**dissemination**).
* Each process collects r-delivered but not yet a-delivered messages in
  ``pending``; while ``pending`` is non-empty it runs consensus instances
  proposing *id vectors* — ``(proposer, (MsgId, ...))`` — never bodies
  (**ordering**).  ESTIMATE/PROPOSE/ACK/DECIDE therefore cost O(ids),
  independent of payload size (the Ring Paxos separation: disseminate
  once, order ids).
* The decision of an instance is an id vector; every process a-delivers
  the referenced messages in a deterministic order (sorted by id), *once
  every body is locally available* from its rbcast-fed pending set.

Total order holds because every process a-delivers the same decided id
vectors in the same instance order, and ids resolve to immutable bodies;
uniform agreement is inherited from consensus.

**Decide-before-dissemination**: a process can learn a decision before
rbcast hands it every referenced body (a slow link, a recovered
incarnation whose fresh stack replayed a DECIDE, a joiner whose state
snapshot fences out pre-join rbcast traffic).  Delivery then blocks on
the missing ids and a deterministic PULL/repair kicks in: ask the
decision's *proposer* first (it held every body when it proposed), then
rotate through the remaining members, until the bodies arrive by PUSH or
by ordinary rbcast delivery.  rbcast's own guarantee — retained packets
are flooded on suspicion and never pruned before *every* member's
watermark covers them (plus the proposed-but-undecided retention pin) —
is the eventual-delivery backstop; the PULL path is the targeted repair
that closes the window quickly and serves processes rbcast never
addressed (post-snapshot laggards).  The same repair serves other
layers' bodies: generic broadcast's stage closures are id-only too, and
a closure that names a ``CHK`` body a process lacks pulls it here (see
:meth:`ConsensusAtomicBroadcast.serve_bodies`).

Pipelining (Ring-Paxos-style windowing):  up to ``window`` consensus
instances may be in flight concurrently, so a burst of broadcasts does
not serialise behind one instance's four communication phases.  Each
in-flight instance proposes a disjoint slice of the pending set (at most
``max_batch`` ids per slice).  Decisions may arrive out of order;
delivery stays strictly in instance order.

Group dynamism under pipelining — the **epoch** rule:  the participant
set of an instance is read from ``group_provider()`` when the instance
starts locally.  Serialised naively, W > 1 would let a process propose
instance k+1 with a stale participant set while instance k decides a
membership change.  Instances are therefore keyed ``(epoch, index)``:

* the epoch advances exactly when a delivered batch contains a message
  of a *serial class* (membership ctl ops) — a deterministic function of
  the delivered prefix, hence identical at every process;
* within an epoch the membership cannot change, so every proposer of
  ``(e, i)`` reads the same participant set;
* delivering a serial-class batch voids all undelivered instances of the
  old epoch (their messages are still pending and are re-proposed under
  the new epoch), and the consensus instances it started are abandoned;
* while a serial-class message is pending locally the window falls back
  to 1, so membership changes only ever ride the head instance — the
  "participant set read at instance start" invariant of the paper is
  preserved verbatim for them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.broadcast.rbcast import ReliableBroadcast
from repro.consensus.chandra_toueg import ChandraTouegConsensus
from repro.net.message import AppMessage, MsgId
from repro.sim.process import Component, Process

MSG_TAG = "abc.msg"
INSTANCE_PREFIX = "abc"
#: Point-to-point repair port for decide-before-dissemination windows
#: (attributed to the ``abcast`` layer — see ``repro.net.reliable.PORT_LAYERS``).
PULL_PORT = "abc.pull"

#: Message classes that may change the group (membership ctl ops ride
#: this class — see ``repro.membership.abcast_membership.CTL_CLASS``).
#: Kept here as a plain constant so abcast never imports membership
#: (Fig. 9's dependency arrows point the other way).
SERIAL_CLASSES = frozenset({"_gm.ctl"})

AdeliverFn = Callable[[AppMessage], None]
GroupProvider = Callable[[], list[str]]
BodyLookup = Callable[[MsgId], AppMessage | None]
BodySink = Callable[[AppMessage], None]


class BodyCache:
    """Bounded FIFO of recently delivered bodies.

    A PULL responder serves laggards that ask after it already delivered
    the body; ``limit`` bounds how far back it can help.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._bodies: dict[MsgId, AppMessage] = {}
        self._order: deque[MsgId] = deque()

    def add(self, message: AppMessage) -> None:
        self._bodies[message.id] = message
        self._order.append(message.id)
        while len(self._order) > self.limit:
            self._bodies.pop(self._order.popleft(), None)

    def get(self, mid: MsgId) -> AppMessage | None:
        return self._bodies.get(mid)

    def __len__(self) -> int:
        return len(self._bodies)


class ConsensusAtomicBroadcast(Component):
    """Consensus-based atomic broadcast (new architecture, id-only)."""

    def __init__(
        self,
        process: Process,
        rbcast: ReliableBroadcast,
        consensus: ChandraTouegConsensus,
        group_provider: GroupProvider,
        window: int = 1,
        max_batch: int | None = None,
        serial_classes: frozenset[str] = SERIAL_CLASSES,
        pull_retry_interval: float = 50.0,
        body_cache_limit: int = 256,
    ) -> None:
        super().__init__(process, "abcast")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.rbcast = rbcast
        self.channel = rbcast.channel
        self.consensus = consensus
        self.group_provider = group_provider
        self.window = window
        self.max_batch = max_batch
        self.serial_classes = serial_classes
        self.pull_retry_interval = pull_retry_interval
        self.body_cache_limit = body_cache_limit
        self._pending: dict[MsgId, AppMessage] = {}
        self._delivered: set[MsgId] = set()
        #: Decided, not yet applied id vectors keyed by (epoch, index) —
        #: may include future-epoch decisions from faster processes.
        #: Values are ``(proposer_pid, (MsgId, ...))``.
        self._decided_batches: dict[tuple[int, int], tuple[str, tuple[MsgId, ...]]] = {}
        self._epoch = 0
        self._next_instance = 0
        #: Next index to propose within the current epoch (>= _next_instance).
        self._next_proposal = 0
        #: Messages currently riding an in-flight proposal of ours, per
        #: index — so concurrent instances propose disjoint slices.
        self._proposal_ids: dict[int, list[MsgId]] = {}
        self._assigned: set[MsgId] = set()
        #: rbcast packet id that carried each still-pending body — the
        #: hook for the retention pin (see :meth:`rb_retention_pin`).
        self._rb_mid_of: dict[MsgId, MsgId] = {}
        #: Recently a-delivered bodies: the PULL responder serves
        #: laggards that ask after we already applied the batch.
        self._bodies = BodyCache(body_cache_limit)
        #: Active repairs.  Our own decide-before-dissemination fetches
        #: are keyed like the decided batch; another layer's are keyed
        #: ``(owner, key)`` (see :meth:`pull_bodies`).  Each tracks its
        #: owner (``None`` for ours), whom to ask first, the ids still
        #: missing locally, and the retry rotation position.
        self._fetches: dict[Any, dict[str, Any]] = {}
        #: Union of our own fetches' missing ids (fast rdeliver check).
        self._waiting_on: set[MsgId] = set()
        #: Other layers whose bodies the repair serves:
        #: ``owner -> (lookup, sink)`` (see :meth:`serve_bodies`).
        self._body_owners: dict[str, tuple[BodyLookup, BodySink]] = {}
        self._callbacks: list[AdeliverFn] = []
        self.delivered_log: list[AppMessage] = []
        rbcast.register(MSG_TAG, self._on_rdeliver, layer="abcast")
        consensus.on_decide(self._on_decide)
        self.register_port(PULL_PORT, self._on_pull_port)

    # ------------------------------------------------------------------
    # Client interface (Fig. 9: abcast / adeliver)
    # ------------------------------------------------------------------
    def on_adeliver(self, callback: AdeliverFn) -> None:
        self._callbacks.append(callback)

    def abcast(self, message: AppMessage) -> None:
        """Atomically broadcast ``message`` to the current group.

        Opens the message's causal root span: a fresh abcast (no ambient
        context) roots a trace keyed by the incarnation-stamped message
        id, and every hop until each process's ``adeliver`` chains to it.
        """
        self.world.metrics.counters.inc("abcast.broadcasts")
        self.world.metrics.latency.begin("abcast", message.id, self.now)
        self.spans.wrap(
            self.pid, "abcast", "abcast", "send", self.now, message.id,
            self.rbcast.rbcast, MSG_TAG, message,
        )

    @property
    def next_instance(self) -> int:
        return self._next_instance

    @property
    def epoch(self) -> int:
        return self._epoch

    def in_flight(self) -> int:
        """Number of instances currently proposed but not yet applied."""
        return len(self._proposal_ids)

    def delivered_ids(self) -> set[MsgId]:
        return set(self._delivered)

    def waiting_on(self) -> set[MsgId]:
        """Ids decided but not yet locally available (repair in flight)."""
        return set(self._waiting_on)

    # ------------------------------------------------------------------
    # PULL/PUSH repair for another layer's bodies
    # ------------------------------------------------------------------
    def serve_bodies(self, owner: str, lookup: BodyLookup, sink: BodySink) -> None:
        """Extend the PULL/PUSH repair to ``owner``'s bodies.

        ``lookup`` answers a peer's PULL for ``owner``'s ids (``None``
        when the body is not here); ``sink`` receives each body a PUSH
        brings back for :meth:`pull_bodies`.  Requests and replies for
        ``owner`` name it as a third field; they share the port, the
        first-ask-then-rotate order and the retry timer with ours.
        """
        self._body_owners[owner] = (lookup, sink)

    def pull_bodies(
        self, owner: str, key: Any, first_ask: str, missing: list[MsgId]
    ) -> None:
        """Fetch ``owner``'s ``missing`` bodies, asking ``first_ask`` first.

        Retries rotate through the members until :meth:`body_arrived`
        has covered every id or :meth:`cancel_pull` drops the request.
        """
        self._ensure_fetch((owner, key), first_ask, missing, owner)

    def body_arrived(self, mid: MsgId) -> None:
        """``mid``'s body is here (by rbcast or by PUSH): stop asking for it."""
        self._note_arrived(mid)

    def cancel_pull(self, owner: str, key: Any) -> None:
        """Drop a :meth:`pull_bodies` request whose bodies are no longer needed."""
        self._cancel_fetch((owner, key))

    # ------------------------------------------------------------------
    # rbcast retention pin (dissemination GC must respect ordering)
    # ------------------------------------------------------------------
    def rb_retention_pin(self) -> dict[str, int]:
        """Per-origin floor of rbcast seqs that must survive pruning.

        A packet whose app id sits in a proposed-but-undecided instance
        is relay/repair material: if the proposer crashes after the
        decision spreads, a suspicion flood of retained packets is how
        laggards get the body — pruning it would strand them on the PULL
        path alone.  Returns ``{rb_origin: min_seq}``; rbcast's
        ``_prune`` keeps everything at or above the floor.  Pins release
        when the instance decides and applies (the id leaves
        ``_assigned``), so retention stays bounded.
        """
        pins: dict[str, int] = {}
        for mid in self._assigned:
            rb_mid = self._rb_mid_of.get(mid)
            if rb_mid is None:
                continue
            floor = pins.get(rb_mid.sender)
            if floor is None or rb_mid.seq < floor:
                pins[rb_mid.sender] = rb_mid.seq
        return pins

    # ------------------------------------------------------------------
    # State transfer support (for joiners)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Position *and* pending bodies.

        The bodies matter under id-only ordering: a joiner's rbcast
        snapshot fences out late copies of pre-snapshot packets, so any
        id decided beyond the snapshot position whose body the joiner
        never received must come from here (the donor held it in
        ``pending`` at the cut) or from the PULL path.
        """
        return {
            "epoch": self._epoch,
            "next_instance": self._next_instance,
            "delivered": set(self._delivered),
            "pending": dict(self._pending),
        }

    def install_snapshot(self, snapshot: dict[str, Any]) -> None:
        # Any instance optimistically started before the snapshot position
        # is obsolete; abandon it so this process stops participating.
        self._abandon_proposals(from_index=0)
        self._cancel_all_fetches()
        self._epoch = snapshot["epoch"]
        self._next_instance = snapshot["next_instance"]
        self._next_proposal = self._next_instance
        self._delivered = set(snapshot["delivered"])
        merged = {
            mid: msg for mid, msg in self._pending.items() if mid not in self._delivered
        }
        for mid, msg in snapshot.get("pending", {}).items():
            if mid not in self._delivered and mid not in merged:
                merged[mid] = msg
        self._pending = merged
        self._rb_mid_of = {
            mid: rb for mid, rb in self._rb_mid_of.items() if mid in self._pending
        }
        self._decided_batches = {
            (epoch, idx): decision
            for (epoch, idx), decision in self._decided_batches.items()
            if epoch > self._epoch
            or (epoch == self._epoch and idx >= self._next_instance)
        }
        # Buffered consensus traffic for instances behind the snapshot
        # position will never be proposed here; reclaim it.
        self.consensus.prune_pre_propose(
            lambda key: isinstance(key, tuple)
            and key[0] == INSTANCE_PREFIX
            and (
                key[1] < self._epoch
                or (key[1] == self._epoch and key[2] < self._next_instance)
            )
        )
        self._maybe_start_instances()

    def resume_proposing(self) -> None:
        """Re-attempt proposals after the group becomes known.

        During state transfer the abcast snapshot is installed *before*
        the view (components resume in stack order), so the kick at the
        end of :meth:`install_snapshot` sees an empty group and bails —
        as does any rdeliver that raced the transfer.  Without a later
        kick a recovered process never proposes its pending backlog, and
        since consensus coordinators rotate it may be the one coordinator
        everyone else is waiting on (alive, so never suspected): the
        whole group deadlocks.  The membership calls this once the
        transferred view is in place.

        Also drains any decided batches that were retained while we were
        not a member (see :meth:`_apply_ready_batches`) and survived the
        snapshot's pruning — i.e. decisions beyond the snapshot position
        that arrived during the transfer; with id-only ordering this is
        where a post-snapshot laggard first discovers missing bodies and
        starts pulling.
        """
        self._apply_ready_batches()
        self._maybe_start_instances()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def _on_rdeliver(self, _origin: str, message: AppMessage, rb_mid: MsgId) -> None:
        if message.id in self._delivered or message.id in self._pending:
            return
        self._pending[message.id] = message
        self._rb_mid_of[message.id] = rb_mid
        if message.id in self._waiting_on:
            # Dissemination outran the repair: the body a decided batch
            # was blocked on just arrived the ordinary way.
            self.world.metrics.counters.inc("abcast.late_dissemination")
            self._note_arrived(message.id)
            self._apply_ready_batches()
        self._maybe_start_instances()

    def _serial_pending(self) -> bool:
        return any(
            msg.msg_class in self.serial_classes for msg in self._pending.values()
        )

    def _maybe_start_instances(self) -> None:
        """Open instances until the window is full or pending is drained.

        Falls back to a window of 1 whenever a serial-class (membership
        ctl) message is pending: such messages must only ride the head
        instance, started after everything before it was applied.
        """
        while len(self._proposal_ids) < self.window:
            if self._proposal_ids and self._serial_pending():
                return  # W=1 fallback while a membership op is in flight
            batch_ids = [mid for mid in sorted(self._pending) if mid not in self._assigned]
            if not batch_ids:
                return
            if self.max_batch is not None:
                batch_ids = batch_ids[: self.max_batch]
            # Read the group fresh every iteration: under the consensus
            # fast path propose() can decide *synchronously* (singleton
            # majority), and applying that decision here may bump the
            # epoch — a cached group would then propose under a stale
            # participant set.
            group = self.group_provider()
            if self.pid not in group:
                return
            index = self._next_proposal
            self._next_proposal += 1
            self._proposal_ids[index] = batch_ids
            self._assigned.update(batch_ids)
            self.world.metrics.counters.inc("abcast.instances")
            if len(self._proposal_ids) > 1:
                self.world.metrics.counters.inc("abcast.instances_pipelined")
            # Id-only proposal: the bodies stay with rbcast.  The
            # proposer pid rides along so a process that decides before
            # dissemination knows whom to PULL from first.
            self.consensus.propose(
                (INSTANCE_PREFIX, self._epoch, index),
                (self.pid, tuple(batch_ids)),
                group,
            )

    def _on_decide(self, key: Any, value: Any) -> None:
        if not (isinstance(key, tuple) and key[0] == INSTANCE_PREFIX):
            return
        epoch, index = key[1], key[2]
        if epoch < self._epoch or (
            epoch == self._epoch and index < self._next_instance
        ):
            # A stale decision (old epoch, or an index already applied —
            # e.g. re-decided after a collect raced a slow peer): free
            # the consensus state, the batch is not applied.
            self.consensus.collect(key)
            return
        if (epoch, index) in self._decided_batches:
            return
        proposer, batch_ids = value
        self._decided_batches[(epoch, index)] = (proposer, tuple(batch_ids))
        self._apply_ready_batches()
        self._maybe_start_instances()

    def _apply_ready_batches(self) -> None:
        if self.pid not in self.group_provider():
            # Not (or not yet) a member: decided batches can still reach
            # us — a lazy-relay suspicion flood happily replays old
            # DECIDE broadcasts at a recovered incarnation's fresh stack
            # — but applying them would deliver the very prefix the
            # state snapshot is about to install, from position zero.
            # Retain them (and do not pull for their bodies: the
            # snapshot covers everything up to its position); the
            # post-transfer resume drains whatever lies beyond.
            return
        while True:
            key = (self._epoch, self._next_instance)
            decision = self._decided_batches.get(key)
            if decision is None:
                return
            proposer, batch_ids = decision
            missing = [
                mid
                for mid in batch_ids
                if mid not in self._delivered and mid not in self._pending
            ]
            if missing:
                # Decided before dissemination: block delivery (instance
                # order is strict) and repair.
                self._ensure_fetch(key, proposer, missing)
                return
            del self._decided_batches[key]
            self._cancel_fetch(key)
            delivered_now = self._deliver_batch(batch_ids)
            if self.process.crashed:
                return
            # The batch is applied; the consensus instance can be
            # garbage-collected (a tombstone keeps late messages inert).
            self.consensus.collect((INSTANCE_PREFIX,) + key)
            self._retire_proposal(self._next_instance)
            self._next_instance += 1
            self._next_proposal = max(self._next_proposal, self._next_instance)
            if any(m.msg_class in self.serial_classes for m in delivered_now):
                self._bump_epoch()

    # ------------------------------------------------------------------
    # PULL/repair (decide-before-dissemination)
    # ------------------------------------------------------------------
    def _ensure_fetch(
        self,
        key: Any,
        proposer: str,
        missing: list[MsgId],
        owner: str | None = None,
    ) -> None:
        if key in self._fetches:
            return
        self._fetches[key] = {
            "owner": owner,
            "proposer": proposer,
            "missing": set(missing),
            "attempt": 0,
        }
        if owner is None:
            self._waiting_on.update(missing)
            self.world.metrics.counters.inc("abcast.decide_before_dissemination")
        self.trace("fetch_start", key=str(key), missing=len(missing))
        self._send_pull(key)

    def _pull_targets(self, proposer: str) -> list[str]:
        """Deterministic repair rotation: proposer first, then the rest.

        The proposer held every proposed body when it proposed, so it is
        the best first ask; any member may have the bodies too (rbcast
        delivered to all members), so the rotation falls through to them
        if the proposer is slow, crashed, or already excluded.
        """
        members = self.group_provider()
        others = sorted(m for m in members if m != self.pid and m != proposer)
        if proposer != self.pid and proposer in members:
            return [proposer] + others
        return others

    def _send_pull(self, key: Any) -> None:
        fetch = self._fetches.get(key)
        if fetch is None or not fetch["missing"]:
            return
        targets = self._pull_targets(fetch["proposer"])
        if targets:
            target = targets[fetch["attempt"] % len(targets)]
            fetch["attempt"] += 1
            self.world.metrics.counters.inc("abcast.pulls_sent")
            request = ("PULL", tuple(sorted(fetch["missing"])))
            if fetch["owner"] is not None:
                request += (fetch["owner"],)
            self.channel.send(target, PULL_PORT, request)
        self.schedule(self.pull_retry_interval, self._retry_pull, key)

    def _retry_pull(self, key: Any) -> None:
        if key in self._fetches:
            self.world.metrics.counters.inc("abcast.pull_retries")
            self._send_pull(key)

    def _note_arrived(self, mid: MsgId) -> None:
        self._waiting_on.discard(mid)
        for key in list(self._fetches):
            fetch = self._fetches[key]
            fetch["missing"].discard(mid)
            if not fetch["missing"]:
                # Fully repaired; the retry timer finds no entry and dies.
                del self._fetches[key]

    def _cancel_fetch(self, key: Any) -> None:
        fetch = self._fetches.pop(key, None)
        if fetch is not None and fetch["owner"] is None:
            self._waiting_on = set().union(
                *(f["missing"] for f in self._fetches.values() if f["owner"] is None)
            )

    def _cancel_all_fetches(self) -> None:
        """Drop our own fetches; other layers' repairs are theirs to cancel."""
        self._fetches = {
            key: fetch for key, fetch in self._fetches.items() if fetch["owner"] is not None
        }
        self._waiting_on.clear()

    def _own_body(self, mid: MsgId) -> AppMessage | None:
        body = self._pending.get(mid)
        return body if body is not None else self._bodies.get(mid)

    def _on_pull_port(self, src: str, request: tuple) -> None:
        kind, items, *owner = request
        hooks = self._body_owners[owner[0]] if owner else None
        counters = self.world.metrics.counters
        if kind == "PULL":
            lookup = hooks[0] if hooks else self._own_body
            found: list[AppMessage] = []
            misses = 0
            for mid in items:
                body = lookup(mid)
                if body is None:
                    misses += 1
                else:
                    found.append(body)
            counters.inc("abcast.pulls_received")
            if misses:
                counters.inc("abcast.pull_misses", misses)
            if found:
                counters.inc("abcast.pull_served", len(found))
                self.channel.send(src, PULL_PORT, ("PUSH", tuple(found), *owner))
        elif hooks is not None:  # PUSH of another layer's bodies
            for message in items:
                hooks[1](message)
        elif kind == "PUSH":
            repaired = 0
            for message in items:
                if message.id in self._delivered or message.id in self._pending:
                    continue
                self._pending[message.id] = message
                self._note_arrived(message.id)
                repaired += 1
            if repaired:
                counters.inc("abcast.repaired", repaired)
                self._apply_ready_batches()
                self._maybe_start_instances()

    # ------------------------------------------------------------------
    def _retire_proposal(self, index: int) -> None:
        for mid in self._proposal_ids.pop(index, []):
            self._assigned.discard(mid)

    def _bump_epoch(self) -> None:
        """A membership op was applied: the group may have changed.

        Every undelivered instance of the old epoch was (or would be)
        proposed under the stale participant set; void them all.  Their
        messages are still in ``pending`` and are re-proposed under the
        new epoch, so nothing is lost — the decisions themselves are
        discarded identically at every process (the bump is a function
        of the delivered prefix alone, which is totally ordered).  Any
        repair blocked on a voided decision is cancelled with it.
        """
        voided = [k for k in self._decided_batches if k[0] == self._epoch]
        for key in voided:
            del self._decided_batches[key]
            self.consensus.collect((INSTANCE_PREFIX,) + key)
        self._abandon_proposals(from_index=self._next_instance)
        # Peers may have started old-epoch instances we never proposed;
        # their buffered consensus traffic is now void too.
        stale_epoch = self._epoch
        self.consensus.prune_pre_propose(
            lambda key: isinstance(key, tuple)
            and key[0] == INSTANCE_PREFIX
            and key[1] <= stale_epoch
        )
        self._cancel_all_fetches()
        if voided:
            self.world.metrics.counters.inc("abcast.instances_voided", len(voided))
        self._epoch += 1
        self._next_instance = 0
        self._next_proposal = 0
        self.world.metrics.counters.inc("abcast.epoch_bumps")
        self.trace("epoch_bump", epoch=self._epoch, voided=len(voided))

    def _abandon_proposals(self, from_index: int) -> None:
        for index in [i for i in self._proposal_ids if i >= from_index]:
            self.consensus.abandon((INSTANCE_PREFIX, self._epoch, index))
            self._retire_proposal(index)

    def _deliver_batch(self, batch_ids: tuple[MsgId, ...]) -> list[AppMessage]:
        """Deliver the batch's not-yet-delivered ids in id order.

        Returns the messages *newly* delivered here (ids an earlier
        instance already delivered are skipped — different proposers may
        slice the same pending id into different instances).  Callers
        decide epoch bumps from the returned list: a serial-class message
        bumps exactly once, at the instance that actually delivered it —
        deterministic everywhere because the delivered prefix is.
        """
        delivered_now: list[AppMessage] = []
        for mid in sorted(batch_ids):
            if mid in self._delivered:
                continue
            message = self._pending.pop(mid)
            self._delivered.add(mid)
            self._assigned.discard(mid)
            self._rb_mid_of.pop(mid, None)
            self._bodies.add(message)
            self.world.metrics.counters.inc("abcast.delivered")
            self.world.metrics.latency.end("abcast", mid, self.now)
            self.delivered_log.append(message)
            delivered_now.append(message)
            self.trace("adeliver", mid=str(mid))
            spans = self.spans
            if spans.enabled:
                spans.point(self.pid, "abcast", "adeliver", "deliver", self.now, mid=mid)
            for callback in self._callbacks:
                callback(message)
            if self.process.crashed:
                return delivered_now
        return delivered_now
