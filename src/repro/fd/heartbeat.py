"""Heartbeat failure detector with per-client monitors.

A single failure-detection component per process records when each peer
was last heard and broadcasts heartbeats on the *unreliable* transport.
Clients (consensus, the monitoring component, membership layers of the
traditional stacks) each create a :class:`Monitor` with their own timeout
— this is the ``start_stop_monitor`` interface of Fig. 9 and the basis of
Section 3.3.2: consensus can use a small timeout (seconds) while the
monitoring component uses a large one (minutes), over the same liveness
evidence.

**Traffic-aware liveness.**  Explicit heartbeats are the *idle-link
fallback*, not the only evidence:

* a **liveness tap** registered on the transport refreshes ``last_heard``
  for every datagram received from a peer — an rc segment, rbcast gossip,
  a gbcast ack or a consensus round all prove the sender alive (the
  paper's §3.3.2 observation that *any* received message is liveness
  evidence, here applied at the transport).  The transport's incarnation
  fence runs first, so a stale pre-crash datagram can never vouch for a
  recovered process; the tap re-checks the incarnation anyway for
  directly injected traffic.
* with ``suppression`` on, the per-peer heartbeat send is **skipped**
  whenever we sent that peer any datagram within
  ``hb_idle_factor * heartbeat_interval`` ms — our outbound traffic
  already proves our liveness to them.  Under load the O(n) periodic
  broadcast collapses to sends on idle links only; a crashed peer's
  links go idle immediately (it sends nothing), so time-to-suspect is
  unchanged.
* the reliable channel piggybacks the sender's current **hb-epoch**
  (``current_hb_epoch``, bumped once per beat) on its datagrams and
  feeds received epochs back via :meth:`note_piggyback_sample`.  The
  arrival-gap estimator samples at most once per (peer, epoch), so the
  adaptive detector keeps seeing one sample per heartbeat period —
  whether the sample arrived as an explicit heartbeat or on the back of
  application traffic.

The detector is unreliable in the sense of Chandra–Toueg [10]: it can
suspect correct processes (small timeouts, message loss, partitions) and
revises its output when evidence arrives — the behaviour assumed of
◇S.  Nothing emulates a perfect detector here; the *traditional* stacks
obtain P-like behaviour the way the paper describes: by killing/excluding
suspected processes (Section 3.1.1).  They are built with ``suppression``
off, preserving the paper's constant heartbeat stream for comparison.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from repro.net.wire import HEADER_BYTES, INT_BYTES, LEN_PREFIX
from repro.sim.process import Component, Process

PORT = "fd.hb"

#: ``wire_size`` of a heartbeat's ``(incarnation, hb_epoch)`` payload: a
#: two-int tuple, whatever the values.
HEARTBEAT_BYTES = HEADER_BYTES + LEN_PREFIX + 2 * INT_BYTES

#: Placed in ``Monitor._swept`` while a sweep runs (see ``Monitor._check``);
#: equal to no peer list, so a nested poll always sweeps.
_SWEEPING = object()

PeerProvider = Callable[[], list[str]]
SuspicionCallback = Callable[[str], None]
ReincarnationCallback = Callable[[str, int], None]


class Monitor:
    """One client's view of the failure detector.

    ``suspects`` is the current set of suspected peers; ``on_suspect`` /
    ``on_trust`` fire on transitions.  Monitors can be stopped (Fig. 9's
    ``start_stop_monitor``).

    Heartbeat arrivals and beats :meth:`_poll` every monitor, but a full
    :meth:`_check` sweep only runs when one could change a suspicion:
    the monitor has suspects, its peer list changed, or the oldest
    liveness baseline among its peers is at least :meth:`timeout_floor`
    old.  ``last_heard`` only moves forward (a reincarnation, which pops
    it, invalidates the cached sweep), so a sweep skipped on those
    grounds would have found every peer in time and done nothing.
    """

    def __init__(
        self,
        detector: "HeartbeatFailureDetector",
        peers: PeerProvider,
        timeout: float,
        on_suspect: SuspicionCallback | None = None,
        on_trust: SuspicionCallback | None = None,
        keep_baselines: bool = False,
    ) -> None:
        self._detector = detector
        self._peers = peers
        self._keep_baselines = keep_baselines
        self.timeout = timeout
        self._on_suspect = on_suspect
        self._on_trust = on_trust
        self.suspects: set[str] = set()
        self.active = True
        self._started_at = detector.now
        #: When each peer (re-)entered the monitored set.  A peer that
        #: joins (or a recovered process re-admitted to the view) gets a
        #: full timeout of grace from that moment — without this, a
        #: stale ``last_heard`` from before its crash would make the
        #: monitor re-suspect it the instant it re-enters the view.
        #:
        #: With ``keep_baselines``, the first sweep after a (re)start
        #: takes a baseline for every member of the detector's group, and
        #: a baseline survives its peer leaving ``peers``: only a
        #: reincarnation of the peer restarts it.  A client whose peer
        #: list comes and goes with its own work (consensus watches only
        #: undecided instances) then measures a returning peer's silence
        #: from its ``last_heard``, not from the moment the work resumed,
        #: while a recovered process still gets a fresh grace period.
        #: Every change of these baselines happens at a sweep the guard of
        #: :meth:`_poll` never skips (the first one, one after a peer-list
        #: change, one after a reincarnation).
        self._member_since: dict[str, float] = {}
        self._seed_group = keep_baselines
        #: The peer list the last complete sweep saw (None: sweep on the
        #: next poll) and the oldest ``max(last_heard, member_since)``
        #: among those peers at that sweep.
        self._swept: list[str] | object | None = None
        self._quiet_base = math.inf

    def stop(self) -> None:
        self.active = False

    def restart(self) -> None:
        self.active = True
        self._started_at = self._detector.now
        self.suspects.clear()
        self._member_since.clear()
        self._seed_group = self._keep_baselines
        self._swept = None

    def suspected(self, pid: str) -> bool:
        return pid in self.suspects

    def timeout_for(self, peer: str) -> float:
        """Current timeout applied to ``peer`` (constant here; adaptive
        monitors override this, and :meth:`timeout_floor` with it)."""
        return self.timeout

    def timeout_floor(self) -> float:
        """A lower bound on :meth:`timeout_for` for every peer at any
        instant — the silence the sweep guard of :meth:`_poll` waits for."""
        return self.timeout

    def _poll(self) -> None:
        """Run :meth:`_check` unless it provably cannot change anything.

        The guard compares ``now - quiet_base`` with the floor exactly as
        the sweep compares ``now - last`` with a peer's timeout: float
        subtraction is monotone and ``last >= quiet_base``, so a peer the
        sweep would suspect always trips the guard too.
        """
        if not self.active:
            return
        if self.suspects or self._swept is None:
            self._check()
            return
        raw = self._peers()
        if (
            raw != self._swept
            or self._detector.now - self._quiet_base >= self.timeout_floor()
        ):
            self._check(raw)

    def _check(self, raw: list[str] | None = None) -> None:
        if not self.active:
            return
        if raw is None:
            raw = self._peers()
        # A restart, a reincarnation or a nested sweep run by a callback
        # replaces the marker; the cache is then left invalid.
        self._swept = _SWEEPING
        quiet_base = math.inf
        now = self._detector.now
        peers = set(raw)
        peers.discard(self._detector.pid)
        # Peers that left the monitored set are forgotten — including
        # their membership baseline, so a later re-entry (rejoin after
        # recovery) starts a fresh grace period.
        for gone in [p for p in self.suspects if p not in peers]:
            self.suspects.discard(gone)
        if self._seed_group:
            self._seed_group = False
            for member in self._detector.peer_provider():
                if member != self._detector.pid:
                    self._member_since.setdefault(member, now)
        elif not self._keep_baselines:
            for gone in [p for p in self._member_since if p not in peers]:
                del self._member_since[gone]
        for peer in sorted(peers):
            since = self._member_since.setdefault(peer, now)
            last = self._detector.last_heard(peer)
            if last is None or last < since:
                last = since
            if last < quiet_base:
                quiet_base = last
            silent_for = now - last
            if silent_for > self.timeout_for(peer):
                if peer not in self.suspects:
                    self.suspects.add(peer)
                    self._detector.trace("suspect", peer=peer, timeout=self.timeout)
                    if self._on_suspect is not None:
                        self._on_suspect(peer)
            elif peer in self.suspects:
                self.suspects.discard(peer)
                self._detector.trace("trust", peer=peer, timeout=self.timeout)
                if self._on_trust is not None:
                    self._on_trust(peer)
        if self._swept is _SWEEPING:
            self._swept = list(raw)
            self._quiet_base = quiet_base
        else:
            self._swept = None


class HeartbeatFailureDetector(Component):
    """Shared liveness evidence + any number of per-client monitors."""

    def __init__(
        self,
        process: Process,
        peer_provider: PeerProvider,
        heartbeat_interval: float = 10.0,
        suppression: bool = False,
        hb_idle_factor: float = 1.0,
    ) -> None:
        super().__init__(process, "fd")
        self.peer_provider = peer_provider
        self.heartbeat_interval = heartbeat_interval
        #: Heartbeat suppression: skip the explicit heartbeat to peers we
        #: sent any datagram within ``hb_idle_factor * heartbeat_interval``
        #: ms.  Off by default (the paper's constant stream); the new
        #: architecture stack turns it on via ``StackConfig``.
        self.suppression = suppression
        self.hb_idle_factor = hb_idle_factor
        self._last_heard: dict[str, float] = {}
        self._arrival_gaps: dict[str, deque[float]] = {}
        #: Estimator sampling state, separate from ``last_heard``: gaps
        #: are sampled at most once per (peer, hb-epoch) so tap refreshes
        #: from bursty application traffic cannot pollute the arrival
        #: statistics the adaptive timeouts are built on.
        self._last_sample_time: dict[str, float] = {}
        self._last_sample_epoch: dict[str, int] = {}
        self._incarnations: dict[str, int] = {}
        self._reincarnation_listeners: list[ReincarnationCallback] = []
        self._monitors: list[Monitor] = []
        self._hb_epoch = 0
        # Bound handles: one increment per datagram-scale event — the
        # dominant background work in long runs.
        counters = process.world.metrics.counters
        self._inc_explicit = counters.handle("fd.explicit_hb")
        self._inc_suppressed = counters.handle("fd.suppressed")
        self._inc_tap = counters.handle("fd.tap_refreshes")
        self._inc_piggyback = counters.handle("fd.piggyback_samples")
        self.register_port(PORT, self._on_heartbeat)
        process.world.transport.register_liveness_sink(process, self._on_traffic)

    def start(self) -> None:
        self._beat()

    # ------------------------------------------------------------------
    # Client interface (Fig. 9: start_stop_monitor / suspect)
    # ------------------------------------------------------------------
    def monitor(
        self,
        peers: PeerProvider | list[str],
        timeout: float,
        on_suspect: SuspicionCallback | None = None,
        on_trust: SuspicionCallback | None = None,
        keep_baselines: bool = False,
    ) -> Monitor:
        """Create and start a monitor with its own timeout (see
        ``Monitor._member_since`` for ``keep_baselines``)."""
        if isinstance(peers, list):
            fixed = list(peers)
            provider: PeerProvider = lambda: fixed
        else:
            provider = peers
        mon = Monitor(self, provider, timeout, on_suspect, on_trust, keep_baselines)
        self._monitors.append(mon)
        return mon

    def last_heard(self, pid: str) -> float | None:
        return self._last_heard.get(pid)

    def incarnation_of(self, pid: str) -> int | None:
        """Highest incarnation heard from ``pid`` (None = never heard)."""
        return self._incarnations.get(pid)

    def current_hb_epoch(self) -> int:
        """The heartbeat epoch, bumped once per beat tick.  The reliable
        channel stamps it on outgoing datagrams so receivers can sample
        arrival gaps even when explicit heartbeats are suppressed."""
        return self._hb_epoch

    def on_reincarnation(self, listener: ReincarnationCallback) -> None:
        """Register ``listener(pid, incarnation)`` fired when liveness
        evidence from a peer carries a higher incarnation than previously
        seen — i.e. the peer crashed and recovered.  The monitoring
        component uses this to drop stale suspicion evidence instead of
        excluding the recovered process (Section 4.3 re-admission)."""
        self._reincarnation_listeners.append(listener)

    # ------------------------------------------------------------------
    # Heartbeat machinery
    # ------------------------------------------------------------------
    def _beat(self) -> None:
        self._hb_epoch += 1
        payload = (self.process.incarnation, self._hb_epoch)
        suppress_within = self.hb_idle_factor * self.heartbeat_interval
        transport = self.world.transport
        now = self.now
        for peer in self.peer_provider():
            if peer == self.pid:
                continue
            if self.suppression:
                sent = transport.last_sent(self.pid, peer)
                if sent is not None and now - sent < suppress_within:
                    # The link is warm: our own traffic within the last
                    # period already proved our liveness to this peer.
                    self._inc_suppressed()
                    continue
            self._inc_explicit()
            transport.u_send(
                self.pid, peer, PORT, payload, layer="fd", size=HEARTBEAT_BYTES
            )
        for mon in self._monitors:
            mon._poll()
        self.schedule(self.heartbeat_interval, self._beat)

    def arrival_gaps(self, pid: str) -> list[float]:
        """Recent heartbeat-epoch inter-arrival gaps (ms) for ``pid``."""
        return list(self._arrival_gaps.get(pid, ()))

    # ------------------------------------------------------------------
    # Liveness evidence (heartbeats, tap, piggybacked epochs)
    # ------------------------------------------------------------------
    def _note_incarnation(self, src: str, incarnation: int) -> bool:
        """Track ``src``'s incarnation; False fences out stale evidence.

        A fresh incarnation means the peer crashed and came back: gap
        statistics across the outage are meaningless, and everyone
        listening (monitoring) gets a chance to un-suspect it.  Evidence
        from a *lower* incarnation than already seen is a stale pre-crash
        datagram — it must never vouch for the recovered process.
        """
        known = self._incarnations.get(src)
        if known is None:
            self._incarnations[src] = incarnation
            return True
        if incarnation < known:
            return False
        if incarnation > known:
            self._incarnations[src] = incarnation
            self._arrival_gaps.pop(src, None)
            self._last_heard.pop(src, None)  # the outage gap is not a sample
            self._last_sample_time.pop(src, None)
            self._last_sample_epoch.pop(src, None)
            # The peer's liveness baseline moved back, so cached sweeps no
            # longer bound it.  Every caller re-sets ``last_heard`` before
            # the next poll today; dropping the caches keeps the guard
            # exact without relying on that order.
            for mon in self._monitors:
                mon._swept = None
                if mon._keep_baselines:
                    mon._member_since.pop(src, None)
            self.trace("reincarnated", peer=src, incarnation=incarnation)
            for listener in self._reincarnation_listeners:
                listener(src, incarnation)
        return True

    def _note_sample(self, src: str, epoch: int | None) -> None:
        """Record one arrival-gap sample, at most once per (peer, epoch).

        ``epoch=None`` (legacy bare heartbeats, direct injection in
        tests) always samples — the pre-epoch behaviour.
        """
        if epoch is not None:
            last_epoch = self._last_sample_epoch.get(src)
            if last_epoch is not None and epoch <= last_epoch:
                return
            self._last_sample_epoch[src] = epoch
        previous = self._last_sample_time.get(src)
        if previous is not None:
            self._arrival_gaps.setdefault(src, deque(maxlen=32)).append(
                self.now - previous
            )
        self._last_sample_time[src] = self.now

    def _on_heartbeat(self, src: str, payload) -> None:
        if isinstance(payload, tuple):
            incarnation, epoch = payload
        else:  # legacy bare-incarnation payload (direct injection)
            incarnation, epoch = payload or 0, None
        if not self._note_incarnation(src, incarnation or 0):
            return
        self._note_sample(src, epoch)
        self._last_heard[src] = self.now
        for mon in self._monitors:
            mon._poll()

    def _on_traffic(self, src: str, incarnation: int, port: str) -> None:
        """Transport liveness tap: any delivered datagram refreshes
        ``last_heard`` (explicit heartbeats take the full path above)."""
        if port == PORT or src == self.pid:
            return
        if not self._note_incarnation(src, incarnation):
            return
        self._last_heard[src] = self.now
        self._inc_tap()
        # Targeted re-check: only monitors currently suspecting this peer
        # need to revise — a full _check per datagram would be O(n) on
        # the hot path for nothing.
        for mon in self._monitors:
            if src in mon.suspects:
                mon._check()

    def note_piggyback_sample(self, src: str, incarnation: int, epoch: int) -> None:
        """Feed an hb-epoch header carried by a reliable-channel datagram.

        The first datagram of each of the sender's heartbeat periods acts
        exactly like a heartbeat arrival for the gap estimator, so the
        adaptive timeouts keep converging while explicit heartbeats are
        suppressed.
        """
        if src == self.pid:
            return
        if not self._note_incarnation(src, incarnation):
            return
        self._inc_piggyback()
        self._note_sample(src, epoch)
        self._last_heard[src] = self.now
