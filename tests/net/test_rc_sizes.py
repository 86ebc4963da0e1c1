"""The reliable channel sizes its datagrams from their parts, exactly.

``ReliableChannel`` hands ``u_send`` each datagram's size from the
envelope arithmetic and the payload size it took once at ``send()``, so
the transport never walks the payload again.  These tests hold that size
to ``wire_size(datagram)`` for every datagram kind, and pin the byte
counters of a seeded run to the values of the walking implementation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import AppMessage, MsgId
from repro.net.reliable import PORT, ReliableChannel
from repro.net.topology import LinkModel
from repro.net.wire import Blob, wire_size
from repro.sim.world import World

from tests.abcast.test_id_only_ordering import _traffic_fingerprint

_text = st.text(max_size=6)
_msg_ids = st.builds(MsgId, _text, st.integers(0, 99), st.integers(0, 3))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    _text,
    st.binary(max_size=6),
    st.builds(Blob, st.integers(0, 8192)),
    _msg_ids,
)
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(_text, st.integers()), inner, max_size=3),
        st.sets(st.one_of(_text, st.integers()), max_size=3),
        st.frozensets(_msg_ids, max_size=3),
        st.builds(AppMessage, _msg_ids, _text, inner, _text),
    ),
    max_leaves=12,
)

LOSSY = LinkModel(1.0, 1.0, drop_prob=1.0)
CLEAN = LinkModel(1.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    payloads=st.lists(_payloads, min_size=1, max_size=10),
    ports=st.lists(st.sampled_from(["app", "b", "gb.gather_ok", "porté"]), min_size=1),
    stamp=st.booleans(),
    coalesce=st.booleans(),
)
def test_every_rc_datagram_size_is_its_wire_size(payloads, ports, stamp, coalesce):
    world = World(seed=3, default_link=CLEAN)
    pids = world.spawn(3)
    channels = {
        pid: ReliableChannel(world.process(pid), coalesce_delay=0.5 if coalesce else None)
        for pid in pids
    }
    if stamp:
        for channel in channels.values():
            channel.hb_epoch_provider = lambda: 7
    sent: list[tuple] = []
    u_send = world.transport.u_send

    def checked(src, dst, port, payload, layer="other", byte_split=None, size=None):
        if port == PORT:
            assert size == wire_size(payload), payload
            sent.append(payload)
        u_send(src, dst, port, payload, layer=layer, byte_split=byte_split, size=size)

    world.transport.u_send = checked
    sender = channels["p00"]
    # p00 -> p01 loses everything first: every segment is retransmitted.
    world.transport.set_link("p00", "p01", LOSSY)
    world.start()
    for i, payload in enumerate(payloads):
        port = ports[i % len(ports)]
        if i % 2:
            sender.send("p01", port, payload)
        else:
            sender.send_to_all(pids, port, payload)
    world.run_for(50.0)
    # Excluding p01 drops its unacked segments; once the link is back,
    # p01 acks below the hole and p00 answers with a GAP.
    sender.discard("p01")
    world.transport.set_link("p00", "p01", CLEAN)
    sender.send("p01", ports[0], payloads[0])
    world.run_for(100.0)

    kinds = {datagram[0] for datagram in sent}
    assert {"DATA", "ACK", "GAP"} <= kinds
    assert world.metrics.counters.get("rc.retransmits") > 0
    if coalesce and len(payloads) > 1:
        assert "BATCH" in kinds
    stamped = [len(d) > (6 if d[0] == "DATA" else 4) for d in sent]
    assert all(stamped) if stamp else not any(stamped)


def test_byte_counters_of_a_seeded_4k_abcast_run_are_pinned():
    # Values of the implementation that walked every datagram in u_send.
    _logs, counters, _now = _traffic_fingerprint(seed=31)
    assert {k: v for k, v in counters.items() if k.startswith("net.bytes")} == {
        "net.bytes": 270293,
        "net.bytes.abcast": 153442,
        "net.bytes.consensus": 12406,
        "net.bytes.fd": 13616,
        "net.bytes.rbcast": 774,
        "net.bytes.rc": 90055,
        "net.bytes.sent.p00": 99011,
        "net.bytes.sent.p01": 87963,
        "net.bytes.sent.p02": 83319,
    }
