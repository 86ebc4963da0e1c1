"""Per-layer attribution by wrapping each layer's entry points from outside.

The traced run edits no file of the program.  After a group is built
(and again after each recovery rebuild) :class:`Tracer` replaces, on the
live instances of that world:

* downward calls: ``UnreliableTransport.u_send``, ``ReliableChannel.send``,
  ``ReliableBroadcast.rbcast``/``bcast``, ``ChandraTouegConsensus.propose``,
  ``ConsensusAtomicBroadcast.abcast``, ``ThriftyGenericBroadcast.gbcast``/
  ``gbcast_payload`` and the membership operations;
* upward calls: every handler in the process's port table (layer from
  ``repro.net.reliable.layer_of_port``), every handler in rbcast's tag
  table, and the delivery callbacks each layer registered with the one
  below (layer of the callback's owner);
* the module-level ``wire_size``/``payload_size`` names that the
  transport and the reliable channel call;
* each component's ``schedule``, so that its timers run under a span of
  the component's layer.

Each wrapped call records one span: name, wall start and end in ns, the
enclosing wrapped call as parent, and the scheduler event it ran in as
trace id.  Spans stay in memory and are written out when the run ends.
A layer's self time is its spans' duration minus the time their child
spans cover; whatever wall time no span covers is the ``sim`` residual
(scheduler, world and process dispatch, and the transport's delivery
path, none of which is wrapped).
"""

from __future__ import annotations

import gzip
import time

import repro.net.reliable as reliable_module
import repro.net.transport as transport_module
from repro.broadcast.rbcast import PORT as RB_PORT
from repro.net.reliable import layer_of_port
from repro.net.wire import payload_size
from repro.sim.process import Component

#: Component name -> layer (module) name.
COMPONENT_LAYERS = {
    "rc": "rc",
    "fd": "fd",
    "rb": "rbcast",
    "consensus": "consensus",
    "abcast": "abcast",
    "gbcast": "gbcast",
    "gm": "membership",
    "monitoring": "monitoring",
}

#: Public downward entry points per component name.
DOWNWARD = {
    "rc": ("send",),
    "rb": ("rbcast", "bcast"),
    "consensus": ("propose",),
    "abcast": ("abcast",),
    "gbcast": ("gbcast", "gbcast_payload"),
    "gm": ("join", "remove", "request_join"),
}

#: Lists of upward delivery callbacks a component keeps.
CALLBACK_LISTS = ("_callbacks", "_view_callbacks")

#: Ports whose prefix is not their layer's name.
PORT_LAYERS = {"mon": "monitoring"}


def owner_layer(callback) -> str:
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Component):
        return COMPONENT_LAYERS.get(owner.name, owner.name)
    return "app"


class Tracer:
    """Records one span per wrapped call of one world."""

    def __init__(self) -> None:
        #: Span name table: id -> (layer, name).
        self.names: list[tuple[str, str]] = []
        self._ids: dict[tuple[str, str], int] = {}
        #: (name id, start ns, end ns, parent index or -1, scheduler event).
        self.spans: list = []
        self._stack: list[int] = []
        self._scheduler = None
        self._patched: list[tuple[object, str, object]] = []
        #: Bytes of rbcast packets handed to the reliable channel for
        #: other members (the dissemination bill).
        self.rb_bytes = 0

    def _name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def wrap(self, layer: str, name: str, fn):
        if getattr(fn, "_perfbench_traced", False):
            return fn
        nid = self._name_id(layer, name)
        spans, stack, scheduler = self.spans, self._stack, self._scheduler
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, stack[-1] if stack else -1,
                                scheduler.events_processed)

        traced._perfbench_traced = True
        return traced

    def _timer(self, nid: int, callback, *args) -> None:
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = time.perf_counter_ns()
        try:
            callback(*args)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[index] = (nid, start, end, stack[-1] if stack else -1,
                            self._scheduler.events_processed)

    # ------------------------------------------------------------------
    # Attaching
    # ------------------------------------------------------------------
    def attach_world(self, world) -> None:
        self._scheduler = world.scheduler
        transport = world.transport
        transport.u_send = self.wrap("transport", "u_send", transport.u_send)
        for module, attr in ((transport_module, "wire_size"), (reliable_module, "payload_size")):
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap("wire", attr, original))

    def detach(self) -> None:
        """Restore the module-level names patched by :meth:`attach_world`."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def attach_process(self, process, api) -> None:
        """Wrap the entry points of every component on ``process``."""
        for component in process.components():
            layer = COMPONENT_LAYERS.get(component.name, component.name)
            for method in DOWNWARD.get(component.name, ()):
                setattr(component, method, self.wrap(layer, method, getattr(component, method)))
            for attr in CALLBACK_LISTS:
                callbacks = getattr(component, attr, None)
                if isinstance(callbacks, list):
                    callbacks[:] = [
                        self.wrap(owner_layer(cb), f"up:{attr}", cb) for cb in callbacks
                    ]
            if component.name == "rb":
                handlers = component._handlers
                for tag, handler in handlers.items():
                    handlers[tag] = self.wrap(component._tag_layers.get(tag, "rbcast"),
                                              f"rb:{tag}", handler)
            if component.name == "rc":
                component.send = self._counting_rb_bytes(process.pid, component.send)
            self._wrap_schedule(component, layer)
        ports = process._ports
        for port, handler in ports.items():
            port_layer = layer_of_port(port)
            port_layer = PORT_LAYERS.get(port_layer, port_layer)
            ports[port] = self.wrap(port_layer, f"port:{port}", handler)
        api._gdeliver[:] = [self.wrap("app", "gdeliver", cb) for cb in api._gdeliver]

    def _wrap_schedule(self, component, layer: str) -> None:
        original = component.schedule
        nid = self._name_id(layer, "timer")
        timer = self._timer

        def schedule(delay, callback, *args):
            return original(delay, timer, nid, callback, *args)

        component.schedule = schedule

    def _counting_rb_bytes(self, pid: str, send):
        nid = self._name_id("bench", "rb_bytes")

        def count(payload) -> None:
            self.rb_bytes += payload_size(payload)

        def counting_send(dst, port, payload, *args, **kwargs):
            if port == RB_PORT and dst != pid:
                self._timer(nid, count, payload)
            return send(dst, port, payload, *args, **kwargs)

        return counting_send

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget what was recorded so far (set-up and warm-up)."""
        self.spans.clear()
        self.rb_bytes = 0

    def totals(self, count: int) -> tuple[dict, dict, int]:
        """(self ns per layer, calls per layer, ns covered by root spans)
        over the first ``count`` spans."""
        spans = self.spans[:count]
        child = [0] * len(spans)
        for nid, start, end, parent, _event in spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        covered = 0
        for index, (nid, start, end, parent, _event) in enumerate(spans):
            layer = self.names[nid][0]
            self_ns[layer] = self_ns.get(layer, 0) + (end - start - child[index])
            calls[layer] = calls.get(layer, 0) + 1
            if parent < 0:
                covered += end - start
        return self_ns, calls, covered

    def write(self, path: str) -> None:
        """Write every span as one CSV line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,layer,name,start_ns,end_ns,parent,event\n")
            names = self.names
            for index, (nid, start, end, parent, event) in enumerate(self.spans):
                layer, name = names[nid]
                fh.write(f"{index},{layer},{name},{start},{end},{parent},{event}\n")
