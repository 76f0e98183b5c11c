"""Span tracer the benchmark wraps around each layer's public entry points.

A span is one call into a layer: its name (``layer.entry``), start, end
and parent. Spans are kept in memory, folded per ``(parent, name)``
edge, and written out when the traced run ends. A layer's self time is
the duration of its spans minus the part their direct child spans
cover; the root span's self time is the time no layer claimed
(``unattributed_s``), so per-layer self times plus ``unattributed_s``
add up to the traced wall time exactly.

Only the benchmark's own code is changed: :func:`install` replaces
module and class attributes of the ``repro`` package with wrappers for
the duration of one traced run and ``Patches.undo`` puts them back.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer names, in report order. ``unattributed`` collects the root
#: span and callbacks owned by modules outside the map below.
LAYERS = ("engine", "network", "transport", "protocol", "crypto", "shard", "live")

#: Module prefix -> layer, longest prefix first.
_MODULE_LAYERS: "Tuple[Tuple[str, str], ...]" = (
    ("repro.simnet.engine", "engine"),
    ("repro.simnet.network", "network"),
    ("repro.simnet.faults", "network"),
    ("repro.topo", "network"),
    ("repro.simnet.transport", "transport"),
    ("repro.simnet.shard", "shard"),
    ("repro.simnet.snapshot", "shard"),
    ("repro.orchestrator", "shard"),
    ("repro.core.wire", "live"),
    ("repro.live", "live"),
    ("repro.crypto", "crypto"),
    ("repro.core", "protocol"),
    ("repro.overlay", "protocol"),
    ("repro.groups", "protocol"),
    ("repro.freeride", "protocol"),
)

#: The tracer every wrapper reports to while installed. Module-level so
#: wrappers stored inside simulator state pickle without it.
ACTIVE: "Optional[Tracer]" = None


def layer_of_module(module: "Optional[str]") -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or (module or "").startswith(prefix + "."):
            return layer
    return "unattributed"


def layer_of_callable(fn: Any) -> str:
    module = getattr(fn, "__module__", None)
    if module is None:
        module = getattr(type(fn), "__module__", None)
    return layer_of_module(module)


class Tracer:
    """In-memory span recorder with self-time accounting."""

    def __init__(self, root: str = "unattributed.root") -> None:
        self.root = root
        #: Open spans: [name, start, time covered by direct children].
        self._stack: "List[list]" = []
        #: (parent, name) -> [count, inclusive seconds, self seconds].
        self.edges: "Dict[Tuple[str, str], List[float]]" = {}
        self.counts: "Dict[str, int]" = {}
        self.peak_pending = 0
        self.wall_s = 0.0
        self._root: "Optional[list]" = None

    # -- spans -------------------------------------------------------------
    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        key = (parent[0] if parent is not None else "", frame[0])
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - frame[2]

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- the traced run ------------------------------------------------------
    def start(self) -> None:
        """Open the root span and route every wrapper to this tracer."""
        global ACTIVE
        ACTIVE = self
        self._root = self.enter(self.root)

    def stop(self) -> None:
        """Close the root span; its duration is the traced wall time."""
        global ACTIVE
        ACTIVE = None
        self.exit(self._root)
        self.wall_s = self.inclusive_seconds(self.root)

    def run(self, fn: Callable, *args, **kwargs):
        self.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.stop()

    # -- folds -----------------------------------------------------------------
    def self_seconds(self) -> "Dict[str, float]":
        """Self time per layer, ``unattributed`` included."""
        out = {layer: 0.0 for layer in LAYERS + ("unattributed",)}
        for (_, name), (_, _, self_s) in self.edges.items():
            layer = name.split(".", 1)[0]
            out[layer if layer in out else "unattributed"] += self_s
        return out

    def inclusive_seconds(self, name: str) -> float:
        """Wall time inside spans called ``name``; a span nested in one of
        the same name (``merge_fingerprint`` calling ``canonical_blob``)
        is already inside its parent and is not counted twice."""
        return sum(edge[1] for (p, n), edge in self.edges.items() if n == name and p != name)

    def calls(self, name: str) -> int:
        return int(sum(edge[0] for (_, n), edge in self.edges.items() if n == name))

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "wall_s": self.wall_s,
            "self_s": self.self_seconds(),
            "counts": dict(sorted(self.counts.items())),
            "edges": [
                {"parent": p, "name": n, "count": int(e[0]), "total_s": e[1], "self_s": e[2]}
                for (p, n), e in sorted(self.edges.items())
            ],
        }


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------
class Traced:
    """A picklable span wrapper around one callable.

    Scheduled callbacks and network handlers live inside simulator
    state, which sharded runs snapshot with :mod:`pickle`; this class
    pickles as ``(Traced, (fn, name))`` and holds no tracer reference.
    """

    __slots__ = ("fn", "name")

    def __init__(self, fn: Callable, name: str) -> None:
        self.fn = fn
        self.name = name

    def __call__(self, *args, **kwargs):
        tracer = ACTIVE
        if tracer is None:
            return self.fn(*args, **kwargs)
        frame = tracer.enter(self.name)
        try:
            return self.fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    def __reduce__(self):
        return (Traced, (self.fn, self.name))


def callback_span(fn: Callable) -> "Traced":
    """Wrap a scheduled callback in a span of the layer owning it."""
    if isinstance(fn, Traced):
        return fn
    return Traced(fn, layer_of_callable(fn) + ".callback")


def _span_function(fn: Callable, name: str, on_result: "Optional[Callable]" = None) -> Callable:
    """``fn`` inside a span; every call is counted under the entry name
    (the part after the layer), and ``on_result(tracer, result)`` sees
    each return value."""
    key = name.split(".", 1)[1]

    def wrapper(*args, **kwargs):
        tracer = ACTIVE
        if tracer is None:
            return fn(*args, **kwargs)
        tracer.count(key)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if on_result is not None:
            on_result(tracer, result)
        return result

    wrapper.__wrapped__ = fn
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr, None))
    return wrapper


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: "List[Tuple[Any, str, Any]]" = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module_name: str, attr: str, name: str, on_result=None) -> None:
        """Wrap ``module.attr`` and every ``repro`` module that imported it
        by name. A missing function is skipped: its metrics then read 0."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            return
        wrapped = _span_function(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")) or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                self.set(mod, attr, wrapped)

    def method(self, cls: type, attr: str, name: str, on_result=None) -> None:
        original = cls.__dict__.get(attr)
        if original is not None:
            self.set(cls, attr, _span_function(original, name, on_result))

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# the repro entry points each layer is measured at
# ---------------------------------------------------------------------------
def _count_peel(tracer: Tracer, result) -> None:
    if getattr(result, "kind", "opaque") != "opaque":
        tracer.count("peel_success")


def _count_snapshot_bytes(tracer: Tracer, written) -> None:
    if isinstance(written, int):
        tracer.count("snapshot_bytes", written)


def install() -> Patches:
    """Wrap every layer's public entry points; undo with ``.undo()``.

    Wrappers are inert until :meth:`Tracer.start` makes a tracer active,
    so set-up and teardown outside the traced run phase cost a branch.
    """
    import importlib

    for name in (
        "repro.simnet.engine", "repro.simnet.network", "repro.simnet.transport",
        "repro.core.node", "repro.core.onion", "repro.core.wire", "repro.crypto.keys",
        "repro.crypto.shuffle", "repro.live.environment", "repro.live.framing",
        "repro.simnet.shard", "repro.simnet.snapshot", "repro.orchestrator.sharded",
    ):
        importlib.import_module(name)
    from repro.core.node import RacNode
    from repro.crypto.keys import KeyPair
    from repro.live.environment import LiveEnvironment
    from repro.simnet.engine import Simulator
    from repro.simnet.network import StarNetwork
    from repro.simnet.transport import ReliableTransport

    patches = Patches()

    # engine: the loop itself, and every scheduled callback attributed
    # to the layer whose module owns it.
    original_schedule = Simulator.schedule

    def schedule(self, delay, callback, *args):
        event = original_schedule(self, delay, callback_span(callback), *args)
        tracer = ACTIVE
        if tracer is not None:
            pending = self.pending_events()
            if pending > tracer.peak_pending:
                tracer.peak_pending = pending
        return event

    patches.set(Simulator, "schedule", schedule)
    patches.method(Simulator, "run", "engine.run")

    # network: sends, and the handlers it delivers to.
    original_attach = StarNetwork.attach

    def attach(self, node_id, handler):
        return original_attach(self, node_id, Traced(handler, layer_of_callable(handler) + ".handler"))

    patches.set(StarNetwork, "attach", attach)
    patches.method(StarNetwork, "send", "network.send")

    patches.method(ReliableTransport, "send", "transport.send")

    patches.method(RacNode, "on_message", "protocol.on_message")
    patches.method(RacNode, "queue_message", "protocol.queue_message")
    patches.function("repro.core.onion", "build_onion", "protocol.build_onion")
    patches.function("repro.core.onion", "peel", "protocol.peel", _count_peel)

    patches.function("repro.crypto.keys", "seal", "crypto.seal")
    patches.method(KeyPair, "unseal", "crypto.unseal")
    patches.function("repro.crypto.shuffle", "run_shuffle", "crypto.shuffle")

    patches.function("repro.core.wire", "encode_message", "live.encode")
    patches.function("repro.core.wire", "decode_message", "live.decode")
    patches.function("repro.live.framing", "write_frame", "live.write_frame")
    original_live_schedule = LiveEnvironment.schedule

    def live_schedule(self, delay, callback, *args):
        return original_live_schedule(self, delay, callback_span(callback), *args)

    patches.set(LiveEnvironment, "schedule", live_schedule)

    patches.function("repro.orchestrator.sharded", "run_sharded", "shard.coordinator")
    patches.function("repro.orchestrator.sharded", "run_shard_epoch", "shard.cell")
    patches.function("repro.orchestrator.sharded", "_write_json", "shard.barrier_io")
    patches.function("repro.orchestrator.sharded", "_read_json", "shard.barrier_io")
    patches.function("repro.simnet.shard", "build_shard_system", "shard.build")
    patches.function("repro.simnet.shard", "epoch_step", "shard.epoch_step")
    for name in ("canonical_blob", "chain_fingerprint", "merge_fingerprint"):
        patches.function("repro.simnet.shard", name, "shard.fingerprint")
    patches.function("repro.simnet.snapshot", "save_snapshot", "shard.snapshot_save", _count_snapshot_bytes)
    patches.function("repro.simnet.snapshot", "load_snapshot", "shard.snapshot_load")
    return patches
