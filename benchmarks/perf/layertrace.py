"""Outside-in per-layer tracing: class-level wrappers around public calls.

``LayerTrace`` is a context manager.  While it is active, every function
in :data:`LAYERS` is replaced on its class by a wrapper that records one
span per call — function, start, end, parent span, bytes moved — into
append-only ``array`` columns; on exit the originals are put back.  No
file under ``src/`` is edited and ``IoTracer.enabled`` is never touched,
so the code path taken (which serving loop, which engine fast path) is
the one an untraced run takes.

A layer's self time is its spans' time minus the part their direct
child spans cover, so nested calls into the same layer are counted once
and the self times of all layers plus the caller's own time (``client``)
add up to the traced wall time.

Page store vs device timing vs pool occupancy cannot be separated from
outside (they are private to the device classes); that split waits for
in-program spans.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (layer, module, class, functions, include subclasses).  Functions are
# wrapped wherever a class (or, when flagged, any loaded subclass)
# defines them in its own ``__dict__``.
LAYERS: Tuple[Tuple[str, str, str, Tuple[str, ...], bool], ...] = (
    ("serve", "repro.serve.server", "Server", ("run",), False),
    (
        "streams",
        "repro.workloads.cachebench",
        "CacheBenchDriver",
        ("next_op", "next_ops"),
        False,
    ),
    (
        "streams",
        "repro.serve.arrivals",
        "ArrivalProcess",
        ("pregenerate", "next_arrival_ns"),
        True,
    ),
    ("streams", "repro.workloads.distributions", "ExpRangeSampler", ("sample",), False),
    (
        "engine",
        "repro.cache.engine",
        "HybridCache",
        ("get", "set", "delete", "invalidate_namespace", "crash_recover"),
        False,
    ),
    (
        "backend",
        "repro.cache.backends.base",
        "RegionStore",
        ("write_region", "read", "invalidate_region"),
        True,
    ),
    (
        "ztl",
        "repro.ztl.layer",
        "RegionTranslationLayer",
        ("write_region", "read_region", "invalidate_region"),
        False,
    ),
    ("f2fs", "repro.f2fs.fs", "F2fs", ("pwrite", "pread", "checkpoint"), False),
    ("ftl", "repro.flash.ftl", "PageMappedFtl", ("write_pages", "discard_pages"), False),
    (
        "device",
        "repro.flash.znsssd",
        "ZnsSsd",
        (
            "read",
            "read_many",
            "write",
            "write_many",
            "append",
            "reset_zone",
            "finish_zone",
            "open_zone",
            "close_zone",
        ),
        False,
    ),
    (
        "device",
        "repro.flash.blockssd",
        "BlockSsd",
        ("read", "write", "write_many", "discard"),
        False,
    ),
    ("device", "repro.flash.nullblk", "NullBlkDevice", ("read", "write"), False),
    ("device", "repro.flash.hdd", "HddDevice", ("read", "write"), False),
    (
        "reclaim",
        "repro.reclaim.engine",
        "ReclaimEngine",
        ("background_step", "collect", "drain_to_target"),
        False,
    ),
    ("lsm", "repro.lsm.db", "Db", ("get", "put", "flush_memtable"), False),
)

LAYER_NAMES = (
    "serve",
    "streams",
    "engine",
    "backend",
    "ztl",
    "f2fs",
    "ftl",
    "device",
    "reclaim",
    "lsm",
)
CLIENT = "client"

# Bytes a backend call moves, read off its arguments (``self`` first):
# write_region(region_id, payload), read(region_id, offset, length).
_BYTES_OF: Dict[Tuple[str, str], Callable[[tuple, dict], int]] = {
    ("backend", "write_region"): lambda args, kwargs: len(
        args[2] if len(args) > 2 else kwargs["payload"]
    ),
    ("backend", "read"): lambda args, kwargs: (
        args[3] if len(args) > 3 else kwargs["length"]
    ),
}


def _with_subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


class LayerTrace:
    """Install the wrappers, record spans, restore the originals."""

    def __init__(self) -> None:
        self.func = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.nbytes = array("q")
        self.func_names: List[str] = []
        self.func_layers: List[str] = []
        self._func_ids: Dict[Tuple[type, str], int] = {}
        self._stack: List[int] = [-1]
        self._installed: List[Tuple[type, str, object]] = []

    # --- install / restore ----------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        try:
            for layer, module, class_name, functions, subclasses in LAYERS:
                cls = getattr(importlib.import_module(module), class_name)
                classes = _with_subclasses(cls) if subclasses else [cls]
                for target in classes:
                    for name in functions:
                        if name in target.__dict__:
                            self._install(layer, target, name)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _install(self, layer: str, cls: type, name: str) -> None:
        raw = cls.__dict__[name]
        func_id = self._func_ids.get((cls, name))
        if func_id is None:
            # The context may be entered once per traced window; a
            # function keeps its id across entries.
            func_id = self._func_ids[(cls, name)] = len(self.func_names)
            self.func_names.append(f"{cls.__name__}.{name}")
            self.func_layers.append(layer)
        bytes_of = _BYTES_OF.get((layer, name))
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, func_id, None))
        else:
            wrapped = self._wrap(raw, func_id, bytes_of)
        self._installed.append((cls, name, raw))
        setattr(cls, name, wrapped)

    def _restore(self) -> None:
        while self._installed:
            cls, name, raw = self._installed.pop()
            setattr(cls, name, raw)

    def _wrap(
        self, fn: Callable, func_id: int, bytes_of: Optional[Callable[[tuple, dict], int]]
    ) -> Callable:
        clock = time.perf_counter_ns
        stack = self._stack
        func, start, end = self.func, self.start, self.end
        parent, nbytes = self.parent, self.nbytes

        def traced(*args, **kwargs):
            index = len(start)
            func.append(func_id)
            parent.append(stack[-1])
            nbytes.append(bytes_of(args, kwargs) if bytes_of is not None else 0)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # --- analysis -------------------------------------------------------------

    @property
    def spans(self) -> int:
        return len(self.start)

    def summary(self, wall_ns: int) -> Dict[str, Dict[str, float]]:
        """Per layer: outermost calls, self seconds, share of ``wall_ns``.

        ``client`` is the traced wall time no span covers: the
        benchmark's own driver loop and oracle.
        """
        count = self.spans
        layer_index = {name: i for i, name in enumerate(LAYER_NAMES)}
        func = np.array(self.func, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end, dtype=np.int64) - np.array(
            self.start, dtype=np.int64
        )
        layer = np.array(
            [layer_index[name] for name in self.func_layers], dtype=np.int64
        )[func]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=count
        )
        self_ns = duration - child_time
        # A span is its layer's outermost call unless an enclosing span
        # belongs to the same layer.  Spans are appended at entry, so a
        # parent's index is always below its children's: one forward
        # pass carries the set of layers open above each span.
        parent_list, layer_list = parent.tolist(), layer.tolist()
        open_layers = [0] * count
        outermost = np.zeros(count, dtype=bool)
        for i in range(count):
            above = open_layers[parent_list[i]] if parent_list[i] >= 0 else 0
            bit = 1 << layer_list[i]
            outermost[i] = not above & bit
            open_layers[i] = above | bit
        out: Dict[str, Dict[str, float]] = {}
        covered_s = 0.0
        for name, i in layer_index.items():
            mask = layer == i
            self_s = float(self_ns[mask].sum()) / 1e9
            covered_s += self_s
            out[name] = {
                "calls": int((mask & outermost).sum()),
                "host_self_s": self_s,
                "host_share": self_s * 1e9 / wall_ns,
            }
        client_s = wall_ns / 1e9 - covered_s
        out[CLIENT] = {
            "calls": int((~has_parent).sum()),
            "host_self_s": client_s,
            "host_share": client_s * 1e9 / wall_ns,
        }
        return out

    def bytes_by_function(self, layer: str, function: str) -> int:
        """Sum of the recorded byte counts of one layer's function
        (over every class that defines it)."""
        ids = [
            i
            for i, (name, owner) in enumerate(zip(self.func_names, self.func_layers))
            if owner == layer and name.endswith("." + function)
        ]
        func = np.array(self.func, dtype=np.int64)
        nbytes = np.array(self.nbytes, dtype=np.int64)
        return int(nbytes[np.isin(func, ids)].sum())

    def op_ids(self) -> np.ndarray:
        """Request identifier per span: spans of one request share one.

        A request is a top-level call made by the client, or — inside
        ``Server.run`` — a direct child call of the serving loop.
        """
        count = self.spans
        parent = self.parent.tolist()
        layers = [self.func_layers[f] for f in self.func.tolist()]
        ops = [0] * count
        next_op = 0
        for i in range(count):
            p = parent[i]
            if p < 0 or (layers[p] == "serve" and parent[p] < 0):
                ops[i] = next_op
                next_op += 1
            else:
                ops[i] = ops[p]
        return np.array(ops, dtype=np.int64)

    def save(self, path: str) -> None:
        """Write the spans as a compressed ``.npz`` (see README)."""
        np.savez_compressed(
            path,
            func=np.array(self.func, dtype=np.int64),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            nbytes=np.array(self.nbytes, dtype=np.int64),
            op=self.op_ids(),
            func_names=np.array(self.func_names),
            func_layers=np.array(self.func_layers),
        )
