"""Per-layer span tracing for the end-to-end benchmark.

The program is not changed: :class:`SpanTracer` replaces the public entry
points of each ``repro`` layer with wrappers that record one span per
call, then puts the originals back.  Spans are kept in memory as flat
integer rows and written out once, at the end of the traced run.

Each span row is ``(id, parent, layer, thread, start_ns, end_ns, is_call)``:

* ``parent`` is the span open on the same thread when this one started
  (0 at a thread's root), so the ``StageExecutor`` node threads each get
  their own tree.
* ``start_ns``/``end_ns`` read the calling thread's CPU clock
  (``time.thread_time_ns``).  Node threads take turns on the interpreter
  lock; a wall clock would charge every layer open on a waiting thread
  with the time other threads ran.  With the thread clock the self times
  of all threads add up to the CPU time the process spent.
* ``is_call`` is 1 for a call and 0 for a later resumption of a generator
  (a generator's span covers each resumption, but counts one call).

A call into a layer from inside a span of the same layer (recursion, or
``stable_hash`` hashing the items of a tuple) stays part of the open span.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

COLUMNS = ("id", "parent", "layer", "thread", "start_ns", "end_ns", "is_call")
_WIDTH = len(COLUMNS)


class SpanTracer:
    """Records spans around patched callables, per thread."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_codes: dict[str, int] = {}
        self.rows = array("q")
        self.thread_names: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._thread_ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _code(self, layer: str) -> int:
        if layer not in self._layer_codes:
            self._layer_codes[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_codes[layer]

    def _thread_state(self):
        local = self._local
        try:
            return local.stack, local.thread
        except AttributeError:
            local.stack = []
            local.thread = next(self._thread_ids)
            self.thread_names[local.thread] = threading.current_thread().name
            return local.stack, local.thread

    def wrap(self, layer: str, fn):
        """A callable recording one ``layer`` span per call of ``fn``."""
        code = self._code(layer)
        state = self._thread_state
        ids = self._ids
        rows = self.rows
        clock = time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, thread = state()
            if stack and stack[-1][1] == code:
                return fn(*args, **kwargs)
            span = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span, code))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows.extend((span, parent, code, thread, start, end, 1))

        return traced

    def wrap_generator(self, layer: str, fn):
        """Like :meth:`wrap` for a generator function: one span per
        resumption, one call per generator."""
        code = self._code(layer)
        state = self._thread_state
        ids = self._ids
        rows = self.rows
        clock = time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            generator = fn(*args, **kwargs)
            is_call = 1
            while True:
                stack, thread = state()
                span = next(ids)
                parent = stack[-1][0] if stack else 0
                stack.append((span, code))
                start = clock()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    stack.pop()
                    rows.extend((span, parent, code, thread, start, end, is_call))
                is_call = 0
                yield item

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def patch_method(self, cls, name: str, layer: str, generator: bool = False) -> None:
        original = cls.__dict__[name]
        wrapper = self.wrap_generator if generator else self.wrap
        self._set(cls, name, wrapper(layer, original))

    def patch_function(self, module, name: str, layer: str) -> None:
        """Wrap a module-level function in its own module and in every
        loaded ``repro`` module that imported it by name."""
        original = getattr(module, name)
        traced = self.wrap(layer, original)
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith("repro"):
                continue
            if other.__dict__.get(name) is original:
                self._set(other, name, traced)

    def patch_callable_args(self, cls, name: str, layer: str) -> None:
        """Wrap ``cls.name(self, stage, tasks)`` so each task thunk runs
        inside its own ``layer`` span on whichever thread executes it."""
        original = cls.__dict__[name]
        wrap = self.wrap

        @functools.wraps(original)
        def run(executor, stage, tasks):
            traced = {key: wrap(layer, thunk) for key, thunk in tasks.items()}
            return original(executor, stage, traced)

        self._code(layer)
        self._set(cls, name, run)

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All recorded spans as an ``(n, 7)`` int64 array (see COLUMNS)."""
        return np.frombuffer(self.rows, dtype=np.int64).reshape(-1, _WIDTH)

    def layer_totals(self) -> "dict[str, tuple[float, int]]":
        """``layer -> (self seconds, calls)`` for every known layer.

        A span's self time is its duration minus the durations of its
        direct children (spans recorded on the same thread with it as
        parent).
        """
        spans = self.spans()
        count = len(self.layers)
        ids, parents, codes = spans[:, 0], spans[:, 1], spans[:, 2]
        durations = spans[:, 5] - spans[:, 4]
        # Every id handed out is recorded exactly once, so ids are 1..n.
        code_of = np.zeros(len(spans) + 1, dtype=np.int64)
        code_of[ids] = codes
        nested = parents > 0
        self_ns = np.bincount(codes, weights=durations, minlength=count)
        self_ns -= np.bincount(
            code_of[parents[nested]], weights=durations[nested], minlength=count
        )
        calls = np.bincount(codes, weights=spans[:, 6], minlength=count)
        return {
            layer: (float(self_ns[code]) / 1e9, int(calls[code]))
            for code, layer in enumerate(self.layers)
        }

    def capture_instances(self, cls) -> list:
        """Patch ``cls.__init__`` to collect every instance made while
        patched (to read counters of objects the program keeps private)."""
        instances: list = []
        original = cls.__dict__["__init__"]

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            instances.append(obj)

        self._set(cls, "__init__", init)
        return instances

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans (``.npy``) and their legend (``.json``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path.with_suffix(".npy"), self.spans())
        legend = {
            "columns": list(COLUMNS),
            "clock": "time.thread_time_ns of the recording thread",
            "layers": self.layers,
            "threads": {str(k): v for k, v in sorted(self.thread_names.items())},
            **meta,
        }
        path.with_suffix(".json").write_text(json.dumps(legend, indent=1) + "\n")


def trace_layers(tracer: SpanTracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import repro.fs.page_file as page_file
    import repro.ml.kmeans as kmeans
    import repro.placement.partitioner as partitioner
    import repro.placement.replication as replication
    import repro.services.sequential as sequential
    import repro.util as util
    from repro.buffer.pool import BufferPool
    from repro.compute.stages import StageExecutor
    from repro.core.paging import PagingSystem
    from repro.query.scheduler import QueryScheduler
    from repro.services.hashsvc import VirtualHashBuffer
    from repro.services.shuffle import ShuffleService, VirtualShuffleBuffer
    from repro.sim.clock import SimClock
    from repro.tpch.datagen import TpchGenerator

    methods = [
        (BufferPool, ("place", "release", "pin", "unpin"), "buffer.pool"),
        (PagingSystem, ("make_room",), "core.make_room"),
        (page_file.SetFile, ("write_page", "write_many", "read_page"), "fs.set_file"),
        (
            sequential.SequentialWriter,
            ("attach", "add_object", "add_data", "flush", "close"),
            "services.sequential",
        ),
        (sequential.PageIterator, ("next", "close"), "services.sequential"),
        (
            ShuffleService,
            ("buffer_for", "write_batch", "finish_writing", "drop"),
            "services.shuffle",
        ),
        (VirtualShuffleBuffer, ("add_object", "close"), "services.shuffle"),
        (
            VirtualHashBuffer,
            ("find", "insert", "set", "insert_many", "finalize", "release"),
            "services.hashsvc",
        ),
        (QueryScheduler, ("execute",), "query.scheduler"),
        (SimClock, ("advance", "advance_to"), "sim.clock"),
        (kmeans.PangeaKMeans, ("load_points", "run"), "ml.kmeans"),
        (
            TpchGenerator,
            (
                "region", "nation", "supplier", "customer", "part",
                "partsupp", "orders", "lineitem", "all_tables",
            ),
            "tpch.datagen",
        ),
    ]
    for cls, names, layer in methods:
        for name in names:
            tracer.patch_method(cls, name, layer)
    tracer.patch_method(VirtualHashBuffer, "items", "services.hashsvc", generator=True)
    tracer.patch_callable_args(StageExecutor, "run", "compute.stage")
    functions = [
        (page_file, "page_checksum", "fs.page_checksum"),
        (util, "stable_hash", "util.stable_hash"),
        (sequential, "make_shard_iterators", "services.sequential"),
        (sequential, "make_page_iterators", "services.sequential"),
        (partitioner, "partition_set", "placement.partition_set"),
        (replication, "register_replica", "placement.register_replica"),
        (kmeans, "generate_points", "ml.kmeans"),
    ]
    for module, name, layer in functions:
        tracer.patch_function(module, name, layer)
