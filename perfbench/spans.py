"""Span recording from outside the program.

:class:`SpanRecorder` swaps timing wrappers in for the public entry
points of each layer of ``repro`` (communicator collectives, planner,
``ff_pack``/``ff_unpack``, executors' file primitives, range locks,
sharded-file requests, the IOP server's admission, batching and
execution) and restores the originals on :meth:`SpanRecorder.remove`.
Nothing inside ``src/`` changes.  Each span is kept in memory as
``(id, name, thread, start, end, parent id, child seconds)``; a span's
self time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: ``(module, class or None, attribute, span name)``.  The span name's
#: first component is the layer (a ``repro`` subpackage); the rest says
#: which boundary it is.
TARGETS = [
    ("repro.io.file_handle", "File", "write_at", "io.access"),
    ("repro.io.file_handle", "File", "read_at", "io.access"),
    ("repro.io.file_handle", "File", "write_at_all", "io.access"),
    ("repro.io.file_handle", "File", "read_at_all", "io.access"),
    ("repro.io.aggregation", None, "run_collective", "io.aggregation"),
    ("repro.io.sieving", None, "read_window", "io.sieving"),
    ("repro.io.sieving", None, "write_window_locked", "io.sieving"),
    ("repro.io.shipping", None, "execute_ship", "io.shipping"),
    ("repro.plan.pipeline", "DeferredWorker", "_apply", "io.pipeline"),
    ("repro.plan.planner", "Planner", "plan_independent", "plan.planner"),
    ("repro.plan.planner", "Planner", "plan_independent_bound",
     "plan.planner"),
    ("repro.plan.planner", "Planner", "plan_collective", "plan.planner"),
    ("repro.plan.executor", "PlanExecutor", "run", "plan.executor"),
    ("repro.core.ff_pack", None, "ff_pack", "core.pack"),
    ("repro.core.ff_pack", None, "ff_unpack", "core.unpack"),
    ("repro.mpi.communicator", "GroupComm", "barrier", "mpi.sync"),
] + [
    # Rendezvous collectives (every rank waits for all; what they carry
    # is metadata such as the allgathered access ranges) are sync ...
    ("repro.mpi.communicator", "Comm", name, "mpi.sync")
    for name in ("barrier", "bcast", "gather", "allgather", "allreduce",
                 "reduce", "scatter")
] + [
    # ... data moves through alltoall and point-to-point messages.
    ("repro.mpi.communicator", "Comm", name, "mpi.exchange")
    for name in ("send", "recv", "sendrecv", "recv_any", "isend", "irecv",
                 "probe", "alltoall")
] + [
    ("repro.mpi.communicator", "GroupComm", name, "mpi.exchange")
    for name in ("send", "recv", "probe")
] + [
    ("repro.mpi.communicator", "PendingOp", "wait", "mpi.exchange"),
] + [
    (mod, cls, name, "fs.file_io")
    for mod, cls in (("repro.fs.simfile", "SimFile"),
                     ("repro.fs.posix", "OsFile"),
                     ("repro.fs.sharded", "ShardedFile"))
    for name in ("pread_into", "pwrite")
] + [
    (mod, cls, name, "fs.lock")
    for mod, cls in (("repro.fs.simfile", "SimFile"),
                     ("repro.fs.posix", "OsFile"),
                     ("repro.fs.sharded", "ShardedFile"))
    for name in ("lock_range", "unlock_range")
] + [
    ("repro.fs.locks", cls, name, "fs.lock")
    for cls in ("RangeLockManager", "FcntlRangeLockManager")
    for name in ("lock", "unlock")
] + [
    ("repro.fs.sharded", "ShardedFile", name, "fs.sharded")
    for name in ("ship_view", "ship_post_read", "ship_post_write",
                 "ship_post_dt_read", "ship_post_dt_write",
                 "ship_collect_read", "ship_collect_write")
] + [
    ("repro.server.core", "IOPServer", "post", "server.admission"),
    ("repro.server.admission", "AdmissionController", "take",
     "server.admission"),
    ("repro.server.batch", None, "plan_batches", "server.batching"),
    ("repro.server.core", "IOPServer", "_execute_local", "server.execute"),
]

#: Layers reported as ``self_s.<layer>`` (span-name prefixes above).
LAYERS = ("io", "plan", "core", "mpi", "fs", "server")

#: Spans that may start a trace.  Any other wrapped call made outside
#: one of these (the benchmark's own barriers and broadcasts between
#: accesses) is not the program's work and is not recorded.
ROOTS = frozenset({"io.access", "server.admission", "server.batching",
                   "server.execute"})


class SpanRecorder:
    """Install wrappers, collect spans, restore the originals."""

    def __init__(self) -> None:
        self.spans = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._undo = []
        #: Per-request ``(queue wait, execute)`` seconds seen by the
        #: ``server.execute`` wrapper.
        self.server_requests = []

    # -- installation --------------------------------------------------
    def _wrap(self, fn, name):
        spans = self.spans
        ids = self._ids
        tls = self._tls
        now = time.perf_counter
        thread_name = threading.current_thread

        root = name in ROOTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
                tls.thread = thread_name().name
            if not stack and not root:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            rec = [next(ids), name, tls.thread, now(), 0.0,
                   parent[0] if parent is not None else -1, 0.0]
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = now()
                stack.pop()
                if parent is not None:
                    parent[6] += rec[4] - rec[3]
                spans.append(rec)

        return traced

    def _wrap_execute(self, fn):
        """``IOPServer._execute_local`` also yields each request's wait
        in the admission queue (post to dispatch) and execute time."""
        inner = self._wrap(fn, "server.execute")
        out = self.server_requests
        now = time.perf_counter

        @functools.wraps(fn)
        def traced(server, batch):
            t0 = now()
            try:
                return inner(server, batch)
            finally:
                t1 = now()
                for item in batch.items:
                    out.append((t0 - item.t_post, t1 - t0))

        return traced

    def install(self) -> None:
        for modname, clsname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            if clsname is not None:
                cls = getattr(mod, clsname)
                orig = cls.__dict__[attr]
                if attr == "_execute_local":
                    new = self._wrap_execute(orig)
                else:
                    new = self._wrap(orig, name)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, orig))
                continue
            orig = getattr(mod, attr)
            new = self._wrap(orig, name)
            # ``from x import f`` binds f in the importer's namespace:
            # rebind every repro module attribute that is this object.
            for m in list(sys.modules.values()):
                if (getattr(m, "__name__", "").startswith("repro")
                        and getattr(m, attr, None) is orig):
                    setattr(m, attr, new)
                    self._undo.append((m, attr, orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    # -- summaries -----------------------------------------------------
    def self_seconds(self) -> dict:
        """Self seconds per span name, summed over all threads."""
        out = defaultdict(float)
        for rec in self.spans:
            out[rec[1]] += (rec[4] - rec[3]) - rec[6]
        return dict(out)

    def total_seconds(self) -> dict:
        """Inclusive seconds per span name, outermost spans of that
        name only (a recursive call is not counted twice)."""
        by_id = {rec[0]: rec for rec in self.spans}
        out = defaultdict(float)
        for rec in self.spans:
            parent = by_id.get(rec[5])
            if parent is not None and parent[1] == rec[1]:
                continue
            out[rec[1]] += rec[4] - rec[3]
        return dict(out)

    def layer_self_seconds(self) -> dict:
        per_name = self.self_seconds()
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in per_name.items():
            out[name.split(".", 1)[0]] += s
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one span per line)."""
        keys = ("id", "name", "thread", "start", "end", "parent",
                "child_s")
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r[0]):
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
