"""Measurement plumbing shared by the workloads.

A run is: build the inputs from the seed; set the workload up
``SETUPS`` times and keep the last set-up (``setup_s`` is the median);
run the timed part; with tracing, run the same operations again under
the span wrappers of :mod:`spans`; check every output against the
oracle.  All times are ``time.perf_counter`` wall clock of this
process.  The simulated device and wire seconds the program accounts
(``repro.bench.timing.PhaseClock``) are never added: they are modelled,
not incurred.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

now = time.perf_counter

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 7
MB = 1e6


def pin_to_one_cpu() -> int:
    """Pin the calling thread (and every thread and process it starts
    afterwards) to the lowest CPU this process may run on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its
    waited-for children (shard servers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024 / MB


def tail_percentile(samples: List[float]):
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; ``None`` below forty samples."""
    n = len(samples)
    if n < 40:
        return None
    s = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0):
        k = math.ceil(p / 100 * n) - 1
        if n - 1 - k >= 10:
            return p, s[k]
    return None


def _per_kind(value):
    return field(default_factory=lambda: {"write": value(), "read": value()})


@dataclass
class Part:
    """One pass of timed rounds.  The plain pass runs whole rounds until
    its deadline; the traced pass replays the plain pass's round (or
    request) count under the span wrappers of :mod:`spans`."""

    traced: bool
    seconds: float
    #: rounds or requests to replay (traced pass only)
    counts: Optional[int] = None
    #: rounds or requests completed
    done: int = 0
    ops: Dict[str, int] = _per_kind(int)
    lat: Dict[str, List[float]] = _per_kind(list)
    #: seconds the operations of each kind took (see README.md)
    busy: Dict[str, float] = _per_kind(float)
    nbytes: Dict[str, int] = _per_kind(int)
    #: MB/s of each round (file workloads) or window (service)
    rate: Dict[str, List[float]] = _per_kind(list)
    wall: float = 0.0


@dataclass
class RunLog:
    """Everything a run measured, whatever the workload."""

    setup: List[float] = field(default_factory=list)
    spawn_s: float = 0.0
    set_view_s: float = 0.0
    parts: List[Part] = field(default_factory=list)
    failed: int = 0
    counters_before: dict = field(default_factory=dict)
    counters_after: dict = field(default_factory=dict)
    recorder: object = None
    peak_rss_mb: float = 0.0
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def plain(self) -> Part:
        return self.parts[0]

    def attempted(self) -> int:
        """Operations attempted: a collective counts once, an
        independent call or a service request once each."""
        return sum(sum(p.ops.values()) for p in self.parts) + self.failed


def end_to_end(log: RunLog) -> dict:
    p = log.plain
    lat = [x for kind in p.lat for x in p.lat[kind]]
    tail = tail_percentile(lat)
    log.info["call_samples"] = len(lat)
    if tail is not None:
        log.info[f"call_p{tail[0]:g}_ms"] = round(tail[1] * 1e3, 4)
    log.info["setup_samples_s"] = [round(s, 4) for s in log.setup]
    log.info["rate_samples"] = len(p.rate["write"])
    for kind in p.rate:
        if len(p.rate[kind]) >= 2:
            q1, q2, q3 = statistics.quantiles(p.rate[kind], n=4)
            log.info[f"{kind}_mbps_rounds_q1_q2_q3"] = [
                round(q1, 4), round(q2, 4), round(q3, 4)]
    return {
        "setup_s": (statistics.median(log.setup), "s"),
        "write_mbps": (p.nbytes["write"] / MB / p.busy["write"], "MB/s"),
        "read_mbps": (p.nbytes["read"] / MB / p.busy["read"], "MB/s"),
        "call_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mb": (log.peak_rss_mb, "MB"),
    }


def settle() -> None:
    """Start each timed phase from the same collector state."""
    gc.collect()


#: ``name -> (unit, better)`` of every per-layer metric, in print order.
PER_LAYER = {
    "mpi.sync_s": ("s", "lower"),
    "mpi.exchange_s": ("s", "lower"),
    "mpi.bytes_sent": ("B", "lower"),
    "plan.s": ("s", "lower"),
    "plan.cache_hit_ratio": ("1", "higher"),
    "core.pack_s": ("s", "lower"),
    "core.unpack_s": ("s", "lower"),
    "core.blockprog_hit_ratio": ("1", "higher"),
    "io.rounds": ("count", "lower"),
    "io.pipeline_io_s": ("s", "lower"),
    "io.peak_staging_bytes": ("B", "lower"),
    "io.lock_s": ("s", "lower"),
    "io.sieve_useful_ratio": ("1", "higher"),
    "fs.file_io_s": ("s", "lower"),
    "fs.ops": ("count", "lower"),
    "ship.s": ("s", "lower"),
    "ship.request_bytes_per_data_byte": ("1", "lower"),
    "ship.shard_min_share": ("1", "higher"),
    "server.queue_wait_ms": ("ms", "lower"),
    "server.execute_ms": ("ms", "lower"),
    "server.accesses_per_request": ("1", "lower"),
    "setup.set_view_s": ("s", "lower"),
    "setup.spawn_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "self_s.io": ("s", "lower"),
    "self_s.plan": ("s", "lower"),
    "self_s.core": ("s", "lower"),
    "self_s.mpi": ("s", "lower"),
    "self_s.fs": ("s", "lower"),
    "self_s.server": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    """``num / den``; 0 when nothing was attempted (``den == 0``)."""
    return num / den if den else 0.0


def per_layer(log: RunLog, nranks: int) -> dict:
    """Per-layer metrics of the traced pass, per access unless the
    metric is a ratio, a high-water mark or a per-run time."""
    plain, traced = log.parts
    rec = log.recorder
    acc = sum(traced.ops.values())
    own = rec.self_seconds()
    incl = rec.total_seconds()
    before, after = log.counters_before, log.counters_after

    def delta(key):
        a, b = after.get(key, 0), before.get(key, 0)
        if isinstance(a, list):
            return [x - y for x, y in zip(a, b)]
        return a - b

    def per(x):
        return x / acc

    payload = delta("wire_payload_bytes") or []
    user_bytes = sum(traced.nbytes.values())
    waits = [w for w, _ in rec.server_requests]
    execs = [e for _, e in rec.server_requests]
    hits, misses = delta("plan_cache_hits"), delta("plan_cache_misses")
    bp_hits, bp_misses = delta("blockprog_hits"), delta("blockprog_misses")
    out = {
        "mpi.sync_s": per(own.get("mpi.sync", 0.0)),
        "mpi.exchange_s": per(own.get("mpi.exchange", 0.0)),
        "mpi.bytes_sent": per(delta("bytes_sent")),
        "plan.s": per(own.get("plan.planner", 0.0)),
        "plan.cache_hit_ratio": _ratio(hits, hits + misses),
        "core.pack_s": per(own.get("core.pack", 0.0)),
        "core.unpack_s": per(own.get("core.unpack", 0.0)),
        "core.blockprog_hit_ratio": _ratio(bp_hits, bp_hits + bp_misses),
        "io.rounds": per(delta("executed_rounds")) / nranks,
        "io.pipeline_io_s": per(incl.get("io.pipeline", 0.0)),
        "io.peak_staging_bytes": after.get("peak_staging_bytes", 0),
        "io.lock_s": per(own.get("fs.lock", 0.0)),
        "io.sieve_useful_ratio": _ratio(user_bytes, delta("fs_bytes")),
        "fs.file_io_s": per(own.get("fs.file_io", 0.0)),
        "fs.ops": per(delta("fs_ops")),
        "ship.s": per(incl.get("io.shipping", 0.0)),
        "ship.request_bytes_per_data_byte": _ratio(
            delta("wire_request_bytes"), sum(payload)),
        "ship.shard_min_share": _ratio(min(payload, default=0),
                                       sum(payload)),
        "server.queue_wait_ms": _ratio(sum(waits), len(waits)) * 1e3,
        "server.execute_ms": _ratio(sum(execs), len(execs)) * 1e3,
        "server.accesses_per_request": _ratio(
            delta("file_accesses"), delta("requests_executed")),
        "setup.set_view_s": log.set_view_s,
        "setup.spawn_s": log.spawn_s,
        "trace.overhead_s": traced.wall - plain.wall,
    }
    for layer, s in rec.layer_self_seconds().items():
        out[f"self_s.{layer}"] = per(s)
    return {name: (out[name], unit) for name, (unit, _) in PER_LAYER.items()}
