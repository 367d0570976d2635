"""The five workloads, each driving the public ``repro`` API from one
process (simulated ranks are threads of it).  BENCHMARK.json gates four;
``coll-small`` is run by name for reference figures only.

``btio-a``, ``coll-small``, ``indep-fine`` and ``indep-sharded`` are
SPMD file workloads: every rank opens the file, sets its view, and runs
a write phase then a read phase.  ``service-rw`` drives an
:class:`~repro.server.IOPServer` from one client thread.  See README.md
for why each is here and how its inputs are made.
"""

from __future__ import annotations

import os
import shutil
from collections import deque

import numpy as np

import oracles
from harness import MB, SETUPS, Part, RunLog, now, peak_rss_mb, settle
from oracles import Mismatch, expect_equal, interleave, random_bytes

from repro import datatypes as dt
from repro.bench.btio import build_process_filetype, build_process_memtype
from repro.bench.noncontig import (build_noncontig_filetype,
                                   build_noncontig_memtype)
from repro.errors import ServiceError, ServiceQueueFull
from repro.fs import OsFileSystem, ShardedFileSystem, SimFileSystem
from repro.io import MODE_CREATE, MODE_RDWR, File
from repro.io.hints import Hints
from repro.mpi.runtime import run_spmd
from repro.obs import metrics
from repro.server import IOPServer, ServiceClient
from repro.session import IOSession

KINDS = ("write", "read")
DATA_PATH = "/perfbench.dat"


# ----------------------------------------------------------------------
# SPMD file workloads
# ----------------------------------------------------------------------
class RankWorkload:
    """One open file on ``nranks`` simulated ranks, driven in rounds.

    A round is ``round_calls`` writes by every rank, then
    ``round_calls`` reads that check what the writes left.  Set-up ends
    with a warm-up round of ``warm_calls``; timed passes run whole
    rounds.  Subclasses define the geometry, the calls and the expected
    bytes.
    """

    name = ""
    nranks = 2
    collective = True
    round_calls = 8
    warm_calls = 8

    def __init__(self, seed: int, engine: str = "listless") -> None:
        self.seed = seed
        self.engine = engine
        #: CPUs the benchmark may use, taken before any pinning
        self.cpus = os.sched_getaffinity(0)

    # -- subclasses -------------------------------------------------------
    def make_inputs(self) -> None:
        raise NotImplementedError

    def hints(self) -> Hints:
        return Hints()

    def spawn(self, root: str):
        return SimFileSystem()

    def set_view(self, fh, rank: int) -> None:
        raise NotImplementedError

    def begin_round(self, comm, fs, st, rnd: int) -> None:
        st["wk"] = st["rk"] = 0
        st["round"] = rnd

    def write(self, st) -> None:
        raise NotImplementedError

    def read(self, st) -> None:
        raise NotImplementedError

    def verify_read(self, st) -> None:
        raise NotImplementedError

    def bytes_per_call(self) -> int:
        """User bytes one call moves (all ranks for a collective, one
        rank for an independent call)."""
        raise NotImplementedError

    def check_file(self, fs, states) -> None:
        raise NotImplementedError

    def counters(self, fs) -> dict:
        return {}

    # -- shared -----------------------------------------------------------
    def close_fs(self, fs) -> None:
        close = getattr(fs, "close", None)
        if close is not None:
            close()

    def rank_state(self, rank: int) -> dict:
        return {"rank": rank, "last": {}, "acc": {}}

    def run(self, seconds: float, trace: bool, workdir: str) -> RunLog:
        return run_ranks(self, seconds, trace, workdir)


def _add_counts(acc: dict, fh, rank: int) -> dict:
    """Add a handle's plan and file counters to ``acc``; staging is a
    high-water mark, so it takes the maximum."""
    plan = fh.engine.stats.plan
    counts = {
        "plan_cache_hits": plan.plan_cache_hits,
        "plan_cache_misses": plan.plan_cache_misses,
        "executed_rounds": plan.executed_rounds,
    }
    if rank == 0:
        # Ranks share one file object: count its operations once.
        f = fh.simfile.stats.snapshot()
        counts["fs_ops"] = f["n_reads"] + f["n_writes"]
        counts["fs_bytes"] = f["bytes_read"] + f["bytes_written"]
    for key, v in counts.items():
        acc[key] = acc.get(key, 0) + v
    acc["peak_staging_bytes"] = max(acc.get("peak_staging_bytes", 0),
                                    plan.peak_staging_bytes)
    return acc


def retire_handle(st) -> None:
    """Keep a handle's counters in the rank's totals before it goes."""
    _add_counts(st["acc"], st["fh"], st["rank"])


def _snapshot(ctl) -> dict:
    """Counter totals over all ranks, from the program's own stats."""
    out = {}
    for st in ctl.states:
        rank_total = _add_counts(dict(st["acc"]), st["fh"], st["rank"])
        for key, v in rank_total.items():
            if key == "peak_staging_bytes":
                out[key] = max(out.get(key, 0), v)
            else:
                out[key] = out.get(key, 0) + v
    glob = metrics.snapshot(session=ctl.session)["global"]
    out["blockprog_hits"] = glob["blockprog_hits"]
    out["blockprog_misses"] = glob["blockprog_misses"]
    out["bytes_sent"] = ctl.worlds[-1].total_bytes_sent()
    out.update(ctl.wl.counters(ctl.fs))
    return out


class _Ctl:
    """Shared between run_ranks and the rank threads of one set-up."""

    def __init__(self, wl, fs, session, timed, log):
        self.wl, self.fs, self.session = wl, fs, session
        self.timed, self.log = timed, log
        self.worlds = []
        self.setup_end = 0.0
        self.set_view_s = 0.0
        self.states = [None] * wl.nranks


def _segment(comm, wl, st, kind: str, part: Part) -> None:
    """One kind's calls of one round; rank 0 books the time."""
    op = wl.write if kind == "write" else wl.read
    rank0 = comm.rank == 0
    lat = []
    comm.barrier()
    t_start = now()
    for _ in range(wl.round_calls):
        if wl.collective:
            comm.barrier()
            t0 = now()
            op(st)
            comm.barrier()
        else:
            t0 = now()
            op(st)
        lat.append(now() - t0)
        if kind == "read":
            wl.verify_read(st)
    comm.barrier()
    wall = now() - t_start
    if wl.collective:
        busy = sum(lat)
        if rank0:
            part.lat[kind].extend(lat)
    else:
        busy = wall
        part.lat[kind].extend(lat)
    if rank0:
        calls = wl.round_calls * (1 if wl.collective else comm.size)
        nbytes = calls * wl.bytes_per_call()
        part.ops[kind] += calls
        part.busy[kind] += busy
        part.nbytes[kind] += nbytes
        part.rate[kind].append(nbytes / busy / MB)
        part.wall += wall


def _rounds(comm, ctl, st, part: Part, rnd: int) -> int:
    rank0 = comm.rank == 0
    if rank0:
        settle()
    comm.barrier()
    limit = part.counts
    deadline = None
    if limit is None:
        deadline = comm.bcast(now() + part.seconds if rank0 else None)
    n = 0
    while True:
        if limit is not None:
            if n >= limit:
                break
        elif not comm.bcast(now() < deadline if rank0 else None):
            break
        ctl.wl.begin_round(comm, ctl.fs, st, rnd)
        for kind in KINDS:
            _segment(comm, ctl.wl, st, kind, part)
        rnd += 1
        n += 1
    if rank0:
        part.done = n
    return rnd


def _rank_main(comm, ctl: _Ctl):
    wl = ctl.wl
    rank = comm.rank
    rank0 = rank == 0
    st = wl.rank_state(rank)
    ctl.states[rank] = st
    st["fh"] = File.open(comm, ctl.fs, DATA_PATH, MODE_CREATE | MODE_RDWR,
                         engine=wl.engine, hints=wl.hints())
    comm.barrier()
    t0 = now()
    wl.set_view(st["fh"], rank)
    comm.barrier()
    if rank0:
        ctl.set_view_s = now() - t0
    wl.begin_round(comm, ctl.fs, st, 0)
    for _ in range(wl.warm_calls):
        wl.write(st)
    comm.barrier()
    for _ in range(wl.warm_calls):
        wl.read(st)
        wl.verify_read(st)
    comm.barrier()
    if rank0:
        ctl.setup_end = now()
    if ctl.timed:
        rnd = 1
        plain = ctl.log.parts[0]
        for part in ctl.log.parts:
            if part.traced:
                comm.barrier()
                if rank0:
                    part.counts = plain.done
                    ctl.log.counters_before = _snapshot(ctl)
                    ctl.log.recorder.install()
                comm.barrier()
            rnd = _rounds(comm, ctl, st, part, rnd)
            if part.traced:
                comm.barrier()
                if rank0:
                    ctl.log.recorder.remove()
                    ctl.log.counters_after = _snapshot(ctl)
                comm.barrier()
    st["fh"].close()


def run_ranks(wl: RankWorkload, seconds: float, trace: bool,
              workdir: str) -> RunLog:
    from spans import SpanRecorder

    log = RunLog()
    wl.make_inputs()
    session = IOSession(f"perfbench-{wl.name}")
    if trace:
        log.parts = [Part(False, seconds / 4), Part(True, 0.0)]
        log.recorder = SpanRecorder()
    else:
        log.parts = [Part(False, seconds)]
    for i in range(SETUPS):
        timed = i == SETUPS - 1
        root = os.path.join(workdir, f"setup{i}")
        settle()
        t0 = now()
        fs = wl.spawn(root)
        log.spawn_s = now() - t0
        ctl = _Ctl(wl, fs, session, timed, log)
        try:
            run_spmd(wl.nranks, _rank_main, ctl, world_out=ctl.worlds,
                     session=session)
            if timed:
                log.peak_rss_mb = peak_rss_mb()
                wl.check_file(fs, ctl.states)
        finally:
            wl.close_fs(fs)
            shutil.rmtree(root, ignore_errors=True)
        log.setup.append(ctl.setup_end - t0)
        log.set_view_s = ctl.set_view_s
    return log


class CollSmall(RankWorkload):
    """Fig. 6 geometry at its smallest point: 4 ranks, 16 blocks of 8 B,
    contiguous memory, strided fileview.  Write ``g`` goes to access
    position ``g % ring``, so each write is at an offset no recent call
    used (the plan cache holds 32 plans) while the file stays bounded;
    reads go to the positions the round wrote."""

    name = "coll-small"
    nranks = 4
    sblock = 8
    nblock = 16
    round_calls = 20
    warm_calls = 8
    ring = 1000    # access positions (500 KiB of file)
    pool = 256     # distinct per-rank payloads

    def make_inputs(self):
        self.per_call = self.sblock * self.nblock
        self.data = random_bytes(self.seed, (self.nranks, self.pool,
                                             self.per_call), 1)

    def set_view(self, fh, rank):
        fh.set_view(0, dt.BYTE, build_noncontig_filetype(
            self.nranks, rank, self.sblock, self.nblock))

    def rank_state(self, rank):
        st = super().rank_state(rank)
        st["rbuf"] = np.zeros(self.per_call, np.uint8)
        st["nw"] = 0
        return st

    def begin_round(self, comm, fs, st, rnd):
        super().begin_round(comm, fs, st, rnd)
        st["base"] = st["nw"]

    def write(self, st):
        g = st["nw"]
        st["nw"] += 1
        st["fh"].write_at_all(g % self.ring * self.per_call,
                              self.data[st["rank"], g % self.pool])

    def read(self, st):
        g = st["base"] + st["rk"]
        st["rk"] += 1
        st["fh"].read_at_all(g % self.ring * self.per_call, st["rbuf"])
        st["read_at"] = g

    def verify_read(self, st):
        g = st["read_at"]
        expect_equal(st["rbuf"], self.data[st["rank"], g % self.pool],
                     f"rank {st['rank']} read of call {g}")

    def bytes_per_call(self):
        return self.nranks * self.per_call

    def expected_file(self, ncalls: int) -> np.ndarray:
        """File after writes ``0 .. ncalls-1``: position ``p`` holds the
        payload of the last write that went there."""
        npos = min(ncalls, self.ring)
        p = np.arange(npos)
        last = p + (ncalls - 1 - p) // self.ring * self.ring
        per = self.data[:, last % self.pool, :]
        blocks = per.reshape(self.nranks, npos, self.nblock, self.sblock)
        return blocks.transpose(1, 2, 0, 3).reshape(-1)

    def check_file(self, fs, states):
        expect_equal(fs.lookup(DATA_PATH).contents(),
                     self.expected_file(states[0]["nw"]), "coll-small file")


class IndepFine(RankWorkload):
    """Fig. 5: 2 ranks, 16384 blocks of 8 B, strided on both sides,
    independent calls (sieved read-modify-write under range locks).
    A round writes each of ``round_calls`` slots once, then reads them;
    slot ``k`` of round ``r`` holds data version ``(k + r) % versions``,
    so every round changes every slot's bytes."""

    name = "indep-fine"
    nranks = 2
    collective = False
    sblock = 8
    nblock = 16384
    round_calls = 64
    warm_calls = 8
    versions = 3

    def make_inputs(self):
        n = self.sblock * self.nblock
        self.per_call = n
        # Memory side: ``nblock`` blocks of ``sblock`` bytes at stride
        # ``2 * sblock`` (the Fig. 1 nc memtype); gap bytes are random
        # too and must never reach the file.
        self.mem_bytes = 2 * n
        self.wbuf = random_bytes(self.seed, (self.nranks, self.versions,
                                             self.mem_bytes), 2)
        self.mask = np.zeros(self.mem_bytes, bool)
        self.mask.reshape(-1, 2 * self.sblock)[:, :self.sblock] = True
        self.rimg = np.where(self.mask, self.wbuf, 0).astype(np.uint8)
        self.memtype = build_noncontig_memtype(self.sblock, self.nblock)

    def set_view(self, fh, rank):
        fh.set_view(0, dt.BYTE, build_noncontig_filetype(
            self.nranks, rank, self.sblock, self.nblock))

    def rank_state(self, rank):
        st = super().rank_state(rank)
        st["rbuf"] = np.zeros(self.mem_bytes, np.uint8)
        return st

    def write(self, st):
        k = st["wk"]
        st["wk"] += 1
        v = (k + st["round"]) % self.versions
        st["last"][k] = v
        st["fh"].write_at(k * self.per_call, self.wbuf[st["rank"], v], 1,
                          self.memtype)

    def read(self, st):
        k = st["rk"]
        st["rk"] += 1
        st["fh"].read_at(k * self.per_call, st["rbuf"], 1, self.memtype)
        st["read_at"] = k

    def verify_read(self, st):
        k = st["read_at"]
        expect_equal(st["rbuf"], self.rimg[st["rank"], st["last"][k]],
                     f"rank {st['rank']} read of slot {k}")

    def bytes_per_call(self):
        return self.per_call

    def expected_file(self, states) -> np.ndarray:
        slots = []
        for k in range(self.round_calls):
            per_rank = np.stack([
                self.wbuf[r, st["last"][k]][self.mask]
                for r, st in enumerate(states)])
            slots.append(interleave(per_rank, self.sblock))
        return np.concatenate(slots)

    def file_image(self, fs) -> np.ndarray:
        return fs.lookup(DATA_PATH).contents()

    def check_file(self, fs, states):
        expect_equal(self.file_image(fs), self.expected_file(states),
                     f"{self.name} file")


class IndepSharded(IndepFine):
    """The Fig. 5 pattern at 64 B blocks, data sieving off, shipped to
    two shard servers as compact datatypes (``ship_protocol=dtype``)."""

    name = "indep-sharded"
    sblock = 64
    nblock = 512
    round_calls = 8
    nshards = 2
    #: 4 KiB stripes: each 64 KiB slot spans 16 stripes, both shards
    stripe = 4096

    def __init__(self, seed, engine="listless", stripe=None):
        super().__init__(seed, engine)
        if stripe is not None:
            self.stripe = stripe

    def hints(self):
        return Hints(ship_protocol="dtype", ds_read=False, ds_write=False)

    def spawn(self, root):
        # The shard servers inherit the benchmark's CPU pin at fork, so
        # client and servers hand off on one CPU; across two CPUs every
        # request waited on waking the other, idle one.
        self.root = root
        return ShardedFileSystem(root, nshards=self.nshards,
                                 stripe_size=self.stripe)

    def counters(self, fs):
        f = fs.lookup(DATA_PATH)
        return {
            "wire_request_bytes": f.wire_totals()["request_bytes"],
            "wire_payload_bytes": [w["payload_bytes"] for w in f.wire],
        }

    def file_image(self, fs):
        images = []
        for k in range(self.nshards):
            path = os.path.join(self.root, f"shard{k}",
                                DATA_PATH.lstrip("/"))
            with open(path, "rb") as fh:
                images.append(np.frombuffer(fh.read(), np.uint8))
        size = self.round_calls * self.nranks * self.per_call
        return oracles.unstripe(images, self.stripe, size)

    def check_file(self, fs, states):
        # Every shard must have served both data writes and data reads.
        served = [fs.shard_counters(k) for k in range(self.nshards)]
        starved = [k for k, c in enumerate(served)
                   if not (c["bytes_written"] and c["bytes_read"])]
        if starved:
            raise Mismatch(f"shards {starved} served no data requests")
        super().check_file(fs, states)


class BtioA(RankWorkload):
    """BT-IO class A (64^3 grid, 10.5 MB a step) on 4 ranks.  A round is
    one BT-IO run: open a new real file, set the view, write
    ``round_calls`` steps at fresh offsets, read each back, close."""

    name = "btio-a"
    nranks = 4
    grid = 64
    round_calls = 4
    warm_calls = 2
    versions = 3
    cb_buffer_size = 1 << 20

    def make_inputs(self):
        q = int(round(self.nranks ** 0.5))
        self.step_doubles = self.grid ** 3 * oracles.BTIO_NCOMP
        # A rank's view holds 1/P of each step, so step ``k`` starts at
        # view offset ``k * step_doubles / P`` (in DOUBLE etypes).
        self.step_offset = self.step_doubles // self.nranks
        self.mem = [[None] * self.versions for _ in range(self.nranks)]
        for v in range(self.versions):
            g = oracles.btio_grid(self.seed, self.grid, v)
            for r in range(self.nranks):
                self.mem[r][v] = oracles.btio_membuf(g, r, q)
        self.types = [(build_process_filetype(self.grid, self.nranks, r),
                       build_process_memtype(self.grid, self.nranks, r))
                      for r in range(self.nranks)]

    def hints(self):
        return Hints(cb_buffer_size=self.cb_buffer_size)

    def spawn(self, root):
        return OsFileSystem(root)

    def set_view(self, fh, rank):
        fh.set_view(0, dt.DOUBLE, self.types[rank][0])

    def rank_state(self, rank):
        st = super().rank_state(rank)
        st["rbuf"] = np.zeros_like(self.mem[rank][0])
        st["path"] = DATA_PATH
        return st

    def begin_round(self, comm, fs, st, rnd):
        super().begin_round(comm, fs, st, rnd)
        if rnd == 0:
            return
        retire_handle(st)
        st["fh"].close()
        if comm.rank == 0:
            fs.unlink(st["path"])
        st["path"] = f"/btio-{rnd}.dat"
        st["fh"] = File.open(comm, fs, st["path"],
                             MODE_CREATE | MODE_RDWR, engine=self.engine,
                             hints=self.hints())
        self.set_view(st["fh"], comm.rank)
        st["last"] = {}

    def write(self, st):
        k = st["wk"]
        st["wk"] += 1
        v = (k + st["round"]) % self.versions
        st["last"][k] = v
        r = st["rank"]
        st["fh"].write_at_all(k * self.step_offset, self.mem[r][v], 1,
                              self.types[r][1])

    def read(self, st):
        k = st["rk"]
        st["rk"] += 1
        r = st["rank"]
        st["rbuf"].fill(0)
        st["fh"].read_at_all(k * self.step_offset, st["rbuf"], 1,
                             self.types[r][1])
        st["read_at"] = k

    def verify_read(self, st):
        k = st["read_at"]
        expect_equal(st["rbuf"], self.mem[st["rank"]][st["last"][k]],
                     f"rank {st['rank']} read of step {k}")

    def bytes_per_call(self):
        return self.step_doubles * 8

    def check_file(self, fs, states):
        st = states[0]
        fs.close()
        path = os.path.join(fs.root, st["path"].lstrip("/"))
        step = self.bytes_per_call()
        if os.path.getsize(path) != step * self.round_calls:
            raise Mismatch(f"btio-a file {st['path']}: "
                           f"{os.path.getsize(path)} bytes, expected "
                           f"{step * self.round_calls}")
        with open(path, "rb") as f:
            for k in range(self.round_calls):
                got = np.frombuffer(f.read(step), np.uint8)
                want = oracles.btio_grid(self.seed, self.grid,
                                         st["last"][k])
                expect_equal(got, want, f"btio-a file step {k}")


# ----------------------------------------------------------------------
class ServiceRW:
    """An IOP server with 2 thread workers and 4 tenants; each tenant
    keeps ``depth`` 64 KiB requests outstanding, alternating writes and
    reads over its own slots in 2 files.  Closed loop, one thread."""

    name = "service-rw"
    tenants = 4
    depth = 4
    req = 64 * 1024
    files = 2
    slots = 16          # per tenant, spread over the files
    pool = 32           # distinct 64 KiB payloads
    workers = 2
    #: bytes moved per throughput sample
    window_bytes = 32 << 20

    def __init__(self, seed, engine="listless", worker_delay=0.0):
        self.seed = seed
        self.worker_delay = worker_delay
        self.cpus = os.sched_getaffinity(0)

    def make_inputs(self):
        self.data = random_bytes(self.seed, (self.pool, self.req), 3)
        self.choice = oracles.rng(self.seed, 4).integers(
            0, self.pool, size=(self.tenants, 4096))

    def where(self, t, s):
        """(path, offset) of tenant ``t``'s slot ``s``."""
        per_file = self.slots // self.files
        return (f"/svc{s % self.files}.dat",
                (t * per_file + s // self.files) * self.req)

    def op(self, t, j):
        """Tenant ``t``'s ``j``-th operation: writes and reads alternate;
        a read targets the slot half a cycle away from the current
        write, so it is never in flight with a write to its slot."""
        half = self.slots // 2
        if j % 2 == 0:
            return "write", (j // 2) % self.slots
        return "read", (j // 2 + half) % self.slots

    def run(self, seconds: float, trace: bool, workdir: str) -> RunLog:
        from spans import SpanRecorder

        log = RunLog()
        self.make_inputs()
        if trace:
            log.recorder = SpanRecorder()
            log.parts = [Part(False, seconds / 4), Part(True, 0.0)]
        else:
            log.parts = [Part(False, seconds)]
        for i in range(SETUPS):
            settle()
            t0 = now()
            srv = IOPServer(workers=self.workers,
                            worker_delay=self.worker_delay)
            for t in range(self.tenants):
                srv.register_tenant(f"t{t}")
            srv.start()
            log.spawn_s = now() - t0
            try:
                clients = [ServiceClient(srv, f"t{t}")
                           for t in range(self.tenants)]
                last = [dict() for _ in range(self.tenants)]
                # Warm-up: every slot written once, so no read passes
                # the end of its file.
                for t, cl in enumerate(clients):
                    for s in range(self.slots):
                        path, off = self.where(t, s)
                        idx = int(self.choice[t][s])
                        cl.write(path, off, self.data[idx], timeout=60.0)
                        last[t][s] = idx
                log.setup.append(now() - t0)
                if i == SETUPS - 1:
                    self._timed(srv, clients, last, log)
                    log.peak_rss_mb = peak_rss_mb()
                    self._check_files(srv, last)
            finally:
                srv.stop()
        return log

    def _timed(self, srv, clients, last, log):
        nxt = [0] * self.tenants
        for part in log.parts:
            if part.traced:
                part.counts = log.parts[0].done
                log.counters_before = self._counters(srv)
                log.recorder.install()
            try:
                self._loop(clients, last, part, nxt, log)
            finally:
                if part.traced:
                    log.recorder.remove()
                    log.counters_after = self._counters(srv)

    def _loop(self, clients, last, part, nxt, log):
        """Keep ``depth`` requests outstanding per tenant until the
        deadline (plain pass) or ``part.counts`` posts (traced pass),
        then drain.  A slot with a request in flight gets no other."""
        settle()
        out = deque()
        busy = [set() for _ in range(self.tenants)]
        posted = 0
        deadline = now() + part.seconds
        t_start = now()

        def post_more():
            nonlocal posted
            for t, cl in enumerate(clients):
                while len(busy[t]) < self.depth:
                    if part.counts is not None:
                        if posted >= part.counts:
                            return
                    elif now() >= deadline:
                        return
                    kind, s = self.op(t, nxt[t])
                    if s in busy[t]:
                        break
                    path, off = self.where(t, s)
                    idx = int(self.choice[t][nxt[t] % self.choice.shape[1]])
                    posted += 1
                    nxt[t] += 1
                    try:
                        if kind == "write":
                            req = cl.iwrite(path, off, self.data[idx])
                        else:
                            req = cl.iread(path, off, self.req)
                    except ServiceQueueFull:
                        log.failed += 1
                        continue
                    busy[t].add(s)
                    out.append((t, kind, s, idx, req))

        window = [t_start, 0, 0]     # start, bytes written, bytes read

        post_more()
        while out:
            if window[1] + window[2] >= self.window_bytes:
                t = now()
                part.rate["write"].append(window[1] / (t - window[0]) / MB)
                part.rate["read"].append(window[2] / (t - window[0]) / MB)
                window[:] = [t, 0, 0]
            t, kind, s, idx, req = out.popleft()
            try:
                got = req.wait(60.0)
            except ServiceError:
                log.failed += 1
            else:
                part.lat[kind].append(req.latency)
                part.ops[kind] += 1
                part.nbytes[kind] += self.req
                window[1 if kind == "write" else 2] += self.req
                if kind == "write":
                    last[t][s] = idx
                else:
                    expect_equal(got, self.data[last[t][s]],
                                 f"tenant {t} read of slot {s}")
            busy[t].discard(s)
            post_more()
        part.wall = now() - t_start
        part.busy = {"write": part.wall, "read": part.wall}
        part.done = posted

    def _counters(self, srv) -> dict:
        """Server counters plus the plan, block-program and file
        counters of the server-side handles (the server's session)."""
        snap = srv.metrics_snapshot()
        eng = [e["counters"] for e in snap["engines"]]
        files = [f["counters"] for f in snap["files"]]
        return {
            "requests_executed": snap["server"]["requests_executed"],
            "file_accesses": snap["server"]["file_accesses"],
            "plan_cache_hits": sum(e["plan_cache_hits"] for e in eng),
            "plan_cache_misses": sum(e["plan_cache_misses"] for e in eng),
            "peak_staging_bytes": max(
                (e["peak_staging_bytes"] for e in eng), default=0),
            "blockprog_hits": snap["global"]["blockprog_hits"],
            "blockprog_misses": snap["global"]["blockprog_misses"],
            "fs_ops": sum(f["n_reads"] + f["n_writes"] for f in files),
            "fs_bytes": sum(f["bytes_read"] + f["bytes_written"]
                            for f in files),
        }

    def _check_files(self, srv, last):
        per_file = self.slots // self.files
        for f in range(self.files):
            want = np.zeros((self.tenants, per_file, self.req), np.uint8)
            for t in range(self.tenants):
                for s in range(f, self.slots, self.files):
                    want[t, s // self.files] = self.data[last[t][s]]
            got = srv.fs.lookup(f"/svc{f}.dat").contents()
            expect_equal(got, want, f"service file /svc{f}.dat")


WORKLOADS = {
    cls.name: cls
    for cls in (BtioA, CollSmall, IndepFine, IndepSharded, ServiceRW)
}


