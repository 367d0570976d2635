"""Show that no check of the benchmark passes vacuously.

    python3 perfbench/selfcheck.py

For every workload, one byte of the program's output is flipped, once
in a buffer a read returned and once in the file the run leaves; each
time the oracle must reject the run.  ``indep-sharded`` must also
reject a run whose stripe puts the whole file on one shard, and
``service-rw`` must report a lower ``write_mbps`` when the server's
``worker_delay`` adds device latency to every access, which shows the
metric is not fixed by the offered load.  Prints one line per check and
exits 1 if any check fails.
"""

from __future__ import annotations

import os
import sys

import numpy as np

import run

SECONDS = 1.0
SEED = 7


def flip_file_byte(wl, fs, states) -> None:
    """Flip one byte of the data file the run leaves behind."""
    from workloads import DATA_PATH

    if wl.name == "btio-a":
        path = os.path.join(fs.root, states[0]["path"].lstrip("/"))
    elif wl.name == "indep-sharded":
        path = os.path.join(wl.root, "shard1", DATA_PATH.lstrip("/"))
    else:
        f = fs.lookup(DATA_PATH)
        b = f.pread(100, 1)
        f.pwrite(100, b ^ np.uint8(1))
        return
    with open(path, "r+b") as fh:
        fh.seek(100)
        b = fh.read(1)
        fh.seek(100)
        fh.write(bytes([b[0] ^ 1]))


def corrupted(cls, where: str):
    """``cls`` with one byte of its output flipped at ``where``
    (``read`` or ``file``)."""

    class Corrupted(cls):
        def verify_read(self, st):
            if where == "read" and not getattr(self, "_flipped", False):
                self._flipped = True
                st["rbuf"].view(np.uint8).reshape(-1)[
                    st["rbuf"].nbytes // 2] ^= 1
            super().verify_read(st)

        def check_file(self, fs, states):
            if where == "file":
                flip_file_byte(self, fs, states)
            super().check_file(fs, states)

    return Corrupted


def corrupted_service(where: str):
    """``service-rw`` with one byte flipped in a read tenant 0 gets
    back (``read``) or in a file (``file``)."""
    from workloads import ServiceRW

    class Corrupted(ServiceRW):
        def _loop(self, clients, last, part, nxt, log):
            if where == "read":
                orig = clients[0].iread

                def iread(path, off, n):
                    clients[0].iread = orig
                    req = orig(path, off, n)
                    req.wait(60.0)[0] ^= 1
                    return req

                clients[0].iread = iread
            super()._loop(clients, last, part, nxt, log)

        def _check_files(self, srv, last):
            if where == "file":
                f = srv.fs.lookup("/svc0.dat")
                b = f.pread(100, 1)
                f.pwrite(100, b ^ np.uint8(1))
            super()._check_files(srv, last)

    return Corrupted


def rejects(make) -> bool:
    try:
        run.run_workload(make(), SECONDS, False)
    except AssertionError as exc:
        print(f"    rejected: {str(exc).splitlines()[0]}")
        return True
    return False


def main() -> int:
    run._import_program()
    import harness
    from workloads import WORKLOADS, IndepSharded, ServiceRW

    ok = True

    def report(name, passed):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}", flush=True)

    for name, cls in WORKLOADS.items():
        for where in ("read", "file"):
            if cls is ServiceRW:
                make = corrupted_service(where)
            else:
                make = corrupted(cls, where)
            report(f"{name}: one flipped byte in a {where} is rejected",
                   rejects(lambda: make(SEED)))
    report("indep-sharded: a shard that serves nothing is rejected",
           rejects(lambda: IndepSharded(SEED, stripe=1 << 20)))

    rates = {}
    for delay in (0.0, 0.002):
        log = run.run_workload(ServiceRW(SEED, worker_delay=delay),
                               SECONDS * 2, False)
        rates[delay] = harness.end_to_end(log)["write_mbps"][0]
        print(f"    service-rw worker_delay={delay}: "
              f"write_mbps={rates[delay]:.1f}")
    report("service-rw: worker_delay lowers write_mbps",
           rates[0.002] < 0.8 * rates[0.0])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
