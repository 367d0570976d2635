"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload indep-fine --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced pass (see README.md).  The lines before it are for
people: ungated figures such as the tail latency and sample count.
Exit status 0 means the run completed and every output matched its
oracle; 1 means an output was wrong; 2 means the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")


def _import_program():
    """Put the checkout's ``src/`` first on the path and import
    ``repro`` from it; exit 2 when the checkout has no program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        sys.exit(2)
    # The program reads these at import and open; a run must not
    # depend on the caller's environment.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        sys.exit(2)


def _short_tmpdir(workdir: str) -> str:
    """Temporary directory for the run's unix sockets: inside the
    checkout, relative when the absolute path would pass the ~100
    character socket-path limit."""
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    if len(tmp) > 60:
        tmp = os.path.relpath(tmp)
    return tmp


def run_workload(wl, seconds: float, trace: bool):
    """Run ``wl`` on its CPUs in a fresh work directory inside the
    checkout (temporary files and sockets included), removed after."""
    import tempfile

    import harness

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK)
    tempfile.tempdir = _short_tmpdir(workdir)
    # Every workload runs pinned to one CPU: rank threads share one
    # interpreter lock, and handing it between CPUs was most of the
    # run-to-run spread (see README.md).
    cpu = harness.pin_to_one_cpu()
    try:
        log = wl.run(seconds, trace, workdir)
    finally:
        os.sched_setaffinity(0, wl.cpus)
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    log.info["cpu_pinned"] = cpu
    return log


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--engine", default="listless",
                    help="listless (default) or list_based, the paper's "
                         "baseline; list_based figures are reference only")
    args = ap.parse_args(argv)

    _import_program()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, engine=args.engine)
    try:
        log = run_workload(wl, args.seconds, bool(args.trace))
    except AssertionError:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1

    if args.trace:
        metrics = harness.per_layer(log, getattr(wl, "nranks", 1))
        spans = os.path.join(WORK, f"spans-{args.workload}.jsonl")
        log.recorder.dump(spans)
        log.info["spans"] = os.path.relpath(spans, ROOT)
    else:
        metrics = harness.end_to_end(log)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:34s} {value:14.6g} {unit}")
    print("info " + json.dumps(log.info, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": log.attempted(),
        "failed": log.failed,
        "metrics": {name: {"value": float(v), "unit": u}
                    for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
