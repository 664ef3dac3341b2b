"""Benchmark entry point: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload {build,churn} --seed N \
        --seconds S --trace {0,1}

Runs from any working directory. The repository root is the parent of this
file's directory; it is put on ``sys.path`` and on the ``PYTHONPATH`` the Ray
workers inherit, so tasks can import ``engine``. Every run creates its own
corpora, indexes and Ray session under ``<root>/.perfbench_work/<pid>`` and
``<root>/.pbray/<pid>`` and deletes them on exit, so no run sees or removes
another run's files.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it carries details (sample counts, the tail
percentile, the traced run's end-to-end figures).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
RAY_ROOT = os.path.join(ROOT, ".pbray")
WORK = os.path.join(WORK_ROOT, str(os.getpid()))
RAY_TEMP = os.path.join(RAY_ROOT, str(os.getpid()))
OUT = os.path.join(ROOT, ".perfbench_out")
#: AF_UNIX socket paths are capped at 107 bytes; Ray appends up to about 67
#: characters (session directory + socket name) to its temp dir
_MAX_RAY_TEMP_LEN = 40


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("build", "churn"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (tests only; not a benchmark setting)")
    return p.parse_args(argv)


def _nproc() -> int:
    """CPUs as ``nproc`` reports them (it honours ``OMP_NUM_THREADS``)."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def _start_ray(ncpu: int):
    import logging

    import ray

    kw = {}
    if len(RAY_TEMP) <= _MAX_RAY_TEMP_LEN:
        kw["_temp_dir"] = RAY_TEMP
    else:
        print("perfbench: checkout path too long for Ray sockets; Ray uses "
              "its default temp dir", file=sys.stderr)
    ray.init(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        **kw,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def _stop_ray() -> None:
    """Shut Ray down and wait until every process this run started has
    ended (Ray's head processes are children of this process; its workers are
    children of the raylet)."""
    import ray

    from perfbench import procs

    kids = procs.descendants()
    ray.shutdown()
    deadline = time.monotonic() + 15
    while any(map(procs.alive, kids)) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in filter(procs.alive, kids):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while any(map(procs.alive, kids)) and time.monotonic() < deadline + 10:
        time.sleep(0.1)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, ROOT)
    try:
        import engine  # noqa: F401  (the program under test must be present)
    except ImportError as e:
        print(f"perfbench: cannot import the engine package from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    from perfbench import workloads
    from perfbench.trace import Tracer

    for d in (WORK, RAY_TEMP):
        shutil.rmtree(d, ignore_errors=True)  # left by a killed run with this pid
    os.makedirs(WORK)
    ncpu = _nproc()
    tracer = Tracer(enabled=bool(args.trace))
    run = workloads.Run(
        seed=args.seed, seconds=args.seconds, work=WORK, tracer=tracer,
        sizes=workloads.TINY if args.tiny else workloads.SIZES,
    )
    try:
        with tracer.span("ray.init"):
            _start_ray(ncpu)
        try:
            workloads.WORKLOADS[args.workload](run)
            result = run.result(trace=bool(args.trace))
        finally:
            run.mark("checked")
            _stop_ray()
            run.mark("ray_stopped")
    finally:
        for d, parent in ((WORK, WORK_ROOT), (RAY_TEMP, RAY_ROOT)):
            shutil.rmtree(d, ignore_errors=True)
            try:
                os.rmdir(parent)
            except OSError:
                pass  # another run's directory is still there
    detail = dict(run.detail, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, num_cpus=ncpu)
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, detail=detail, per_layer=result["metrics"])
        detail["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
