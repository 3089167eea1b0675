"""One benchmark process: set up a workload, then run it as a closed loop.

Started by ``run.py`` with the repository root as working directory::

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

It imports qplane, builds the seeded inputs and warms up, then prints
``READY`` and waits for one line on stdin: ``exit`` ends it there (a
set-up-time sample), ``run`` starts the timed loop.  One client runs the
round's tasks back to back; only ``task.run()`` is inside the timer, the
reference check of each output follows outside it.  The result is one
JSON line on the protocol stream; everything else goes to stderr.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

MIN_TASKS = 100  # so that at least 10 samples lie beyond the 90th percentile
WALL_CAP_S = 110.0  # no new round starts after this much wall time
CALIBRATION_LOOP = 20_000  # iterations: about 1.5-2.5 ms on a 2-vCPU x86-64 VM


@dataclass
class Context:
    workdir: Path
    env: dict
    tracer: object = None
    traced: bool = False
    task_id: int = 0
    span_files: list = field(default_factory=list)

    def run_cli(self, argv):
        """One CLI call as a subprocess, as a user would make it."""
        if self.traced:
            out = self.workdir / "spans" / f"{self.task_id}.npz"
            cmd = [sys.executable, "perfbench/cli_shim.py", str(out), str(self.task_id), *argv]
            self.span_files.append(out)
        else:
            cmd = [sys.executable, "-m", "qplane.cli", *argv]
        return subprocess.run(cmd, env=self.env, capture_output=True, timeout=60)


def facts(trace: bool) -> dict:
    import importlib.util

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba": "absent" if importlib.util.find_spec("numba") is None else "present",
        "clients": 1,
        "loop": "closed",
        "machine_tracing": "none; spans come from wrappers in this process only",
        "traced": trace,
    }


def blas_threads():
    """Thread count OpenBLAS reports at run time, if it can be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fp:
        libs = sorted({line.split()[-1] for line in fp if "openblas" in line and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run_task(task, ctx, traced):
    """Time one task, then check its output.

    Returns the task's latency, the mean of the calibration loop's time
    just before and just after it, the error if it failed, and whether
    the error is a wrong answer.
    """
    from workloads import Failed, Wrong

    before = calibration_s()
    if traced:
        ctx.tracer.task_id = ctx.task_id
        ctx.tracer.resume()
    start = time.perf_counter()
    try:
        out = task.run()
        error = None
    except Exception as exc:  # the task failed; record it and keep going
        out, error = None, f"{task.kind}: raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if traced:
        ctx.tracer.pause()
    calibration = (before + calibration_s()) / 2
    wrong = False
    if error is None:
        try:
            task.check(out)
        except Wrong as exc:
            error, wrong = str(exc), True
        except Failed as exc:
            error = str(exc)
    ctx.task_id += 1
    return elapsed, calibration, error, wrong


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop that never touches qplane.

    It runs just before and just after each task, outside the task's
    timer, so that ``run.py`` can tell the machine's speed at that moment
    apart from the task's own cost.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i
    return time.perf_counter() - start


def interpreter_s(env: dict, repeats: int = 5) -> float:
    """Median wall time of a fresh ``python -c pass``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cli_import_s(env: dict, repeats: int = 5) -> float:
    """Median time a fresh interpreter spends in ``import qplane.cli``."""
    code = ("import time; t = time.perf_counter(); import qplane.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, timeout=60).stdout)
        for _ in range(repeats)
    )


def main() -> int:
    workload, seed, seconds, trace, workdir = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    proto = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr  # library prints must not reach the protocol stream
    sys.path.insert(0, "tests")  # tests/oracles.py, the suite's brute-force references

    phases = {}
    t0 = time.perf_counter()
    import qplane  # noqa: F401

    import workloads

    phases["import_s"] = time.perf_counter() - t0
    ctx = Context(Path(workdir), dict(os.environ))
    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[workload](seed, ctx)
    phases["inputs_s"] = time.perf_counter() - t1
    t2 = time.perf_counter()
    wl.warmup()
    phases["warmup_s"] = time.perf_counter() - t2

    proto.write("READY\n")
    proto.flush()
    if sys.stdin.readline().strip() != "run":
        return 0

    result = {"phases": phases, "facts": facts(trace)}
    if trace:
        import tracer as tracing

        ctx.tracer = tracing.Tracer()
        (ctx.workdir / "spans").mkdir(parents=True, exist_ok=True)
        if workload != "cli":
            tracing.install(ctx.tracer)
            ctx.tracer.pause()
        result["cli_interp_s"] = interpreter_s(ctx.env)
        result["cli_import_s"] = cli_import_s(ctx.env)

    rng = random.Random(seed)
    by_kind: dict[str, list[float]] = {}
    traced_by_kind: dict[str, list[float]] = {}
    # untraced (latency, calibration) samples, per task; a task keeps one fixed input
    by_task: list[list[tuple[float, float]]] = [[] for _ in wl.tasks]
    attempted = failed = wrong = 0
    errors: dict[str, int] = {}  # message -> occurrences
    rounds = {"untraced": 0, "traced": 0}
    timed = 0.0
    loop_start = time.perf_counter()
    while True:
        # untraced rounds only, or untraced/traced pairs when tracing
        for traced in ((False, True) if trace else (False,)):
            order = list(range(len(wl.tasks)))
            rng.shuffle(order)
            ctx.traced = traced
            target = traced_by_kind if traced else by_kind
            for index in order:
                task = wl.tasks[index]
                elapsed, calibration, error, is_wrong = run_task(task, ctx, traced)
                timed += elapsed
                target.setdefault(task.kind, []).append(elapsed)
                if not traced:
                    by_task[index].append((elapsed, calibration))
                attempted += 1
                if error is not None:
                    failed += 1
                    wrong += is_wrong
                    errors[error] = errors.get(error, 0) + 1
            rounds["traced" if traced else "untraced"] += 1
        samples = sum(len(v) for v in by_kind.values())
        if time.perf_counter() - loop_start > WALL_CAP_S:
            break
        if timed >= seconds and (trace or samples >= MIN_TASKS):
            break

    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    result.update(
        attempted=attempted, failed=failed, wrong=wrong, errors=errors,
        rounds=rounds, latencies=by_kind, traced_latencies=traced_by_kind,
        task_latencies=by_task,
        peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0,
    )
    if trace:
        result["spans"] = finish_trace(ctx, workload, seed)
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


def finish_trace(ctx: Context, workload: str, seed: int) -> dict:
    """Summarize the spans and write them all out, now that the run ended."""
    import tracer as tracing

    sets = [(ctx.tracer.names, ctx.tracer.arrays(), dict(ctx.tracer.counts))]
    sets += [tracing.load(path) for path in ctx.span_files]
    names, spans, counts = tracing.merge(sets)
    out = Path(".perfbench_out")
    out.mkdir(exist_ok=True)
    tracing.save(out / f"trace-{workload}-seed{seed}.npz", names, spans, counts)
    return {"layers": tracing.summarize(names, spans), "counts": counts,
            "span_count": int(spans["name"].size)}


if __name__ == "__main__":
    sys.exit(main())
