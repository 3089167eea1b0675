#!/usr/bin/env python3
"""qplane's benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qplane checkout; it reads only the checkout
and writes only ``.perfbench_work/`` (removed at the end) and, when
tracing, ``.perfbench_out/trace-<workload>-seed<N>.npz``.

Set-up is timed from outside: a fresh worker process (``worker.py``) is
started and the clock stops when it reports ready, i.e. after the
interpreter, ``import qplane``, input generation and warm-up.  This is
repeated and the median reported.  The last worker then runs the
workload as a closed loop with one client and checks every output
against an independent reference outside the timed region.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a run that alternates untraced and traced rounds.
Lines before the last one are ``#`` notes: machine facts, set-up
phases, sample counts, per-task-kind medians and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("algebra", "geometry", "cli")
SETUP_SAMPLES = 5
BLAS_THREADS = "1"  # one client on a 2-core machine; see README.md
DEADLINE_S = 170.0
CALIBRATION_REF_S = 1.5e-3  # the calibration loop's time on a quiet 2-vCPU x86-64 VM
SUBCOMMANDS = (
    "mul", "pow", "decompose", "norm", "decay", "twist", "qhull", "spiral",
    "modelpair", "calc", "specmap", "koszul", "scan",
)

BUSY = [
    "accel.qmul_full", "accel.qpow_formula", "qalgebra.qmul", "qalgebra.qpow",
    "qalgebra.decay_profile", "qalgebra.log_shifted", "qalgebra.decompose",
    "qalgebra.twist", "qalgebra.seminorm", "qalgebra.p_seminorm", "qalgebra.spec_eval",
    "holo.eval_matrix", "holo.eval", "opcalc.model_pair", "opcalc.calc",
    "opcalc.eigenvalues", "opcalc.pair_eigenvalues", "opcalc.spectral_mapping_check",
    "koszul.build", "koszul.composite_defect", "koszul.homology_dims",
    "koszul.spectrum_scan", "qtopology.QHull.contains", "qtopology.spiral_neighborhood",
    "qtopology.is_q_spiraling", "fileio.read", "fileio.write", "cli.main", "cli.command",
]
CALLS = ["accel.qmul_full", "accel.qpow_formula", "qalgebra.qmul", "koszul.build",
         "qtopology.QHull.contains"]


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def start_worker(args, workdir: Path, env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "perfbench/worker.py", args.workload, str(args.seed),
         str(args.seconds), str(args.trace), str(workdir)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )


def wait_ready(proc: subprocess.Popen, timeout: float) -> bool:
    ready, _, _ = select.select([proc.stdout], [], [], max(timeout, 0.0))
    return bool(ready) and proc.stdout.readline().strip() == "READY"


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def percentiles(latencies: list[float]) -> tuple[float, float]:
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]


def task_means(result: dict) -> tuple[list[float], list[float]]:
    """Each task's mean latency over the run's rounds: adjusted, and as timed.

    On a shared 2-vCPU virtual machine the speed of the same code swings
    by up to 2x, for seconds to minutes at a time: the fixed loop of
    ``worker.calibration_s`` took 1.3 to 2.5 ms, and ten 20-second runs
    of one workload spread by a quarter to a third of their median.  So
    every task latency is also divided by the loop's time around it
    (before and after, averaged) and multiplied by ``CALIBRATION_REF_S``:
    the task's latency on a machine where the loop takes that long.  The
    timed values are printed in the notes.
    """
    adjusted = [
        statistics.fmean(t * CALIBRATION_REF_S / c for t, c in samples)
        for samples in result["task_latencies"]
    ]
    timed = [statistics.fmean(t for t, _ in samples) for samples in result["task_latencies"]]
    return adjusted, timed


def end_to_end(result: dict, setups: list[float]) -> dict:
    means, _ = task_means(result)
    attempted = result["attempted"]
    p50, p90 = percentiles(means)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (len(means) / sum(means), "1/s"),
        "task_p50_ms": (p50 * 1e3, "ms"),
        "task_p90_ms": (p90 * 1e3, "ms"),
        "ok_ratio": ((attempted - result["failed"]) / attempted, "ok/attempted"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def per_layer(result: dict) -> dict:
    layers = result["spans"]["layers"]
    counts = result["spans"]["counts"]
    rounds = result["rounds"]["traced"]

    def layer(name, key):
        return layers.get(name, {}).get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in BUSY:
        m[f"{name}.busy_s"] = (layer(name, "busy_s") / rounds, "s")
    for name in CALLS:
        m[f"{name}.calls"] = (layer(name, "calls") / rounds, "count")
    m["accel.qmul_full.cells_computed"] = (
        counts.get("accel.qmul_full.cells_computed", 0.0) / rounds, "count")
    m["accel.qpow_formula.tuples"] = (
        counts.get("accel.qpow_formula.tuples", 0.0) / rounds, "count")
    m["qalgebra.qmul.kept_ratio"] = (ratio(
        counts.get("qalgebra.qmul.cells_kept", 0.0),
        counts.get("qalgebra.qmul.cells_computed", 0.0)), "ratio")
    for n in (8, 64):
        m[f"koszul.spectrum_scan.n{n}.us_per_point"] = (1e6 * ratio(
            counts.get(f"koszul.spectrum_scan.n{n}.seconds", 0.0),
            counts.get(f"koszul.spectrum_scan.n{n}.points", 0.0)), "us")
    m["koszul.spectrum_scan.error_rows"] = (
        counts.get("koszul.spectrum_scan.error_rows", 0.0) / rounds, "count")
    m["qtopology.QHull.contains.us_per_call"] = (1e6 * ratio(
        layer("qtopology.QHull.contains", "incl_s"),
        layer("qtopology.QHull.contains", "calls")), "us")
    draws = counts.get("qtopology.is_q_spiraling.draws", 0.0)
    m["qtopology.is_q_spiraling.draws"] = (draws / rounds, "count")
    for key in ("qtopology.is_q_spiraling", "qtopology.is_q_spiraling.QHull"):
        m[f"{key}.accept_ratio"] = (ratio(
            counts.get(f"{key}.accepted", 0.0), counts.get(f"{key}.draws", 0.0)), "ratio")
    m["qtopology.is_q_spiraling.budget_exhausted"] = (
        counts.get("qtopology.is_q_spiraling.budget_exhausted", 0.0) / rounds, "count")
    m["cli.interp_s"] = (result["cli_interp_s"], "s")
    m["cli.import_s"] = (result["cli_import_s"], "s")
    for sub in SUBCOMMANDS:
        times = result["latencies"].get(sub)
        m[f"cli.{sub}.p50_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")

    def rate(by_kind):
        lat = [x for values in by_kind.values() for x in values]
        return len(lat) / sum(lat)

    m["trace.overhead_pct"] = (
        100.0 * (1.0 - rate(result["traced_latencies"]) / rate(result["latencies"])), "%")
    m["trace.spans"] = (result["spans"]["span_count"] / rounds, "count")
    m["trace.raised"] = (
        sum(v["raised"] for v in layers.values()) / rounds, "count")
    return m


def notes(result: dict, setups: list[float]) -> list[str]:
    kinds = {
        kind: {"n": len(v), "p50_ms": round(statistics.median(v) * 1e3, 3)}
        for kind, v in sorted(result["latencies"].items())
    }
    lat = [x for v in result["latencies"].values() for x in v]
    p50, p90 = percentiles(lat)
    _, timed = task_means(result)
    timed_p50, timed_p90 = percentiles(timed)
    calibration = [c for samples in result["task_latencies"] for _, c in samples]
    return [
        "machine " + json.dumps(result["facts"]),
        "setup " + json.dumps({"samples_s": setups, "last_worker_phases_s": result["phases"]}),
        "loop " + json.dumps({"rounds": result["rounds"], "attempted": result["attempted"],
                              "failed": result["failed"], "wrong": result["wrong"],
                              "samples": len(lat), "tasks_per_round": len(result["task_latencies"]),
                              "sample_p50_ms": p50 * 1e3, "sample_p90_ms": p90 * 1e3}),
        "timed " + json.dumps({"tasks_per_s": len(timed) / sum(timed),
                               "task_p50_ms": timed_p50 * 1e3, "task_p90_ms": timed_p90 * 1e3,
                               "calibration_ms": {"min": min(calibration) * 1e3,
                                                  "median": statistics.median(calibration) * 1e3,
                                                  "max": max(calibration) * 1e3}}),
        "kinds " + json.dumps(kinds),
        *(f"failure x{n} {e}" for e, n in result["errors"].items()),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    for needed in ("src/qplane/__init__.py", "scripts/generate_inputs.py", "tests/oracles.py"):
        if not (root / needed).is_file():
            return fail(f"{needed} not found: run from the root of a qplane checkout")

    started = time.perf_counter()
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS

    setups: list[float] = []
    proc = None
    try:
        for i in range(1 if args.trace else SETUP_SAMPLES):
            t0 = time.perf_counter()
            proc = start_worker(args, workdir, env)
            if not wait_ready(proc, DEADLINE_S - (t0 - started)):
                return fail("worker did not finish set-up")
            setups.append(time.perf_counter() - t0)
            last = i == (0 if args.trace else SETUP_SAMPLES - 1)
            if not last:
                proc.stdin.write("exit\n")
                proc.stdin.close()
                if proc.wait(timeout=30) != 0:
                    return fail("set-up worker failed")
        remaining = DEADLINE_S - (time.perf_counter() - started)
        out, _ = proc.communicate("run\n", timeout=max(remaining, 1.0))
        if proc.returncode != 0 or not out.strip():
            return fail(f"worker exited with {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        return fail("run exceeded its deadline")
    finally:
        if proc is not None:
            stop(proc)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it

    metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    for line in notes(result, setups):
        print("# " + line)
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
