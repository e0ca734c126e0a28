"""szegolab benchmark: one workload, closed loop, fresh process per job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs batch jobs of the workload one after another (a closed loop with one
client) for about S seconds, checks every job's output, and prints one JSON
object as the last line of standard output.  With ``--trace 0`` it reports
the end-to-end metrics as medians over the run's jobs; with ``--trace 1``
every other job is traced and the per-layer metrics come from the traced
jobs' spans.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")

from layers import LAYER_METRICS, OVERHEAD_METRIC, layer_metrics  # noqa: E402
from workloads import (WORKLOADS, Workload, check, headline, job_seed,  # noqa: E402
                       load_reference)

SETUP_PROBES = 5        # set-up only jobs per untraced run, for a steadier setup_s
MIN_JOBS = 2            # full jobs per run, even when the second overruns --seconds
JOB_TIMEOUT = 150.0     # seconds; a job still running then is killed and fails

END_TO_END = {           # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS",
            "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _blas_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS reports, read without changing it."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _mem_total_mb() -> Optional[float]:
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(wl: Workload) -> Dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": _mem_total_mb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {"effective": _blas_threads(),
                         "env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ}},
        "workers": wl.workers(ROOT),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# one job
# ---------------------------------------------------------------------------

def launch(wl: Workload, seed: int, mode: str, job_dir: str) -> Dict:
    """Run one job in a fresh process and return its measurements."""
    os.makedirs(job_dir)
    out_dir = os.path.join(job_dir, "out")
    report_path = os.path.join(job_dir, "report.json")
    argv = [sys.executable, JOB, wl.name, str(seed), out_dir, report_path]
    if mode != "plain":
        argv.append("--" + mode)
    done = threading.Event()
    with open(os.path.join(job_dir, "log.txt"), "w", encoding="utf-8") as log:
        t_launch = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)

        def watchdog():
            if not done.wait(JOB_TIMEOUT):
                os.kill(proc.pid, signal.SIGKILL)
        dog = threading.Thread(target=watchdog, daemon=True)
        dog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            done.set()
            dog.join()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    job = {"seed": seed, "mode": mode, "rc": proc.returncode,
           "t_launch": t_launch, "t_exit": t_exit, "wall_s": t_exit - t_launch,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "problems": []}
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        job["problems"].append(f"no job report: {exc}")
        return job
    job["items"] = report["items"]
    job["spans"] = report.get("spans")
    job["missing_hooks"] = report.get("missing_hooks", [])
    if report["t_first_item"] is not None:
        job["setup_s"] = report["t_first_item"] - t_launch
    else:
        job["problems"].append("job ended before its first sample")
    if proc.returncode != 0:
        job["problems"].append(f"exit code {proc.returncode}")
    elif mode != "probe":
        job["report"] = report
        job["out_dir"] = out_dir
    return job


def check_job(wl: Workload, job: Dict, reference: Dict) -> None:
    """Append to ``job['problems']`` whatever is wrong with its output."""
    if job["problems"] or job["mode"] == "probe":
        return
    try:
        values = headline(wl, job["out_dir"], job["report"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        job["problems"].append(f"unreadable output: {exc!r}")
        return
    job["headline"] = values
    ref = reference if job["seed"] == wl.ref_seed else None
    job["problems"].extend(check(wl, values, ref))


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(wl: Workload, seed: int, seconds: float, trace: bool, work: str) -> Dict:
    reference = load_reference(wl)
    t0 = time.monotonic()
    jobs: List[Dict] = []
    if not trace:
        for i in range(SETUP_PROBES):
            jobs.append(launch(wl, job_seed(wl, seed, 100 + i), "probe",
                               os.path.join(work, f"probe{i}")))
    k, walls = 0, []
    while True:
        mode = "trace" if trace and k % 2 == 1 else "plain"
        job = launch(wl, job_seed(wl, seed, k), mode, os.path.join(work, f"job{k}"))
        jobs.append(job)
        walls.append(job["wall_s"])
        k += 1
        if k >= MIN_JOBS and time.monotonic() - t0 + statistics.median(walls) > seconds:
            break
    for job in jobs:
        check_job(wl, job, reference)
        tag = f"{job['mode']:5s} seed {job['seed']:>6d}"
        print(f"job {tag} wall {job['wall_s']:.3f} s setup "
              f"{job.get('setup_s', float('nan')):.3f} s cpu {job['cpu_s']:.2f} s "
              f"rss {job['peak_rss_mb']:.0f} MB {job.get('headline', '')} "
              f"{'; '.join(job['problems']) or 'ok'}")
    return {"jobs": jobs, "seconds_used": time.monotonic() - t0}


def end_to_end(jobs: List[Dict]) -> Dict[str, float]:
    full = [j for j in jobs if j["mode"] == "plain" and not j["problems"]]
    setups = [j["setup_s"] for j in jobs if "setup_s" in j and not j["problems"]]
    if not full or not setups:
        return {}
    med = lambda key: statistics.median(j[key] for j in full)  # noqa: E731
    return {
        "wall_s": med("wall_s"),
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(j["items"] / (j["wall_s"] - j["setup_s"])
                                         for j in full),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def per_layer(wl: Workload, jobs: List[Dict]):
    traced = [j for j in jobs if j["mode"] == "trace" and not j["problems"]]
    plain = [j for j in jobs if j["mode"] == "plain" and not j["problems"]]
    if not traced or not plain:
        return {}, sorted(LAYER_METRICS), []
    per_job, unobserved = [], set()
    for j in traced:
        values, missing = layer_metrics(j["spans"], j, wl.layers)
        per_job.append(values)
        unobserved.update(missing)
    metrics = {name: statistics.median(v[name] for v in per_job)
               for name in LAYER_METRICS if name not in unobserved}
    metrics[OVERHEAD_METRIC[0]] = (statistics.median(j["wall_s"] for j in traced)
                                   / statistics.median(j["wall_s"] for j in plain) - 1.0)
    hooks = sorted({h for j in traced for h in j["missing_hooks"]})
    return metrics, sorted(unobserved), hooks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    # a terminated run still stops its job (see launch) and removes its work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    needed = [os.path.join(ROOT, "src", "szegolab", "__init__.py")]
    if wl.config:
        needed.append(os.path.join(ROOT, wl.config))
    absent = [p for p in needed if not os.path.exists(p)]
    if absent:
        print(f"benchmark needs the szegolab sources; missing: {absent}", file=sys.stderr)
        return 2

    env = environment(wl)
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "env": env}))
    state = os.path.join(ROOT, ".perfbench")
    work = os.path.join(state, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    jobs = result["jobs"]
    failed = sum(1 for j in jobs if j["problems"])
    if args.trace:
        values, unobserved, hooks = per_layer(wl, jobs)
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
        print(json.dumps({"unobserved_layers": unobserved, "missing_hooks": hooks}))
    else:
        values, unobserved, hooks = end_to_end(jobs), [], []
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    os.makedirs(os.path.join(state, "results"), exist_ok=True)
    record = os.path.join(state, "results",
                          f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics, "unobserved_layers": unobserved,
                   "missing_hooks": hooks, "seconds_used": result["seconds_used"],
                   "jobs": [{k: v for k, v in j.items()
                             if k not in ("spans", "report")} for j in jobs]},
                  fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
