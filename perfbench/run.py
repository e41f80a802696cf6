"""splayer benchmark: closed-loop CLI jobs, end-to-end or per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
One client runs one job at a time in process through ``splayer.cli.main``
until the jobs have taken ``--seconds`` seconds, so argument parsing,
formatting and the atomic write count along with the numerics.  Outputs are
checked after the timed loop.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from span wrappers (see spans.py).  The
last stdout line is the result; the line before it is a report with the
environment, per-job times and check details.  ``--workload all`` runs
every workload in turn, each in its own interpreter.
"""

from __future__ import annotations

import os

# one client, at most nproc threads: pin BLAS pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NAMES = ("sweep", "big_solve", "compare_regen")
SETUP_SAMPLES = 9
TAIL_BEYOND = 10  # the tail percentile keeps this many jobs beyond it


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_sample(env) -> float:
    """Seconds from spawning an interpreter until ``import splayer.cli`` returns."""
    code = "import splayer.cli, time; print(repr(time.monotonic()))"
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _llc() -> str | None:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(caches.glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level and size and (best is None or int(level) >= best[0]):
            best = (int(level), f"L{level.strip()} {size.strip()}")
    return best[1] if best else None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "splayer").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment(seed: int, ambient_threads: str | None) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "llc": _llc(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "SPLAYER_THREADS": "unset",
        "SPLAYER_THREADS_ambient_removed": ambient_threads,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _run_all(args) -> int:
    results, status = {}, 0
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines:
            print(f"{name}: {line}")
        status = status or done.returncode
        if done.returncode == 0 and lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "splayer" / "cli.py").is_file():
        print(f"perfbench: no splayer sources under {SRC}", file=sys.stderr)
        return 2
    ambient_threads = os.environ.pop("SPLAYER_THREADS", None)
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(SRC))
    import splayer.cli

    if Path(splayer.cli.__file__).resolve().parent != (SRC / "splayer").resolve():
        print(f"perfbench: imported splayer from {splayer.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, workdir, ambient_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(args, workdir: Path, ambient_threads: str | None) -> int:
    import splayer.cli as cli

    workload = WORKLOADS[args.workload](args.seed, workdir)
    warmup_rc = cli.main(workload.warmup_argv(workdir / f"warmup{workload.suffix}"))
    # set-up is sampled between jobs, spread over the run, so that one burst
    # of host noise does not decide it; the first spawn warms the file cache
    setup_env = dict(os.environ, PYTHONPATH=str(SRC)) if not args.trace else None
    setup_samples, next_setup = [], 0.0
    if setup_env:
        _setup_sample(setup_env)

    tracer = Tracer() if args.trace else None
    span_cost = tracer.span_cost_s() if tracer else 0.0
    jobs, times, exits = [], [], []
    clock = time.perf_counter
    if tracer:
        tracer.install()
    try:
        while sum(times) < args.seconds:
            job = workload.next_job()
            gc.collect()
            if tracer:
                tracer.job = len(jobs)
            start = clock()
            try:
                rc = cli.main(list(job.argv))  # looked up each time: traced when installed
            except Exception as err:  # a crash is a failed job, not a failed run
                traceback.print_exc()
                rc = f"raised {err!r}"
            times.append(clock() - start)
            jobs.append(job)
            exits.append(rc)
            if setup_env and sum(times) >= next_setup and len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(_setup_sample(setup_env))
                next_setup += args.seconds / SETUP_SAMPLES
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while setup_env and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(_setup_sample(setup_env))

    failed_jobs = {}
    for index, (job, rc) in enumerate(zip(jobs, exits)):
        if rc != 0:
            problems = [f"exit status {rc}"]
        else:
            try:
                problems = workload.check(job)
            except Exception as err:  # unreadable output is a failed check
                traceback.print_exc()
                problems = [f"check raised {err!r}"]
        if problems:
            failed_jobs[index] = problems[:5]
            print(f"perfbench: job {index} {' '.join(job.argv)}: {problems[:5]}", file=sys.stderr)

    attempted, failed = len(jobs), len(failed_jobs)
    total = sum(times)
    ordered = sorted(times)
    tail_index = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    report = {
        "workload": args.workload,
        "mode": "closed loop, 1 client, in-process splayer.cli.main",
        "environment": _environment(args.seed, ambient_threads),
        "jobs": attempted,
        "job_s": times,
        "job_s_tail_samples": attempted,
        "job_s_tail_percentile": 100.0 * (tail_index + 1) / attempted,
        "job_s_tail_jobs_beyond": attempted - 1 - tail_index,
        "cells_per_job": workload.cells_per_job,
        "rows_per_job": workload.rows_per_job,
        # printed by name and unit but not in BENCHMARK.json: failed_frac is
        # 0 on a healthy tree, and the median job time is carried by
        # cells_per_s (see NOTES.md)
        "ungated_metrics": {
            "job_s_p50": _metric(statistics.median(times), "s"),
            "failed_frac": _metric(failed / attempted, "ratio"),
        },
        "failed_jobs": failed_jobs,
        "warmup_exit": warmup_rc,
        "example_argv": list(jobs[0].argv),
        "setup_s_samples": setup_samples,
    }
    correct = failed == 0 and warmup_rc == 0
    if tracer:
        layers, sanity = layer_metrics(tracer.spans, attempted, total, span_cost)
        report["trace_check"] = sanity
        correct = correct and sanity["ok"]
        metrics = {name: _metric(value, unit) for name, (value, unit) in layers.items()}
    else:
        metrics = {
            "cells_per_s": _metric(workload.cells_per_job * attempted / total, "1/s"),
            "rows_per_s": _metric(workload.rows_per_job * attempted / total, "1/s"),
            "job_s_tail": _metric(ordered[tail_index], "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "setup_s": _metric(statistics.median(setup_samples), "s"),
        }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
