"""flowcomm benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload <sweep_grid|large_frame|ddpg_train>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a flowcomm checkout. Each workload run happens in a fresh
worker process (see worker.py) that synthesises the inputs from the seed,
calls the public CLI entry point `flowcomm.cli.main` in process with
`--workers 1`, and checks every output. Runs repeat until `--seconds` have
passed; the figures are medians over the runs.

With `--trace 0` the result line carries the end-to-end metrics (tracing
off). With `--trace 1` untraced and traced runs alternate, and the result line
carries the per-layer split from the traced runs plus the tracing overhead.
A human-readable report comes first; the last line of standard output is the
JSON result. The full record, with machine facts and output hashes, is also
written to perfbench/.work/results/.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170.0   # the whole run, workers included, ends within this
MIN_SETUPS = 5         # set-up is sampled at least this often per run
MIN_RUNS = 3           # untraced workload runs per --trace 0 run, at least


class WorkerError(RuntimeError):
    pass


def _spawn(workload, seed, work_dir, deadline, setup_only=False, trace=False, tiny=False) -> dict:
    """Run one worker process to completion; returns its record plus setup_s."""
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dir", work_dir]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace + ["--tiny"] * tiny
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time limit reached before the worker started")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("setup_end") - spawned
    return record


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(numpy),
        "git_commit": _git_commit(),
    }


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; returns the full record (result line under 'result')."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    stop = start + seconds
    run_dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    untraced, traced, setups = [], [], []
    try:
        while len(untraced) < (1 if trace else MIN_RUNS) or time.monotonic() < stop:
            rec = _spawn(workload, seed, run_dir, deadline, tiny=tiny)
            untraced.append(rec)
            setups.append(rec["setup_s"])
            if trace:
                rec = _spawn(workload, seed, run_dir, deadline, trace=True, tiny=tiny)
                traced.append(rec)
                os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
                os.replace(os.path.join(run_dir, "spans.jsonl"),
                           os.path.join(WORK, "traces", f"{workload}-seed{seed}.jsonl"))
        while not trace and len(setups) < MIN_SETUPS:
            setups.append(_spawn(workload, seed, run_dir, deadline, setup_only=True,
                                 tiny=tiny)["setup_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = untraced + traced
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    wall = _median([r["wall_s"] for r in untraced])
    if trace:
        layers = {}
        for name in spans.metric_names():
            layers[name] = _median([r["layers"][name] for r in traced])
        layers["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - wall
        metrics = {k: {"value": v, "unit": spans.metric_unit(k)} for k, v in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": _median(setups), "unit": "s"},
            "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in untraced]), "unit": "MB"},
        }
    result = {
        "correct": failed == 0 and all(r["exit_code"] == 0 for r in measured),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "runs": len(measured),
        "failed_frac": failed / attempted,
        "figures": {k: _median([r["figures"][k] for r in untraced if k in r["figures"]])
                    for k in ("mean_ssim", "t_max_ratio") if k in untraced[0]["figures"]},
        "failures": sorted({f for r in measured for f in r["failures"]})[:20],
        "samples": {
            "wall_s": [r["wall_s"] for r in untraced],
            "traced_wall_s": [r["wall_s"] for r in traced],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        },
        "sha256": sorted({json.dumps(r["sha256"], sort_keys=True) for r in measured}),
        "machine": machine_facts(),
        "result": result,
    }


def report(record: dict) -> str:
    res = record["result"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"runs {record['runs']}",
        f"  failed_frac = {record['failed_frac']:.6g}  ({res['failed']} of {res['attempted']} "
        "operations failed)",
    ]
    lines += [f"  {k} = {v:.6g}" for k, v in record["figures"].items()]
    lines += [f"  {k} = {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()]
    lines += [f"  failure: {f}" for f in record["failures"]]
    lines += [f"  sha256 {s}" for s in record["sha256"]]
    lines.append("  machine " + json.dumps(record["machine"], sort_keys=True))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "flowcomm", "cli.py")):
        print(f"error: no flowcomm sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w") as fh:
        json.dump(record, fh, indent=2)
    print(report(record))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
