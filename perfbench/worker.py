"""One measured workload run in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload <name> --seed <n> --dir <work dir>
                                [--setup-only] [--trace] [--tiny]

Set-up (interpreter start, imports, input synthesis, PPM and config writing)
ends where the line's `setup_end` monotonic timestamp is taken; the parent
subtracts its own spawn timestamp. Then `flowcomm.cli.main` runs in process
with `--workers 1` and `wall_s` times exactly that call. Output checks, output
hashes and the span dump happen after the timed call.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_FILES = ("summary.csv", "frames.csv", "allocation.csv", "learning_curve.csv")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import flowcomm
    from flowcomm import cli

    if not os.path.abspath(flowcomm.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"flowcomm imported from {flowcomm.__file__}, not {src}", file=sys.stderr)
        return 2
    import checks
    import spans
    import workloads

    argv_cli = workloads.prepare(args.workload, args.seed, args.dir, args.tiny)
    record = {"setup_end": time.monotonic()}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
    start = time.perf_counter()
    rc = cli.main(argv_cli)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    out_dir = argv_cli[argv_cli.index("--out") + 1]
    result = checks.check(workloads.spec_for(args.workload, args.tiny), out_dir)
    if rc != 0:
        result.failures = [f"flowcomm exited {rc}"] * result.attempted
    record.update(
        exit_code=rc,
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=result.attempted,
        failed=result.failed,
        failures=result.failures[:10],
        figures=result.figures,
        sha256={
            name: _sha256(os.path.join(out_dir, name))
            for name in OUTPUT_FILES if os.path.exists(os.path.join(out_dir, name))
        },
    )
    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.write_spans(os.path.join(args.dir, "spans.jsonl"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
