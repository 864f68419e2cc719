"""wignerlab benchmark: one workload per invocation.

    python3 bench/run.py --workload crossval --seed 1 --seconds 34 --trace 0

Runs the workload in a fresh worker process (worker.py) with BLAS and
OpenMP limited to one thread, and measures set-up time in further fresh
processes.  Prints each metric by name with its unit, then, as the last
line, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones (run_s,
items_per_s, setup_s, peak_rss_mb); with --trace 1 they are the
per-layer ones, from spans recorded around wignerlab's public functions.

Artifacts go to a temporary directory under .bench_out/, which is
removed; the spans of a traced run are written to .bench_trace/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from worker import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 8
DEADLINE_S = 175.0
THREAD_LIMITS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
UNITS = {"run_s": "s", "items_per_s": "1/s", "setup_s": "s",
         "peak_rss_mb": "MB"}


def fmt(values):
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def run_worker(args, extra, deadline):
    """Start worker.py; return (spawn time, its JSON report)."""
    command = [sys.executable, str(WORKER), "--workload", args.workload,
               "--configs", str(BENCH / "configs" / args.workload)] + extra
    env = dict(os.environ, **THREAD_LIMITS)
    spawned = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{args.workload}: worker passed the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: worker exited {proc.returncode}")
    return spawned, json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "wignerlab" / "__init__.py").is_file():
        print(f"no wignerlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            spawned, probe = run_worker(args, ["--setup-only"], deadline)
            setups.append(probe["ready"] - spawned)

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    extra = ["--out", str(out), "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        (ROOT / ".bench_trace").mkdir(exist_ok=True)
        extra += ["--trace-file",
                  str(ROOT / ".bench_trace" / f"{args.workload}.jsonl")]
    try:
        spawned, report = run_worker(args, extra, deadline)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:     # another run is still using it
            pass
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in spans.UNITS.items()}
    else:
        setups.append(report["ready"] - spawned)
        run_s = statistics.median(report["untraced_s"])
        values = {"run_s": run_s,
                  "items_per_s": report["items_per_pass"] / run_s,
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": report["peak_rss_mb"]}
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in values.items()}
    print(f"{args.workload}: seed {args.seed}, {report['items_per_pass']} "
          f"items per pass; pass seconds {fmt(report['untraced_s'])}"
          + (f", traced {fmt(report['traced_s'])}" if args.trace else ""))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
