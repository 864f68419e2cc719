"""One measured benchmark process.

Imports wignerlab from the checkout's src/, loads a workload's scenario
configs, then runs timed passes over them until the time budget is spent
(a pass starts only if at least half of it fits).
A pass runs every config through ``scenarios.run_scenario`` (and, for
tomography, reads the WIG1 fields back with ``io.read_field``).  The first
pass that completes is checked in full against closed forms
(checks.py); every later pass must write byte-identical artifacts.

run.py starts this in a fresh interpreter with the thread limits already
in the environment.  The last line on stdout is a JSON report.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Artifacts a workload's pass reads back after writing them.
READ_BACK = {"tomography": ("tomogram.wig1", "reconstruction.wig1")}
WORKLOADS = ("crossval", "classical-limit", "tomography")


def items(doc) -> int:
    """Work items in one run of a scenario: route-steps or angles."""
    spec = doc["experiment"]
    kind = spec["kind"]
    if kind in ("validate", "evolve"):
        steps = round(spec["t_final"] / spec["dt"])
        return 3 * steps if kind == "validate" else steps
    if kind == "tomo":
        return spec.get("n_angles", 180)
    raise ValueError(f"no item count for experiment {kind!r}")


_PROBE = [float(i) for i in range(4000)]


def _probe_s() -> float:
    t0 = time.perf_counter()
    ",".join(format(value, ".17g") for value in _PROBE)
    return time.perf_counter() - t0


def pin_to_fastest_cpu(cpus) -> None:
    """Pin this process to the core that runs a short probe fastest.

    On a shared host a core's speed changes with what its neighbours run;
    each pass runs on the core that is least slowed at its start.
    """
    if len(cpus) < 2:
        return
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(_probe_s() for _ in range(4))
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


def digest(directory: Path) -> dict:
    """sha256 of every artifact below directory, timing.json excepted."""
    return {str(path.relative_to(directory)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*"))
            if path.is_file() and path.name != "timing.json"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--configs", required=True, type=Path,
                        help="directory of the workload's *.yaml configs")
    parser.add_argument("--out", type=Path,
                        help="scratch directory for the artifacts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install_fft()
    sys.path.insert(0, str(ROOT / "src"))
    import wignerlab
    from wignerlab import io as wio, scenarios
    home = Path(wignerlab.__file__).resolve().parent
    if home != ROOT / "src" / "wignerlab":
        raise SystemExit(f"wignerlab imported from {home}, not from {ROOT}/src")
    if tracer:
        tracer.install_wignerlab()
        tracer.begin("setup")
    paths = sorted(args.configs.glob("*.yaml"))
    if not paths:
        raise SystemExit(f"no configs in {args.configs}")
    configs = [scenarios.load_config(path) for path in paths]
    ready = time.monotonic()
    if tracer:
        tracer.end()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import checks
    docs = {config.name: checks.read_doc(path)
            for config, path in zip(configs, paths)}
    read_back = READ_BACK.get(args.workload, ())
    order = random.Random(args.seed)
    attempted = failed = 0
    problems = []
    reference = None
    untraced_s, traced_s, traced_passes = [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        pin_to_fastest_cpu(cpus)
        pass_dir = args.out / f"pass{k}"
        read_backs, ok = {}, True
        if traced:
            tracer.begin(k)
        t0 = time.perf_counter()
        for config in order.sample(configs, len(configs)):
            attempted += 1
            out = pass_dir / config.name
            try:
                scenarios.run_scenario(config, out)
                for name in read_back:
                    read_backs[config.name, name] = wio.read_field(out / name)
            except Exception as exc:   # counted, and the run goes on
                failed += 1
                ok = False
                print(f"{config.name}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.end()
            traced_s.append(elapsed)
            traced_passes.append(k)
        else:
            untraced_s.append(elapsed)
        if ok:
            sums = digest(pass_dir)
            if reference is None:
                reference = sums
                problems += checks.check_outputs(
                    args.workload,
                    [(docs[c.name], pass_dir / c.name) for c in configs],
                    read_backs)
            elif sums != reference:
                changed = sorted(key for key in set(sums) | set(reference)
                                 if sums.get(key) != reference.get(key))
                problems.append(f"pass {k}{' (traced)' if traced else ''} "
                                f"wrote different bytes: {changed}")
        shutil.rmtree(pass_dir, ignore_errors=True)
        k += 1
        # Start another pass only if at least half of it fits in the budget.
        if (time.perf_counter() - start + 0.5 * elapsed >= args.seconds
                and (tracer is None or traced_s)):
            break

    report = {
        "ready": ready,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "items_per_pass": sum(items(doc) for doc in docs.values()),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        report["layers"] = tracer.layer_metrics(traced_passes, traced_s,
                                                untraced_s)
        if args.trace_file:
            tracer.write(args.trace_file, {
                "workload": args.workload, "seed": args.seed,
                "traced_passes": traced_passes, "traced_s": traced_s,
                "untraced_s": untraced_s, "layers": report["layers"]})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
