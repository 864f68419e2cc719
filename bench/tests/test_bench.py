"""Tests of the benchmark itself: a reduced-size run of every workload,
untraced and traced, and each correctness check failing on perturbed
outputs.

    python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from wignerlab import io as wio, scenarios  # noqa: E402

WORKLOADS = ("crossval", "classical-limit", "tomography")
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def smoke_configs(workload):
    return sorted((BENCH / "smoke" / workload).glob("*.yaml"))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace, tmp_path):
    trace_file = tmp_path / "spans.jsonl"
    command = [sys.executable, str(BENCH / "worker.py"),
               "--workload", workload,
               "--configs", str(BENCH / "smoke" / workload),
               "--out", str(tmp_path / "out"), "--seconds", "0",
               "--trace", str(trace), "--trace-file", str(trace_file)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=300, env=ENV)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["correct"], report["problems"]
    passes = len(report["untraced_s"]) + len(report["traced_s"])
    assert passes == 1 + trace
    assert report["failed"] == 0
    assert report["attempted"] == passes * len(smoke_configs(workload))
    assert not any((tmp_path / "out").iterdir())
    if not trace:
        assert not trace_file.exists()
        return
    layers = report["layers"]
    assert set(layers) == set(spans.UNITS)
    assert layers["io.bytes_written"] > 0
    assert layers["scenarios.load_config.ms"] > 0
    if workload in ("crossval", "classical-limit"):
        assert layers["dynamics.route_steps"] == report["items_per_pass"]
    assert layers["fft.calls"] > 0
    lines = trace_file.read_text().splitlines()
    assert json.loads(lines[0])["traced_passes"] == [1]
    assert len(lines) > 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tomography",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=ENV)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """Artifacts of one pass over every smoke config, keyed by workload."""
    base = tmp_path_factory.mktemp("artifacts")
    outputs = {}
    for workload in WORKLOADS:
        runs = []
        for path in smoke_configs(workload):
            config = scenarios.load_config(path)
            out = base / workload / config.name
            scenarios.run_scenario(config, out)
            runs.append((checks.read_doc(path), out))
        outputs[workload] = runs
    return outputs


WIG1_OUTPUTS = ("tomogram.wig1", "reconstruction.wig1")


def test_smoke_outputs_pass_every_check(smoke_outputs):
    for workload, runs in smoke_outputs.items():
        read_backs = {(doc["name"], name): wio.read_field(out / name)
                      for doc, out in runs if workload == "tomography"
                      for name in WIG1_OUTPUTS}
        assert checks.check_outputs(workload, runs, read_backs) == []


def failing(problems, word):
    return any(word in problem for problem in problems)


def test_crossval_checks_fail_on_perturbed_reports(smoke_outputs):
    for doc, out in smoke_outputs["crossval"]:
        clean = json.loads((out / "validation.json").read_text())
        assert checks.crossval(doc, clean) == []
        for key, index, value, word in (
                ("pair_l2", 0, 2e-5, "route pair"),
                ("factorization_residual", 1, 2e-9, "factorization"),
                ("norm_drift", 0, -2e-9, "norm drift"),
                ("times", 1, 0.3, "sample times")):
            report = json.loads(json.dumps(clean))
            series = report[key]["bc"] if key == "pair_l2" else report[key]
            series[index] = value
            assert failing(checks.crossval(doc, report), word), key


def _classical_fields(smoke_outputs):
    return [(doc,) + checks.read_wig1(out / "final.wig1")
            for doc, out in smoke_outputs["classical-limit"]]


def _with_values(fields, name, change):
    return [(doc, change(values.copy()) if doc["name"] == name else values,
             meta) for doc, values, meta in fields]


def test_classical_limit_checks_fail_on_perturbed_fields(smoke_outputs):
    fields = _classical_fields(smoke_outputs)
    assert checks.classical_limit(fields) == []
    moyal = next(v for d, v, _ in fields if d["name"] == "quartic-moyal")

    def dipole(values):      # moves mass, keeps the integral
        bump = 1e-4 * np.abs(values).max()
        values[10, 10] += bump
        values[20, 20] -= bump
        return values

    bad = _with_values(fields, "quartic-truncated-n1", dipole)
    assert failing(checks.classical_limit(bad), "n_max=1")
    bad = _with_values(fields, "quartic-truncated-n0",
                       lambda values: moyal.copy())
    assert failing(checks.classical_limit(bad), "n_max=0")
    bad = _with_values(fields, "quartic-moyal", lambda values: values * 1.001)
    assert failing(checks.classical_limit(bad), "integrates")


def _nudge(values, index):
    values.flat[index] = np.nextafter(values.flat[index], np.inf)
    return values


def test_tomography_checks_fail_on_perturbed_fields(smoke_outputs):
    doc, out = smoke_outputs["tomography"][0]
    tomogram = checks.read_wig1(out / "tomogram.wig1")
    recon = checks.read_wig1(out / "reconstruction.wig1")
    table = checks.read_csv(out / "tomogram.csv", ("theta", "X", "w"))
    backs = [wio.read_field(out / name) for name in WIG1_OUTPUTS]

    def problems(tomogram=tomogram, recon=recon, table=table, backs=backs):
        return checks.tomography(doc, tomogram, recon, table, backs)

    assert problems() == []
    x, p, _, _ = checks.square_axes(doc["grid"])
    blob = 1e-2 * np.exp(-(x[:, None] - 1.0) ** 2 - p[None, :] ** 2)
    assert failing(problems(recon=(recon[0] + blob, recon[1])),
                   "reconstruction")
    proj = tomogram[0].copy()
    proj[5] *= 1.001
    assert failing(problems(tomogram=(proj, tomogram[1])), "integrates")
    proj = tomogram[0].copy()
    proj[0] = np.roll(proj[0], 1)
    assert failing(problems(tomogram=(proj, tomogram[1])), "theta=0")
    bad_table = table.copy()
    _nudge(bad_table[:, 2], 1000)
    assert failing(problems(table=bad_table), "w column")
    bad_table = table.copy()
    bad_table[:, 1] += 1e-9
    assert failing(problems(table=bad_table), "X column")
    bad_back = (_nudge(backs[1][0].copy(), 5), backs[1][1])
    assert failing(problems(backs=[backs[0], bad_back]), "read_field")
