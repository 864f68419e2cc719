"""Correctness checks for the benchmark's outputs.

Everything here is computed apart from wignerlab: the closed-form cat
Wigner function and position density, a reader for the documented WIG1
layout, and the properties each experiment must have.  Nothing is
imported from src/ or tests/.

Each check returns a list of problems; an empty list means the outputs
are correct.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np
import yaml

WIG1_MAGIC = b"WIG1FLD\x00"

PAIR_L2_MAX = 1e-5           # crossval: route pair L2 at every sample time
FACTORIZATION_MAX = 1e-9     # crossval: |1 - lambda_max / trace|
NORM_DRIFT_MAX = 1e-9        # crossval: |norm - 1| of the wavefunction route
TERMINATION_MAX = 1e-5       # n_max = 1 vs moyal (the quartic series stops)
QUANTUM_GAP_MIN = 1e-2       # n_max = 0 vs moyal (the quantum correction)
TOTAL_TOL = 1e-9             # every field and projection integrates to 1
RECONSTRUCTION_MAX = 1e-3    # tomography: relative L2 to the closed form
DENSITY_TOL = 1e-10          # theta = 0 projection vs closed-form |psi|^2
AXIS_RTOL = 1e-12            # grid axes and header spacings


def read_doc(path) -> dict:
    with open(path) as handle:
        return yaml.safe_load(handle)


def read_wig1(path):
    """(values, meta) from a WIG1 file, following the documented layout."""
    blob = Path(path).read_bytes()
    if blob[:8] != WIG1_MAGIC:
        raise ValueError(f"{path}: bad WIG1 magic")
    _version, rank, flags, _ = struct.unpack_from("<4I", blob, 8)
    dims = struct.unpack_from(f"<{rank}Q", blob, 24)
    offset = 24 + 8 * rank
    keys = ("dx", "dp", "x_min", "hbar", "mass", "time")
    meta = dict(zip(keys, struct.unpack_from("<6d", blob, offset)))
    offset += 48
    dtype = np.dtype("<c16" if flags & 1 else "<f8")
    count = math.prod(dims)
    if len(blob) != offset + count * dtype.itemsize:
        raise ValueError(f"{path}: payload size does not match its dims")
    values = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return values.reshape(dims), meta


def read_csv(path, header):
    """Numeric CSV body as a 2-D float array, after checking the header."""
    with open(path) as handle:
        first = handle.readline().rstrip("\n")
    if first != ",".join(header):
        raise ValueError(f"{path}: header {first!r}, expected {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def square_axes(grid: dict):
    """(x, p, dx, dp) of a square grid (dx == dp, centred on zero)."""
    n = grid["n"]
    hbar = float(grid.get("hbar", 1.0))
    dx = math.sqrt(2.0 * math.pi * hbar / n)
    x_min = -0.5 * n * dx
    dp = 2.0 * math.pi * hbar / (n * dx)
    x = x_min + np.arange(n) * dx
    p = (np.arange(n) - n // 2) * dp
    return x, p, dx, dp


def cat_wigner(x, p, x0, sigma, hbar=1.0):
    """Closed-form W of the even cat N (g(x - x0) + g(x + x0)), p0 = 0."""
    x = np.asarray(x)[:, None]
    p = np.asarray(p)[None, :]
    envelope = np.exp(-2.0 * sigma ** 2 * p ** 2 / hbar ** 2) / (math.pi * hbar)
    lobes = (np.exp(-(x - x0) ** 2 / (2 * sigma ** 2))
             + np.exp(-(x + x0) ** 2 / (2 * sigma ** 2)))
    fringe = 2.0 * np.exp(-x ** 2 / (2 * sigma ** 2)) * np.cos(2 * p * x0 / hbar)
    norm = 2.0 * (1.0 + math.exp(-x0 ** 2 / (2 * sigma ** 2)))
    return envelope * (lobes + fringe) / norm


def cat_density(x, x0, sigma):
    """Closed-form |psi(x)|^2 of the same cat state."""
    x = np.asarray(x)
    lobes = (np.exp(-(x - x0) ** 2 / (2 * sigma ** 2))
             + np.exp(-(x + x0) ** 2 / (2 * sigma ** 2))
             + 2.0 * np.exp(-(x ** 2 + x0 ** 2) / (2 * sigma ** 2)))
    norm = 2.0 * (1.0 + math.exp(-x0 ** 2 / (2 * sigma ** 2)))
    return lobes / (math.sqrt(2 * math.pi) * sigma * norm)


def _cat_params(doc):
    state = doc["state"]
    if state["kind"] != "cat" or state.get("p0", 0.0) != 0.0:
        raise ValueError("closed forms cover the p0 = 0 cat state only")
    return float(state["x0"]), float(state["sigma"])


def _close(a, b, rtol=AXIS_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _header_problems(name, meta, dx, dp, x_min):
    return [f"{name}: header {key} = {meta[key]!r}, expected {want!r}"
            for key, want in (("dx", dx), ("dp", dp), ("x_min", x_min))
            if not _close(meta[key], want)]


def _same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype="<f8")
    b = np.ascontiguousarray(b, dtype="<f8")
    return a.shape == b.shape and bool(np.all(a.view("<u8") == b.view("<u8")))


def _rel_l2(a, b) -> float:
    return float(np.sqrt(np.sum((a - b) ** 2) / np.sum(b ** 2)))


def crossval(doc, report) -> list:
    """Three-route agreement at every requested sample time."""
    name = doc["name"]
    spec = doc["experiment"]
    wanted = spec.get("sample_times", [spec["t_final"]])
    problems = []
    if len(report["times"]) != len(wanted) or any(
            abs(a - b) > 1e-9 for a, b in zip(report["times"], wanted)):
        problems.append(f"{name}: sample times {report['times']} != {wanted}")
    for i, t in enumerate(report["times"]):
        for pair, series in sorted(report["pair_l2"].items()):
            if not series[i] < PAIR_L2_MAX:
                problems.append(f"{name}: t={t} route pair {pair} L2 "
                                f"{series[i]:.3e} >= {PAIR_L2_MAX}")
        residual = report["factorization_residual"][i]
        if not abs(residual) < FACTORIZATION_MAX:
            problems.append(f"{name}: t={t} factorization residual "
                            f"{residual:.3e} beyond {FACTORIZATION_MAX}")
        drift = report["norm_drift"][i]
        if not abs(drift) < NORM_DRIFT_MAX:
            problems.append(f"{name}: t={t} norm drift {drift:.3e} "
                            f"beyond {NORM_DRIFT_MAX}")
    return problems


def classical_limit(fields) -> list:
    """fields: (doc, values, meta) for each evolve scenario's final field."""
    problems = []
    by_route = {}
    for doc, values, meta in fields:
        name = doc["name"]
        spec = doc["experiment"]
        grid = doc["grid"]
        n = grid["n"]
        dx = (grid["x_max"] - grid["x_min"]) / n
        dp = 2.0 * math.pi * grid.get("hbar", 1.0) / (n * dx)
        problems += _header_problems(name, meta, dx, dp, grid["x_min"])
        if not _close(meta["time"], spec["t_final"]):
            problems.append(f"{name}: field time {meta['time']!r} != "
                            f"t_final {spec['t_final']!r}")
        total = float(np.sum(values)) * meta["dx"] * meta["dp"]
        if not abs(total - 1.0) <= TOTAL_TOL:
            problems.append(f"{name}: field integrates to {total!r}")
        key = spec["route"]
        if key == "truncated":
            key += str(spec.get("n_max", 1))
        by_route[key] = (name, values)
    missing = {"moyal", "truncated1", "truncated0"} - set(by_route)
    if missing:
        return problems + [f"classical-limit: routes {sorted(missing)} missing"]
    exact = by_route["moyal"][1]
    term = _rel_l2(by_route["truncated1"][1], exact)
    if not term <= TERMINATION_MAX:
        problems.append(f"{by_route['truncated1'][0]}: n_max=1 vs moyal "
                        f"relative L2 {term:.3e} > {TERMINATION_MAX}")
    gap = _rel_l2(by_route["truncated0"][1], exact)
    if not gap > QUANTUM_GAP_MIN:
        problems.append(f"{by_route['truncated0'][0]}: n_max=0 vs moyal "
                        f"relative L2 {gap:.3e} <= {QUANTUM_GAP_MIN}")
    return problems


def tomography(doc, tomogram, reconstruction, table, read_backs) -> list:
    """tomogram/reconstruction: (values, meta); table: tomogram.csv rows;
    read_backs: what io.read_field returned for the two WIG1 files."""
    name = doc["name"]
    x0, sigma = _cat_params(doc)
    hbar = float(doc["grid"].get("hbar", 1.0))
    x, p, dx, dp = square_axes(doc["grid"])
    n_angles = doc["experiment"].get("n_angles", 180)
    problems = []
    for label, (_, meta) in (("tomogram", tomogram),
                             ("reconstruction", reconstruction)):
        problems += _header_problems(f"{name} {label}", meta, dx, dp, x[0])
    rec = reconstruction[0]
    if rec.shape != (len(x), len(p)):
        return problems + [f"{name}: reconstruction shape {rec.shape}"]
    rel = _rel_l2(rec, cat_wigner(x, p, x0, sigma, hbar))
    if not rel < RECONSTRUCTION_MAX:
        problems.append(f"{name}: reconstruction relative L2 {rel:.3e} "
                        f">= {RECONSTRUCTION_MAX}")
    proj = tomogram[0]
    if proj.shape != (n_angles, len(x)):
        return problems + [f"{name}: tomogram shape {proj.shape}"]
    totals = proj.sum(axis=1) * dx
    worst = float(np.max(np.abs(totals - 1.0)))
    if not worst <= TOTAL_TOL:
        problems.append(f"{name}: a projection integrates to 1 only within "
                        f"{worst:.3e}")
    err = float(np.max(np.abs(proj[0] - cat_density(x, x0, sigma))))
    if not err <= DENSITY_TOL:
        problems.append(f"{name}: theta=0 projection differs from |psi|^2 "
                        f"by {err:.3e}")
    thetas = np.array([i * math.pi / n_angles for i in range(n_angles)])
    if table.shape != (proj.size, 3):
        return problems + [f"{name}: tomogram.csv shape {table.shape}"]
    if not np.allclose(table[:, 0], np.repeat(thetas, len(x)),
                       rtol=AXIS_RTOL, atol=AXIS_RTOL):
        problems.append(f"{name}: tomogram.csv theta column is off")
    if not np.allclose(table[:, 1], np.tile(x, n_angles),
                       rtol=AXIS_RTOL, atol=AXIS_RTOL):
        problems.append(f"{name}: tomogram.csv X column is off the grid")
    if not _same_bits(table[:, 2], proj.ravel()):
        problems.append(f"{name}: tomogram.csv w column is not the "
                        "tomogram.wig1 payload")
    for (values, meta), (back, back_meta) in zip(
            (tomogram, reconstruction), read_backs):
        if not _same_bits(back, values) or back_meta != meta:
            problems.append(f"{name}: io.read_field does not return what "
                            "the file holds")
    return problems


def check_outputs(workload, runs, read_backs) -> list:
    """Check one pass of a workload.

    runs: (doc, output directory) per scenario; read_backs: (scenario
    name, file name) -> the value io.read_field returned in the pass.
    """
    problems = []
    if workload == "crossval":
        for doc, out in runs:
            report = json.loads((out / "validation.json").read_text())
            problems += crossval(doc, report)
    elif workload == "classical-limit":
        problems += classical_limit(
            [(doc,) + read_wig1(out / "final.wig1") for doc, out in runs])
    elif workload == "tomography":
        for doc, out in runs:
            problems += tomography(
                doc, read_wig1(out / "tomogram.wig1"),
                read_wig1(out / "reconstruction.wig1"),
                read_csv(out / "tomogram.csv", ("theta", "X", "w")),
                [read_backs[doc["name"], name]
                 for name in ("tomogram.wig1", "reconstruction.wig1")])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return problems
