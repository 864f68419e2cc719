"""Declarative scenario configs and the runner behind the command line.

A scenario is one YAML document: grid + state + potential + experiment +
output options.  Unknown keys are rejected so typos fail loudly instead
of silently running a default.  Every run writes a manifest.json whose
bytes depend only on (config, package version); wall-clock timing goes
to a separate timing.json sidecar so the scientific artifacts stay
byte-reproducible across runs and machines.
"""

import re
import time
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import io as wio
from .dynamics import (boundary_mass, cross_validate, propagate_characteristic,
                       propagate_moyal_exact, propagate_moyal_truncated,
                       propagate_schrodinger, sample_steps)
from .errors import ConfigError
from .grid import PhaseGrid, make_grid, square_grid
from .observables import ehrenfest_track, moments, negativity, purity
from .potentials import (Potential, double_well, free_particle, harmonic,
                         polynomial, quartic)
from .states import (Wavefunction, cat_state, gaussian_packet,
                     harmonic_eigenstate, norm, superpose, two_slit_state)
from .tomography import forward_tomogram, inverse_tomogram
from .wigner import to_characteristic, wigner_transform

__all__ = ["ScenarioConfig", "load_config", "builtin_config",
           "list_scenarios", "run_scenario", "BUILTIN_SCENARIOS"]

FORMATS = ("json", "csv", "binary")
ROUTES = ("schrodinger", "moyal", "characteristic", "truncated")
# experiment kind -> (required, optional) keys besides "kind"
EXPERIMENT_KEYS = {
    "wigner": ((), ()),
    "moments": ((), ()),
    "evolve": (("route", "dt", "t_final"), ("sample_times", "n_max")),
    "validate": (("dt", "t_final"), ("sample_times",)),
    "tomo": ((), ("n_angles",)),
    "ehrenfest": (("dt", "t_grid"), ()),
}
EXPERIMENTS = tuple(EXPERIMENT_KEYS)


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (see load_config for the schema)."""

    name: str
    grid: dict
    state: dict
    potential: dict = field(default_factory=lambda: {"kind": "free"})
    experiment: dict = field(default_factory=lambda: {"kind": "wigner"})
    formats: tuple = FORMATS

    def as_dict(self) -> dict:
        return {"name": self.name, "grid": dict(self.grid),
                "state": dict(self.state), "potential": dict(self.potential),
                "experiment": dict(self.experiment),
                "formats": list(self.formats)}


def _require_keys(mapping, context: str, required=(), optional=()) -> dict:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected a mapping, got {mapping!r}")
    allowed = set(required) | set(optional)
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown} "
                          f"(allowed: {sorted(allowed)})")
    missing = sorted(set(required) - set(mapping))
    if missing:
        raise ConfigError(f"{context}: missing keys {missing}")
    return mapping


def _number(mapping, key, context, default=None) -> float:
    value = mapping.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{context}.{key}: expected a number, got {value!r}")
    return float(value)


def _numbers(mapping, key, context) -> list:
    values = mapping.get(key)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{context}.{key}: expected a non-empty list")
    entries = dict(enumerate(values))
    return [_number(entries, i, f"{context}.{key}") for i in entries]


def _times_from(spec, context) -> list:
    if spec.get("sample_times") is None:
        return [_number(spec, "t_final", context)]
    return _numbers(spec, "sample_times", context)


def _check_experiment(spec) -> None:
    """Validate an experiment block's keys (see EXPERIMENT_KEYS) and
    values, so that a bad one fails before any output exists."""
    if not isinstance(spec, dict) or spec.get("kind") not in EXPERIMENTS:
        raise ConfigError(f"experiment: expected a mapping with a kind "
                          f"from {EXPERIMENTS}, got {spec!r}")
    required, optional = EXPERIMENT_KEYS[spec["kind"]]
    _require_keys(spec, "experiment", ("kind",) + required, optional)
    if spec.get("route", ROUTES[0]) not in ROUTES:
        raise ConfigError(f"experiment.route: unknown route "
                          f"{spec['route']!r} (choose from {ROUTES})")
    if not _number(spec, "dt", "experiment", 1.0) > 0:
        raise ConfigError(f"experiment.dt: expected a positive number, "
                          f"got {spec['dt']!r}")
    _number(spec, "t_final", "experiment", 0.0)
    if spec.get("sample_times") is not None:
        _numbers(spec, "sample_times", "experiment")
    if "t_grid" in spec:
        _numbers(spec, "t_grid", "experiment")
    for key, minimum in (("n_max", 0), ("n_angles", 2)):
        value = spec.get(key, minimum)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < minimum:
            raise ConfigError(f"experiment.{key}: expected an integer >= "
                              f"{minimum}, got {value!r}")


def build_grid(spec: dict) -> PhaseGrid:
    _require_keys(spec, "grid", required=("n",),
                  optional=("x_min", "x_max", "square", "hbar", "mass"))
    n = spec["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError(f"grid.n: expected an integer, got {n!r}")
    hbar = _number(spec, "hbar", "grid", 1.0)
    mass = _number(spec, "mass", "grid", 1.0)
    if spec.get("square", False):
        if "x_min" in spec or "x_max" in spec:
            raise ConfigError("grid: square grids fix their own extent; "
                              "do not also give x_min/x_max")
        return square_grid(n, hbar=hbar, mass=mass)
    if "x_min" not in spec or "x_max" not in spec:
        raise ConfigError("grid: give x_min and x_max, or square: true")
    return make_grid(n, _number(spec, "x_min", "grid"),
                     _number(spec, "x_max", "grid"), hbar=hbar, mass=mass)


def build_state(grid: PhaseGrid, spec: dict) -> Wavefunction:
    _require_keys(spec, "state", required=("kind",),
                  optional=("x0", "p0", "sigma", "level", "omega",
                            "separation", "slit_width", "components",
                            "coefficients"))
    kind = spec["kind"]
    if kind == "gaussian":
        return gaussian_packet(grid, _number(spec, "x0", "state", 0.0),
                               _number(spec, "p0", "state", 0.0),
                               _number(spec, "sigma", "state", 1.0))
    if kind == "harmonic":
        level = spec.get("level", 0)
        if not isinstance(level, int) or isinstance(level, bool):
            raise ConfigError(f"state.level: expected an integer, got {level!r}")
        return harmonic_eigenstate(grid, level,
                                   _number(spec, "omega", "state", 1.0))
    if kind == "cat":
        return cat_state(grid, _number(spec, "x0", "state"),
                         _number(spec, "sigma", "state"),
                         _number(spec, "p0", "state", 0.0))
    if kind == "two_slit":
        return two_slit_state(grid, _number(spec, "separation", "state"),
                              _number(spec, "slit_width", "state"))
    if kind == "superposition":
        parts = spec.get("components")
        coeffs = spec.get("coefficients")
        if not isinstance(parts, list) or not isinstance(coeffs, list):
            raise ConfigError("state: superposition needs components "
                              "and coefficients lists")
        states = [build_state(grid, part) for part in parts]
        def as_complex(c):
            if isinstance(c, (int, float)) and not isinstance(c, bool):
                return complex(c)
            if isinstance(c, list) and len(c) == 2:
                return complex(float(c[0]), float(c[1]))
            raise ConfigError(f"state.coefficients: bad entry {c!r}")
        state, _ = superpose(states, [as_complex(c) for c in coeffs])
        return state
    raise ConfigError(f"state.kind: unknown kind {kind!r}")


def build_potential(spec: dict) -> Potential:
    _require_keys(spec, "potential", required=("kind",),
                  optional=("omega", "mass", "lam", "a", "b", "coefficients"))
    kind = spec["kind"]
    if kind == "free":
        return free_particle()
    if kind == "harmonic":
        return harmonic(_number(spec, "omega", "potential", 1.0),
                        mass=_number(spec, "mass", "potential", 1.0))
    if kind == "quartic":
        return quartic(_number(spec, "lam", "potential"))
    if kind == "double_well":
        return double_well(_number(spec, "a", "potential"),
                           _number(spec, "b", "potential"))
    if kind == "polynomial":
        coeffs = spec.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError("potential: polynomial needs a non-empty "
                              "coefficients list")
        return polynomial([_number({"c": c}, "c", "potential.coefficients")
                           for c in coeffs])
    raise ConfigError(f"potential.kind: unknown kind {kind!r}")


def _parse_config(doc: dict, default_name: str) -> ScenarioConfig:
    _require_keys(doc, "scenario", required=("grid", "state"),
                  optional=("name", "potential", "experiment", "formats"))
    name = doc.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"name: expected a non-empty string, got {name!r}")
    formats = doc.get("formats", list(FORMATS))
    if (not isinstance(formats, list) or not formats
            or any(f not in FORMATS for f in formats)):
        raise ConfigError(f"formats: expected a subset of {FORMATS}, "
                          f"got {formats!r}")
    experiment = doc.get("experiment", {"kind": "wigner"})
    _check_experiment(experiment)
    config = ScenarioConfig(
        name=name, grid=dict(doc["grid"]), state=dict(doc["state"]),
        potential=dict(doc.get("potential", {"kind": "free"})),
        experiment=dict(experiment), formats=tuple(formats))
    # validate everything eagerly so bad configs fail before any output
    grid = build_grid(config.grid)
    build_state(grid, config.state)
    build_potential(config.potential)
    return config


class _ConfigLoader(yaml.SafeLoader):
    """Safe loader that also reads exponent floats lacking a decimal point
    or an exponent sign (1e-3, 5.0e4), which YAML 1.1 leaves strings."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)"
               r"[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario YAML file."""
    try:
        with open(path) as handle:
            doc = yaml.load(handle, Loader=_ConfigLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    import os
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return _parse_config(doc, stem)


BUILTIN_SCENARIOS = {
    "ho-roundtrip": {
        "description": "harmonic coherent state over one full period; "
                       "three propagation routes cross-validated",
        "grid": {"n": 128, "square": True},
        "state": {"kind": "gaussian", "x0": 1.0, "p0": 0.0,
                  "sigma": 0.7071067811865476},
        "potential": {"kind": "harmonic", "omega": 1.0},
        "experiment": {"kind": "validate", "dt": 0.0019634954084936207,
                       "t_final": 6.283185307179586,
                       "sample_times": [3.141592653589793,
                                        6.283185307179586]},
    },
    "free-spread": {
        "description": "free Gaussian packet drifting and spreading; "
                       "mean follows the classical line exactly",
        "grid": {"n": 256, "x_min": -16.0, "x_max": 16.0},
        "state": {"kind": "gaussian", "x0": 0.0, "p0": 1.0, "sigma": 1.0},
        "potential": {"kind": "free"},
        "experiment": {"kind": "evolve", "route": "schrodinger",
                       "dt": 0.01, "t_final": 2.0,
                       "sample_times": [0.5, 1.0, 1.5, 2.0]},
    },
    "quartic-crossval": {
        "description": "quartic potential; Schrodinger, exact-Moyal and "
                       "characteristic routes compared",
        "grid": {"n": 128, "x_min": -10.0, "x_max": 10.0},
        "state": {"kind": "gaussian", "x0": 1.0, "p0": 0.0,
                  "sigma": 0.7071067811865476},
        "potential": {"kind": "quartic", "lam": 0.1},
        "experiment": {"kind": "validate", "dt": 0.001, "t_final": 0.5,
                       "sample_times": [0.25, 0.5]},
    },
    "cat-negativity": {
        "description": "x0 = +/-3 cat state; interference ridge negativity",
        "grid": {"n": 128, "square": True},
        "state": {"kind": "cat", "x0": 3.0, "sigma": 0.7071067811865476},
        "experiment": {"kind": "wigner"},
    },
    "two-slit": {
        "description": "two Gaussian slits; fringe structure and negativity",
        "grid": {"n": 128, "square": True},
        "state": {"kind": "two_slit", "separation": 6.0, "slit_width": 0.7},
        "experiment": {"kind": "wigner"},
    },
    "tomo-roundtrip": {
        "description": "cat state projected over 180 quadrature angles and "
                       "reconstructed by filtered back-projection",
        "grid": {"n": 128, "square": True},
        "state": {"kind": "cat", "x0": 3.0, "sigma": 0.7071067811865476},
        "experiment": {"kind": "tomo", "n_angles": 180},
    },
    "ehrenfest-quartic": {
        "description": "broad packet in a quartic well; mean force vs "
                       "force at the mean",
        "grid": {"n": 1024, "x_min": -16.0, "x_max": 16.0},
        "state": {"kind": "gaussian", "x0": 1.0, "p0": 0.0, "sigma": 2.0},
        "potential": {"kind": "quartic", "lam": 0.1},
        "experiment": {"kind": "ehrenfest", "dt": 0.002,
                       "t_grid": [0.0, 0.5, 1.0, 1.5, 2.0]},
    },
}


def builtin_config(name: str) -> ScenarioConfig:
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError(f"unknown built-in scenario {name!r}; "
                          f"choose from {sorted(BUILTIN_SCENARIOS)}")
    doc = {k: v for k, v in BUILTIN_SCENARIOS[name].items()
           if k != "description"}
    return _parse_config(dict(doc, name=name), name)


def list_scenarios() -> list:
    """(name, description) rows for every built-in scenario."""
    return [(name, entry["description"])
            for name, entry in sorted(BUILTIN_SCENARIOS.items())]


def _run_wigner(config, grid, psi, potential, artifacts, out):
    w = wigner_transform(psi)
    min_w, neg_volume = negativity(w)
    metrics = {
        "total": w.total(), "purity": purity(w),
        "min_w": min_w, "negative_volume": neg_volume,
        "moments": moments(w).as_dict(),
    }
    monitors = {"norm_drift": norm(psi) ** 2 - 1.0,
                "boundary_mass": boundary_mass(w.values, (0, 1))}
    if "binary" in config.formats:
        wio.write_field(out / "wigner.wig1", w.values, grid, w.t)
        artifacts.append("wigner.wig1")
    if "csv" in config.formats:
        rows = zip(np.repeat(grid.x, grid.n), np.tile(grid.p, grid.n),
                   w.values.ravel())
        wio.write_csv(out / "wigner.csv", ("x", "p", "w"), rows)
        artifacts.append("wigner.csv")
    return metrics, monitors


def _run_moments(config, grid, psi, potential, artifacts, out):
    operator_route = moments(psi)
    phase_route = moments(wigner_transform(psi))
    gap = max(abs(a - b) for a, b in zip(
        operator_route.as_dict().values(), phase_route.as_dict().values()))
    metrics = {"operator": operator_route.as_dict(),
               "phase_space": phase_route.as_dict(),
               "route_gap": gap}
    monitors = {"norm_drift": norm(psi) ** 2 - 1.0,
                "boundary_mass": boundary_mass(
                    np.abs(psi.samples) ** 2, (0,))}
    if "csv" in config.formats:
        rows = [(key, operator_route.as_dict()[key],
                 phase_route.as_dict()[key])
                for key in operator_route.as_dict()]
        wio.write_csv(out / "moments.csv",
                      ("moment", "operator_route", "phase_space_route"), rows)
        artifacts.append("moments.csv")
    return metrics, monitors


def _run_evolve(config, grid, psi, potential, artifacts, out):
    spec = config.experiment
    route = spec["route"]
    dt = _number(spec, "dt", "experiment")
    times = _times_from(spec, "experiment")
    n_max = spec.get("n_max", 1)
    schedule = sample_steps(times, dt)
    flags: list = []
    state = {"schrodinger": psi,
             "moyal": wigner_transform(psi),
             "truncated": wigner_transform(psi),
             "characteristic": to_characteristic(wigner_transform(psi)),
             }[route]
    series = []
    for t, steps in zip(times, schedule):
        if route == "schrodinger":
            state = propagate_schrodinger(state, potential, dt, steps, flags)
            w = wigner_transform(state)
        elif route == "moyal":
            state = propagate_moyal_exact(state, potential, dt, steps, flags)
            w = state
        elif route == "truncated":
            state = propagate_moyal_truncated(state, potential, dt, steps,
                                              n_max, flags)
            w = state
        else:
            state = propagate_characteristic(state, potential, dt, steps,
                                             flags)
            w = None
        if w is not None:
            report = moments(w)
            series.append((t,) + tuple(report.as_dict().values()))
    if route == "characteristic":
        final_values = state.values
        monitors = {"norm_drift": state.diagonal_total() - 1.0,
                    "boundary_mass": boundary_mass(final_values, (0, 1))}
        metrics = {"hermiticity_defect": state.hermiticity_defect(),
                   "final_time": t}
    else:
        w_final = w if route != "schrodinger" else wigner_transform(state)
        final_values = w_final.values
        if route == "schrodinger":
            drift = norm(state) ** 2 - 1.0
        else:
            drift = w_final.total() - 1.0
        monitors = {"norm_drift": drift,
                    "boundary_mass": boundary_mass(final_values, (0, 1))}
        metrics = {"final_time": t,
                   "final_moments": moments(w_final).as_dict()}
    monitors["boundary_flagged"] = bool(flags)
    if "binary" in config.formats:
        wio.write_field(out / "final.wig1", final_values, grid, t)
        artifacts.append("final.wig1")
    if "csv" in config.formats and series:
        header = ("t", "mean_x", "mean_p", "var_x", "var_p", "cov_xp",
                  "uncertainty_product", "blob_area")
        wio.write_csv(out / "series.csv", header, series)
        artifacts.append("series.csv")
    return metrics, monitors


def _run_validate(config, grid, psi, potential, artifacts, out):
    spec = config.experiment
    dt = _number(spec, "dt", "experiment")
    t_final = _number(spec, "t_final", "experiment")
    times = _times_from(spec, "experiment")
    report = cross_validate(psi, potential, t_final, dt, times)
    metrics = {
        "max_pairwise": report.max_pairwise(),
        "max_factorization_residual": max(report.factorization_residual),
        "max_norm_drift": max(abs(v) for v in report.norm_drift),
        "max_energy_drift": max(abs(v) for v in report.energy_drift),
    }
    monitors = {"norm_drift": report.norm_drift[-1],
                "boundary_mass": report.boundary[-1],
                "boundary_flagged": report.boundary_flagged}
    if "json" in config.formats:
        wio.write_json(out / "validation.json", report.as_dict())
        artifacts.append("validation.json")
    if "csv" in config.formats:
        rows = [(report.times[i], report.pair_l2["ab"][i],
                 report.pair_l2["ac"][i], report.pair_l2["bc"][i],
                 report.norm_drift[i], report.energy_drift[i],
                 report.boundary[i], report.factorization_residual[i])
                for i in range(len(report.times))]
        wio.write_csv(out / "validation.csv",
                      ("t", "l2_ab", "l2_ac", "l2_bc", "norm_drift",
                       "energy_drift", "boundary_mass",
                       "factorization_residual"), rows)
        artifacts.append("validation.csv")
    return metrics, monitors


def _run_tomo(config, grid, psi, potential, artifacts, out):
    n_angles = config.experiment.get("n_angles", 180)
    angles = [i * np.pi / n_angles for i in range(n_angles)]
    w = wigner_transform(psi)
    tomo = forward_tomogram(w, angles)
    rec = inverse_tomogram(tomo, grid)
    rel_l2 = float(np.sqrt(np.sum((rec.values - w.values) ** 2)
                           / np.sum(w.values ** 2)))
    metrics = {"n_angles": n_angles, "rel_l2": rel_l2,
               "min_w_source": float(w.values.min()),
               "min_w_reconstructed": float(rec.values.min()),
               "min_before_clip": tomo.min_before_clip}
    monitors = {"norm_drift": w.total() - 1.0,
                "boundary_mass": boundary_mass(w.values, (0, 1))}
    if "csv" in config.formats:
        n_x = len(tomo.x_axis)
        rows = zip(np.repeat(angles, n_x), np.tile(tomo.x_axis, len(angles)),
                   tomo.values.ravel())
        wio.write_csv(out / "tomogram.csv", ("theta", "X", "w"), rows)
        artifacts.append("tomogram.csv")
    if "binary" in config.formats:
        wio.write_field(out / "tomogram.wig1", tomo.values, grid, w.t)
        wio.write_field(out / "reconstruction.wig1", rec.values, grid, w.t)
        artifacts.extend(["tomogram.wig1", "reconstruction.wig1"])
    return metrics, monitors


def _run_ehrenfest(config, grid, psi, potential, artifacts, out):
    spec = config.experiment
    table = ehrenfest_track(psi, potential,
                            _numbers(spec, "t_grid", "experiment"),
                            _number(spec, "dt", "experiment"))
    gap = np.abs(table[:, 3] - table[:, 4])
    classical_gap = np.hypot(table[:, 1] - table[:, 5],
                             table[:, 2] - table[:, 6])
    metrics = {"max_force_gap": float(gap.max()),
               "max_classical_gap": float(classical_gap.max()),
               "final_mean_x": float(table[-1, 1]),
               "final_mean_p": float(table[-1, 2])}
    monitors = {"norm_drift": norm(psi) ** 2 - 1.0,
                "boundary_mass": boundary_mass(
                    np.abs(psi.samples) ** 2, (0,))}
    if "csv" in config.formats:
        header = ("t", "mean_x", "mean_p", "mean_force", "force_at_mean",
                  "classical_x", "classical_p")
        wio.write_csv(out / "ehrenfest.csv", header,
                      [tuple(row) for row in table])
        artifacts.append("ehrenfest.csv")
    return metrics, monitors


_RUNNERS = {"wigner": _run_wigner, "moments": _run_moments,
            "evolve": _run_evolve, "validate": _run_validate,
            "tomo": _run_tomo, "ehrenfest": _run_ehrenfest}


def run_scenario(config: ScenarioConfig, output_dir) -> dict:
    """Execute a scenario and write its artifacts; returns the manifest.

    All scientific outputs (manifest, fields, tables) are byte-identical
    across runs for a fixed (config, version); only timing.json varies.
    """
    from pathlib import Path
    from . import __version__

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    grid = build_grid(config.grid)
    psi = build_state(grid, config.state)
    potential = build_potential(config.potential)
    artifacts: list = []
    metrics, monitors = _RUNNERS[config.experiment["kind"]](
        config, grid, psi, potential, artifacts, out)

    manifest = {
        "scenario": config.name,
        "version": __version__,
        "config": config.as_dict(),
        "metrics": metrics,
        "monitors": monitors,
        "artifacts": sorted(artifacts),
        "runtime_artifact": "timing.json",
    }
    wio.write_json(out / "manifest.json", manifest)
    wio.write_json(out / "timing.json",
                   {"runtime_seconds": time.perf_counter() - started})
    return manifest
