"""Declarative scenario configs and the runner behind the command line.

A scenario is one YAML document: grid + state + potential + experiment +
output options.  One table, SCHEMA, gives every section's kinds with
their builder (or runner), required keys and optional keys with
defaults.  Keys outside it are rejected so typos fail loudly instead of
silently running a default.  A scenario runs to the end before it
writes anything, so a failed run leaves no output.  Every run writes a
manifest.json whose bytes depend only on (config, package version);
wall-clock timing goes to a separate timing.json sidecar so the
scientific artifacts stay byte-reproducible across runs on one numpy
build and CPU; the sidecar names that build and CPU too.
"""

import copy
import platform
import re
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import io as wio
from .dynamics import (BOUNDARY_FLAG, _check_boundary, _ehrenfest,
                       boundary_mass, cross_validate,
                       propagate_characteristic, propagate_moyal_exact,
                       propagate_moyal_truncated, propagate_schrodinger,
                       sample_steps)
from .errors import ConfigError, is_integer
from .grid import MAX_N, make_grid, square_grid
from .observables import moments, negativity, purity
from .potentials import (double_well, free_particle, harmonic, polynomial,
                         quartic)
from .states import (cat_state, gaussian_packet, harmonic_eigenstate, norm,
                     superpose, two_slit_state)
from .tomography import forward_tomogram, inverse_tomogram
from .wigner import to_characteristic, wigner_transform

__all__ = ["ScenarioConfig", "load_config", "builtin_config",
           "run_scenario", "BUILTIN_SCENARIOS", "SCHEMA"]

FORMATS = ("json", "csv", "binary")


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario's sections exactly as given (see SCHEMA for the keys)."""

    name: str
    grid: dict
    state: dict
    potential: dict
    experiment: dict
    formats: tuple


# Value checks: each takes (value, context) and returns the value to use.

def _expect(what: str, test):
    """The check that passes the values test accepts."""
    def check(value, context):
        if not test(value):
            raise ConfigError(f"{context}: expected {what}, got {value!r}")
        return value
    return check


# finite: NaN fails the comparison, and so do ints beyond float range
_finite = _expect("a number", lambda value: (
    isinstance(value, (int, float)) and not isinstance(value, bool)
    and abs(value) <= sys.float_info.max))


def _number(value, context) -> float:
    return float(_finite(value, context))


_positive = _expect("a positive number", lambda value: value > 0)


def _list_of(item):
    """The check of a non-empty list whose entries pass item."""
    def check(value, context):
        _expect("a non-empty list",
                lambda v: isinstance(v, list) and v)(value, context)
        return [item(v, f"{context}.{i}") for i, v in enumerate(value)]
    return check


def _amplitude(value, context) -> complex:
    """A superposition coefficient: a number or a [real, imaginary] pair."""
    if isinstance(value, list) and len(value) == 2:
        return complex(*_list_of(_number)(value, context))
    return complex(_number(value, context))


def _acyclic(value, context, enclosing=()):
    """The value, unless a YAML alias inside its own anchor makes it
    contain itself (no check of it could finish)."""
    if id(value) in enclosing:
        raise ConfigError(f"{context}: contains itself (a YAML alias "
                          "inside its own anchor)")
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        _acyclic(item, f"{context}.{key}", (*enclosing, id(value)))
    return value


def _section(section: str, spec, context=None):
    """Check one config section against SCHEMA.

    Returns (builder, values): the kind's builder or runner and its
    keyword arguments, with defaults filled in and every value checked
    (see TYPES; any other key is a finite number, converted to float).
    """
    context = context or section
    _expect("a mapping", lambda value: isinstance(value, dict))(spec, context)
    kinds = SCHEMA[section]
    kind = None if None in kinds else spec.get("kind")
    if not isinstance(kind, (str, type(None))) or kind not in kinds:
        raise ConfigError(f"{context}.kind: expected one of {sorted(kinds)}, "
                          f"got {kind!r}")
    builder, required, optional = kinds[kind]
    allowed = {*required, *optional} | ({"kind"} if kind else set())
    unknown = sorted(map(str, spec.keys() - allowed))
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown} "
                          f"(allowed: {sorted(allowed)})")
    missing = sorted(set(required) - spec.keys())
    if missing:
        raise ConfigError(f"{context}: missing keys {missing}")
    values = copy.deepcopy(optional)
    for key, value in spec.items():
        if key != "kind":
            check = TYPES.get(f"{section}.{key}", _number)
            values[key] = check(value, f"{context}.{key}")
    return builder, values


def _grid(n, x_min, x_max, square, hbar, mass):
    if square:
        if x_min is not None or x_max is not None:
            raise ConfigError("grid: square grids fix their own extent; "
                              "do not also give x_min/x_max")
        return square_grid(n, hbar=hbar, mass=mass)
    if x_min is None or x_max is None:
        raise ConfigError("grid: give x_min and x_max, or square: true")
    return make_grid(n, x_min, x_max, hbar=hbar, mass=mass)


def _superposition(grid, components, coefficients):
    state, _ = superpose(
        [build(grid, **values) for build, values in components], coefficients)
    return state


def _build(config: ScenarioConfig) -> tuple:
    """(grid, initial state, potential, runner, the runner's arguments):
    the one path from a config to a run, every section checked first."""
    TYPES["scenario.formats"](config.formats, "scenario.formats")
    run, values = _section("experiment", config.experiment)
    # the raw section: the schema's default gives every route an n_max
    if "n_max" in config.experiment and values["route"] != "truncated":
        raise ConfigError("experiment.n_max: only the truncated route takes "
                          f"n_max, not route {values['route']!r}")
    built = []
    for section in ("grid", "state", "potential"):
        build, section_values = _section(section, getattr(config, section))
        try:
            # the state and the potential are built on the grid
            built.append(build(*built[:1], **section_values))
        except (ValueError, ArithmeticError) as exc:
            # the constructors' own parameter checks (harmonic,
            # double_well), or a value too large to square
            raise ConfigError(f"{section}: {exc}") from exc
    grid, psi, potential = built
    if "t_final" in values:   # evolve and validate: null means [t_final]
        values["sample_times"] = values["sample_times"] or [values["t_final"]]
    if "dt" in values:
        sample_steps(values.get("sample_times", values.get("t_grid")),
                     values["dt"], psi.t, values.get("t_final"))
    return grid, psi, potential, run, values


def _parse_config(doc: dict, default_name: str) -> ScenarioConfig:
    build, values = _section("scenario", {"name": default_name, **doc})
    config = build(**values)
    _build(config)   # so a bad config fails on load
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
    # besides YAMLError, PyYAML's constructors raise ValueError, IndexError,
    # KeyError or AttributeError on a bad tagged scalar (!!int x, !!float)
    except Exception as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return _parse_config(doc, Path(path).stem)


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
    return _parse_config({k: v for k, v in BUILTIN_SCENARIOS[name].items()
                          if k != "description"}, name)


# Runners: runner(grid, psi, potential, save, **values) -> (metrics,
# monitors), where save(name, *args) has run_scenario write artifact
# name once the runner has returned, if the scenario asks for the format
# its suffix picks: .json (json), .csv (csv) or .wig1 (binary).

def _monitors(route: str, steps: int, t: float, drift: float, values,
              flagged: bool = False, stop: bool = True) -> dict:
    """Monitors of the reported field, reached after steps steps at t:
    _check_boundary rules on its boundary mass unless stop is false, and
    the mass or flagged (a field checked before was) flags the run."""
    mass = boundary_mass(values)
    if stop:
        _check_boundary(route, steps, t, mass, None)
    return {"norm_drift": drift, "boundary_mass": mass,
            "boundary_flagged": flagged or mass > BOUNDARY_FLAG}


def _run_wigner(grid, psi, potential, save):
    w = wigner_transform(psi)
    min_w, neg_volume = negativity(w)
    metrics = {
        "total": w.total(), "purity": purity(w),
        "min_w": min_w, "negative_volume": neg_volume,
        "moments": moments(w).as_dict(),
    }
    save("wigner.wig1", w.values, grid, w.t)
    save("wigner.csv", ("x", "p", "w"),
         wio.GridRows(grid.x, grid.p, w.values))
    return metrics, _monitors("wigner", 0, w.t, norm(psi) ** 2 - 1.0, w.values)


def _run_moments(grid, psi, potential, save):
    w = wigner_transform(psi)
    operator_route = moments(psi).as_dict()
    phase_route = moments(w).as_dict()
    gap = max(abs(a - b) for a, b in zip(operator_route.values(),
                                         phase_route.values()))
    metrics = {"operator": operator_route, "phase_space": phase_route,
               "route_gap": gap}
    save("moments.csv", ("moment", "operator_route", "phase_space_route"),
         [(key, operator_route[key], phase_route[key])
          for key in operator_route])
    return metrics, _monitors("moments", 0, w.t, norm(psi) ** 2 - 1.0,
                              w.values)


ROUTES = ("schrodinger", "moyal", "characteristic", "truncated")


def _run_evolve(grid, psi, potential, save, route, dt, t_final,
                sample_times, n_max):
    # named at run time, so the benchmark tracer's wrappers see each call
    propagate = {"schrodinger": propagate_schrodinger,
                 "moyal": propagate_moyal_exact,
                 "characteristic": propagate_characteristic,
                 "truncated": partial(propagate_moyal_truncated,
                                      n_max=n_max)}[route]
    kernel = route == "characteristic"
    state = psi if route == "schrodinger" else wigner_transform(psi)
    state = to_characteristic(state) if kernel else state
    flags: list = []
    series = []
    schedule = sample_steps(sample_times, dt, psi.t, t_final)
    for steps in schedule:
        state = propagate(state, potential, dt, steps, boundary_flags=flags)
        # a sample reads one field: the Wigner field, or the kernel
        field = wigner_transform(state) if route == "schrodinger" else state
        if not kernel:
            report = moments(field).as_dict()
            series.append((field.t, *report.values()))
    save("final.wig1", field.values, grid, field.t)
    metrics = {"final_time": field.t}
    if kernel:
        metrics["hermiticity_defect"] = field.hermiticity_defect()
        drift = field.diagonal_total()
    else:
        metrics["final_moments"] = report
        drift = norm(state) ** 2 if route == "schrodinger" else field.total()
        save("series.csv", ("t", *report), series)
    # psi met BOUNDARY_HARD at every step, so the Wigner field made from it
    # only flags the run: a box that cuts psi's correlation (sigma = 1 on
    # +-8) leaves 1.9e-4 of that field at the edge, where psi has 4e-13
    return metrics, _monitors(route, sum(schedule), field.t, drift - 1.0,
                              field.values, bool(flags),
                              stop=route != "schrodinger")


def _run_validate(grid, psi, potential, save, dt, t_final, sample_times):
    report = cross_validate(psi, potential, t_final, dt, sample_times)
    metrics = {
        "max_pairwise": report.max_pairwise(),
        "max_factorization_residual": max(report.factorization_residual),
        "max_norm_drift": max(abs(v) for v in report.norm_drift),
        "max_energy_drift": max(abs(v) for v in report.energy_drift),
    }
    # cross_validate has ruled on the exact route's last field
    monitors = {"norm_drift": report.norm_drift[-1],
                "boundary_mass": report.boundary[-1],
                "boundary_flagged": report.boundary_flagged}
    save("validation.json", asdict(report))
    save("validation.csv", ("t", "l2_ab", "l2_ac", "l2_bc", "norm_drift",
                            "energy_drift", "boundary_mass",
                            "factorization_residual"),
         zip(report.times, report.pair_l2["ab"], report.pair_l2["ac"],
             report.pair_l2["bc"], report.norm_drift, report.energy_drift,
             report.boundary, report.factorization_residual))
    return metrics, monitors


def _run_tomo(grid, psi, potential, save, n_angles):
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
    save("tomogram.csv", ("theta", "X", "w"),
         wio.GridRows(angles, tomo.x_axis, tomo.values))
    save("tomogram.wig1", tomo.values, grid, w.t)
    save("reconstruction.wig1", rec.values, grid, w.t)
    return metrics, _monitors("tomo", 0, w.t, w.total() - 1.0, w.values)


def _run_ehrenfest(grid, psi, potential, save, dt, t_grid):
    table, final = _ehrenfest(psi, potential, t_grid, dt)
    gap = np.abs(table[:, 3] - table[:, 4])
    classical_gap = np.hypot(table[:, 1] - table[:, 5],
                             table[:, 2] - table[:, 6])
    metrics = {"max_force_gap": float(gap.max()),
               "max_classical_gap": float(classical_gap.max()),
               "final_mean_x": float(table[-1, 1]),
               "final_mean_p": float(table[-1, 2])}
    save("ehrenfest.csv", ("t", "mean_x", "mean_p", "mean_force",
                           "force_at_mean", "classical_x", "classical_p"),
         [tuple(row) for row in table])
    return metrics, _monitors(
        "schrodinger", sum(sample_steps(t_grid, dt, psi.t)), final.t,
        norm(final) ** 2 - 1.0, np.abs(final.samples) ** 2)


# section.key -> check, for every key that is not a plain number
TYPES = {
    "scenario.name": _expect("a non-empty string",
                             lambda value: isinstance(value, str) and value),
    "scenario.formats": lambda value, context: tuple(_expect(
        f"a non-empty subset of {FORMATS}",
        lambda v: isinstance(v, (list, tuple)) and v
        and all(f in FORMATS for f in v))(value, context)),
    **{f"scenario.{section}": lambda value, context: copy.deepcopy(
        _acyclic(value, context))
       for section in ("grid", "state", "potential", "experiment")},
    "grid.n": _expect("an integer", is_integer),
    "grid.square": _expect("true or false",
                           lambda value: isinstance(value, bool)),
    "state.level": _expect("an integer", is_integer),
    "state.components": _list_of(
        lambda part, context: _section("state", part, context)),
    "state.coefficients": _list_of(_amplitude),
    "potential.coefficients": _list_of(_number),
    "experiment.route": _expect(
        f"a route from {ROUTES}",
        lambda value: isinstance(value, str) and value in ROUTES),
    "experiment.dt": lambda value, context: _positive(
        _number(value, context), context),
    "experiment.sample_times": lambda value, context: (
        None if value is None else _list_of(_number)(value, context)),
    "experiment.t_grid": _list_of(_number),
    "experiment.n_max": _expect("an integer >= 0",
                                lambda v: is_integer(v) and v >= 0),
    "experiment.n_angles": _expect(f"an integer in 2..{MAX_N}",
                                   lambda v: is_integer(v) and 1 < v <= MAX_N),
}

# section -> kind -> (builder or runner, required keys, optional keys with
# their defaults); the top level ("scenario") and the grid have no kind.
# A key that TYPES does not name is a finite number, converted to float.
SCHEMA = {
    # the default name, the file's stem or the built-in's name, is filled
    # in by _parse_config
    "scenario": {None: (ScenarioConfig, ("grid", "state"), {
        "name": None, "potential": {"kind": "free"},
        "experiment": {"kind": "wigner"}, "formats": FORMATS})},
    "grid": {None: (_grid, ("n",), {"x_min": None, "x_max": None,
                                    "square": False, "hbar": 1.0,
                                    "mass": 1.0})},
    "state": {
        "gaussian": (gaussian_packet, (),
                     {"x0": 0.0, "p0": 0.0, "sigma": 1.0}),
        "harmonic": (harmonic_eigenstate, (), {"level": 0, "omega": 1.0}),
        "cat": (cat_state, ("x0", "sigma"), {"p0": 0.0}),
        "two_slit": (two_slit_state, ("separation", "slit_width"), {}),
        "superposition": (_superposition, ("components", "coefficients"), {}),
    },
    "potential": {
        "free": (lambda grid: free_particle(), (), {}),
        "harmonic": (lambda grid, omega: harmonic(omega, grid.mass), (),
                     {"omega": 1.0}),
        "quartic": (lambda grid, lam: quartic(lam), ("lam",), {}),
        "double_well": (lambda grid, a, b: double_well(a, b), ("a", "b"), {}),
        "polynomial": (lambda grid, coefficients: polynomial(coefficients),
                       ("coefficients",), {}),
    },
    "experiment": {
        "wigner": (_run_wigner, (), {}),
        "moments": (_run_moments, (), {}),
        "evolve": (_run_evolve, ("route", "dt", "t_final"),
                   {"sample_times": None, "n_max": 1}),
        "validate": (_run_validate, ("dt", "t_final"), {"sample_times": None}),
        "tomo": (_run_tomo, (), {"n_angles": 180}),
        "ehrenfest": (_run_ehrenfest, ("dt", "t_grid"), {}),
    },
}


def _build_info() -> dict:
    """numpy, BLAS and CPU, on which an artifact's last bits depend."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = Path("/proc/cpuinfo")   # Linux; elsewhere platform's word
    cpu = re.findall(r"model name\s*:\s*(.*)",
                     cpuinfo.read_text() if cpuinfo.exists() else "")
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "machine": platform.machine(),
            "cpu": cpu[0] if cpu else platform.processor()}


def run_scenario(config: ScenarioConfig, output_dir) -> dict:
    """Execute a scenario and write its artifacts; returns the manifest.

    The scenario runs to the end before anything is written, so a run
    that fails leaves no output.  All scientific outputs (manifest,
    fields, tables) are byte-identical across runs of a fixed (config,
    version) on one numpy build and CPU; timing.json varies and names them.
    """
    from . import __version__

    started = time.perf_counter()
    grid, psi, potential, run, values = _build(config)
    pending: dict = {}

    def save(name, *args):
        # looked up per call, so the benchmark tracer's wrappers see writes
        fmt, writer = {".json": ("json", wio.write_json),
                       ".csv": ("csv", wio.write_csv),
                       ".wig1": ("binary", wio.write_field)}[Path(name).suffix]
        if fmt in config.formats:
            pending[name] = (writer, args)

    metrics, monitors = run(grid, psi, potential, save, **values)
    manifest = {
        "scenario": config.name,
        "version": __version__,
        "config": asdict(config),
        "metrics": metrics,
        "monitors": monitors,
        "artifacts": sorted(pending),
        "runtime_artifact": "timing.json",
    }
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (writer, args) in pending.items():
        writer(out / name, *args)
    wio.write_json(out / "manifest.json", manifest)
    wio.write_json(out / "timing.json",
                   {"runtime_seconds": time.perf_counter() - started,
                    **_build_info()})
    return manifest
