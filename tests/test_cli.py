import csv
import filecmp
import json
import re
from pathlib import Path

import numpy as np
import pytest

from wignerlab import (ConfigError, __version__, free_particle,
                       gaussian_packet, make_grid, norm,
                       propagate_characteristic, propagate_moyal_exact,
                       propagate_moyal_truncated, propagate_schrodinger,
                       quartic, to_characteristic, wigner_transform)
from wignerlab.dynamics import boundary_mass
from wignerlab.cli import main
from wignerlab.grid import square_grid
from wignerlab.io import read_field
from wignerlab.scenarios import ROUTES, _monitors, load_config, run_scenario

QUICK_YAML = """\
name: quick-cat
grid:
  n: 128
  square: true
state:
  kind: cat
  x0: 3.0
  sigma: 0.7071067811865476
experiment:
  kind: wigner
"""


def write_quick(tmp_path):
    path = tmp_path / "quick.yaml"
    path.write_text(QUICK_YAML)
    return path


def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_list_builtins(capsys):
    assert main(["list"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) >= 7
    names = [ln.split()[0] for ln in lines]
    assert len(set(names)) == len(names)
    assert "ho-roundtrip" in names


def test_run_yaml_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(write_quick(tmp_path)),
                 "--output", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "quick-cat"
    assert (out / "timing.json").exists()
    for artifact in manifest["artifacts"]:
        assert (out / artifact).exists(), artifact
    assert "quick-cat" in capsys.readouterr().out


def test_run_builtin_uses_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("WIGNERLAB_OUTPUT_ROOT", str(tmp_path / "root"))
    assert main(["run", "cat-negativity"]) == 0
    assert (tmp_path / "root" / "cat-negativity" / "manifest.json").exists()


def test_unknown_scenario_is_config_error(capsys):
    assert main(["run", "no-such-scenario"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(QUICK_YAML + "  extra_knob: 3\n")
    assert main(["run", str(path), "--output", str(tmp_path / "o")]) == 2
    assert "extra_knob" in capsys.readouterr().err


def test_physics_precondition_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(QUICK_YAML.replace("n: 128", "n: 7"))
    assert main(["run", str(path), "--output", str(tmp_path / "o")]) == 3
    assert "physics precondition" in capsys.readouterr().err


def test_invalid_worker_count_rejected(monkeypatch, capsys):
    monkeypatch.setenv("WIGNERLAB_WORKERS", "many")
    assert main(["version"]) == 2
    assert "WIGNERLAB_WORKERS" in capsys.readouterr().err


def test_zero_worker_count_rejected(monkeypatch, capsys):
    monkeypatch.setenv("WIGNERLAB_WORKERS", "0")
    assert main(["list"]) == 2
    assert "positive integer" in capsys.readouterr().err


def test_wigner_csv_matches_axes_and_field(tmp_path):
    """wigner.csv lists (x, p, w) row-major over the grid, losslessly."""
    out = tmp_path / "out"
    run_scenario(load_config(write_quick(tmp_path)), out)
    values, meta = read_field(out / "wigner.wig1")
    table = np.loadtxt(out / "wigner.csv", delimiter=",", skiprows=1)
    n = values.shape[0]
    grid = square_grid(n)
    assert meta["x_min"] == grid.x_min and meta["dx"] == grid.dx
    assert table.shape == (n * n, 3)
    x, p, w = (table[:, c].reshape(n, n) for c in range(3))
    assert np.array_equal(x, np.broadcast_to(grid.x[:, None], (n, n)))
    assert np.array_equal(p, np.broadcast_to(grid.p[None, :], (n, n)))
    assert np.array_equal(w, values)


def artifact_bytes(directory):
    """(name, bytes) for every output except the runtime sidecar."""
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()
            if p.name != "timing.json"}


def test_runs_are_byte_deterministic(tmp_path, monkeypatch):
    config = write_quick(tmp_path)
    assert main(["run", str(config), "--output", str(tmp_path / "a")]) == 0
    monkeypatch.setenv("WIGNERLAB_WORKERS", "8")
    assert main(["run", str(config), "--output", str(tmp_path / "b")]) == 0
    a, b = artifact_bytes(tmp_path / "a"), artifact_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], name


EVOLVE_YAML = """\
name: {name}
grid:
  n: 128
  x_min: -8.0
  x_max: 8.0
state:
  kind: gaussian
  x0: 0.0
  p0: {p0}
  sigma: 1.0
potential:
{potential}
experiment:
  kind: evolve
  route: {route}
  dt: {dt}
  t_final: {t_final}
"""


def write_evolve(tmp_path, name, route, dt, t_final, p0=2.0,
                 potential="  kind: free", extra=""):
    path = tmp_path / f"{name}.yaml"
    path.write_text(EVOLVE_YAML.format(name=name, route=route, dt=dt,
                                       t_final=t_final, p0=p0,
                                       potential=potential) + extra)
    return path


MONITOR_LINE = re.compile(
    r"numerical monitor failure: (\w+) route, step (\d+) "
    r"\(t = (\S+)\): (.+) (\S+) exceeds threshold (\S+)$")


def monitor_trip(capsys):
    """(route, step, t, quantity, value, threshold) the CLI printed."""
    match = MONITOR_LINE.match(capsys.readouterr().err.strip())
    assert match, "monitor message lacks route, step, t, value or threshold"
    route, step, t, quantity, value, threshold = match.groups()
    return route, int(step), float(t), quantity, float(value), float(threshold)


def test_schrodinger_boundary_trip_names_step(tmp_path, capsys):
    config = write_evolve(tmp_path, "edge", "schrodinger", 0.01, 4.0)
    assert main(["run", str(config), "--output", str(tmp_path / "o")]) == 4
    route, step, t, quantity, value, threshold = monitor_trip(capsys)
    assert (route, quantity, threshold) == ("schrodinger", "boundary mass",
                                            1e-4)
    assert 1 < step < 400 and t == pytest.approx(0.01 * step, rel=1e-5)
    assert value > threshold


def test_characteristic_hermiticity_trip_names_step(tmp_path, capsys):
    """A potential that overflows at the grid edge fills the kernel with
    NaN, which the Hermiticity monitor must not let through."""
    config = write_evolve(
        tmp_path, "overflow", "characteristic", 0.01, 1.0,
        potential="  kind: polynomial\n"
                  "  coefficients: [0.0, 0.0, 0.0, 0.0, 1.0e+306]")
    with np.errstate(all="ignore"):
        code = main(["run", str(config), "--output", str(tmp_path / "o")])
    assert code == 4
    route, step, t, quantity, value, threshold = monitor_trip(capsys)
    assert (route, step, t) == ("characteristic", 1, 0.01)
    assert (quantity, threshold) == ("Hermiticity defect", 1e-10)
    assert np.isnan(value)


def test_evolve_rejects_unreachable_sample_times(tmp_path, capsys):
    """With dt = 0.3 the run cannot stop at t = 0.5 or 1.0; it must fail
    before any output exists instead of labelling t = 1.2 as t = 1.0."""
    config = write_evolve(tmp_path, "drift", "schrodinger", 0.3, 1.0, p0=1.0,
                          extra="  sample_times: [0.5, 1.0]\n")
    assert main(["run", str(config), "--output", str(tmp_path / "o")]) == 3
    assert "not a multiple of dt" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def write_late_sample(tmp_path):
    path = tmp_path / "late.yaml"
    path.write_text(QUICK_YAML.replace(
        "kind: wigner", "kind: validate\n  dt: 0.25\n  t_final: 1.0\n"
                        "  sample_times: [2.0]"))
    return path


def write_late_evolve(tmp_path):
    path = write_evolve(tmp_path, "late", "moyal", 0.01, 0.1, p0=0.0,
                        potential="  kind: harmonic",
                        extra="  sample_times: [0.3]\n")
    path.write_text(path.read_text().replace("8.0", "12.0"))
    return path


@pytest.mark.parametrize("write,code,message", [
    (write_late_sample, 3, "sample times must lie inside [0, t_final]"),
    (write_late_evolve, 3, "sample times must lie inside [0, t_final]"),
    (lambda tmp_path: write_evolve(tmp_path, "edge", "schrodinger", 0.01,
                                   4.0), 4, "boundary mass"),
])
def test_failed_run_leaves_no_output(tmp_path, capsys, write, code,
                                     message):
    """Failures found while the scenario runs, after the config loaded:
    a validate or evolve sample time past t_final, and a tripped
    monitor."""
    config = write(tmp_path)
    load_config(config)
    out = tmp_path / "o"
    assert main(["run", str(config), "--output", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_evolve_reports_the_time_reached(tmp_path):
    """Three steps of 0.1 reach 0.30000000000000004, not t_final = 0.3."""
    config = write_evolve(tmp_path, "reach", "schrodinger", 0.1, 0.3)
    out = tmp_path / "o"
    assert main(["run", str(config), "--output", str(out)]) == 0
    reached = 0.0 + 3 * 0.1
    assert reached != 0.3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["metrics"]["final_time"] == reached
    series = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
    assert series[0] == reached
    assert read_field(out / "final.wig1")[1]["time"] == reached


def test_evolve_takes_sample_times_in_any_order(tmp_path):
    outputs = []
    for name, times in (("sorted", "[0.02, 0.05]"),
                        ("unsorted", "[0.05, 0.02]")):
        config = write_evolve(tmp_path, name, "moyal", 0.01, 0.1, p0=0.0,
                              potential="  kind: harmonic",
                              extra=f"  sample_times: {times}\n")
        config.write_text(config.read_text().replace("8.0", "12.0"))
        outputs.append(tmp_path / name)
        assert main(["run", str(config), "--output", str(outputs[-1])]) == 0
    for artifact in ("final.wig1", "series.csv"):
        assert filecmp.cmp(outputs[0] / artifact, outputs[1] / artifact,
                           shallow=False), artifact
    manifest = json.loads((outputs[1] / "manifest.json").read_text())
    assert manifest["metrics"]["final_time"] == 0.05


def test_evolve_manifest_flags_boundary_mass(tmp_path):
    """16 of these 50 steps put more than 1e-8 of the density in the
    outer 5 % of the grid; none trips the 1e-4 limit."""
    config = write_evolve(tmp_path, "near-edge", "schrodinger", 0.01, 0.5,
                          p0=0.0, potential="  kind: harmonic")
    config.write_text(config.read_text()
                      .replace("x_min: -8.0", "x_min: -10.0")
                      .replace("x_max: 8.0", "x_max: 10.0")
                      .replace("x0: 0.0", "x0: 3.5"))
    out = tmp_path / "o"
    assert main(["run", str(config), "--output", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["monitors"]["boundary_flagged"] is True


def test_yaml_exponent_floats(tmp_path):
    for text, value in (("1e-3", 1e-3), ("5.0e-4", 5e-4)):
        config = load_config(write_evolve(tmp_path, "exp", "moyal", text, 0.01))
        assert config.experiment["dt"] == value
        assert isinstance(config.experiment["dt"], float)
    with pytest.raises(ConfigError, match="expected a number"):
        load_config(write_evolve(tmp_path, "quoted", "moyal", "'1e-3'", 0.01))


def test_evolve_rejects_non_numeric_sample_times(tmp_path, capsys):
    config = write_evolve(tmp_path, "words", "moyal", 0.01, 0.02,
                          extra="  sample_times: [0.01, soon]\n")
    assert main(["run", str(config), "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "experiment.sample_times" in err and "'soon'" in err


@pytest.mark.parametrize("route,dt,t_final,extra,message", [
    ("bogus", 0.01, 0.02, "", "experiment.route"),
    ("truncated", 0.01, 0.02, "  n_max: -1\n", "experiment.n_max"),
    ("truncated", 0.01, 0.02, "  n_max: 1.5\n", "experiment.n_max"),
    ("moyal", 0.01, 0.02, "  n_max: 7\n", "experiment.n_max"),
    ("moyal", 0.0, 0.02, "", "experiment.dt"),
    ("moyal", -0.01, 0.02, "", "experiment.dt"),
    ("moyal", 0.01, "later", "", "experiment.t_final"),
    ("moyal", 0.01, 0.02, "  sample_times: []\n", "experiment.sample_times"),
    ("moyal", 0.01, 0.02, "  t_grid: [0.0]\n", "t_grid"),
])
def test_bad_experiment_fails_before_output(tmp_path, capsys, route, dt,
                                            t_final, extra, message):
    config = write_evolve(tmp_path, "bad", route, dt, t_final, extra=extra)
    with pytest.raises(ConfigError, match=message):
        load_config(config)
    out = tmp_path / "o"
    assert main(["run", str(config), "--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_bad_tomo_angle_count_fails_before_output(tmp_path):
    path = tmp_path / "tomo.yaml"
    path.write_text(QUICK_YAML.replace("kind: wigner",
                                       "kind: tomo\n  n_angles: 1"))
    with pytest.raises(ConfigError, match="experiment.n_angles"):
        load_config(path)


def run_quick(tmp_path, old, new):
    """CLI exit code and output directory of QUICK_YAML with old -> new."""
    path = tmp_path / "variant.yaml"
    path.write_text(QUICK_YAML.replace(old, new))
    out = tmp_path / "o"
    return main(["run", str(path), "--output", str(out)]), out


def test_moments_routes_agree(tmp_path):
    code, out = run_quick(tmp_path, "kind: wigner", "kind: moments")
    assert code == 0
    metrics = json.loads((out / "manifest.json").read_text())["metrics"]
    assert metrics["route_gap"] < 1e-8   # criterion 5's bound
    with open(out / "moments.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["moment", "operator_route", "phase_space_route"]
    # the manifest sorts its keys; the table keeps the report's order
    assert sorted(row[0] for row in rows[1:]) == list(metrics["operator"])
    for name, operator_route, phase_space_route in rows[1:]:
        assert float(operator_route) == metrics["operator"][name]
        assert float(phase_space_route) == metrics["phase_space"][name]


def test_superposition_of_gaussians_runs(tmp_path):
    code, out = run_quick(
        tmp_path, "  kind: cat\n  x0: 3.0\n  sigma: 0.7071067811865476\n",
        "  kind: superposition\n"
        "  components:\n"
        "    - {kind: gaussian, x0: -2.0}\n"
        "    - {kind: gaussian, x0: 2.0, p0: 1.0}\n"
        "  coefficients: [1.0, [0.0, 1.0]]\n")
    assert code == 0
    metrics = json.loads((out / "manifest.json").read_text())["metrics"]
    assert metrics["total"] == pytest.approx(1.0, abs=1e-9)
    assert metrics["purity"] == pytest.approx(1.0, abs=1e-6)


def test_evolve_characteristic_writes_the_kernel(tmp_path):
    config = write_evolve(tmp_path, "kernel", "characteristic", 0.01, 0.05)
    out = tmp_path / "o"
    assert main(["run", str(config), "--output", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["final.wig1"]
    assert manifest["metrics"]["hermiticity_defect"] < 1e-10
    values, meta = read_field(out / "final.wig1")
    assert np.iscomplexobj(values) and values.shape == (128, 128)
    assert meta["time"] == manifest["metrics"]["final_time"]


# route -> the field its evolve run writes, computed by calling the
# route's propagator directly on the initial state
ROUTE_FIELDS = {
    "schrodinger": lambda psi, *run: wigner_transform(
        propagate_schrodinger(psi, *run)),
    "moyal": lambda psi, *run: propagate_moyal_exact(
        wigner_transform(psi), *run),
    "characteristic": lambda psi, *run: propagate_characteristic(
        to_characteristic(wigner_transform(psi)), *run),
    "truncated": lambda psi, *run: propagate_moyal_truncated(
        wigner_transform(psi), *run, 0),
}


@pytest.mark.parametrize("route", ROUTES)
def test_evolve_runs_the_route_propagator(tmp_path, route):
    """final.wig1 is, bit for bit, the route's propagator applied to the
    initial state; the truncated route keeps the config's n_max: 0."""
    config = write_evolve(
        tmp_path, route, route, 0.01, 0.05, p0=0.0,
        potential="  kind: quartic\n  lam: 0.1",
        extra="  n_max: 0\n" if route == "truncated" else "")
    config.write_text(config.read_text().replace("n: 128", "n: 64")
                      .replace("8.0", "10.0"))
    out = tmp_path / "o"
    assert main(["run", str(config), "--output", str(out)]) == 0
    written = read_field(out / "final.wig1")[0]
    psi = gaussian_packet(make_grid(64, -10.0, 10.0), 0.0, 0.0, 1.0)
    run = (psi, quartic(0.1), 0.01, 5)
    assert np.array_equal(written, ROUTE_FIELDS[route](*run).values)
    if route == "truncated":
        assert not np.array_equal(written, ROUTE_FIELDS["moyal"](*run).values)


def test_ehrenfest_monitors_describe_the_evolved_state(tmp_path):
    """The manifest's monitors are those of the state at the last t_grid
    time: here a packet that moves toward the edge, so its boundary mass
    grows far above the initial state's."""
    head = EVOLVE_YAML.format(name="drift", route="", dt=0, t_final=0,
                              p0=2.0, potential="  kind: free")
    config = tmp_path / "drift.yaml"
    config.write_text(head.split("experiment:")[0] + "experiment:\n"
                      "  kind: ehrenfest\n  dt: 0.01\n  t_grid: [0.0, 1.0]\n")
    out = tmp_path / "o"
    assert main(["run", str(config), "--output", str(out)]) == 0
    monitors = json.loads((out / "manifest.json").read_text())["monitors"]
    psi = gaussian_packet(make_grid(128, -8.0, 8.0), 0.0, 2.0, 1.0)
    final = propagate_schrodinger(psi, free_particle(), 0.01, 100)
    assert monitors == _monitors(norm(final) ** 2 - 1.0,
                                 np.abs(final.samples) ** 2, (0,))
    assert monitors["boundary_mass"] > 1e3 * boundary_mass(
        np.abs(psi.samples) ** 2, (0,))


EXPERIMENTS = {
    "wigner": "",
    "moments": "",
    "evolve": "  route: moyal\n  dt: 0.01\n  t_final: 0.02\n",
    "validate": "  dt: 0.01\n  t_final: 0.02\n",
    "tomo": "  n_angles: 4\n",
    "ehrenfest": "  dt: 0.01\n  t_grid: [0.0, 0.02]\n",
}


@pytest.mark.parametrize("n", [9, 16])
@pytest.mark.parametrize("kind", EXPERIMENTS)
def test_every_experiment_ends_in_an_exit_code(tmp_path, capsys, n, kind):
    """Each experiment on a tiny odd or even grid either runs or exits
    with a documented code, leaving no output behind; an odd grid used
    to end the Wigner transform in a ValueError traceback."""
    path = tmp_path / "tiny.yaml"
    path.write_text(f"grid: {{n: {n}, square: true}}\n"
                    f"state: {{kind: gaussian, sigma: 0.7}}\n"
                    f"experiment:\n  kind: {kind}\n{EXPERIMENTS[kind]}")
    out = tmp_path / "o"
    code = main(["run", str(path), "--output", str(out)])
    assert code in (0, 2, 3, 4)
    assert out.exists() == (code == 0)
    if n % 2 and kind != "ehrenfest":
        assert code == 3 and f"n = {n}" in capsys.readouterr().err
