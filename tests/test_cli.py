import filecmp
import json
import re
from pathlib import Path

import numpy as np
import pytest

from wignerlab import ConfigError, __version__
from wignerlab.cli import main
from wignerlab.grid import square_grid
from wignerlab.io import read_field
from wignerlab.scenarios import load_config, run_scenario

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
