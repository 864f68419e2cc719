"""The scenario config schema: per-kind keys, value checks, failures
before any output exists, and the README's config reference."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from wignerlab import ConfigError, PropagationError, WignerlabError
from wignerlab.cli import main
from wignerlab.scenarios import (SCHEMA, ScenarioConfig, load_config,
                                 run_scenario)

README = Path(__file__).resolve().parents[1] / "README.md"

GAUSSIAN = {"n": 128, "x_min": -8.0, "x_max": 8.0}


def write_config(tmp_path, doc, name="case"):
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def doc_with(grid=None, state=None, potential=None, experiment=None):
    doc = {"grid": grid or dict(GAUSSIAN),
           "state": state or {"kind": "gaussian", "x0": 0.5}}
    if potential is not None:
        doc["potential"] = potential
    if experiment is not None:
        doc["experiment"] = experiment
    return doc


def assert_config_error_before_output(tmp_path, capsys, doc, message):
    path = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    out = tmp_path / "o"
    assert main(["run", str(path), "--output", str(out)]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("doc,message", [
    # keys belong to one kind: a key of another kind is not ignored
    (doc_with(state={"kind": "cat", "x0": 3.0, "sigma": 0.7, "omega": 2.0,
                     "level": 4}), "level.*omega|omega.*level"),
    (doc_with(potential={"kind": "harmonic", "lam": 0.1}), "lam"),
    (doc_with(experiment={"kind": "tomo", "dt": 0.1}), "dt"),
    (doc_with(grid=dict(GAUSSIAN, kind="square")), "kind"),
    (doc_with(state={"kind": "gaussian", "components": []}), "components"),
    (doc_with(state={"kind": ["gaussian"]}), "state.kind"),
    (doc_with(state={"x0": 1.0}), "state.kind"),
    (dict(doc_with(), formats=["pdf"]), "formats"),
    (dict(doc_with(), name=""), "name"),
    (dict(doc_with(), grid=[["n", 64]]), "grid: expected a mapping"),
    # a square grid fixes its own extent; any other needs both bounds
    (doc_with(grid={"n": 64, "square": True, "x_min": -5.0}),
     "square grids fix their own extent"),
    (doc_with(grid={"n": 64, "x_min": -8.0}), "give x_min and x_max"),
])
def test_misplaced_keys_rejected(tmp_path, capsys, doc, message):
    assert_config_error_before_output(tmp_path, capsys, doc, message)


def test_potential_mass_is_not_a_key(tmp_path, capsys):
    doc = doc_with(potential={"kind": "harmonic", "mass": 2.0})
    assert_config_error_before_output(tmp_path, capsys, doc, "mass")


@pytest.mark.parametrize("doc,message", [
    (doc_with(potential={"kind": "harmonic", "omega": -1.0}),
     "potential: harmonic potential needs omega > 0"),
    (doc_with(potential={"kind": "double_well", "a": 0.5, "b": 1.0}),
     "potential: double well needs a < 0 < b"),
    (doc_with(potential={"kind": "double_well", "a": 0.0, "b": 1.0}),
     "potential: double well needs a < 0 < b"),
    (doc_with(potential={"kind": "polynomial",
                         "coefficients": [0.0, float("inf")]}),
     r"potential.coefficients.1: expected a number, got inf"),
    (doc_with(potential={"kind": "harmonic", "omega": 1e300}),
     "potential: .*out of range"),
    (doc_with(potential={"kind": "quartic", "lam": float("nan")}),
     "potential.lam: expected a number"),
    (doc_with(state={"kind": "superposition",
                     "components": [{"kind": "gaussian"},
                                    {"kind": "gaussian", "x0": 1.0}],
                     "coefficients": [1.0, [0, "x"]]}),
     r"state.coefficients.1.1: expected a number, got 'x'"),
    (doc_with(grid={"n": 64, "square": "yes"}),
     "grid.square: expected true or false, got 'yes'"),
    (doc_with(grid={"n": 64, "square": 1}),
     "grid.square: expected true or false, got 1"),
])
def test_bad_values_are_config_errors(tmp_path, capsys, doc, message):
    """Each of these ended in a ValueError traceback, or ran, before the
    schema checked every value."""
    assert_config_error_before_output(tmp_path, capsys, doc, message)


def test_self_containing_superposition_is_config_error(tmp_path, capsys):
    """A YAML alias inside its own anchor made the state check recurse
    until a RecursionError escaped load_config."""
    state = {"kind": "superposition", "coefficients": [1.0]}
    state["components"] = [state]
    assert_config_error_before_output(tmp_path, capsys, doc_with(state=state),
                                      r"state\.components\.0: contains itself")


@pytest.mark.parametrize("experiment", [
    {"kind": "evolve", "route": "moyal", "dt": 0.3, "t_final": 1.0,
     "sample_times": [0.5, 1.0]},
    {"kind": "validate", "dt": 0.3, "t_final": 1.0,
     "sample_times": [1.0, 0.5]},
    {"kind": "ehrenfest", "dt": 0.3, "t_grid": [0.0, 0.5]},
])
def test_unreachable_sample_times_fail_before_output(tmp_path, capsys,
                                                     experiment):
    path = write_config(tmp_path, doc_with(experiment=experiment))
    with pytest.raises(PropagationError, match="not a multiple of dt"):
        load_config(path)
    out = tmp_path / "o"
    assert main(["run", str(path), "--output", str(out)]) == 3
    assert "not a multiple of dt" in capsys.readouterr().err
    assert not out.exists()


def test_load_config_refuses_a_schedule_over_the_step_bound(tmp_path,
                                                           capsys):
    """10**10 steps: loading runs the scheduler, so the config is refused
    before any run, with the run's message and exit code 3."""
    path = write_config(tmp_path, doc_with(experiment={
        "kind": "evolve", "route": "schrodinger", "dt": 1.0e-300,
        "t_final": 1.0e-290}))
    message = "10000000000 steps exceed the bound MAX_STEPS"
    with pytest.raises(PropagationError, match=message):
        load_config(path)
    out = tmp_path / "o"
    assert main(["run", str(path), "--output", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def config_in_code(**changes):
    return ScenarioConfig(**{
        "name": "in-code", "grid": dict(GAUSSIAN),
        "state": {"kind": "gaussian"}, "potential": {"kind": "free"},
        "experiment": {"kind": "wigner"}, "formats": ("json",), **changes})


@pytest.mark.parametrize("config,message", [
    (config_in_code(experiment={"kind": "evolve", "route": "moyal",
                                "dt": 0.01, "t_final": 0.02, "n_max": 7}),
     "experiment.n_max: only the truncated route takes n_max"),
    (config_in_code(formats=("pdf",)), "scenario.formats"),
    (config_in_code(formats=()), "scenario.formats"),
], ids=["stray-n_max", "unknown-format", "no-format"])
def test_run_scenario_checks_a_config_built_in_code(tmp_path, config,
                                                    message):
    """A ScenarioConfig built in code gets the checks load_config makes:
    the moyal run used to ignore n_max and record it, and the unknown
    format ran to a manifest listing no artifacts."""
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match=message):
        run_scenario(config, out)
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_unrepresentable_packet_fails_before_output(tmp_path, capsys):
    """sigma = 1e-300 underflows 4 sigma^2 to zero; the NaN samples it
    left used to pass the norm checks and run to exit 0, and later failed
    on a NaN norm after numpy warnings. The sigma gate names it first."""
    path = write_config(tmp_path, doc_with(
        state={"kind": "gaussian", "sigma": 1e-300}))
    out = tmp_path / "o"
    assert main(["run", str(path), "--output", str(out)]) == 3
    assert "sigma" in capsys.readouterr().err
    assert not out.exists()


def test_validate_sample_times_in_any_order(tmp_path):
    path = write_config(tmp_path, doc_with(experiment={
        "kind": "validate", "dt": 0.25, "t_final": 1.0,
        "sample_times": [1.0, 0.5]}))
    assert load_config(path).experiment["sample_times"] == [1.0, 0.5]


def test_harmonic_potential_takes_the_grid_mass(tmp_path):
    """With grid.mass = 2 the ground state of the default harmonic
    potential must stay put; when the potential kept its own mass of 1,
    var_x swung from 0.25 to 0.49.  What remains is the O(dt^2)
    splitting error: 4.4e-6 at dt = 0.01 and 1.1e-6 at dt = 0.005."""
    doc = doc_with(grid=dict(GAUSSIAN, mass=2.0),
                   state={"kind": "harmonic"},
                   potential={"kind": "harmonic"},
                   experiment={"kind": "evolve", "route": "schrodinger",
                               "dt": 0.01, "t_final": 3.0,
                               "sample_times": [1.0, 2.0, 3.0]})
    out = tmp_path / "o"
    assert main(["run", str(write_config(tmp_path, doc)),
                 "--output", str(out)]) == 0
    series = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(series[:, 3] - 0.25)) < 1e-5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["potential"] == {"kind": "harmonic"}


def test_defaults_filled_and_config_kept_as_given(tmp_path):
    path = write_config(tmp_path, doc_with())
    config = load_config(path)
    assert config.potential == {"kind": "free"}
    assert config.experiment == {"kind": "wigner"}
    assert config.formats == ("json", "csv", "binary")
    assert config.state == {"kind": "gaussian", "x0": 0.5}
    assert config.name == "case"


# ---------------------------------------------------------------------------
# Fuzzing: whatever the document, load_config raises a WignerlabError
# (ConfigError, or GridError/StateError/... for a physics precondition)
# or returns a config.  Never ValueError, TypeError or KeyError.

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300),
    st.integers(-10 ** 400, 10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-10.0, 10.0), st.text(max_size=4))
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def keys_of(section):
    return sorted({key for _, required, optional in SCHEMA[section].values()
                   for key in (*required, *optional)})


@st.composite
def sections(draw, section, depth=0):
    kinds = sorted(kind for kind in SCHEMA[section] if kind is not None)
    spec = {}
    if kinds:
        spec["kind"] = draw(st.sampled_from(kinds) | SCALARS)
    for key in draw(st.lists(st.sampled_from(keys_of(section) + ["bogus"]),
                             max_size=5, unique=True)):
        if key == "n":
            value = st.integers(8, 64)
        elif key == "components" and depth < 2:
            value = st.lists(sections("state", depth + 1), max_size=3)
        elif key in ("sample_times", "t_grid", "coefficients"):
            value = st.lists(st.floats(-2.0, 2.0) | SCALARS | VALUES,
                             max_size=4)
        else:
            value = st.floats(-5.0, 5.0) | st.integers(-2, 200) | VALUES
        spec[key] = draw(value)
    return spec


@st.composite
def documents(draw):
    doc = {}
    for section in ("grid", "state", "potential", "experiment"):
        if draw(st.integers(0, 5)):
            doc[section] = draw(sections(section) | VALUES
                                if draw(st.booleans()) else sections(section))
    extra = st.dictionaries(st.sampled_from(["name", "formats", "bogus", 3]),
                            VALUES | st.lists(st.sampled_from(
                                ["json", "csv", "binary", "pdf"])),
                            max_size=2)
    doc.update(draw(extra))
    return doc


def load_or_reject(path):
    try:
        load_config(path)
    except WignerlabError:
        pass


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents())
def test_fuzz_load_config_mappings(fuzz_dir, doc):
    path = fuzz_dir / "doc.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    load_or_reject(path)


YAML_ALPHABET = list("{}[]:,-#&*!|>'\"%@`~ \n\t0123456789.eE+_")
YAML_WORDS = ["kind", "grid", "state", "n", "square", "true", "null",
              ".inf", "!!int", "!!float", "!!timestamp", "2001-02-30",
              "sample_times", "dt", "experiment", "evolve", "route"]


@settings(max_examples=150, deadline=None)
@given(text=st.lists(st.sampled_from(YAML_ALPHABET) | st.sampled_from(
    YAML_WORDS), max_size=40).map("".join) | st.text(max_size=40))
def test_fuzz_load_config_text(fuzz_dir, text):
    path = fuzz_dir / "text.yaml"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    load_or_reject(path)


# ---------------------------------------------------------------------------
# The README's config reference lists exactly the keys of SCHEMA.

def readme_reference():
    """{(section, kind, key): default cell}, keyless kinds under key None."""
    text = README.read_text()
    body = text.split("## Config reference", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in body.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("| `") or len(cells) != 5:
            continue
        section, kind, key = (c.strip("`") or None for c in cells[:3])
        rows[section, kind, None if key == "—" else key] = cells[3]
    return rows


def test_readme_documents_every_key_and_no_other():
    documented = readme_reference()
    expected = {}
    for section, kinds in SCHEMA.items():
        for kind, (_, required, optional) in kinds.items():
            if not required and not optional:
                expected[section, kind, None] = ""
            expected.update({(section, kind, key): "required"
                             for key in required})
            expected.update({(section, kind, key): default
                             for key, default in optional.items()})
    assert sorted(documented, key=str) == sorted(expected, key=str)
    for entry, cell in documented.items():
        default = expected[entry]
        assert (cell == "required") == (default == "required"), entry
        if cell.startswith("`") and default != "required":
            documented_default = yaml.safe_load(cell.strip("`"))
            if isinstance(default, tuple):
                default = list(default)
            assert documented_default == default, entry
