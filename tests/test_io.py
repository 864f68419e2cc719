import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wignerlab import ConfigError, make_grid
from wignerlab.io import (format_float, read_field, write_csv, write_field,
                          write_json)

GRID = make_grid(64, -8.0, 8.0)
GRID_META = {"dx": GRID.dx, "dp": GRID.dp, "x_min": GRID.x_min,
             "hbar": GRID.hbar, "mass": GRID.mass}


def test_field_roundtrip_real(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((64, 64))
    path = tmp_path / "w.wig"
    write_field(path, values, GRID, time=0.75)
    back, meta = read_field(path)
    assert np.array_equal(back, values)
    assert not np.iscomplexobj(back)
    assert meta == {**GRID_META, "time": 0.75}


def test_field_roundtrip_complex_rank1(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    path = tmp_path / "psi.wig"
    write_field(path, values, GRID)
    back, meta = read_field(path)
    assert np.array_equal(back, values)
    assert np.iscomplexobj(back)
    assert meta["time"] == 0.0


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=9),
    cols=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2 ** 31),
    complex_valued=st.booleans(),
)
def test_field_roundtrip_property(tmp_path_factory, rows, cols, seed,
                                  complex_valued):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, cols))
    if complex_valued:
        values = values + 1j * rng.standard_normal((rows, cols))
    path = tmp_path_factory.mktemp("field") / "f.wig"
    write_field(path, values, GRID)
    back, _ = read_field(path)
    assert np.array_equal(back, values)


def test_field_bad_magic(tmp_path):
    path = tmp_path / "bad.wig"
    path.write_bytes(b"NOTAFLD\x00" + b"\x00" * 64)
    with pytest.raises(ConfigError):
        read_field(path)


def test_field_bad_version(tmp_path):
    path = tmp_path / "w.wig"
    write_field(path, np.zeros(4), GRID)
    raw = bytearray(path.read_bytes())
    raw[8] = 99  # version field follows the 8-byte magic
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError):
        read_field(path)


def test_field_truncated(tmp_path):
    path = tmp_path / "w.wig"
    write_field(path, np.zeros((8, 8)), GRID)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(ConfigError):
        read_field(path)


def test_format_float_is_lossless():
    rng = np.random.default_rng(11)
    for value in rng.standard_normal(200):
        assert float(format_float(value)) == value
    for value in (0.1, 1.0 / 3.0, np.pi, 1e-300, -0.0):
        assert float(format_float(value)) == value


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    rows = [[0.1, -2.5e-17], [np.pi, 3.0]]
    write_csv(path, ["a", "b"], rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a,b"
    for line, row in zip(lines[1:], rows):
        assert [float(cell) for cell in line.split(",")] == row


def test_csv_numeric_rows_match_per_cell_formatting(tmp_path):
    """All-numeric rows take one %-format; rows with a string cell are
    formatted cell by cell.  Both give the same text for each number."""
    rows = [(-0.0, 1e-300, 1e308), (3, -7, 10 ** 20),
            (np.float64(0.1), np.float32(0.1), np.int64(-5)),
            ("label", np.float64(1.0 / 3.0), 2),
            [np.pi, float("inf"), float("nan")]]
    path = tmp_path / "table.csv"
    write_csv(path, ("a", "b", "c"), rows)
    expected = ["a,b,c"] + [
        ",".join(cell if isinstance(cell, str) else format_float(cell)
                 for cell in row) for row in rows]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def test_json_is_canonical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, {"z": np.float64(1.5), "a": [np.int64(3), "s"]})
    write_json(b, {"a": [3, "s"], "z": 1.5})
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")
    assert json.loads(a.read_text()) == {"a": [3, "s"], "z": 1.5}
    # arrays, other numpy scalars and tuples write as their plain values
    for value, plain in (
            (np.array([[0.1, -2.0], [3.0, 4.5]]), [[0.1, -2.0], [3.0, 4.5]]),
            (np.float32(0.1), float(np.float32(0.1))),
            (np.bool_(True), True), ((1, "s", 2.5), [1, "s", 2.5])):
        write_json(a, {"v": value, "w": [value]})
        write_json(b, {"v": plain, "w": [plain]})
        assert a.read_bytes() == b.read_bytes(), value
