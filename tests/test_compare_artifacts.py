"""The artifact differ's per-file verdicts (tools/compare_artifacts.py)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_artifacts.py"
spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
compare_artifacts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_artifacts)


def verdict(tmp_path, name, base, work):
    for side, text in (("base", base), ("work", work)):
        (tmp_path / side).mkdir(exist_ok=True)
        (tmp_path / side / name).write_text(text)
    return compare_artifacts.compare_file(tmp_path / "base" / name,
                                          tmp_path / "work" / name)


def test_identical_files_have_no_verdict(tmp_path):
    assert verdict(tmp_path, "m.json", '{"a": 1}', '{"a": 1}') == ""


def test_json_numeric_leaves_and_one_sided_keys(tmp_path):
    text = verdict(tmp_path, "m.json",
                   '{"a": 1, "b": {"c": [1.0, 2.5, "x"], "d": true}, '
                   '"e": NaN, "g": NaN}',
                   '{"a": 1.0, "b": {"c": [1.0, 2.0, "y"], "d": false}, '
                   '"f": 3, "g": NaN}')
    assert text == ("bytes differ, 1 of 4 numeric leaves differ, "
                    "max |diff| 5.000e-01; only in base: e; "
                    "only in the working tree: f; "
                    "differ at: b.c.1, b.c.2, b.d")


def test_csv_numeric_cells(tmp_path):
    text = verdict(tmp_path, "t.csv", "t,x\n0,1.5\nfoo,2\n",
                   "t,x\n0,1.25\nbar,2\n")
    assert text == ("bytes differ, 1 of 3 numeric cells differ, "
                    "max |diff| 2.500e-01; 1 other cells differ")
    assert verdict(tmp_path, "s.csv", "t,x\n0,1.5\n", "t,x\n") \
        == "bytes differ, shape differs (2 -> 1 rows)"
