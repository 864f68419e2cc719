"""Compare the artifacts of the working tree with those of another revision.

    python3 tools/compare_artifacts.py --base HEAD~
    python3 tools/compare_artifacts.py --write-reference

Unpacks <base> with `git archive` into a temporary directory, then runs
every built-in scenario and every config under bench/configs and
bench/smoke once with each tree's sources.  Each tree runs in its own
subprocess, which imports wignerlab from that tree's src/ only.  The
bench configs are the working tree's; the built-ins are each tree's own.

Prints one line per scenario: the number of byte-identical files, then
each file that differs or exists on one side only, with the max-abs
difference of its numbers where they pair up:
  - WIG1 fields: the payload, read by the working tree's
    wignerlab.io.read_field;
  - JSON files: the numeric leaves at matching key paths, naming every
    key path found on one side only and every leaf that differs;
  - CSV files of equal shape: the cells that parse as numbers on both
    sides, counting the other cells that differ.
timing.json holds wall-clock times and is not compared.  The last lines
give the line counts of src/wignerlab in both trees, the number of
parameters of the callables in wignerlab.__all__ in both trees, and each
function(parameter) found in one tree only.  Exits 1 if any file
differs or any scenario fails on either side.

--write-reference runs the built-ins with the working tree's sources
and writes tests/reference/builtins.json, the portable record of their
numbers that tests/test_reference.py checks with tolerances: every
numeric manifest leaf, and the sum, L2 norm, max-abs value and a
strided sample of each WIG1 payload.  A change that moves a built-in's
number beyond those tolerances rewrites the file in the same commit.
"""

import argparse
import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))   # the working tree's WIG1 reader
from wignerlab.io import read_field

CONFIG_DIRS = ("bench/configs", "bench/smoke")
UNCOMPARED = {"timing.json"}
REFERENCE = ROOT / "tests" / "reference" / "builtins.json"
SAMPLE_STRIDE = 509   # prime, so the sample walks across rows and columns

# argv: src dir, output dir, then (label, config path) pairs; prints a
# JSON line {callable: [parameter, ...]} of wignerlab.__all__, then
# "<exit code> <label>" per scenario, built-ins first, and sends the
# CLI's own messages to stderr
RUNNER = """
import contextlib, inspect, json, sys
from pathlib import Path
src, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(src))
import wignerlab
from wignerlab.cli import main
from wignerlab.scenarios import BUILTIN_SCENARIOS
if Path(wignerlab.__file__).resolve().parent != src / "wignerlab":
    raise SystemExit(f"wignerlab imported from {wignerlab.__file__}")
def parameters(obj):
    try:
        return list(inspect.signature(obj).parameters)
    except ValueError:   # exception classes without their own __init__
        return []
public = {name: getattr(wignerlab, name) for name in wignerlab.__all__}
print(json.dumps({name: parameters(obj) for name, obj in public.items()
                  if callable(obj)}), flush=True)
runs = [(name, name) for name in sorted(BUILTIN_SCENARIOS)]
runs += list(zip(sys.argv[3::2], sys.argv[4::2]))
for label, scenario in runs:
    with contextlib.redirect_stdout(sys.stderr):
        code = main(["run", scenario, "--output", str(out / label)])
    print(code, label, flush=True)
"""


def run_tree(tree: Path, out: Path, configs) -> tuple:
    """{label: CLI exit code} of every scenario run with tree's sources,
    and {callable: [parameter, ...]} of its wignerlab.__all__."""
    args = [str(tree / "src"), str(out)]
    for path in configs:
        args += [str(path.relative_to(ROOT).with_suffix("")), str(path)]
    done = subprocess.run([sys.executable, "-c", RUNNER, *args], cwd=out,
                          stdout=subprocess.PIPE, text=True, check=True)
    signatures, *runs = done.stdout.splitlines()
    codes = {}
    for line in runs:
        code, label = line.split(" ", 1)
        codes[label] = int(code)
    return codes, json.loads(signatures)


def source_lines(tree: Path) -> int:
    """Lines of the Python files in tree's src/wignerlab, as wc -l counts."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "wignerlab").glob("*.py"))


def parameter_diff(base: dict, work: dict) -> list:
    """Lines counting the parameters of both trees' public callables and
    naming each function(parameter) found in one tree only."""
    a, b = ({f"{name}({param})" for name, params in side.items()
             for param in params} for side in (base, work))
    lines = [f"public parameters {len(a):,} → {len(b):,}"]
    for label, names in (("removed", a - b), ("added", b - a)):
        if names:
            lines.append(f"{label}: {', '.join(sorted(names))}")
    return lines


def reference(out: Path) -> dict:
    """{scenario: {file: {quantity: number}}} of the scenario folders in
    out: every numeric leaf of manifest.json, and the sum, L2 norm,
    max-abs value and every SAMPLE_STRIDE-th number of each WIG1 payload
    (complex payloads as interleaved real and imaginary parts)."""
    summary = {}
    for folder in sorted(path for path in out.iterdir() if path.is_dir()):
        leaves = json_leaves(json.loads((folder / "manifest.json").read_text()))
        files = {"manifest.json": {
            key: value for key, value in leaves.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}}
        for path in sorted(folder.glob("*.wig1")):
            values = read_field(path)[0].ravel().view(np.float64)
            files[path.name] = {
                "sum": float(np.sum(values)),
                "l2": float(np.linalg.norm(values)),
                "max_abs": float(np.max(np.abs(values))),
                "sample": values[::SAMPLE_STRIDE].tolist()}
        summary[folder.name] = files
    return summary


def write_reference() -> int:
    """Run the built-ins with the working tree's sources and write their
    reference summary to REFERENCE."""
    with tempfile.TemporaryDirectory(prefix="reference-") as tmp:
        codes, _ = run_tree(ROOT, Path(tmp), [])
        failed = sorted(label for label, code in codes.items() if code)
        if failed:
            print(f"built-ins failed: {', '.join(failed)}")
            return 1
        REFERENCE.write_text(json.dumps(reference(Path(tmp)), indent=1,
                                        sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)} ({len(codes)} built-ins)")
    return 0


def abs_diff(a, b) -> np.ndarray:
    """|a - b| elementwise, 0 where the values are equal (NaN on both
    sides included)."""
    a, b = np.asarray(a), np.asarray(b)
    diff = np.abs(a - b)
    diff[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    return diff


def json_leaves(value, path="") -> dict:
    """{key path: leaf} of a parsed JSON document; list items are keyed
    by their index."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        leaves = {}
        for key, item in items:
            leaves.update(json_leaves(item, f"{path}.{key}" if path
                                      else str(key)))
        return leaves
    return {path: value}


def csv_value(cell: str):
    """A CSV cell as a float if it reads as one, else its text."""
    try:
        return float(cell)
    except ValueError:
        return cell


def differs(a, b) -> bool:
    """a != b, except that NaN on both sides is no difference."""
    return a != b and not (a != a and b != b)


def both_numbers(a, b) -> bool:
    return isinstance(a, float) and isinstance(b, float)


def numeric_diff(pairs, what: str) -> str:
    """How many of the pairs of two numbers differ, and by how much."""
    numeric = [pair for pair in pairs if both_numbers(*pair)]
    diff = abs_diff(*zip(*numeric)) if numeric else np.zeros(0)
    return (f"bytes differ, {np.count_nonzero(diff)} of {diff.size} numeric "
            f"{what} differ, max |diff| {diff.max(initial=0.0):.3e}")


def compare_json(base: Path, work: Path) -> str:
    # every JSON number becomes a float; true and false stay bool
    a, b = (json_leaves(json.loads(path.read_text(), parse_int=float))
            for path in (base, work))
    common = sorted(a.keys() & b.keys())
    parts = [numeric_diff([(a[key], b[key]) for key in common], "leaves")]
    for label, keys in (
            ("only in base", sorted(a.keys() - b.keys())),
            ("only in the working tree", sorted(b.keys() - a.keys())),
            ("differ at", [key for key in common
                           if differs(a[key], b[key])])):
        if keys:
            parts.append(f"{label}: {', '.join(keys)}")
    return "; ".join(parts)


def compare_csv(base: Path, work: Path) -> str:
    a, b = (list(csv.reader(path.read_text().splitlines()))
            for path in (base, work))
    if [len(row) for row in a] != [len(row) for row in b]:
        return f"bytes differ, shape differs ({len(a)} -> {len(b)} rows)"
    cells = [(csv_value(x), csv_value(y))
             for rows in zip(a, b) for x, y in zip(*rows)]
    other = sum(x != y for x, y in cells if not both_numbers(x, y))
    return (numeric_diff(cells, "cells")
            + (f"; {other} other cells differ" if other else ""))


def compare_file(base: Path, work: Path) -> str:
    """'' if the files are byte-identical, else how they differ."""
    if not base.exists() or not work.exists():
        return "only in " + ("the working tree" if work.exists() else "base")
    if base.read_bytes() == work.read_bytes():
        return ""
    if base.suffix == ".json":
        return compare_json(base, work)
    if base.suffix == ".csv":
        return compare_csv(base, work)
    if base.suffix != ".wig1":
        return "bytes differ"
    a, b = read_field(base)[0], read_field(work)[0]
    if a.shape != b.shape:
        return f"shape {a.shape} -> {b.shape}"
    return f"bytes differ, payload max |diff| {abs_diff(a, b).max():.3e}"


def compare(base_out: Path, work_out: Path, base_codes: dict,
            work_codes: dict) -> bool:
    """Print one line per scenario; True if everything matched."""
    clean = True
    for label in sorted(base_codes.keys() | work_codes.keys()):
        codes = (base_codes.get(label), work_codes.get(label))
        if codes != (0, 0):
            clean = False
            print(f"{label}: exit codes base {codes[0]}, "
                  f"working tree {codes[1]}")
        names = sorted({p.name for side in (base_out, work_out)
                        for p in (side / label).glob("*")} - UNCOMPARED)
        same = 0
        for name in names:
            verdict = compare_file(base_out / label / name,
                                   work_out / label / name)
            if verdict:
                clean = False
                print(f"{label}/{name}: {verdict}")
            else:
                same += 1
        print(f"{label}: {same} of {len(names)} files byte-identical")
    return clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--base",
                        help="git revision to compare against, e.g. HEAD~")
    action.add_argument("--write-reference", action="store_true",
                        help=f"write {REFERENCE.relative_to(ROOT)} from the "
                             "working tree's built-ins")
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference()
    configs = sorted(path for folder in CONFIG_DIRS
                     for path in (ROOT / folder).glob("**/*.yaml"))
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        tmp = Path(tmp)
        base_tree, base_out, work_out = (tmp / "base", tmp / "base-out",
                                         tmp / "work-out")
        for folder in (base_tree, base_out, work_out):
            folder.mkdir()
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive,
                       check=True)
        base_codes, base_params = run_tree(base_tree, base_out, configs)
        work_codes, work_params = run_tree(ROOT, work_out, configs)
        clean = compare(base_out, work_out, base_codes, work_codes)
        lines = source_lines(base_tree), source_lines(ROOT)
    print(f"base {args.base}: " + ("every artifact byte-identical" if clean
                                   else "differences above")
          + f"; src/wignerlab {lines[0]:,} → {lines[1]:,} lines")
    print("\n".join(parameter_diff(base_params, work_params)))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
