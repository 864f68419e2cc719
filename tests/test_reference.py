"""The built-ins' science numbers against a portable reference,
tests/reference/builtins.json, which
`python3 tools/compare_artifacts.py --write-reference` writes.

Criterion 11 checks that two runs on one machine give the same bytes.
This test checks that the numbers are the ones recorded, on any machine,
so a change that moves one must rewrite the reference in its own commit.
"""

import json

from wignerlab.scenarios import BUILTIN_SCENARIOS, builtin_config, run_scenario

from conftest import compare_artifacts

RTOL = 1e-9
ATOL = 1e-12


def test_builtins_match_reference(tmp_path):
    """Every built-in, run once, against the reference: each numeric
    manifest leaf, and the sum, L2 norm, max-abs value and strided
    sample of each WIG1 payload, pass |got - want| <= RTOL |want| + ATOL.

    RTOL = 1e-9 is relative, for the fields and the scalars derived from
    them. A change at rounding (another operand order, fused
    multiply-add, another FFT build) moves these numbers by a few hundred
    ulps at most, even after thousands of steps: replacing the complex
    Wigner transform by the Hermitian one moved no artifact number by
    more than 1.1e-13. A change of the physics (a step, a grid, a
    formula) moves them by 1e-7 or more: the O(dt^2) splitting error of
    quartic-crossval is about 1e-7 at its dt = 0.001. 1e-9 sits between.

    ATOL = 1e-12 is an absolute floor for the numbers that are rounding
    residue, whose relative value is not portable: boundary masses and
    route distances near 1e-13 (ho-roundtrip's max_pairwise is 9.5e-14),
    norm drifts, means near 1e-16, and field samples in the tails. It is
    about ten times the largest such residue.
    """
    for name in sorted(BUILTIN_SCENARIOS):
        run_scenario(builtin_config(name), tmp_path / name)
    got = compare_artifacts.json_leaves(compare_artifacts.reference(tmp_path))
    want = compare_artifacts.json_leaves(
        json.loads(compare_artifacts.REFERENCE.read_text()))
    assert got.keys() == want.keys()
    moved = [f"{key}: {got[key]!r}, reference {want[key]!r}"
             for key in sorted(want)
             if not abs(got[key] - want[key]) <= RTOL * abs(want[key]) + ATOL]
    assert not moved, "\n".join(moved)
