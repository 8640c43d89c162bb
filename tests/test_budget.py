import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpair.reporting import to_canonical_json
from kgpair.resonance import (
    ConstantsBudget,
    _D1_GRID,
    _D2_GRID,
    _D3_GRID,
    InfeasibleBudget,
    _inequalities,
    _minimal_regularity,
    _slacks,
    find_admissible_constants,
    verify_budget,
)


def _loop_regularity(d1, d3):
    n1 = 2.0 + (0.5 - 3.0 * d1) / d3
    n2 = 1.5 + 21.0 / (16.0 * d3)
    N = int(math.ceil(max(n1, n2, 3.0) * 1.01)) + 1
    return N if N <= 10**9 else None


def loop_search(A, n):
    """Point-by-point triple loop over the descending grids: the oracle for
    the plane-at-a-time search of ``find_admissible_constants``."""
    d2_grid = np.logspace(-0.5, -6, 56)
    d1_grid = np.logspace(-1, -8, 71)
    d3_grid = np.logspace(-2, -10, 81)
    best = None
    for d2 in d2_grid:
        for d1 in d1_grid:
            if d1 >= d2 / 72.0:
                continue
            for d3 in d3_grid:
                if d3 * (A + 2) >= 3 * d1:
                    continue
                N = _loop_regularity(d1, d3)
                if N is None:
                    continue
                checks = _inequalities(A, d1, d2, d3, N)
                min_slack = min(c.slack for c in checks)
                if min_slack > 0.0:
                    return ConstantsBudget(A=A, n=n, d1=float(d1), d2=float(d2),
                                           d3=float(d3), N=N)
                if best is None or min_slack > best[0]:
                    best = (min_slack, min(checks, key=lambda c: c.slack).name)
    if best is None:
        # every grid point was pruned; evaluate the least-constrained corner
        d1, d2, d3 = float(min(d1_grid)), float(min(d2_grid)), float(min(d3_grid))
        checks = _inequalities(A, d1, d2, d3, _loop_regularity(d1, d3) or 10**9)
        worst = min(checks, key=lambda c: c.slack)
        best = (worst.slack, worst.name)
    return InfeasibleBudget(A=A, n=n, binding=best[1], best_min_slack=best[0])


def test_archived_example_satisfies_all_twelve():
    budget = ConstantsBudget(A=10.0, n=1, d1=5e-4, d2=0.04, d3=1e-4, N=13200)
    checks = verify_budget(budget)
    assert len(checks) == 12
    assert all(c.ok for c in checks)
    assert all(c.slack > 0.0 for c in checks)


def test_search_returns_verified_budget():
    result = find_admissible_constants(10.0, 1)
    assert isinstance(result, ConstantsBudget)
    assert result.feasible
    assert all(c.ok for c in verify_budget(result))
    assert result.n == 1 and result.N >= 3


def test_search_output_replays_by_direct_substitution():
    result = find_admissible_constants(3.0, 2)
    assert isinstance(result, ConstantsBudget)
    for check in verify_budget(result):
        assert check.ok, check


def test_huge_blowup_exponent_is_infeasible_on_fixed_grid():
    result = find_admissible_constants(1e9, 1)
    assert isinstance(result, InfeasibleBudget)
    assert not result.feasible
    assert result.binding


def test_violations_are_detected():
    # d2 too large: A*d2 exceeds 1/2
    budget = ConstantsBudget(A=10.0, n=1, d1=5e-4, d2=0.2, d3=1e-4, N=13200)
    names = {c.name for c in verify_budget(budget) if not c.ok}
    assert "near_set_blowup_half" in names


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        find_admissible_constants(-1.0, 1)
    for A in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="A must be finite and positive"):
            find_admissible_constants(A, 1)
    with pytest.raises(ValueError):
        find_admissible_constants(10.0, 0)


def test_budget_dict_lists_all_inequalities():
    result = find_admissible_constants(10.0, 1)
    doc = result.to_dict()
    assert doc["schema"] == "constants-budget/1"
    assert len(doc["inequalities"]) == 12
    assert all(row["slack"] > 0 for row in doc["inequalities"])


def _all_pruned_corner_slack(A):
    # near_set_blowup_half at the smallest d2 of the grid
    return 0.5 - A * float(np.logspace(-0.5, -6, 56)[-1])


# A = 0.5/d2_k zeroes near_set_blowup_half at d2_k; at d2_33 = 10^-3.8 it is the first
# infeasible A above 50, and the double below it the last feasible one
_FIRST_INFEASIBLE_A = float(0.5 / _D2_GRID[33])


@pytest.mark.parametrize(
    "A, outcome",
    [(2.0, "feasible"), (3.0, "feasible"), (10.0, "feasible"), (50.0, "feasible"),
     (1e4, "candidate"), (1e5, "candidate"), (1e9, "pruned"),
     (math.nextafter(_FIRST_INFEASIBLE_A, 0.0), "feasible")]
    + [(float(0.5 / _D2_GRID[k]), "feasible" if k < 33 else "candidate")
       for k in (0, 5, 20, 33, 40, 55)],
)
def test_search_matches_point_loop(A, outcome):
    result = find_admissible_constants(A, 1)
    assert to_canonical_json(result.to_dict()) == to_canonical_json(loop_search(A, 1).to_dict())
    assert result.feasible == (outcome == "feasible")
    if not result.feasible:
        assert (result.best_min_slack == _all_pruned_corner_slack(A)) == (outcome == "pruned")


def test_no_slack_row_involves_both_d2_and_d3():
    d2, d1, d3 = np.ix_(_D2_GRID, _D1_GRID, _D3_GRID)
    rows = _slacks(10.0, d1, d2, d3, _minimal_regularity(d1, d3))
    shapes = {name: np.shape(slack) for name, _, slack in rows}
    assert len(shapes) == 12
    for name, shape in shapes.items():
        assert len(shape) == 3 and not (shape[0] > 1 and shape[2] > 1), (name, shape)
    assert {name for name, shape in shapes.items() if shape[0] > 1} == {
        "shell_shrink_beats_decay", "near_set_blowup_margin", "near_set_blowup_half",
        "near_set_blowup_margin_bis"}


@pytest.mark.parametrize("A", [5e-324, 2.0, 1e5, 1e300])
def test_skip_rows_are_the_pruning_tests(A):
    # the search skips where a row is <= 0; the point loop prunes with these tests
    d2, d1, d3 = np.ix_(_D2_GRID, _D1_GRID, _D3_GRID)
    rows = {name: slack for name, _, slack in _slacks(A, d1, d2, d3, 1.0)}
    assert np.array_equal(rows["shell_shrink_beats_decay"] <= 0.0, d1 >= d2 / 72.0)
    assert np.array_equal(rows["space_ibp_gain"] <= 0.0, d3 * (A + 2) >= 3 * d1)


@settings(max_examples=10)
@given(st.floats(min_value=-3.0, max_value=10.0))
def test_search_matches_point_loop_on_random_exponents(log10_A):
    A = 10.0 ** log10_A
    expected = to_canonical_json(loop_search(A, 1).to_dict())
    assert to_canonical_json(find_admissible_constants(A, 1).to_dict()) == expected


_SMALL = st.floats(min_value=1e-10, max_value=0.5)


@given(st.floats(min_value=1e-3, max_value=1e6), _SMALL, _SMALL, _SMALL,
       st.integers(min_value=1, max_value=10**9))
def test_budget_rows_replay_verify_budget(A, d1, d2, d3, N):
    budget = ConstantsBudget(A=A, n=1, d1=d1, d2=d2, d3=d3, N=N)
    doc = budget.to_dict()
    assert all(type(row["ok"]) is bool for row in doc["inequalities"])
    rows = json.loads(to_canonical_json(doc))["inequalities"]
    assert rows == [{"name": c.name, "formula": c.formula, "slack": c.slack, "ok": c.ok}
                    for c in verify_budget(budget)]
    assert all(row["ok"] == (row["slack"] > 0.0) for row in rows)
