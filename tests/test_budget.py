import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgpair.reporting import to_canonical_json
from kgpair.resonance import (
    ConstantsBudget,
    InfeasibleBudget,
    _inequalities,
    budget_holds,
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
    assert budget_holds(result)
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
    assert not budget_holds(budget)
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


@pytest.mark.parametrize(
    "A, outcome",
    [(2.0, "feasible"), (3.0, "feasible"), (10.0, "feasible"), (50.0, "feasible"),
     (1e4, "candidate"), (1e5, "candidate"), (1e9, "pruned")],
)
def test_search_matches_point_loop(A, outcome):
    result = find_admissible_constants(A, 1)
    assert to_canonical_json(result.to_dict()) == to_canonical_json(loop_search(A, 1).to_dict())
    assert result.feasible == (outcome == "feasible")
    if not result.feasible:
        assert (result.best_min_slack == _all_pruned_corner_slack(A)) == (outcome == "pruned")


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
    assert budget_holds(budget) == all(row["slack"] > 0.0 for row in rows)
