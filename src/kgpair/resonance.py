"""Space, time, and space-time resonant sets of the interaction phases.

On the space-resonant set of a phase, eta and xi - eta are colinear; with
eta = r*omega the set is parameterized by p(r, omega) = (lambda(r)*r*omega,
r*omega).  Restricting the phase to that parameterization gives a scalar
analytic function Z(r) whose zeros are the space-time resonances: each zero R
contributes a sphere-and-ray component {|eta| = R, xi = lambda*eta}.

The zeros are known in closed form.  With w = v^2 for the common group
speed v = c_l^2 r / <r>_l, two squarings turn Z = 0 into a quartic q in
y = (1/w - 1)/delta, where the speeds are scaled to 1 (slower species) and
sqrt(1 + delta) (faster); then r = 1/(min(c, 1) sqrt(c_l^2 delta a)) with the
scaled c_l^2 and a = (c_l^2 - w)/(delta w).  The signs do not enter q.  For
every delta > 0, q factors over Q(delta), and it has a root where c_l^2 - w
and c_m^2 - w are positive for two patterns of tags only, a simple one:
y = 4/3 when k alone is faster, and the one positive root of
(3 delta + 3) y^3 + (2 delta + 1) y^2 + (1 - delta) y - 1 when k and exactly
one of l, m are faster.  The unsquared Z vanishes there for the signs +--
and -++ only.  ``tests/test_resonance_certificate.py`` proves the algebra
with sympy for a symbolic delta and checks the signs with mpmath at sampled
speeds; ``tests/test_resonance.py`` keeps the numerical quartic solver as
the oracle.

A report collects the components of all canonical phases together with the
outcome and source radius sets and the separation verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from kgpair.dispersion import (PhaseIndex, SpeedPair, _require_count, _require_positive,
                               canonical_phase_indices, sum_of_squares)

# relative tolerance between a report read back and the one solved at its
# parameters: a report written on another numpy build still reads
REPORT_TOL = 1e-10
DEFAULT_TAU_SEP = 1e-6
_RADIUS_MERGE_TOL = 1e-9
_RESONANT_SIGNS = ((1, -1, -1), (-1, 1, 1))
_NUMBER = (int, float)
_MISSING = object()
MAX_SWEEP_STEPS = 10_000  # speeds per sweep, one scan_all (about 1 ms) each
# largest intersection order n of a budget, which only records it: larger
# integers do not survive a JSON reader that parses numbers as doubles
MAX_ORDER = 2**53


def _as_float(value) -> float | None:
    """``value`` as a float, or None unless it is a JSON number in the float range."""
    if isinstance(value, _NUMBER) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    return None


def _number(doc: dict, key: str) -> float:
    """``float(doc[key])``, or a ValueError naming the key when it is not a number."""
    value = _as_float(doc.get(key))
    if value is None:
        raise ValueError(
            f"report key {key}: the document has {_brief(doc.get(key, _MISSING))}, "
            "which is not a number"
        )
    return value


def space_resonance_lambda(speeds: SpeedPair, idx: PhaseIndex, r):
    """Colinearity ratio lambda with xi = lambda*eta on the space-resonant set.

    Solves the scalar equation c_m^2 s / <s>_m' = s1*s2 * c_l^2 r / <r>_l'
    for s = (lambda - 1) r in closed form.  Returns NaN where no solution
    exists (|right-hand side| >= c_m).
    """
    r = np.asarray(r, dtype=float)
    cl, cm = speeds.speed_of(idx.l), speeds.speed_of(idx.m)
    v = idx.s1 * idx.s2 * (cl * cl * r / np.sqrt(1.0 + cl * cl * r * r))
    valid = np.abs(v) < cm
    v = np.where(valid, v, 0.0)
    s = v / (cm * np.sqrt(cm * cm - v * v))
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = 1.0 + s / r
    return np.where(valid, lam, np.nan)


def time_resonance_gap(speeds: SpeedPair, idx: PhaseIndex, r):
    """Z(r): the phase along the space-resonant parameterization.

    NaN wherever ``space_resonance_lambda`` is absent; independent of the
    direction omega because the phase only depends on the three moduli.
    """
    r = np.asarray(r, dtype=float)
    lam = space_resonance_lambda(speeds, idx, r)
    return speeds.phase_radial(idx, np.abs(lam) * r, r, np.abs(lam - 1.0) * r)


@dataclass(frozen=True)
class ResonantComponent:
    """One component {|eta| = R, xi = lambda*eta} of a space-time resonant set;
    ``tangent`` marks an even zero order."""

    idx: PhaseIndex
    R: float
    lam: float
    order: int
    tangent: bool = field(init=False)
    outcome_radius: float = field(init=False)
    source_radii: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tangent", self.order % 2 == 0)
        object.__setattr__(self, "outcome_radius", abs(self.lam) * self.R)
        object.__setattr__(self, "source_radii", (self.R, abs(self.lam - 1.0) * self.R))

    def to_dict(self) -> dict:
        return {
            "index": self.idx.serialize(),
            "R": self.R,
            "lambda": self.lam,
            "order": self.order,
            "tangent": self.tangent,
            "outcome_radius": self.outcome_radius,
            "source_radii": list(self.source_radii),
        }


def dist_to_component(xi, eta, comp: ResonantComponent):
    """Euclidean distance in R^6 from (xi, eta) to the component.

    Closed form: minimizing |xi - lam*R*w|^2 + |eta - R*w|^2 over unit w picks
    w aligned with lam*xi + eta.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    lam, R = comp.lam, comp.R
    drive = np.sqrt(sum_of_squares(lam * xi + eta))
    d2 = (
        sum_of_squares(xi)
        + sum_of_squares(eta)
        + R * R * (lam * lam + 1.0)
        - 2.0 * R * drive
    )
    return np.sqrt(np.maximum(d2, 0.0))


def _cubic_root(delta: float) -> float:
    """The one positive root of (3d+3) y^3 + (2d+1) y^2 + (1-d) y - 1 for d = delta > 0.

    The cubic is -1 at y = 0 and 4(d+1) at y = 1.  Bisection halves [0, 1]
    until its ends are adjacent doubles and returns the end where the cubic is
    smaller in modulus.
    """
    def cubic(y):
        return (((3.0 * delta + 3.0) * y + 2.0 * delta + 1.0) * y + 1.0 - delta) * y - 1.0

    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if cubic(mid) < 0.0 else (lo, mid)
    return min(lo, hi, key=lambda y: abs(cubic(y)))


def find_resonant_components(
    speeds: SpeedPair, idx: PhaseIndex, r_max: float = 100.0
) -> list[ResonantComponent]:
    """All zeros of Z on (0, r_max], built from their closed forms.

    Z has a zero only when k is the faster tag and the signs are +-- or -++:
    at y = 4/3 when l and m are both slower, at the cubic's positive root
    when exactly one of them is faster.  Each zero is simple, so ``order`` is 1.
    """
    _require_positive("r_max", r_max)
    c = speeds.c_fast
    fast = "c" if c > 1.0 else "1"
    el, em = (float(tag == fast) for tag in (idx.l, idx.m))
    if idx.k != fast or el + em == 2.0 or (idx.s0, idx.s1, idx.s2) not in _RESONANT_SIGNS:
        return []
    delta = (c - 1.0) * (c + 1.0) if c > 1.0 else (1.0 - c) * (1.0 + c) / (c * c)
    y = 4.0 / 3.0 if el + em == 0.0 else _cubic_root(delta)
    L = 1.0 + delta * el  # c_l^2 in the scaled speeds
    # L * y + el is (c_l^2 - w) / (delta w) at the root
    R = 1.0 / (min(c, 1.0) * math.sqrt(L * delta * (L * y + el)))
    if R > r_max:
        return []
    return [ResonantComponent(idx, R, float(space_resonance_lambda(speeds, idx, R)), 1)]


def _merge_radii(values) -> list[float]:
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > _RADIUS_MERGE_TOL:
            out.append(float(v))
    return out


@dataclass(frozen=True)
class ResonanceReport:
    """Full scan result for one speed value.

    The radius sets and the separation verdict (``separated``, ``min_gap``,
    ``delta0``) are derived from ``components`` and ``tau_sep``.
    ``grid_step`` is recorded for the ``resonance-report/1`` schema only; the
    closed forms have no grid.  ``warnings`` is always empty, kept for the same
    schema.
    """

    c: float
    components: tuple
    tau_sep: float
    r_max: float
    grid_step: float
    outcome_radii: tuple = field(init=False)
    source_radii: tuple = field(init=False)
    separated: bool = field(init=False)
    min_gap: float = field(init=False)
    delta0: float = field(init=False)
    warnings: ClassVar[tuple] = ()

    def __post_init__(self):
        for name in ("tau_sep", "r_max", "grid_step"):
            _require_positive(name, getattr(self, name))
        components = tuple(self.components)
        outcomes = tuple(_merge_radii(comp.outcome_radius for comp in components))
        sources = tuple(_merge_radii(r for comp in components for r in comp.source_radii))
        names = ("components", "outcome_radii", "source_radii", "separated", "min_gap", "delta0")
        derived = (components, outcomes, sources, *_separation(outcomes, sources, self.tau_sep))
        for name, value in zip(names, derived):
            object.__setattr__(self, name, value)

    @property
    def resonant_indices(self) -> list[str]:
        return sorted({comp.idx.serialize() for comp in self.components})

    def to_dict(self) -> dict:
        return {
            "schema": "resonance-report/1",
            "c": self.c,
            "tau_sep": self.tau_sep,
            "r_max": self.r_max,
            "grid_step": self.grid_step,
            "resonant_phases": self.resonant_indices,
            "components": [comp.to_dict() for comp in self.components],
            "outcome_radii": list(self.outcome_radii),
            "source_radii": list(self.source_radii),
            "separated": self.separated,
            "min_gap": None if math.isinf(self.min_gap) else self.min_gap,
            "delta0": self.delta0,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ResonanceReport":
        """Solve the report a document describes, and check that it describes it.

        The document's ``c``, ``r_max``, ``grid_step`` and ``tau_sep`` go to
        ``scan_all``, and every key of the solved report must match the
        document's: floats within ``REPORT_TOL`` (relative), other values
        equal and of the same JSON type, lists in the same order, components
        with the same keys.  The solved report is returned, so the document's
        own numbers are never used.  Top-level keys the schema does not name
        are ignored.
        """
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != "resonance-report/1":
            raise ValueError(f"unsupported report schema {schema!r}")
        solved = scan_all(_number(doc, "c"), r_max=_number(doc, "r_max"),
                          grid_step=_number(doc, "grid_step"), tau_sep=_number(doc, "tau_sep"))
        for key, value in solved.to_dict().items():
            _compare(key, doc.get(key, _MISSING), value)
        return solved


def _brief(value) -> str:
    text = "nothing" if value is _MISSING else repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _compare(path: str, doc, solved):
    """Raise a ValueError naming ``path`` unless ``doc`` matches ``solved``."""
    if isinstance(solved, dict) and isinstance(doc, dict):
        for key in [*solved, *(key for key in doc if key not in solved)]:
            _compare(f"{path}.{key}", doc.get(key, _MISSING), solved.get(key, _MISSING))
        return
    if isinstance(solved, list) and isinstance(doc, list) and len(doc) == len(solved):
        for i, (item, value) in enumerate(zip(doc, solved)):
            _compare(f"{path}[{i}]", item, value)
        return
    if isinstance(solved, float):
        number = _as_float(doc)
        matches = number is not None and math.isclose(number, solved, rel_tol=REPORT_TOL)
    else:
        matches = type(doc) is type(solved) and doc == solved
    if not matches:
        raise ValueError(
            f"report key {path}: the document has {_brief(doc)}, the solver finds {_brief(solved)}"
        )


def _separation(outcomes, sources, tau_sep: float) -> tuple[bool, float, float]:
    if not outcomes or not sources:
        return True, math.inf, 1.0
    min_gap = min(abs(o - s) for o in outcomes for s in sources)
    separated = min_gap > tau_sep
    delta0 = min_gap / 10.0 if separated else 0.0
    return separated, min_gap, delta0


def scan_all(
    c: float,
    r_max: float = 100.0,
    grid_step: float = 1e-3,
    tau_sep: float = DEFAULT_TAU_SEP,
) -> ResonanceReport:
    """Solve every canonical phase and assemble the resonance report.

    Components of non-canonical indices are symmetry images of the canonical
    ones and contribute the same outcome and source radii, so solving the
    canonical representatives is exhaustive.  ``grid_step`` has no effect; it
    is validated and recorded for the report schema.
    """
    speeds = SpeedPair(c)
    components = [
        comp
        for idx in canonical_phase_indices()
        for comp in find_resonant_components(speeds, idx, r_max)
    ]
    return ResonanceReport(c, components, tau_sep, r_max, grid_step)


@dataclass(frozen=True)
class SweepEntry:
    c: float
    separated: bool
    min_gap: float


def sweep_speed(
    c_min: float,
    c_max: float,
    steps: int,
    r_max: float = 100.0,
    grid_step: float = 1e-3,
    tau_sep: float = DEFAULT_TAU_SEP,
) -> list[SweepEntry]:
    """Separation verdicts on an inclusive linear grid of speeds."""
    _require_count("steps", steps, 1, MAX_SWEEP_STEPS)
    if not 0.0 < c_min <= c_max < math.inf:
        raise ValueError(f"need finite 0 < c_min <= c_max, got {c_min!r} and {c_max!r}")
    if c_min <= 1.0 <= c_max:
        raise ValueError("the sweep range must not contain the degenerate speed c = 1")
    for c in (c_min, c_max):
        SpeedPair(c)  # the speed range, checked before the first scan
    values = [c_min] if steps == 1 else list(np.linspace(c_min, c_max, steps))
    entries = []
    for c in values:
        report = scan_all(float(c), r_max=r_max, grid_step=grid_step, tau_sep=tau_sep)
        entries.append(SweepEntry(c=float(c), separated=report.separated, min_gap=report.min_gap))
    return entries


# ---------------------------------------------------------------------------
# Small-constant feasibility system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantsBudget:
    """Exponents entering the two-tier estimate scheme.

    ``A`` is the pseudo-product blow-up exponent, ``n`` the finite
    intersection order; ``d1``, ``d2``, ``d3`` are the small constants and
    ``N`` the regularity index.  ``feasible`` is the constant True; a failed
    search returns an ``InfeasibleBudget``.
    """

    A: float
    n: int
    d1: float
    d2: float
    d3: float
    N: int
    feasible: ClassVar[bool] = True

    def to_dict(self) -> dict:
        checks = verify_budget(self)
        return {
            "schema": "constants-budget/1",
            "feasible": self.feasible,
            "A": self.A,
            "n": self.n,
            "delta1": self.d1,
            "delta2": self.d2,
            "delta3": self.d3,
            "N": self.N,
            "inequalities": [
                {"name": c.name, "formula": c.formula, "slack": c.slack, "ok": c.ok}
                for c in checks
            ],
        }


@dataclass(frozen=True)
class InfeasibleBudget:
    """Search failure; names the most binding inequality of the best candidate."""

    A: float
    n: int
    binding: str
    best_min_slack: float
    feasible: ClassVar[bool] = False

    def to_dict(self) -> dict:
        return {
            "schema": "constants-budget/1",
            "feasible": False,
            "A": self.A,
            "n": self.n,
            "binding": self.binding,
            "best_min_slack": self.best_min_slack,
        }


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    formula: str
    slack: float

    @property
    def ok(self) -> bool:
        return self.slack > 0.0


def _slacks(A, d1, d2, d3, N) -> list[tuple[str, str, object]]:
    """(name, formula, slack) of the twelve inequalities; slacks broadcast over arrays."""
    return [
        ("high_reg_absorbs_tail", "d3*(N-2) + 1/2 + 3*d1 - 1 > 0",
         d3 * (N - 2) + 0.5 + 3 * d1 - 1.0),
        ("time_ibp_boundary_gain", "9*d1 - d3*(A + 3/2 - 3*d1) > 0",
         9 * d1 - d3 * (A + 1.5 - 3 * d1)),
        ("time_ibp_bulk_gain", "1/2 + 9*d1 - d3*(A + 13/6 - 2*d1) > 0",
         0.5 + 9 * d1 - d3 * (A + 13.0 / 6.0 - 2 * d1)),
        ("space_ibp_gain", "min(3*d1 - d3*(A+2), d3*(A+2)) > 0",
         np.minimum(3 * d1 - d3 * (A + 2), d3 * (A + 2))),
        ("shell_shrink_beats_decay", "d2/24 - 3*d1 > 0", d2 / 24.0 - 3 * d1),
        ("near_set_blowup_margin", "1 - 3*d1 - A*d2 > 0", 1.0 - 3 * d1 - A * d2),
        ("near_set_blowup_half", "1/2 - A*d2 > 0", 0.5 - A * d2),
        ("near_set_blowup_margin_bis", "1 - A*d2 - 3*d1 > 0", 1.0 - A * d2 - 3 * d1),
        ("weighted_reg_absorbs_tail", "d3*(N - 3/2) - 21/16 > 0",
         d3 * (N - 1.5) - 21.0 / 16.0),
        ("weighted_highfreq_window", "5/16 - d3*(A+1) > 0", 5.0 / 16.0 - d3 * (A + 1)),
        ("weighted_time_ibp_window", "3/16 - (A+2)*d3 > 0", 3.0 / 16.0 - (A + 2) * d3),
        ("weighted_space_ibp_window", "3/16 - d3*(A+1) > 0", 3.0 / 16.0 - d3 * (A + 1)),
    ]


def _inequalities(A: float, d1: float, d2: float, d3: float, N: int) -> list[InequalityCheck]:
    return [InequalityCheck(name, formula, float(slack))
            for name, formula, slack in _slacks(A, d1, d2, d3, N)]


def verify_budget(budget: ConstantsBudget) -> list[InequalityCheck]:
    """Evaluate all twelve strict inequalities for a budget."""
    return _inequalities(budget.A, budget.d1, budget.d2, budget.d3, budget.N)


_N_CAP = 10**9
# descending search grids: the first feasible point has the largest constants
_D2_GRID = np.logspace(-0.5, -6, 56)
_D1_GRID = np.logspace(-1, -8, 71)
_D3_GRID = np.logspace(-2, -10, 81)


def _minimal_regularity(d1, d3):
    """Smallest N (as float) the two regularity inequalities allow, with a 1% margin."""
    n1 = 2.0 + (0.5 - 3.0 * d1) / d3
    n2 = 1.5 + 21.0 / (16.0 * d3)
    return np.ceil(np.maximum(np.maximum(n1, n2), 3.0) * 1.01) + 1


def find_admissible_constants(A: float, n: int) -> ConstantsBudget | InfeasibleBudget:
    """Log-grid search for (d1, d2, d3, N) satisfying all twelve inequalities.

    The grids are fixed and descending (56 d2 in [1e-6, 10^-0.5], 71 d1 in
    [1e-8, 0.1], 81 d3 in [1e-10, 0.01]); the result is the first feasible
    point in (d2, d1, d3) order, with N minimal for its (d1, d3).  Points where
    row shell_shrink_beats_decay or space_ibp_gain is <= 0, or N > 10^9, are
    skipped.  Otherwise the result names the most binding inequality of the
    first point with the largest minimum slack, or of the least-constrained
    corner when every point is skipped.  ``n`` is recorded but enters no
    inequality; ``near_set_blowup_margin_bis`` repeats ``near_set_blowup_margin``
    with its terms reordered and stays because the schema pins twelve rows.
    """
    _require_positive("A", A)
    _require_count("n", n, 1, MAX_ORDER)
    d2, d1, d3 = np.ix_(_D2_GRID, _D1_GRID, _D3_GRID)
    N = _minimal_regularity(d1, d3)
    rows = {name: slack for name, _, slack in _slacks(A, d1, d2, d3, N)}
    # no row involves both d2 and d3: reduce on the (d2, d1) and the (d1, d3) plane
    d2d1, d1d3 = (functools.reduce(np.minimum, (s for s in rows.values() if (len(s) > 1) == on_d2))
                  for on_d2 in (True, False))
    min_slack = np.minimum(np.where(rows["shell_shrink_beats_decay"] > 0.0, d2d1, -np.inf),
                           np.where((rows["space_ibp_gain"] > 0.0) & (N <= _N_CAP), d1d3, -np.inf))
    feasible = min_slack > 0.0
    k = np.argmax(feasible) if feasible.any() else np.argmax(min_slack)
    # the least-constrained corner stands in when every point is skipped
    i2, i1, i3 = np.unravel_index(k, min_slack.shape) if min_slack.flat[k] > -np.inf else (-1,) * 3
    d1, d2, d3 = float(_D1_GRID[i1]), float(_D2_GRID[i2]), float(_D3_GRID[i3])
    N = int(min(N[0, i1, i3], _N_CAP))
    if feasible.flat[k]:
        return ConstantsBudget(A=A, n=n, d1=d1, d2=d2, d3=d3, N=N)
    worst = min(_inequalities(A, d1, d2, d3, N), key=lambda c: c.slack)
    return InfeasibleBudget(A=A, n=n, binding=worst.name, best_min_slack=worst.slack)
