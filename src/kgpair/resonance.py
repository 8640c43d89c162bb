"""Space, time, and space-time resonant sets of the interaction phases.

On the space-resonant set of a phase, eta and xi - eta are colinear; with
eta = r*omega the set is parameterized by p(r, omega) = (lambda(r)*r*omega,
r*omega).  Restricting the phase to that parameterization gives a scalar
analytic function Z(r) whose zeros are the space-time resonances: each zero R
contributes a sphere-and-ray component {|eta| = R, xi = lambda*eta}.

The zeros are solved for exactly.  With w = v^2 for the common group speed
v = c_l^2 r / <r>_l, D = (c_l^2 - w)(c_m^2 - w) and
PD = c_l^2 (c_m^2 - w) + c_m^2 (c_l^2 - w) - D - c_k^2 w ((c_m^2 - w)/c_l^2
+ (c_l^2 - w)/c_m^2), two squarings turn Z = 0 into the quartic
q(w) = PD^2 - 4 (c_l c_m - c_k^2 w/(c_l c_m))^2 D on (0, min(c_l, c_m)^2),
and r = v / (c_l sqrt(c_l^2 - w)).  Solved in w, the roots crowd towards
w = 1 as c -> 1 and towards w = 0 as c grows, and rounding loses them; so q
is solved in y = (1/w - 1)/delta, with speeds scaled to 1 (slower species)
and sqrt(1 + delta) (faster), where the factor delta^4 of q is divided out by
construction.  The squarings admit the roots of the phases with other signs
too, so each candidate is polished by Newton steps on the unsquared Z and
kept only when Z confirms it.  The zero order is the root's multiplicity in q.

A report collects the components of all canonical phases together with the
outcome and source radius sets and the separation verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from kgpair.dispersion import (PhaseIndex, SpeedPair, _require_count, _require_positive,
                               canonical_phase_indices)

ROOT_TOL = 1e-12
# relative tolerance between a report read back and the one solved at its
# parameters: a report written on another numpy build still reads
REPORT_TOL = 1e-10
DEFAULT_TAU_SEP = 1e-6
_RADIUS_MERGE_TOL = 1e-9
# quartic roots closer than this (relative) are one multiple root; rounding
# splits a double root into a pair about 1e-8 apart
_MULTIPLICITY_TOL = 1e-6
_NUMBER = (int, float)
_MISSING = object()
MAX_SWEEP_STEPS = 10_000  # speeds per sweep, one scan_all (about 5 ms) each
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
    """One component {|eta| = R, xi = lambda*eta} of a space-time resonant set."""

    idx: PhaseIndex
    R: float
    lam: float
    order: int
    tangent: bool = False
    outcome_radius: float = field(init=False)
    source_radii: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "outcome_radius", abs(self.lam) * self.R)
        object.__setattr__(
            self, "source_radii", (self.R, abs(self.lam - 1.0) * self.R)
        )

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
    drive = np.linalg.norm(lam * xi + eta, axis=-1)
    d2 = (
        np.sum(xi * xi, axis=-1)
        + np.sum(eta * eta, axis=-1)
        + R * R * (lam * lam + 1.0)
        - 2.0 * R * drive
    )
    return np.sqrt(np.maximum(d2, 0.0))


def resonance_quartic(speeds: SpeedPair, idx: PhaseIndex):
    """Coefficients (highest power first) of q in y, and the map from y to r.

    The coefficients are those of a positive multiple of q on the domain.
    e_a = 1 marks the faster tag, whose scaled squared speed is 1 + delta;
    the comments give each polynomial in the scaled speeds.  ``radius_of`` is
    NaN off the domain, where c_l^2 - w or c_m^2 - w is not positive.
    """
    c = speeds.c_fast
    delta = (c - 1.0) * (c + 1.0) if c > 1.0 else (1.0 - c) * (1.0 + c) / (c * c)
    ek, el, em = (float((tag == "c") == (c > 1.0)) for tag in (idx.k, idx.l, idx.m))
    L, M, K = 1.0 + delta * el, 1.0 + delta * em, 1.0 + delta * ek
    a = np.array([L, el])  # (c_l^2 - w) / (delta w)
    b = np.array([M, em])  # (c_m^2 - w) / (delta w)
    g = np.array([L * M, el + em - ek + delta * el * em])  # (c_l^2 c_m^2 - c_k^2 w) / (delta w)
    mul = np.convolve  # product of coefficient arrays, leading zeros kept
    h = (  # c_l^2 c_m^2 PD / (delta w)^2
        mul(a + b, g) + L * M * mul(el * b + em * a, [delta, 1.0])
        - K * mul(em * b + el * a, [0.0, 1.0]) - L * M * mul(a, b)
    )

    def radius_of(y: float) -> float:
        if min(np.polyval(a, y), np.polyval(b, y)) <= 0.0:
            return math.nan
        return 1.0 / (min(c, 1.0) * math.sqrt(L * delta * np.polyval(a, y)))

    return mul(h, h) - 4.0 * L * M * mul(mul(g, g), mul(a, b)), radius_of


def root_multiplicities(coefficients) -> list[tuple[float, int]]:
    """Distinct real roots of a polynomial with their multiplicities, ascending.

    Roots of ``np.roots`` within ``_MULTIPLICITY_TOL`` (relative) of each
    other form one root, so a double root that rounding split into a complex
    pair counts as one real root of multiplicity 2.
    """
    roots = np.roots(coefficients)
    tol = _MULTIPLICITY_TOL
    out: list[tuple[float, int]] = []
    for y in np.sort(roots[np.abs(roots.imag) <= tol * np.abs(roots)].real):
        if not out or y - out[-1][0] > tol * abs(y):
            out.append((float(y), int(np.count_nonzero(np.abs(roots - y) <= tol * abs(y)))))
    return out


def _bracket_sum(speeds: SpeedPair, idx: PhaseIndex, r: float) -> float:
    """Sum of the three brackets of Z at r, the size its rounding error scales with."""
    lam = abs(float(space_resonance_lambda(speeds, idx, r)))
    return (speeds.bracket_radial(idx.k, lam * r) + speeds.bracket_radial(idx.l, r)
            + speeds.bracket_radial(idx.m, abs(lam - 1.0) * r))


def _polish(speeds: SpeedPair, idx: PhaseIndex, r: float, order: int) -> tuple[float, bool]:
    """Newton steps on the unsquared Z from r, scaled by the zero order.

    Steps stop when |Z| is down to the rounding level of its three brackets or
    stops shrinking.  Returns the radius and whether |Z| there is within
    ROOT_TOL of the brackets' sum, which confirms the root.
    """
    def gap(x):
        return float(time_resonance_gap(speeds, idx, x))

    scale = _bracket_sum(speeds, idx, r)
    z = gap(r)
    for _ in range(8):
        if abs(z) <= 8.0 * np.finfo(float).eps * scale:
            break
        rise = gap(1.000001 * r) - gap(0.999999 * r)
        r_new = r - order * z * 2e-6 * r / rise if rise else math.nan
        z_new = gap(r_new) if r_new > 0.0 else math.nan
        if not abs(z_new) < abs(z):
            break
        r, z = r_new, z_new
    return r, abs(z) <= ROOT_TOL * scale


def find_resonant_components(
    speeds: SpeedPair, idx: PhaseIndex, r_max: float = 100.0
) -> list[ResonantComponent]:
    """All zeros of Z on (0, r_max]: the Z-confirmed real roots of the quartic.

    ``order`` is the root's multiplicity and ``tangent`` marks an even order.
    """
    _require_positive("r_max", r_max)
    quartic, radius_of = resonance_quartic(speeds, idx)
    components = []
    for y, order in root_multiplicities(quartic):
        r = radius_of(y)
        if not math.isnan(r):
            r, confirmed = _polish(speeds, idx, r, order)
            if confirmed and r <= r_max:
                lam = float(space_resonance_lambda(speeds, idx, r))
                components.append(ResonantComponent(idx, r, lam, order, tangent=order % 2 == 0))
    return sorted(components, key=lambda comp: comp.R)


def _merge_radii(values, tol: float = _RADIUS_MERGE_TOL) -> list[float]:
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(float(v))
    return out


@dataclass(frozen=True)
class ResonanceReport:
    """Full scan result for one speed value.

    ``grid_step`` is recorded for the ``resonance-report/1`` schema only; the
    exact solver has no grid.  ``warnings`` is kept for the same schema.
    """

    c: float
    components: tuple
    outcome_radii: tuple
    source_radii: tuple
    separated: bool
    min_gap: float
    delta0: float
    tau_sep: float
    r_max: float
    grid_step: float
    warnings: tuple = ()

    @classmethod
    def from_components(
        cls, c: float, components, tau_sep: float, r_max: float, grid_step: float, warnings=()
    ) -> "ResonanceReport":
        """Report whose radius sets and separation verdict follow from ``components``."""
        for name, value in (("tau_sep", tau_sep), ("r_max", r_max), ("grid_step", grid_step)):
            _require_positive(name, value)
        components = tuple(components)
        outcomes = _merge_radii(comp.outcome_radius for comp in components)
        sources = _merge_radii(r for comp in components for r in comp.source_radii)
        separated, min_gap, delta0 = _separation(outcomes, sources, tau_sep)
        return cls(
            c=c,
            components=components,
            outcome_radii=tuple(outcomes),
            source_radii=tuple(sources),
            separated=separated,
            min_gap=min_gap,
            delta0=delta0,
            tau_sep=tau_sep,
            r_max=r_max,
            grid_step=grid_step,
            warnings=tuple(warnings),
        )

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


def check_separation(report: ResonanceReport, tau_sep: float) -> tuple[bool, float, float]:
    """Re-evaluate the separation verdict of a report at a given tolerance."""
    _require_positive("tau_sep", tau_sep)
    return _separation(report.outcome_radii, report.source_radii, tau_sep)


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
    return ResonanceReport.from_components(c, components, tau_sep, r_max, grid_step)


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
    ``N`` the regularity index.  ``feasible`` is True for every budget built
    by a successful search.
    """

    A: float
    n: int
    d1: float
    d2: float
    d3: float
    N: int
    feasible: bool = True

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
    feasible: bool = False

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
    ok: bool


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
    return [InequalityCheck(name, formula, float(slack), bool(slack > 0.0))
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
    point in (d2, d1, d3) order, with N minimal for its (d1, d3).  Points with
    d1 >= d2/72, d3*(A+2) >= 3*d1 or N > 10^9 are skipped.  Otherwise the
    result names the most binding inequality of the first point with the
    largest minimum slack, or of the least-constrained corner when every
    point is skipped.  ``n`` is recorded but enters no inequality;
    ``near_set_blowup_margin_bis`` repeats ``near_set_blowup_margin`` with
    its terms reordered and stays because the schema pins twelve rows.
    """
    _require_positive("A", A)
    _require_count("n", n, 1, MAX_ORDER)
    d1, d3 = _D1_GRID[:, None], _D3_GRID[None, :]
    N = _minimal_regularity(d1, d3)
    skipped = (d3 * (A + 2) >= 3 * d1) | (N > _N_CAP)
    # the least-constrained corner stands in when every point is skipped
    best = (-np.inf, (_D1_GRID[-1], _D2_GRID[-1], _D3_GRID[-1], min(N[-1, -1], _N_CAP)))
    for d2 in _D2_GRID:
        min_slack = functools.reduce(np.minimum, (s for _, _, s in _slacks(A, d1, d2, d3, N)))
        min_slack = np.where(skipped | (d1 >= d2 / 72.0), -np.inf, min_slack)
        i, j = np.unravel_index(np.argmax(min_slack > 0.0), min_slack.shape)
        if min_slack[i, j] > 0.0:
            return ConstantsBudget(A=A, n=n, d1=float(_D1_GRID[i]), d2=float(d2),
                                   d3=float(_D3_GRID[j]), N=int(N[i, j]))
        i, j = np.unravel_index(np.argmax(min_slack), min_slack.shape)
        if min_slack[i, j] > best[0]:
            best = (min_slack[i, j], (_D1_GRID[i], d2, _D3_GRID[j], N[i, j]))
    d1, d2, d3, N = best[1]
    worst = min(_inequalities(A, float(d1), float(d2), float(d3), int(N)), key=lambda c: c.slack)
    return InfeasibleBudget(A=A, n=n, binding=worst.name, best_min_slack=worst.slack)
