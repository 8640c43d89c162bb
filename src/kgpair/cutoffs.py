"""Cut-off functions adapted to a resonance report.

Three layers of localization:

* ``theta_radial``: radial high/low frequency splitter, 1 on B(0, M), 0
  outside B(0, M+1).
* ``chi_O`` / ``chi_O_tilde``: partition of the output frequency axis into a
  small neighbourhood of the outcome radii and its complement.
* ``chi_R`` + ``chi_S`` + ``chi_T`` = 1: partition of the (xi, eta) space into
  a shrinking neighbourhood of the space-time resonant components (scale rho),
  a region where the phase is bounded away from zero, and a region where its
  eta gradient is.

All evaluators are vectorized over leading axes and pure; a family is
immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from kgpair.dispersion import PhaseIndex, SpeedPair, _require_positive, sum_of_squares
from kgpair.resonance import ResonanceReport, ResonantComponent, dist_to_component

GRAD_FLOOR = 1e-8  # floor for the gradient magnitudes in distance surrogates
TRUST_RADIUS = 1.0  # distance surrogates are only first-order; cap them here
# The distance comparison dist(.,S) >= const * dist(.,R)^n on the time-resonant
# set holds with an implicit constant; the gain absorbs it so the step
# saturates to {0, 1} away from the resonant components.
COMPARISON_GAIN = 8.0
PROBE_RHOS = (1.0, 0.1, 0.01)  # the scales rho of bound_probe, largest first


def bump(x):
    """Compactly supported mollifier exp(1 - 1/(1-x^2)) on (-1, 1), peak 1."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    out = np.zeros(x.shape)
    # exp only on the inside points, which also keeps x * x from overflowing
    x2 = x[inside]
    x2 *= x2
    with np.errstate(under="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - x2))
    return out


def _half_exp(t):
    # exp(-1/t) for t > 0, zero otherwise; the bump's one-sided building block
    t = np.asarray(t, dtype=float)
    positive = t > 0.0
    safe = np.where(positive, t, 1.0)
    with np.errstate(under="ignore"):
        vals = np.exp(-1.0 / safe)
    return np.where(positive, vals, 0.0)


def smooth_step(x):
    """Smooth transition: 0 on (-inf, -1], 1 on [1, inf)."""
    x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    t = 0.5 * (x + 1.0)
    rise = _half_exp(t)
    fall = _half_exp(1.0 - t)
    return rise / (rise + fall)


def edge_down(r, a, b):
    """Smooth radial switch: 1 for r <= a, 0 for r >= b."""
    return 1.0 - smooth_step(2.0 * (np.asarray(r, dtype=float) - a) / (b - a) - 1.0)


def theta_radial(r, M: float):
    """High/low splitter as a function of the modulus r: 1 for r <= M, 0 for r >= M+1."""
    return edge_down(r, M, M + 1.0)


def chi_R_rho(xi, eta, comp: ResonantComponent, rho: float, support_radius: float = 1.0):
    """Product-of-bumps cutoff around one component at scale rho.

    chi((|eta| - R)/rho) * chi((xi - lambda*eta)/rho) with chi a radial bump
    supported on |y| <= support_radius * rho.
    """
    _require_positive("rho", rho)
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    scale = rho * support_radius
    radial = (np.sqrt(sum_of_squares(eta)) - comp.R) / scale
    offset = np.sqrt(sum_of_squares(xi - comp.lam * eta)) / scale
    return bump(radial) * bump(offset)


def _frobenius_bracket_jacobian(ca: float, t):
    # Frobenius norm of d/dw [ca^2 w/<w>] = (ca^2/<w>)(I - ca^2 w w^T/<w>^2) at |w|^2 = t
    b2 = 1.0 + ca * ca * t
    alpha = ca * ca / b2
    return np.sqrt((ca**4 / b2) * (3.0 - 2.0 * alpha * t + alpha * alpha * t * t))


@dataclass(frozen=True)
class CutoffFamily:
    """Evaluable cutoff family of one phase of a separated report.

    The report and the phase index determine the family. M = max(2, 2.5 *
    largest 6-radius of a component) keeps every component inside B(0, M/2),
    n is the largest zero order, and the bump support radius
    delta0 / (4 (1 + max |lambda|)), the maximum over this phase's
    components, keeps the chi_R support inside B_{2 delta0}(R) and inside the
    region where chi_O equals 1 for every rho <= 1.
    """

    report: ResonanceReport
    idx: PhaseIndex
    M: float = field(init=False)
    delta0: float = field(init=False)
    n: int = field(init=False)
    support_radius: float = field(init=False)
    components: tuple = field(init=False)
    speeds: SpeedPair = field(init=False)
    high_freq_offset: float = field(init=False)

    def __post_init__(self):
        if not self.report.separated:
            raise ValueError("cutoff family requires a separated resonance report")
        report = self.report
        if not report.components:
            raise ValueError("report has no resonant components to adapt to")
        comps = tuple(c for c in report.components if c.idx == self.idx)
        radius6 = max(c.R * math.sqrt(1.0 + c.lam * c.lam) for c in report.components)
        lam_max = max((abs(c.lam) for c in comps), default=0.0)
        object.__setattr__(self, "M", max(2.0, 2.5 * radius6))
        object.__setattr__(self, "delta0", float(report.delta0))
        object.__setattr__(self, "n", max(c.order for c in report.components))
        object.__setattr__(self, "support_radius", report.delta0 / (4.0 * (1.0 + lam_max)))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "speeds", SpeedPair(report.c))
        c = report.c
        object.__setattr__(self, "high_freq_offset", 1.0 / math.sqrt(abs(c**4 - c**2)))

    @classmethod
    def build(cls, report: ResonanceReport, idx: PhaseIndex | str | None = None) -> "CutoffFamily":
        """The family of phase ``idx`` (default: that of the report's first component)."""
        if idx is None:
            idx = next((comp.idx for comp in report.components), None)
        elif isinstance(idx, str):
            idx = PhaseIndex.parse(idx)
        return cls(report=report, idx=idx)

    # -- output-frequency pair ------------------------------------------------

    def dist_to_outcomes(self, xi):
        radius = np.sqrt(sum_of_squares(xi))
        dists = [np.abs(radius - o) for o in self.report.outcome_radii]
        return np.min(np.stack(dists, axis=0), axis=0)

    def chi_O(self, xi):
        """1 within delta0/2 of an outcome sphere, 0 outside delta0."""
        return edge_down(self.dist_to_outcomes(xi), self.delta0 / 2.0, self.delta0)

    def chi_O_tilde(self, xi):
        return 1.0 - self.chi_O(xi)

    # -- resonance-adapted partition -------------------------------------------

    def chi_R(self, xi, eta, rho: float):
        _require_positive("rho", rho)  # also when the family has no components
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        total = np.zeros(np.broadcast_shapes(xi.shape[:-1], eta.shape[:-1]))
        for comp in self.components:
            total = total + chi_R_rho(xi, eta, comp, rho, self.support_radius)
        return np.minimum(total, 1.0)

    def dist_to_resonant_set(self, xi, eta):
        """Exact distance to the union of this family's components (inf if none)."""
        if not self.components:
            shape = np.broadcast_shapes(
                np.asarray(xi).shape[:-1], np.asarray(eta).shape[:-1]
            )
            return np.full(shape, math.inf)
        dists = [dist_to_component(xi, eta, comp) for comp in self.components]
        return np.min(np.stack(dists, axis=0), axis=0)

    def partition(self, xi, eta, rho: float):
        """(chi_R, chi_S, chi_T) at scale rho in one pass: chi_S is (1 - chi_R)
        times the theta blend of the low and high branches, chi_T the rest."""
        return self._partition_at(xi, eta, rho, self._away_and_moduli(xi, eta)[0])

    def _partition_at(self, xi, eta, rho: float, away):
        """``partition`` at scale rho from the rho-free ``away`` of the same
        points (the first value of ``_away_and_moduli``)."""
        chi_r = self.chi_R(xi, eta, rho)
        chi_s = (1.0 - chi_r) * away
        return chi_r, chi_s, 1.0 - chi_r - chi_s

    def _away_and_moduli(self, xi, eta):
        """The rho-free part of the partition: the theta blend ``away`` of the
        low and high branches, |phi| and |d_eta phi|, from one pass over the
        geometry: xi - eta, the squared moduli of xi, eta and xi - eta, one
        bracket per vector.  The low branch steps on |phi| / |grad phi| against
        |d_eta phi| / (curvature proxy), first-order distances to the time- and
        space-resonant sets; the high branch is a bump in |xi - eta|."""
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        sp, idx = self.speeds, self.idx
        diff = xi - eta
        t_eta, t_diff = sum_of_squares(eta), sum_of_squares(diff)
        hess = (_frobenius_bracket_jacobian(sp.speed_of(idx.l), t_eta)
                + 2.0 * _frobenius_bracket_jacobian(sp.speed_of(idx.m), t_diff))
        r_xi, r_eta, r_diff = np.sqrt(sum_of_squares(xi)), np.sqrt(t_eta), np.sqrt(t_diff)
        del t_eta, t_diff
        high = bump((r_diff - self.high_freq_offset) / (0.5 * self.high_freq_offset))
        phi = np.abs(sp.phase_radial(idx, r_xi, r_eta, r_diff))
        # squared gradient moduli; no (..., 3) array outlives the two sums
        slope = sp.momentum_slope(idx.m, diff, sp.bracket_radial(idx.m, r_diff))
        del diff, r_diff
        gx2 = sum_of_squares(idx.s0 * sp.momentum_slope(idx.k, xi, sp.bracket_radial(idx.k, r_xi))
                             + idx.s2 * slope)
        ge = sum_of_squares(idx.s1 * sp.momentum_slope(idx.l, eta, sp.bracket_radial(idx.l, r_eta))
                            - idx.s2 * slope)
        del slope, r_xi, r_eta
        d_time = np.minimum(phi / np.maximum(np.sqrt(gx2 + ge), GRAD_FLOOR), TRUST_RADIUS)
        del gx2
        ge = np.sqrt(ge)  # rebinding frees the square: one array fewer at the peak
        d_space = np.minimum(ge / np.maximum(hess, GRAD_FLOOR), TRUST_RADIUS)
        d_res = np.minimum(self.dist_to_resonant_set(xi, eta), TRUST_RADIUS)
        denom = np.maximum(d_res ** (self.n + 1), 1e-300)
        with np.errstate(over="ignore"):
            arg = COMPARISON_GAIN * (d_time - d_space) / denom
        # theta of the 6-vector (xi, eta), its squares summed in that order
        blend = theta_radial(np.sqrt(sum_of_squares(xi, eta)), self.M)
        away = blend * smooth_step(arg) + (1.0 - blend) * high
        return away, phi, ge

    def chi_S(self, xi, eta, rho: float):
        """Cutoff localizing away from the time-resonant set."""
        return self.partition(xi, eta, rho)[1]

    def chi_T(self, xi, eta, rho: float):
        """Cutoff localizing away from the space-resonant set."""
        return self.partition(xi, eta, rho)[2]

    def evaluate(self, name: str, xi, eta, rho: float):
        """Evaluate chi_r, chi_s or chi_t by name."""
        name = name.lower().replace("-", "_")
        if name == "chi_r":
            return self.chi_R(xi, eta, rho)
        if name == "chi_s":
            return self.chi_S(xi, eta, rho)
        if name == "chi_t":
            return self.chi_T(xi, eta, rho)
        raise ValueError(f"unknown cutoff {name!r}")

    def parameters(self) -> dict:
        return {
            "schema": "cutoff-family/1",
            "c": self.report.c,
            "index": self.idx.serialize(),
            "M": self.M,
            "delta0": self.delta0,
            "n": self.n,
            "support_radius": self.support_radius,
            "high_freq_offset": self.high_freq_offset,
            "components": [comp.to_dict() for comp in self.components],
            "outcome_radii": list(self.report.outcome_radii),
        }


def _sample_ball(rng, count: int, radius: float):
    # uniform points in the 6-D ball of the (xi, eta) space
    direction = rng.normal(size=(count, 6))
    direction /= np.sqrt(sum_of_squares(direction))[:, None]
    r = radius * rng.uniform(0.0, 1.0, count) ** (1.0 / 6)
    return direction * r[:, None]


def _near_component_points(family: CutoffFamily, rng, count: int, spreads):
    picks = rng.integers(0, len(family.components), count)
    omega = rng.normal(size=(count, 3))
    omega /= np.sqrt(sum_of_squares(omega))[:, None]
    R = np.array([comp.R for comp in family.components])[picks, None]
    lam_R = np.array([comp.lam * comp.R for comp in family.components])[picks, None]
    base = np.concatenate([lam_R * omega, R * omega], axis=1)
    spread = rng.choice(np.asarray(spreads, dtype=float), count)
    return base + rng.normal(size=(count, 6)) * spread[:, None]


def sample_interaction_points(family: CutoffFamily, rng, count: int):
    """Mixture of uniform points in B(0, M) and, 40 % of them, points near the
    resonant set.

    The near-set spreads go down to the bump support scale so the chi_R
    region is actually exercised.
    """
    n_near = int(count * 0.4) if family.components else 0
    out = [_sample_ball(rng, count - n_near, family.M)]
    if n_near:
        s = family.support_radius
        spreads = [1e-1, 1e-2, 1e-3, 1e-4, 30 * s, 3 * s, s, 0.3 * s,
                   3e-2 * s, 3e-3 * s, 0.0]
        out.append(_near_component_points(family, rng, n_near, spreads))
    pts = np.concatenate(out, axis=0)
    return pts[:, :3], pts[:, 3:]


def bound_probe(family: CutoffFamily, sample_count: int = 10_000, seed: int = 0) -> dict:
    """Monte-Carlo sup estimates of the singular symbol magnitudes.

    Estimates sup |chi_S^rho / phi| and sup |chi_T^rho / |d_eta phi|| over
    B(0, M) for each rho of PROBE_RHOS, fits the growth exponent in 1/rho,
    and samples the high-frequency region, on shells out to radius 1000, where
    the bound should be polynomial in |(xi, eta)|.
    """
    rng = np.random.default_rng(seed)
    xi, eta = sample_interaction_points(family, rng, sample_count)
    # the partition acts point by point: the rho-free pass over the base
    # points is taken once and each rho adds only its extra points
    base = family._away_and_moduli(xi, eta)
    rows = []
    for rho in PROBE_RHOS:
        # extra samples at the rho-adapted scale, where the symbols peak
        s = family.support_radius * rho
        extra = _near_component_points(
            family, rng, sample_count // 2, [10 * s, 3 * s, s, 0.3 * s]
        )
        xs = np.concatenate([xi, extra[:, :3]], axis=0)
        es = np.concatenate([eta, extra[:, 3:]], axis=0)
        away, phi, ge = (np.concatenate(pair) for pair in
                         zip(base, family._away_and_moduli(extra[:, :3], extra[:, 3:])))
        _, chi_s, chi_t = family._partition_at(xs, es, rho, away)
        ok_phi = phi > 1e-12
        ok_ge = ge > 1e-12
        rows.append(
            {
                "rho": float(rho),
                "sup_chi_s_over_phi": float(np.max(chi_s[ok_phi] / phi[ok_phi])),
                "sup_chi_t_over_grad": float(np.max(chi_t[ok_ge] / ge[ok_ge])),
            }
        )
    sup_vals = np.array([row["sup_chi_s_over_phi"] for row in rows])
    inv_rho = 1.0 / np.asarray(PROBE_RHOS, dtype=float)
    exponent = float(np.polyfit(np.log(inv_rho), np.log(np.maximum(sup_vals, 1e-300)), 1)[0])

    # high-frequency shells: the ratio against (1 + |p|)^n stays bounded.
    # half the samples sit on the near-diagonal ridge where the high branch
    # of chi_S is supported, the rest are generic directions.
    # All six shells are drawn in turn and evaluated as one set of points.
    shells = np.geomspace(family.M + 1.0, 1e3, 6)
    pts = []
    for radius in shells:
        direction = rng.normal(size=(1000, 6))
        direction /= np.sqrt(sum_of_squares(direction))[:, None]
        generic = direction * radius
        w = rng.normal(size=(1000, 3))
        w *= (rng.uniform(0.0, 2.0 * family.high_freq_offset, 1000) / np.sqrt(sum_of_squares(w)))[:, None]
        ez = rng.normal(size=(1000, 3))
        ez /= np.sqrt(sum_of_squares(ez))[:, None]
        heta = ez * radius / math.sqrt(2.0)
        ridge = np.concatenate([heta + w, heta], axis=1)
        pts += [generic, ridge]
    pts = np.concatenate(pts, axis=0)
    hxi, heta = pts[:, :3], pts[:, 3:]
    away, all_phi, _ = family._away_and_moduli(hxi, heta)
    all_chi_s = family._partition_at(hxi, heta, PROBE_RHOS[0], away)[1]
    hf_rows = []
    for k, radius in enumerate(shells):
        shell = slice(2000 * k, 2000 * (k + 1))
        chi_s, hphi = all_chi_s[shell], all_phi[shell]
        ok = hphi > 1e-12
        ratio = np.max(chi_s[ok] / hphi[ok]) if np.any(ok) else 0.0
        hf_rows.append(
            {
                "radius": float(radius),
                "sup_chi_s_over_phi": float(ratio),
                "poly_normalized": float(ratio / (1.0 + radius) ** family.n),
            }
        )
    return {
        "schema": "cutoff-probe/1",
        "n": family.n,
        "sample_count": sample_count,
        "seed": seed,
        "low_frequency": rows,
        "growth_exponent_in_inv_rho": exponent,
        "high_frequency": hf_rows,
    }
