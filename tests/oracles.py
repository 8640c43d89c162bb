"""Reference code of the tests: functions no subcommand of the CLI runs.

Each was a function or method of ``kgpair`` and is kept here verbatim, a
method becoming a function of its former ``self``. The tests use them as
oracles and helpers: the diagonalization and its inverse, the quadratic
forms and energy of the simulator, the separation verdict at another
tolerance, the 6-D high/low splitter, the phase gradients, the symmetry
transform, the bundled JSON schemas, the Littlewood-Paley projections,
the spectral L^2 norm and the Bernstein check of one j at a time.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from itertools import product

import numpy as np

from kgpair.bilinear import _EXP_FLOOR, SpectralField, _lp_low_profile, _stacks, lp_psi
from kgpair.cutoffs import theta_radial
from kgpair.dispersion import (IndexTransform, PhaseIndex, SpeedPair, _require_positive,
                               sum_of_squares)
from kgpair.resonance import ResonanceReport, _separation
from kgpair.simulator import (SPECIES, NonlinearityCoefficients, SystemState, _bracket_weights,
                              _reflect, _species_row)

# -- simulator ------------------------------------------------------------------

# largest |coef - _reflect(coef)| / max|coef| of a field diagonalize accepts
# as real data; spectra of real arrays stay within 5.1e-16
REAL_DATA_TOL = 1e-12


def diagonalize(u0: dict, u1: dict, speeds: SpeedPair) -> SystemState:
    """Form u_+ = u1 + i*<D>_k u0 for both species from real data u0, u1."""
    first = u0[SPECIES[0]]
    for fld in (*u0.values(), *u1.values()):
        first._check_same_grid(fld)
    for (name, fields), species in product((("u0", u0), ("u1", u1)), SPECIES):
        coef = fields[species].coef
        gap = float(np.max(np.abs(coef - _reflect(coef))))
        if not gap <= REAL_DATA_TOL * float(np.max(np.abs(coef))):
            raise ValueError(f"{name}[{species!r}] is not real data: its coefficients differ "
                             f"from their mirror image conj(coef(-xi)) by up to {gap:.3g}")
    grid = SpectralField.zeros(first.dims, first.n, first.box_length)
    weights = _bracket_weights(grid, speeds)
    coef = np.stack([u1[species].coef + 1j * w * u0[species].coef
                     for species, w in zip(SPECIES, weights)])
    return SystemState(t=0.0, speeds=speeds, grid=grid, coef=coef)


def reconstruct(state: SystemState) -> tuple[dict, dict]:
    """Invert the diagonalization: u = (u_+ - u_-)/(2i<D>), du/dt = (u_+ + u_-)/2."""
    weights = _bracket_weights(state.grid, state.speeds)
    dims = state.grid.dims
    minus = _reflect(state.coef, dims)
    pos, vel = (state.coef - minus) / (2j * weights), (state.coef + minus) / 2.0
    return tuple({sp: state.grid.with_coef(f[_species_row(k, dims)])
                  for k, sp in enumerate(SPECIES)} for f in (pos, vel))


def evaluate(coeffs: NonlinearityCoefficients, u1, uc, species: str):
    """Species' quadratic form at the positions u1, uc."""
    a, b, g = coeffs.species_coefficients(species)
    return a * u1 * u1 + b * uc * uc + g * u1 * uc


def energy(state: SystemState):
    """Quadratic energy of each run: a float without run axes, else an
    array of the run shape."""
    return float(state._energy) if not state.runs else state._energy


# -- resonance and cut-offs -----------------------------------------------------

def check_separation(report: ResonanceReport, tau_sep: float) -> tuple[bool, float, float]:
    """Re-evaluate the separation verdict of a report at a given tolerance."""
    _require_positive("tau_sep", tau_sep)
    return _separation(report.outcome_radii, report.source_radii, tau_sep)


def theta(p, M: float):
    """High/low splitter on the 6-dimensional frequency: 1 on B(0,M), 0 off B(0,M+1)."""
    _require_positive("M", M)
    return theta_radial(np.sqrt(sum_of_squares(p)), M)


# -- dispersion -----------------------------------------------------------------

def grad_eta_phase(speeds: SpeedPair, idx: PhaseIndex, xi, eta) -> np.ndarray:
    """d(phi)/d(eta) = s1*c_l^2*eta/<eta>_l - s2*c_m^2*(xi-eta)/<xi-eta>_m."""
    eta = np.asarray(eta, dtype=float)
    diff = np.asarray(xi, dtype=float) - eta
    return (idx.s1 * speeds.momentum_slope(idx.l, eta, speeds.bracket(idx.l, eta))
            - idx.s2 * speeds.momentum_slope(idx.m, diff, speeds.bracket(idx.m, diff)))


def grad_xi_phase(speeds: SpeedPair, idx: PhaseIndex, xi, eta) -> np.ndarray:
    """d(phi)/d(xi) = s0*c_k^2*xi/<xi>_k + s2*c_m^2*(xi-eta)/<xi-eta>_m."""
    xi = np.asarray(xi, dtype=float)
    diff = xi - np.asarray(eta, dtype=float)
    return (idx.s0 * speeds.momentum_slope(idx.k, xi, speeds.bracket(idx.k, xi))
            + idx.s2 * speeds.momentum_slope(idx.m, diff, speeds.bracket(idx.m, diff)))


def sigma(transform: IndexTransform) -> int:
    return -1 if transform.sign_flip else 1


def apply(transform: IndexTransform, xi, eta):
    if transform.swap:
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        return xi, xi - eta
    return xi, eta


# -- reporting and fields -------------------------------------------------------

def load_schema(name: str) -> dict:
    """Load one of the JSON schemas shipped with the package."""
    text = resources.files("kgpair.schemas").joinpath(f"{name}.json").read_text("utf-8")
    return json.loads(text)


def lp_project(field: SpectralField, j: int, mode: str = "annulus") -> SpectralField:
    """Dyadic frequency projection P_j (annulus) or P_{<j} (ball)."""
    norms = field.frequency_norms()
    scaled = norms / 2.0**j
    if mode == "annulus":
        weights = lp_psi(scaled)
    elif mode == "ball":
        weights = _lp_low_profile(scaled)
    else:
        raise ValueError("mode must be 'annulus' or 'ball'")
    return field.with_coef(field.coef * weights)


def spectral_l2(field: SpectralField) -> float:
    return float(
        math.sqrt(np.sum(np.abs(field.coef) ** 2) * field.dxi**field.dims)
    )


def bernstein_check(j: int, p: float, q: float, trials: int = 100, seed: int = 0) -> float:
    """Max over random band fields of ||P_j f||_p / (2^{j (1/q - 1/p)} ||P_j f||_q).

    The fields live on the 1-D grid of 2048 points on a box of length 64.
    Trial fields are random superpositions of wave packets at scale 2^j,
    drawn self-similarly so that ratios are comparable across j.  Trial t
    draws from its own generator, seeded (seed, t); the trials are
    transformed in stacks of up to _STACK_TRIALS fields.
    """
    if not (1 <= q <= p):
        raise ValueError("need 1 <= q <= p")
    base = SpectralField.zeros(1, 2048, 64.0)
    if 2.0 * 2**j > (base.n / 2) * base.dxi:
        raise ValueError("annulus for this j is not representable on the grid")
    best = 0.0
    band = lp_psi(base.frequency_norms() / 2.0**j)  # the P_j weights, the same for every trial
    positive = slice(1, base.n // 2)  # the packets carry positive frequencies only
    axis = base.frequency_axis()[positive]
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    for stack in _stacks(trials):
        coef = np.zeros((len(stack), base.n), dtype=complex)
        for row, t in zip(coef, stack):
            rng = np.random.default_rng((seed, t))
            for _ in range(3):
                center = 2.0**j * rng.uniform(1.05, 1.45)
                width = 2.0**j * rng.uniform(0.05, 0.12)
                x0 = rng.uniform(0.0, base.box_length)
                amp = rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                # the packet on the envelope's live modes only: elsewhere it
                # is a signed zero, and +0 plus a signed zero is +0
                arg = -((axis - center) ** 2) / (2.0 * width**2)
                live = np.flatnonzero(~(arg < _EXP_FLOOR))
                row[positive][live] += amp * np.exp(arg[live]) * np.exp(-1j * axis[live] * x0)
        for denom, numer in base.with_coef(coef * band).row_lp_norms(q, p):
            if denom == 0.0:
                continue
            ratio = numer / (2.0 ** (j * (1.0 / q - inv_p)) * denom)
            best = max(best, ratio)
    return best
