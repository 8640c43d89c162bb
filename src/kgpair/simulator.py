"""Pseudo-spectral time integration of the diagonalized two-speed system.

The second-order pair is evolved through the first-order variables
u_s = du/dt + s*i*<D>_k u for s = +,-; the linear part is then diagonal in
frequency and integrated exactly by the propagator exp(s*i*dt*<D>_k), while
the quadratic coupling enters through an explicit integrating-factor
Runge-Kutta stage.  The data are real, so u_-(xi) = conj(u_+(-xi)): only u_+
is stored and evolved, and u_- is its mirror image ``_reflect(u_+)``.
Resonant amplification experiments inject narrow wave packets at the source
radii of a scan report and watch the outcome band.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from kgpair.bilinear import SpectralField
from kgpair.dispersion import SIGNS, SpeedPair, _require_count, _require_positive
from kgpair.resonance import ResonanceReport

SPECIES = ("1", "c")

ONE_D_CAVEAT = (
    "carrier radii come from the radial 3-D resonance analysis and are reused "
    "as 1-D frequencies; phase matching is unchanged because the phases only "
    "depend on the moduli along colinear configurations"
)


class BlowUpError(RuntimeError):
    """The per-step energy guard tripped; carries the last good state."""

    def __init__(self, message: str, state: "SystemState"):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class NonlinearityCoefficients:
    """Coefficients of the quadratic couplings.

    Q_slow = alpha*u1^2 + beta*uc^2 + gamma*u1*uc
    Q_fast = delta*u1^2 + eps*uc^2 + zeta*u1*uc
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    eps: float = 0.0
    zeta: float = 0.0

    @classmethod
    def zero(cls) -> "NonlinearityCoefficients":
        return cls()

    def is_zero(self) -> bool:
        return not any((self.alpha, self.beta, self.gamma, self.delta, self.eps, self.zeta))

    def pair_coefficient(self, species: str, l: str, m: str) -> float:
        """Coefficient of the (u^l, u^m) product feeding species' equation,
        with the cross term split evenly between the two orderings."""
        if species == "1":
            table = {("1", "1"): self.alpha, ("c", "c"): self.beta,
                     ("1", "c"): self.gamma / 2.0, ("c", "1"): self.gamma / 2.0}
        else:
            table = {("1", "1"): self.delta, ("c", "c"): self.eps,
                     ("1", "c"): self.zeta / 2.0, ("c", "1"): self.zeta / 2.0}
        return table[(l, m)]

    def evaluate(self, u1, uc, species: str):
        if species == "1":
            return self.alpha * u1 * u1 + self.beta * uc * uc + self.gamma * u1 * uc
        return self.delta * u1 * u1 + self.eps * uc * uc + self.zeta * u1 * uc


@dataclass(frozen=True)
class SystemState:
    """Diagonalized state of real data: ``coef[SPECIES.index(k)]`` holds the
    spectral coefficients of u^k_+ on ``grid``, whose own coefficients are
    unused; u^k_- is ``_reflect`` of them."""

    t: float
    speeds: SpeedPair
    grid: SpectralField
    coef: np.ndarray

    def __post_init__(self):
        expected = (len(SPECIES),) + self.grid.coef.shape
        if self.coef.shape != expected:
            raise ValueError(f"state shape {self.coef.shape} != {expected}")

    def field(self, species: str, sign: int) -> SpectralField:
        if sign not in SIGNS:
            raise ValueError(f"unknown sign {sign!r}")
        coef = self.coef[SPECIES.index(species)]
        return self.grid.with_coef(coef if sign == 1 else _reflect(coef))

    def energy(self) -> float:
        return self._energy

    @functools.cached_property
    def _energy(self) -> float:
        # once per state: a step's incoming state was the previous step's result.
        # No BLAS call (np.vdot runs a threaded zdotc); u_- has the moduli of u_+
        return 2.0 * float(np.sum(self.coef.real ** 2 + self.coef.imag ** 2))


def _reflect(coef: np.ndarray) -> np.ndarray:
    """conj(coef(-xi)) over the grid axes of one field: index j of an FFT
    lattice axis holds frequency j and -j is index (n - j) mod n."""
    return np.roll(np.flip(coef), 1, axis=tuple(range(coef.ndim))).conj()


def _bracket_weights(grid: SpectralField, speeds: SpeedPair) -> np.ndarray:
    """<D>_k on the grid, stacked over species: shape (species, *grid)."""
    norms = grid.frequency_norms()
    return np.stack([speeds.bracket_radial(species, norms) for species in SPECIES])


# (dims, n, box_length, c_fast, dt) -> (weights, dt flow, dt/2 flow) of the
# last key a step used: a run steps on one grid with one dt. Read-only, since
# every step with that key shares them.
_STEP_TABLES: dict = {}


def _step_tables(grid: SpectralField, speeds: SpeedPair, dt: float) -> tuple:
    """Bracket weights and the u_+ flows over dt and dt/2, built once per (grid, speeds, dt)."""
    key = (grid.dims, grid.n, grid.box_length, speeds.c_fast, dt)
    if key not in _STEP_TABLES:
        _STEP_TABLES.clear()  # before building: never two sets of tables at once
        weights = _bracket_weights(grid, speeds)
        tables = (weights, np.exp(1j * dt * weights), np.exp(1j * (dt / 2.0) * weights))
        for table in tables:
            table.flags.writeable = False
        _STEP_TABLES[key] = tables
    return _STEP_TABLES[key]


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
    minus = np.stack([_reflect(c) for c in state.coef])
    pos, vel = (state.coef - minus) / (2j * weights), (state.coef + minus) / 2.0
    return tuple({sp: state.grid.with_coef(c) for sp, c in zip(SPECIES, f)} for f in (pos, vel))


def expand_quadratic(coeffs: NonlinearityCoefficients) -> dict:
    """Interaction coefficients of the diagonalized expansion.

    Keys (k, l, m, s0, s1, s2) map to the real coefficient of
    (u^l_{s1}/<D>_l)(u^m_{s2}/<D>_m) in the species-k source term; the
    substitution u = sum_s s*u_s/(2i<D>) contributes -s1*s2/4 per pair, and
    the s0 slot is inert because the same source feeds both signs.
    """
    return {
        (k, l, m, s0, s1, s2): -coeffs.pair_coefficient(k, l, m) * s1 * s2 / 4.0
        for k, l, m in product(SPECIES, repeat=3)
        for s0, s1, s2 in product(SIGNS, repeat=3)
    }


def reassemble_quadratic(table: dict, state: SystemState) -> dict:
    """Rebuild the physical source terms from the expansion table (oracle path)."""
    grid = state.grid
    weights = _bracket_weights(grid, state.speeds)
    normalized = {
        (species, sign): grid.with_coef(state.field(species, sign).coef / w).to_physical()
        for species, w in zip(SPECIES, weights)
        for sign in SIGNS
    }
    out = {}
    for k in SPECIES:
        total = np.zeros(grid.coef.shape, dtype=complex)
        for l, m, s1, s2 in product(SPECIES, SPECIES, SIGNS, SIGNS):
            a = table[(k, l, m, 1, s1, s2)]
            if a != 0.0:
                total = total + a * normalized[(l, s1)] * normalized[(m, s2)]
        out[k] = total
    return out


def _sources(grid: SpectralField, coef: np.ndarray, weights: np.ndarray,
             coeffs: NonlinearityCoefficients) -> np.ndarray:
    """Source spectra of u_+, shape (species, *grid), from the positions
    u = Im(u_+/<D>) in physical space."""
    u1, uc = (grid.with_coef(c / w).to_physical().imag for c, w in zip(coef, weights))
    return np.stack([
        SpectralField.from_physical(coeffs.evaluate(u1, uc, species), grid.box_length).coef
        for species in SPECIES
    ])


SCHEME_ORDERS = {"ifrk4": 4, "ifrk2": 2}
# largest |coef - _reflect(coef)| / max|coef| of a field diagonalize accepts
# as real data; spectra of real arrays stay within 5.1e-16
REAL_DATA_TOL = 1e-12
# largest relative growth of the quadratic energy that one step may show
ENERGY_GUARD = 0.1
# largest step count t_final/dt of an amplification run, which steps twice
# that often: the resonant run and the detuned one
MAX_STEPS = 10**6


def step(
    state: SystemState,
    dt: float,
    coeffs: NonlinearityCoefficients,
    scheme: str = "ifrk4",
) -> SystemState:
    """One integrating-factor Runge-Kutta step.

    The linear flow is exact; the source terms use the classical explicit
    stages of the requested order.  A relative jump of the quadratic energy
    beyond ``ENERGY_GUARD``, or a non-finite energy, raises ``BlowUpError``.
    """
    _require_positive("dt", dt)
    if scheme not in SCHEME_ORDERS:
        raise ValueError(f"unknown scheme {scheme!r}")
    grid, u = state.grid, state.coef
    weights, full, half = _step_tables(grid, state.speeds, dt)

    def source(coef: np.ndarray) -> np.ndarray:
        return _sources(grid, coef, weights, coeffs)

    if coeffs.is_zero():
        new = u * full
    else:
        n1 = source(u)
        n2 = source((u + dt / 2.0 * n1) * half)
        if scheme == "ifrk2":
            new = u * full + dt * (n2 * half)
        else:
            n3 = source(u * half + dt / 2.0 * n2)
            n4 = source(u * full + dt * (n3 * half))
            incr = n1 * full + 2.0 * (n2 * half) + 2.0 * (n3 * half) + n4
            new = u * full + dt / 6.0 * incr

    new_state = replace(state, t=state.t + dt, coef=new)
    if not coeffs.is_zero():
        before, after = state.energy(), new_state.energy()
        if not math.isfinite(after) or after > (1.0 + ENERGY_GUARD) * max(before, 1e-300):
            raise BlowUpError(
                f"energy jumped {after / max(before, 1e-300):.3f}x in one step at t = {state.t:.6g}",
                state,
            )
    return new_state


def profile_of(state: SystemState) -> SystemState:
    """f_+ = exp(-i*t*<D>_k) u_+: constant in time under the linear flow."""
    weights = _bracket_weights(state.grid, state.speeds)
    return replace(state, coef=state.coef * np.exp(1j * -state.t * weights))


def band_energy(
    state: SystemState,
    radius_lo: float,
    radius_hi: float,
    species: str | None = None,
    sign: int | None = None,
) -> float:
    """Quadratic spectral mass in the band radius_lo <= |xi| < radius_hi."""
    if radius_lo >= radius_hi:
        raise ValueError("need radius_lo < radius_hi")
    norms = state.grid.frequency_norms()
    mask = (norms >= radius_lo) & (norms < radius_hi)
    cell = state.grid.dxi**state.grid.dims
    total = 0.0
    for sp, sg in product(SPECIES, SIGNS):
        if species in (None, sp) and sign in (None, sg):
            total += float(np.sum(np.abs(state.field(sp, sg).coef[mask]) ** 2) * cell)
    return total


def _packet_initial_state(grid: SpectralField, speeds: SpeedPair, packets) -> SystemState:
    """Real initial data: each (species, carrier, amplitude, bandwidth) packet
    puts a Gaussian at the carrier into u_+, and so its mirror image into u_-."""
    xi = grid.frequency_axis()
    coef = np.zeros((len(SPECIES),) + xi.shape, dtype=complex)
    for species, carrier, amplitude, bandwidth in packets:
        coef[SPECIES.index(species)] += amplitude * np.exp(
            -((xi - carrier) ** 2) / (2.0 * bandwidth**2))
    return SystemState(t=0.0, speeds=speeds, grid=grid, coef=coef)


def run_resonant_amplification(
    report: ResonanceReport,
    coeffs: NonlinearityCoefficients,
    n: int = 256,
    box_length: float = 256.0,
    dt: float = 0.25,
    t_final: float = 150.0,
    amplitude: float = 0.02,
    bandwidth: float = 0.02,
    detune_factor: float = 10.0,
    band_halfwidth_factor: float = 5.0,
    sample_every: int = 10,
    scheme: str = "ifrk4",
    probe_factor: float = 1e-6,
) -> dict:
    """Resonant versus detuned packet runs watching the outcome band.

    Packets are injected into the source species of the component with the
    smallest colinearity ratio (for c = 5 that is the slow-slow-to-fast
    interaction).  The detuned control shifts the carrier by ``detune_factor``
    packet bandwidths; each run records the energy of the outcome species in
    the band around twice its own carrier, and the growth ratio compares the
    final band energies.  A probe packet of relative size ``probe_factor``
    seeds each outcome band so the linear-flow ratio is exactly one.
    """
    for name, value in (
        ("dt", dt), ("t_final", t_final), ("bandwidth", bandwidth), ("amplitude", amplitude),
        ("probe_factor", probe_factor), ("band_halfwidth_factor", band_halfwidth_factor),
        ("box_length", box_length),
    ):
        _require_positive(name, value)
    # the detuning may take either sign or be zero; only its size must be finite
    _require_positive("|detune_factor| + 1", abs(detune_factor) + 1.0)
    _require_count("sample_every", sample_every, 1, MAX_STEPS)
    steps = round(_require_positive("t_final/dt", t_final / dt, MAX_STEPS))
    if not report.separated:
        raise ValueError("experiment requires a separated resonance report")
    if not report.components:
        raise ValueError("report carries no resonant component to excite")
    comp = min(report.components, key=lambda c: abs(c.lam))
    speeds = SpeedPair(report.c)
    source_species = comp.idx.l
    outcome_species = comp.idx.k

    # snap the box so the resonant carrier is exactly on the lattice
    cells = max(1, round(comp.R * box_length / (2.0 * math.pi)))
    box = 2.0 * math.pi * cells / comp.R
    grid = SpectralField.zeros(1, n, box)
    dxi = grid.dxi
    carrier_res = cells * dxi
    carrier_det = round((comp.R + detune_factor * bandwidth) / dxi) * dxi
    half_width = band_halfwidth_factor * bandwidth
    top, nyquist = 2.0 * max(carrier_res, carrier_det) + half_width, math.pi * n / box
    if not top < nyquist:
        raise ValueError(
            f"outcome band reaches {top:.6g}, above the grid's top frequency "
            f"pi*n/box = {nyquist:.6g}; raise n"
        )

    runs = {}
    inconclusive = False
    for label, carrier in (("resonant", carrier_res), ("detuned", carrier_det)):
        state = _packet_initial_state(
            grid,
            speeds,
            [
                (source_species, carrier, amplitude, bandwidth),
                (outcome_species, 2.0 * carrier, probe_factor * amplitude, bandwidth),
            ],
        )
        lo, hi = 2.0 * carrier - half_width, 2.0 * carrier + half_width
        times = [0.0]
        energies = [band_energy(state, lo, hi, species=outcome_species)]
        try:
            for k in range(1, steps + 1):
                state = step(state, dt, coeffs, scheme=scheme)
                if k % sample_every == 0 or k == steps:
                    times.append(state.t)
                    energies.append(band_energy(state, lo, hi, species=outcome_species))
        except BlowUpError:
            inconclusive = True
        runs[label] = {
            "carrier": carrier,
            "band": [lo, hi],
            "times": times,
            "band_energy": energies,
        }

    record = {
        "schema": "experiment-record/1",
        "caveat": ONE_D_CAVEAT,
        "parameters": {
            "c": report.c,
            "component_index": comp.idx.serialize(),
            "component_R": comp.R,
            "component_lambda": comp.lam,
            "source_species": source_species,
            "outcome_species": outcome_species,
            "n": n,
            "box_length": box,
            "dt": dt,
            "t_final": t_final,
            "amplitude": amplitude,
            "bandwidth": bandwidth,
            "detune_factor": detune_factor,
            "band_halfwidth_factor": band_halfwidth_factor,
            "scheme": scheme,
            "coefficients": {
                "alpha": coeffs.alpha, "beta": coeffs.beta, "gamma": coeffs.gamma,
                "delta": coeffs.delta, "eps": coeffs.eps, "zeta": coeffs.zeta,
            },
        },
        "carrier_lattice_cells": cells,
        "inconclusive": inconclusive,
        "runs": runs,
    }
    if not inconclusive:
        final_res = runs["resonant"]["band_energy"][-1]
        final_det = runs["detuned"]["band_energy"][-1]
        record["growth_ratio"] = final_res / final_det if final_det > 0.0 else math.inf
    return record
