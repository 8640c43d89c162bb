"""Pseudo-spectral time integration of the diagonalized two-speed system.

The second-order pair is evolved through the first-order variables
u_s = du/dt + s*i*<D>_k u for s = +,-; the linear part is then diagonal in
frequency and integrated exactly by the propagator exp(s*i*dt*<D>_k), while
the quadratic coupling enters through an explicit integrating-factor
Runge-Kutta stage.  The data are real, so u_-(xi) = conj(u_+(-xi)): only u_+
is stored and evolved, and u_- is its mirror image ``_reflect(u_+)``.
Resonant amplification experiments inject narrow wave packets at the source
radii of a scan report and watch the outcome band.  A state may stack
several runs on one grid along leading axes, and a step then advances all of
them with the same transforms.

A step works in buffers allocated once per (grid, speeds, dt, state shape)
and reused by every later step with the same four, so ``step`` is neither
re-entrant nor thread-safe.  The state it returns owns its ``coef``: only
that array is fresh, and no later step writes it.
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
    """The per-step energy guard tripped; carries the last good state and
    ``tripped``, booleans of its run shape (a single one for a state without
    run axes) that mark the runs whose guard fired."""

    def __init__(self, message: str, state: "SystemState", tripped: np.ndarray):
        super().__init__(message)
        self.state = state
        self.tripped = tripped


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

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"coefficient {name} must be finite, got {value!r}")

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

    def species_coefficients(self, species: str) -> tuple:
        """The (u1^2, uc^2, u1*uc) coefficients of species' quadratic form."""
        if species == "1":
            return self.alpha, self.beta, self.gamma
        return self.delta, self.eps, self.zeta

    def evaluate(self, u1, uc, species: str):
        a, b, g = self.species_coefficients(species)
        return a * u1 * u1 + b * uc * uc + g * u1 * uc


@dataclass(frozen=True)
class SystemState:
    """Diagonalized state of real data, ``coef`` shaped (*runs, species, *grid):
    ``coef[..., SPECIES.index(k), :]`` holds the spectral coefficients of u^k_+
    on ``grid``, whose own coefficients are unused; u^k_- is ``_reflect`` of
    them.  The leading run axes, if any, stack independent runs that share
    the grid, the time and the speeds."""

    t: float
    speeds: SpeedPair
    grid: SpectralField
    coef: np.ndarray

    def __post_init__(self):
        expected = (len(SPECIES),) + self.grid.coef.shape
        if self.coef.shape[self.coef.ndim - len(expected):] != expected:
            raise ValueError(f"state shape {self.coef.shape} does not end in {expected}")

    @property
    def runs(self) -> tuple:
        """Shape of the run axes: () for a single run."""
        return self.coef.shape[:self.coef.ndim - self.grid.dims - 1]

    def field(self, species: str, sign: int) -> SpectralField:
        if sign not in SIGNS:
            raise ValueError(f"unknown sign {sign!r}")
        coef = self.coef[_species_row(SPECIES.index(species), self.grid.dims)]
        return self.grid.with_coef(coef if sign == 1 else _reflect(coef, self.grid.dims))

    def energy(self):
        """Quadratic energy of each run: a float without run axes, else an
        array of the run shape."""
        return float(self._energy) if not self.runs else self._energy

    @functools.cached_property
    def _energy(self) -> np.ndarray:
        # once per state: a step's incoming state was the previous step's result.
        # No BLAS call (np.vdot runs a threaded zdotc); u_- has the moduli of u_+.
        # Each run sums its own (species, *grid) block in one pass, after the
        # squares are added in place into one temporary
        squares = self.coef.real ** 2
        squares += self.coef.imag ** 2
        return 2.0 * np.sum(squares.reshape(self.runs + (-1,)), axis=-1)


def _reflect(coef: np.ndarray, dims: int | None = None) -> np.ndarray:
    """conj(coef(-xi)) over the trailing ``dims`` grid axes (default: all):
    index j of an FFT lattice axis holds frequency j and -j is index (n - j) mod n."""
    axes = tuple(range(-(dims or coef.ndim), 0))
    return np.roll(np.flip(coef, axes), 1, axis=axes).conj()


def _species_row(k: int, dims: int) -> tuple:
    """Index of species k in a (*runs, species, *grid) array."""
    return (Ellipsis, k) + (slice(None),) * dims


def _bracket_weights(grid: SpectralField, speeds: SpeedPair) -> np.ndarray:
    """<D>_k on the grid, stacked over species: shape (species, *grid)."""
    norms = grid.frequency_norms()
    return np.stack([speeds.bracket_radial(species, norms) for species in SPECIES])


class _StepWorkspace:
    """Scratch buffers of ``step`` on states shaped ``shape``
    (*runs, species, *grid), overwritten by every step on such a state: the
    four stage sources, the stage input, u*full, per species a complex field
    and a real (*runs, *grid) buffer for its physical values, and the two
    real buffers of the nonlinearity's sum."""

    def __init__(self, grid: SpectralField, shape: tuple):
        self.grid, self.shape = grid, shape
        self.sources = np.empty((4,) + shape, dtype=complex)
        self.stage = np.empty(shape, dtype=complex)
        self.u_full = np.empty(shape, dtype=complex)
        species_shape = shape[:len(shape) - grid.dims - 1] + shape[len(shape) - grid.dims:]
        self.fields = [grid.with_coef(np.empty(species_shape, dtype=complex)) for _ in SPECIES]
        self.positions = np.empty((len(SPECIES),) + species_shape)
        self.total, self.term = np.empty(species_shape), np.empty(species_shape)


# (dims, n, box_length, c_fast, dt) -> [tables, workspace] of the last key a
# step used: a run steps on one grid with one dt.  The tables (1/weights, dt
# flow, dt/2 flow) are read-only, since every step with that key shares them;
# the workspace serves the last state shape stepped with them.
_STEP_TABLES: dict = {}


def _step_entry(grid: SpectralField, speeds: SpeedPair, dt: float) -> list:
    key = (grid.dims, grid.n, grid.box_length, speeds.c_fast, dt)
    if key not in _STEP_TABLES:
        _STEP_TABLES.clear()  # before building: never two sets of tables at once
        weights = _bracket_weights(grid, speeds)
        # numpy divides a complex number by a real one as a product with its
        # reciprocal, so multiplying by this complex table gives the same
        # values; only an exact zero may come out with the other sign
        inverse = (1.0 / weights).astype(complex)
        tables = (inverse, np.exp(1j * dt * weights), np.exp(1j * (dt / 2.0) * weights))
        for table in tables:
            table.flags.writeable = False
        _STEP_TABLES[key] = [tables, None]
    return _STEP_TABLES[key]


def _step_tables(grid: SpectralField, speeds: SpeedPair, dt: float) -> tuple:
    """Reciprocal bracket weights and the u_+ flows over dt and dt/2, built
    once per (grid, speeds, dt), each shaped (species, *grid)."""
    return _step_entry(grid, speeds, dt)[0]


def _step_workspace(grid: SpectralField, speeds: SpeedPair, dt: float,
                    shape: tuple) -> _StepWorkspace:
    """The workspace of (grid, speeds, dt) for states shaped ``shape``,
    built when either changes."""
    entry = _step_entry(grid, speeds, dt)
    if entry[1] is None or entry[1].shape != shape:
        entry[1] = None  # before building: never two workspaces at once
        entry[1] = _StepWorkspace(grid, shape)
    return entry[1]


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


def _sources(work: _StepWorkspace, coef: np.ndarray, inverse: np.ndarray,
             coeffs: NonlinearityCoefficients, out: np.ndarray) -> np.ndarray:
    """Source spectra of u_+, written into ``out`` shaped like ``coef``
    (*runs, species, *grid), from the positions u = Im(u_+/<D>) in physical
    space, with ``inverse`` the (species, *grid) table 1/<D>: one transform
    per species and direction serves every run.  The work happens in the
    buffers of ``work``; ``coef`` is only read."""
    grid = work.grid
    rows = [_species_row(k, grid.dims) for k in range(len(SPECIES))]
    for row, inv, fld, u in zip(rows, inverse, work.fields, work.positions):
        np.multiply(coef[row], inv, out=fld.coef)
        # a contiguous copy: the products below run faster on it, with the same bits
        np.copyto(u, fld.to_physical(out=fld.coef).imag)
    u1, uc = work.positions
    # coeffs.evaluate's sum, taken left to right in two buffers: the real
    # products and sums round the same way, so the bits are the same
    total, term = work.total, work.term
    for row, species in zip(rows, SPECIES):
        a, b, g = coeffs.species_coefficients(species)
        np.multiply(u1, a, out=total)
        total *= u1
        np.multiply(uc, b, out=term)
        term *= uc
        total += term
        np.multiply(u1, g, out=term)
        term *= uc
        total += term
        SpectralField.from_physical(total, grid.box_length, grid.dims, out=out[row])
    return out


SCHEME_ORDERS = {"ifrk4": 4, "ifrk2": 2}
# largest |coef - _reflect(coef)| / max|coef| of a field diagonalize accepts
# as real data; spectra of real arrays stay within 5.1e-16
REAL_DATA_TOL = 1e-12
# largest relative growth of the quadratic energy that one step may show
ENERGY_GUARD = 0.1
# largest step count t_final/dt of an amplification run; its resonant and
# detuned runs advance together, one step call per step
MAX_STEPS = 10**6


def step(
    state: SystemState,
    dt: float,
    coeffs: NonlinearityCoefficients,
    scheme: str = "ifrk4",
) -> SystemState:
    """One integrating-factor Runge-Kutta step of every run of ``state``.

    The linear flow is exact; the source terms use the classical explicit
    stages of the requested order.  A relative jump of a run's quadratic
    energy beyond ``ENERGY_GUARD``, or a non-finite energy, raises
    ``BlowUpError`` naming the runs that tripped.
    """
    _require_positive("dt", dt)
    if scheme not in SCHEME_ORDERS:
        raise ValueError(f"unknown scheme {scheme!r}")
    grid, u = state.grid, state.coef
    # (species, *grid) tables: they broadcast over the run axes
    inverse, full, half = _step_tables(grid, state.speeds, dt)
    if coeffs.is_zero():
        return replace(state, t=state.t + dt, coef=u * full)
    work = _step_workspace(grid, state.speeds, dt, u.shape)
    n1, n2, n3, n4 = work.sources
    stage, u_full = work.stage, work.u_full

    def source(coef: np.ndarray, out: np.ndarray):
        _sources(work, coef, inverse, coeffs, out)

    # the expressions of the classical stages, each product and sum written
    # into a workspace buffer in the same order, so the bits are the same;
    # only ``new`` is fresh, for the new state owns it
    np.multiply(u, full, out=u_full)
    source(u, n1)
    np.multiply(n1, dt / 2.0, out=stage)
    np.add(u, stage, out=stage)
    stage *= half
    source(stage, n2)  # (u + dt/2*n1)*half
    if scheme == "ifrk2":
        n2 *= half
        n2 *= dt
        new = u_full + n2
    else:
        np.multiply(u, half, out=n3)  # held in n3 until its source overwrites it
        np.multiply(n2, dt / 2.0, out=stage)
        np.add(n3, stage, out=stage)
        source(stage, n3)  # u*half + dt/2*n2
        n3 *= half
        np.multiply(n3, dt, out=stage)
        np.add(u_full, stage, out=stage)
        source(stage, n4)  # u_full + dt*n3
        # n1*full + 2*(n2*half) + 2*(n3*half) + n4, added left to right in place
        new = n1 * full
        n2 *= half
        n2 *= 2.0
        new += n2
        n3 *= 2.0
        new += n3
        new += n4
        new *= dt / 6.0
        new += u_full

    new_state = replace(state, t=state.t + dt, coef=new)
    before, after = state._energy, new_state._energy
    tripped = ~(np.isfinite(after) & (after <= (1.0 + ENERGY_GUARD) * np.maximum(before, 1e-300)))
    if tripped.any():
        jumps = [float(a) / max(float(b), 1e-300) for a, b, hit in
                 zip(np.ravel(after), np.ravel(before), np.ravel(tripped)) if hit]
        raise BlowUpError(
            f"energy jumped {', '.join(f'{jump:.3f}x' for jump in jumps)} in one step "
            f"at t = {state.t:.6g}",
            state, tripped,
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
    """Quadratic spectral mass in the band radius_lo <= |xi| < radius_hi of
    a state without run axes."""
    if radius_lo >= radius_hi:
        raise ValueError("need radius_lo < radius_hi")
    if state.runs:
        raise ValueError(f"band_energy takes one run, not a stack of shape {state.runs}")
    norms = state.grid.frequency_norms()
    mask = (norms >= radius_lo) & (norms < radius_hi)
    cell = state.grid.dxi**state.grid.dims
    total = 0.0
    for sp, sg in product(SPECIES, SIGNS):
        if species in (None, sp) and sign in (None, sg):
            total += float(np.sum(np.abs(state.field(sp, sg).coef[mask]) ** 2) * cell)
    return total


def _packet_coef(grid: SpectralField, packets) -> np.ndarray:
    """Real initial data of one run, shaped (species, *grid): each (species,
    carrier, amplitude, bandwidth) packet puts a Gaussian at the carrier into
    u_+, and so its mirror image into u_-."""
    xi = grid.frequency_axis()
    coef = np.zeros((len(SPECIES),) + xi.shape, dtype=complex)
    for species, carrier, amplitude, bandwidth in packets:
        coef[SPECIES.index(species)] += amplitude * np.exp(
            -((xi - carrier) ** 2) / (2.0 * bandwidth**2))
    return coef


def _evolve(state: SystemState, bands, species: str, dt: float,
            coeffs: NonlinearityCoefficients, scheme: str, steps: int, sample_every: int):
    """Step the runs stacked along the one run axis of ``state`` together,
    sampling run r's ``species`` energy in ``bands[r]`` at t = 0, every
    ``sample_every`` steps and at the last step.  A run whose energy guard
    trips stops with the samples it has; the others go on from the state
    before that step.  Returns each run's (times, energies) and whether any
    run tripped."""
    series = [([state.t], [band_energy(replace(state, coef=coef), lo, hi, species=species)])
              for coef, (lo, hi) in zip(state.coef, bands)]
    live = list(range(len(series)))  # the run of each row of state.coef
    tripped_any = False
    k = 0
    # an overflowing state is non-finite, which the energy guard reports as a blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        while k < steps and live:
            try:
                state = step(state, dt, coeffs, scheme=scheme)
            except BlowUpError as exc:
                tripped_any = True
                live = [run for run, hit in zip(live, exc.tripped) if not hit]
                state = replace(exc.state, coef=exc.state.coef[~exc.tripped])
                continue
            k += 1
            if k % sample_every == 0 or k == steps:
                for run, coef in zip(live, state.coef):
                    times, energies = series[run]
                    times.append(state.t)
                    energies.append(band_energy(replace(state, coef=coef), *bands[run],
                                                species=species))
    return series, tripped_any


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

    carriers = {"resonant": carrier_res, "detuned": carrier_det}
    bands = [(2.0 * carrier - half_width, 2.0 * carrier + half_width)
             for carrier in carriers.values()]
    # both runs in one stacked state, shape (run, species, n)
    state = SystemState(t=0.0, speeds=speeds, grid=grid, coef=np.stack([
        _packet_coef(grid, [
            (source_species, carrier, amplitude, bandwidth),
            (outcome_species, 2.0 * carrier, probe_factor * amplitude, bandwidth),
        ])
        for carrier in carriers.values()
    ]))
    series, inconclusive = _evolve(state, bands, outcome_species, dt, coeffs, scheme,
                                   steps, sample_every)
    runs = {
        label: {"carrier": carrier, "band": list(band), "times": times, "band_energy": energies}
        for (label, carrier), band, (times, energies) in zip(carriers.items(), bands, series)
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
