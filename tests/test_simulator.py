import json
import math
import tracemalloc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from conftest import run_cli
from hypothesis import given
from hypothesis import strategies as st
from oracles import diagonalize, energy, evaluate, reconstruct, spectral_l2

from kgpair import simulator
from kgpair.bilinear import SpectralField
from kgpair.dispersion import SpeedPair
from kgpair.resonance import scan_all
from kgpair.simulator import (
    SIGNS,
    SPECIES,
    BlowUpError,
    NonlinearityCoefficients,
    SystemState,
    _reflect,
    band_energy,
    expand_quadratic,
    profile_of,
    reassemble_quadratic,
    run_resonant_amplification,
    step,
)

N, L = 256, 64.0


def reality_error(state: SystemState) -> float:
    """Largest imaginary part of the reconstructed physical fields."""
    u0, u1 = reconstruct(state)
    return max(
        float(np.abs(fld.to_physical().imag).max())
        for fields in (u0, u1)
        for fld in fields.values()
    )


@pytest.fixture()
def grid():
    return SpectralField.zeros(1, N, L)


def smooth_real_field(grid, rng, scale=0.1, kmax=8):
    coef = np.zeros(N, dtype=complex)
    coef[0] = rng.normal()
    for k in range(1, kmax):
        a = rng.normal() + 1j * rng.normal()
        coef[k], coef[-k] = a, np.conj(a)
    f = grid.with_coef(coef * scale)
    return SpectralField.from_physical(f.to_physical().real, grid.box_length)


def random_state(grid, rng, scale=0.1):
    sp = SpeedPair(5.0)
    u0 = {s: smooth_real_field(grid, rng, scale) for s in SPECIES}
    u1 = {s: smooth_real_field(grid, rng, scale) for s in SPECIES}
    return diagonalize(u0, u1, sp), u0, u1


MIXED = NonlinearityCoefficients(alpha=0.3, beta=0.1, gamma=0.2, delta=0.25, eps=0.15, zeta=0.05)
KEYS = [(sp, sg) for sp in SPECIES for sg in SIGNS]


def test_diagonalize_round_trip(grid):
    state, u0, u1 = random_state(grid, np.random.default_rng(0))
    r0, r1 = reconstruct(state)
    for s in SPECIES:
        assert np.abs(r0[s].coef - u0[s].coef).max() < 1e-12
        assert np.abs(r1[s].coef - u1[s].coef).max() < 1e-12


def test_diagonalize_special_cases(grid):
    sp = SpeedPair(5.0)
    zero = {s: grid for s in SPECIES}
    vel = {s: grid.with_coef(np.ones(N, dtype=complex)) for s in SPECIES}
    state = diagonalize(zero, vel, sp)
    for s in SPECIES:
        assert np.array_equal(state.field(s, 1).coef, vel[s].coef)
        assert np.array_equal(state.field(s, -1).coef, vel[s].coef)
    mode = np.zeros(N, dtype=complex)
    mode[3] = 1.0
    with pytest.raises(ValueError, match=r"u0\['1'\] is not real data"):
        diagonalize({s: grid.with_coef(mode) for s in SPECIES}, zero, sp)
    mode[-3] = 1.0  # the real cosine mode
    pos = {s: grid.with_coef(mode) for s in SPECIES}
    state = diagonalize(pos, {s: grid for s in SPECIES}, sp)
    xi3 = abs(grid.frequency_axis()[3])
    for s in SPECIES:
        expected = 1j * sp.bracket_radial(s, xi3)
        assert state.field(s, 1).coef[3] == pytest.approx(expected)
        assert state.field(s, -1).coef[3] == pytest.approx(-expected)


def test_linear_flow_conserves_moduli(grid):
    state, _, _ = random_state(grid, np.random.default_rng(1))
    current = state
    for dt in (0.3, 0.177, 1.1):
        advanced = step(current, dt, NonlinearityCoefficients())
        for key in KEYS:
            drift = np.abs(np.abs(advanced.field(*key).coef) - np.abs(current.field(*key).coef))
            assert drift.max() < 1e-14
        current = advanced


def test_linear_phase_advance_exact(grid):
    sp = SpeedPair(5.0)
    coef = np.zeros((len(SPECIES), N), dtype=complex)
    coef[SPECIES.index("c"), 5] = 1.0
    state = SystemState(t=0.0, speeds=sp, grid=grid, coef=coef)
    t = 0.9
    advanced = step(state, t, NonlinearityCoefficients())
    xi = abs(grid.frequency_axis()[5])
    expected = np.exp(1j * t * sp.bracket_radial("c", xi))
    assert abs(advanced.field("c", 1).coef[5] - expected) < 1e-12


def two_sign_step(grid, weights, coef, dt, coeffs, scheme):
    """The integrating-factor step on both signs, coef shaped (species, sign,
    *grid), with u_- evolved beside u_+ instead of taken as its mirror image."""

    def flow(tau):
        return np.stack([np.exp(sign * 1j * tau * weights) for sign in SIGNS], axis=1)

    def source(c):
        u1, uc = (grid.with_coef(p).to_physical() for p in (c[:, 0] - c[:, 1]) / (2j * weights))
        return np.stack([
            SpectralField.from_physical(evaluate(coeffs, u1, uc, k), grid.box_length).coef
            for k in SPECIES
        ])[:, None]

    full, half = flow(dt), flow(dt / 2.0)
    n1 = source(coef)
    n2 = source((coef + dt / 2.0 * n1) * half)
    if scheme == "ifrk2":
        return coef * full + dt * (n2 * half)
    n3 = source(coef * half + dt / 2.0 * n2)
    n4 = source(coef * full + dt * (n3 * half))
    return coef * full + dt / 6.0 * (n1 * full + 2.0 * (n2 * half) + 2.0 * (n3 * half) + n4)


@pytest.mark.parametrize("scheme", ["ifrk4", "ifrk2"])
@pytest.mark.parametrize("dims, n, box", [(1, 256, 64.0), (3, 8, 4.0)])
def test_step_matches_two_sign_oracle(dims, n, box, scheme):
    sp = SpeedPair(5.0)
    rng = np.random.default_rng(16)
    u0, u1 = (
        {s: SpectralField.from_physical(0.1 * rng.normal(size=(n,) * dims), box) for s in SPECIES}
        for _ in range(2)
    )
    state = diagonalize(u0, u1, sp)
    weights = simulator._bracket_weights(state.grid, sp)
    oracle = np.stack([
        [u1[s].coef + sign * 1j * w * u0[s].coef for sign in SIGNS]
        for s, w in zip(SPECIES, weights)
    ])
    for _ in range(10):
        state = step(state, 0.05, MIXED, scheme=scheme)
        oracle = two_sign_step(state.grid, weights, oracle, 0.05, MIXED, scheme)
    tol = 1e-13 * np.abs(state.coef).max()
    assert np.abs(state.coef - oracle[:, 0]).max() <= tol
    for plus, minus in zip(state.coef, oracle[:, 1]):
        assert np.abs(minus - _reflect(plus)).max() <= tol


def test_expand_quadratic_pure_slow_square():
    table = expand_quadratic(NonlinearityCoefficients(alpha=1.0))
    for s0 in (1, -1):
        for s1 in (1, -1):
            for s2 in (1, -1):
                assert table[("1", "1", "1", s0, s1, s2)] == pytest.approx(-s1 * s2 / 4.0)
                assert table[("c", "1", "1", s0, s1, s2)] == 0.0


def test_expand_quadratic_zero():
    table = expand_quadratic(NonlinearityCoefficients())
    assert all(v == 0.0 for v in table.values())


def test_reassembled_source_matches_direct(grid):
    rng = np.random.default_rng(2)
    state, u0, _ = random_state(grid, rng)
    coeffs = NonlinearityCoefficients(
        alpha=rng.normal(), beta=rng.normal(), gamma=rng.normal(),
        delta=rng.normal(), eps=rng.normal(), zeta=rng.normal(),
    )
    table = expand_quadratic(coeffs)
    rebuilt = reassemble_quadratic(table, state)
    u1p = u0["1"].to_physical()
    ucp = u0["c"].to_physical()
    for s in SPECIES:
        direct = evaluate(coeffs, u1p, ucp, s)
        scale = max(np.abs(direct).max(), 1e-12)
        assert np.abs(rebuilt[s] - direct).max() < 1e-10 * scale


def evaluate_sources(grid, coef, inverse, coeffs):
    """``simulator._sources`` with each species' source formed by
    ``coeffs.evaluate``: the oracle of its two-buffer sum."""
    dims = grid.dims
    rows = [(Ellipsis, k) + (slice(None),) * dims for k in range(len(SPECIES))]
    u1, uc = (np.ascontiguousarray(grid.with_coef(coef[row] * inv).to_physical().imag)
              for row, inv in zip(rows, inverse))
    out = np.empty_like(coef)
    for row, species in zip(rows, SPECIES):
        values = evaluate(coeffs, u1, uc, species)
        out[row] = SpectralField.from_physical(values, grid.box_length, dims).coef
    return out


@pytest.mark.parametrize("runs", [(), (2,)])
@pytest.mark.parametrize("n", [256, 4096])
def test_sources_are_the_evaluate_sum_bit_for_bit(n, runs):
    grid = SpectralField.zeros(1, n, 64.0)
    rng = np.random.default_rng(n)
    shape = (*runs, len(SPECIES), n)
    coef = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    inverse, _, _ = simulator._step_tables(grid, SpeedPair(5.0), 0.01)
    work = simulator._step_workspace(grid, SpeedPair(5.0), 0.01, shape)
    coeffs = NonlinearityCoefficients(*rng.normal(size=6))
    got = simulator._sources(work, coef, inverse, coeffs, np.empty_like(coef))
    assert got.tobytes() == evaluate_sources(grid, coef, inverse, coeffs).tobytes()


def allocating_sources(grid, coef, inverse, coeffs):
    """``simulator._sources`` with fresh arrays for every product, field
    and transform: the oracle of its workspace buffers."""
    dims = grid.dims
    rows = [(Ellipsis, k) + (slice(None),) * dims for k in range(len(SPECIES))]
    u1, uc = (np.ascontiguousarray(grid.with_coef(coef[row] * inv).to_physical().imag)
              for row, inv in zip(rows, inverse))
    out = np.empty_like(coef)
    total, term = np.empty_like(u1), np.empty_like(u1)
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
        out[row] = SpectralField.from_physical(total, grid.box_length, dims).coef
    return out


def allocating_step(state, dt, coeffs, scheme="ifrk4"):
    """``simulator.step`` with fresh arrays for every stage, without its
    guard: the bit-for-bit oracle of the step on reused buffers."""
    grid, u = state.grid, state.coef
    inverse, full, half = simulator._step_tables(grid, state.speeds, dt)

    def source(coef):
        return allocating_sources(grid, coef, inverse, coeffs)

    u_full = u * full
    n1 = source(u)
    n2 = source((u + dt / 2.0 * n1) * half)
    if scheme == "ifrk2":
        n2 *= half
        n2 *= dt
        new = u_full + n2
    else:
        n3 = source(u * half + dt / 2.0 * n2)
        n3 *= half
        n4 = source(u_full + dt * n3)
        new = n1 * full
        del n1
        n2 *= half
        n2 *= 2.0
        new += n2
        n3 *= 2.0
        new += n3
        new += n4
        new *= dt / 6.0
        new += u_full
    return replace(state, t=state.t + dt, coef=new)


def real_state(dims, n, box, runs, seed, scale=0.1):
    """A state of real random data on a (dims, n, box) grid, stacked to
    ``runs`` independent runs."""
    rng = np.random.default_rng(seed)
    sp = SpeedPair(5.0)
    states = [
        diagonalize(*({s: SpectralField.from_physical(scale * rng.normal(size=(n,) * dims), box)
                       for s in SPECIES} for _ in range(2)), sp)
        for _ in range(math.prod(runs))
    ]
    coef = np.stack([s.coef for s in states]).reshape(runs + states[0].coef.shape)
    return replace(states[0], coef=coef)


@pytest.mark.parametrize("runs", [(), (2,)], ids=["one-run", "two-runs"])
@pytest.mark.parametrize("dims, n, box", [(1, 256, 64.0), (1, 4096, 256.0), (3, 8, 4.0)],
                         ids=["n256", "n4096", "3d"])
@pytest.mark.parametrize("scheme", ["ifrk4", "ifrk2"])
def test_step_matches_the_allocating_step_bit_for_bit(scheme, dims, n, box, runs):
    state = real_state(dims, n, box, runs, seed=n + len(runs))
    oracle = state
    for _ in range(20):
        state = step(state, 0.05, MIXED, scheme=scheme)
        oracle = allocating_step(oracle, 0.05, MIXED, scheme=scheme)
        assert state.t == oracle.t
    assert state.coef.tobytes() == oracle.coef.tobytes()
    assert np.isfinite(energy(state)).all()


def workspace_arrays(state, dt) -> list:
    """Every buffer of the step workspace that ``state`` and ``dt`` use."""
    work = simulator._step_workspace(state.grid, state.speeds, dt, state.coef.shape)
    return [work.sources, work.stage, work.u_full, work.positions, work.total, work.term,
            *(fld.coef for fld in work.fields)]


def test_returned_states_own_their_coefficients(grid):
    # a state returned by step k keeps its bytes through later steps, also
    # steps that rebuild the workspace for another grid or run shape
    state, _, _ = random_state(grid, np.random.default_rng(17))
    kept = []
    for _ in range(4):
        state = step(state, 0.05, MIXED)
        assert not any(np.shares_memory(state.coef, a) for a in workspace_arrays(state, 0.05))
        kept.append((state, state.coef.tobytes()))
    for _ in range(3):
        state = step(state, 0.05, MIXED)
        assert all(s.coef.tobytes() == b for s, b in kept)
    step(replace(state, coef=np.stack([state.coef, state.coef])), 0.05, MIXED)
    step(real_state(1, 512, 64.0, (), seed=3), 0.05, MIXED)
    step(real_state(3, 8, 4.0, (2,), seed=3), 0.05, MIXED, scheme="ifrk2")
    assert all(s.coef.tobytes() == b for s, b in kept)


def test_blow_up_state_is_not_a_workspace_buffer(grid):
    state, _, _ = random_state(grid, np.random.default_rng(8), scale=20.0)
    harsh = NonlinearityCoefficients(alpha=5.0, delta=5.0)
    with pytest.raises(BlowUpError) as info:
        for _ in range(50):
            state = step(state, 0.5, harsh)
    failed = info.value.state
    assert failed is state
    before = failed.coef.tobytes()
    assert not any(np.shares_memory(failed.coef, a) for a in workspace_arrays(failed, 0.5))
    quiet, _, _ = random_state(grid, np.random.default_rng(9))
    for _ in range(3):
        quiet = step(quiet, 0.5, harsh)
    assert failed.coef.tobytes() == before


def test_warm_step_holds_bounded_memory():
    # after its first step, a step on the same grid, dt and run shape
    # allocates only the new state's coefficients and its energy's squares
    state = real_state(1, 4096, 256.0, (2,), seed=4)
    state = step(state, 0.05, MIXED)
    tracemalloc.start()
    try:
        step(state, 0.05, MIXED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * state.coef.nbytes, f"{peak / state.coef.nbytes:.2f} x the state"


def test_energy_is_the_sum_of_squares_bit_for_bit():
    rng = np.random.default_rng(18)
    for shape, dims in [((2, 256), 1), ((3, 2, 64), 1), ((2, 8, 8, 8), 3)]:
        coef = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        grid = SpectralField.zeros(dims, shape[-1], 4.0)
        state = SystemState(t=0.0, speeds=SpeedPair(5.0), grid=grid, coef=coef)
        squares = coef.real ** 2 + coef.imag ** 2
        expected = 2.0 * np.sum(squares.reshape(state.runs + (-1,)), axis=-1)
        assert np.asarray(state._energy).tobytes() == expected.tobytes()


def test_reality_preserved_through_nonlinear_run(grid):
    state, _, _ = random_state(grid, np.random.default_rng(3))
    for _ in range(40):
        state = step(state, 0.05, MIXED)
    assert reality_error(state) < 1e-12


@pytest.mark.parametrize("scheme,order", [("ifrk4", 4), ("ifrk2", 2)])
def test_time_step_convergence_order(grid, scheme, order):
    state, _, _ = random_state(grid, np.random.default_rng(4))

    def advance(dt, t_final=1.0):
        s = state
        for _ in range(int(round(t_final / dt))):
            s = step(s, dt, MIXED, scheme=scheme)
        return s

    ref = advance(0.0125)

    def err(s):
        return sum(
            np.abs(s.field(sp, sg).coef - ref.field(sp, sg).coef).max()
            for sp in SPECIES
            for sg in (1, -1)
        )

    observed = math.log2(err(advance(0.1)) / err(advance(0.05)))
    assert abs(observed - order) <= 0.3


def test_profile_constant_under_linear_flow(grid):
    state, _, _ = random_state(grid, np.random.default_rng(5))
    p0 = profile_of(state)
    advanced = state
    for _ in range(7):
        advanced = step(advanced, 0.37, NonlinearityCoefficients())
    p1 = profile_of(advanced)
    for key in KEYS:
        assert np.abs(p1.field(*key).coef - p0.field(*key).coef).max() < 1e-12


def test_profile_drift_scales_quadratically(grid):
    drifts = {}
    for eps in (1e-3, 1e-2):
        state, _, _ = random_state(grid, np.random.default_rng(6), scale=eps)
        p0 = profile_of(state)
        s = state
        for _ in range(20):
            s = step(s, 0.1, MIXED)
        p1 = profile_of(s)
        drifts[eps] = sum(
            np.linalg.norm(p1.field(*key).coef - p0.field(*key).coef) for key in KEYS
        )
    ratio = drifts[1e-2] / drifts[1e-3]
    assert 50.0 < ratio < 200.0  # within a factor 2 of the quadratic prediction 100


def test_band_energy_additive_and_total(grid):
    state, _, _ = random_state(grid, np.random.default_rng(7))

    def total(lo, hi):
        return sum(band_energy(state, lo, hi, species) for species in SPECIES)

    assert total(0.4, 0.4 + 1e-9) == pytest.approx(0.0, abs=1e-300)
    full = total(0.0, math.inf)
    parseval = sum(spectral_l2(state.field(*key)) ** 2 for key in KEYS)
    assert full == pytest.approx(parseval, rel=1e-12)
    split = total(0.0, 0.5) + total(0.5, math.inf)
    assert split == pytest.approx(full, rel=1e-12)
    with pytest.raises(ValueError):
        band_energy(state, 1.0, 0.5, "1")


def test_band_energy_matches_per_field_sums(grid):
    # reference: one field per sign of the species, each with its own band mask
    state, _, _ = random_state(grid, np.random.default_rng(9))
    for species in SPECIES:
        expected = 0.0
        for sign in SIGNS:
            f = state.field(species, sign)
            norms = f.frequency_norms()
            mask = (norms >= 0.2) & (norms < 0.7)
            expected += float(np.sum(np.abs(f.coef[mask]) ** 2) * f.dxi**f.dims)
        assert expected > 0.0
        assert band_energy(state, 0.2, 0.7, species) == expected


def test_energy_matches_per_field_sums(grid):
    # reference: one Python-level sum per (species, sign) field
    state, _, _ = random_state(grid, np.random.default_rng(12))
    expected = sum(float(np.sum(np.abs(state.field(sp, sg).coef) ** 2)) for sp, sg in KEYS)
    assert energy(state) == pytest.approx(expected, rel=1e-13)


def test_steps_compute_each_state_energy_once(grid, monkeypatch):
    # a step's incoming energy is the previous step's outgoing one, so k
    # steps compute k + 1 energies, not 2k
    state, _, _ = random_state(grid, np.random.default_rng(14))
    calls = []
    cached = SystemState.__dict__["_energy"]  # the cached_property
    compute = cached.func

    def counted(s):
        calls.append(s.t)
        return compute(s)

    monkeypatch.setattr(cached, "func", counted)
    for _ in range(5):
        state = step(state, 0.1, MIXED)
    assert len(calls) == 5 + 1


@pytest.mark.parametrize("scheme", ["ifrk4", "ifrk2"])
def test_step_makes_no_blas_call(grid, monkeypatch, scheme):
    # numpy's dot products go to a threaded BLAS; a step needs none of them
    state, _, _ = random_state(grid, np.random.default_rng(15))

    def forbidden(*args, **kwargs):
        raise AssertionError("BLAS call during a step")

    for name in ("vdot", "dot", "matmul"):
        monkeypatch.setattr(np, name, forbidden)
    for _ in range(3):
        state = step(state, 0.1, MIXED, scheme=scheme)
    assert np.isfinite(energy(state))


def test_step_builds_tables_once_per_grid_speeds_and_dt(grid, monkeypatch):
    state, _, _ = random_state(grid, np.random.default_rng(13))
    built = []
    bracket_weights = simulator._bracket_weights

    def counted(g, speeds):
        built.append((g.n, speeds.c_fast))
        return bracket_weights(g, speeds)

    monkeypatch.setattr(simulator, "_bracket_weights", counted)
    monkeypatch.setattr(simulator, "_STEP_TABLES", {})
    for _ in range(4):
        state = step(state, 0.1, MIXED)
    assert built == [(N, 5.0)]
    step(state, 0.05, MIXED)
    step(replace(state, speeds=SpeedPair(3.0)), 0.1, MIXED)
    assert built == [(N, 5.0), (N, 5.0), (N, 3.0)]
    inverse, full, half = simulator._step_tables(grid, state.speeds, 0.1)
    assert not any(table.flags.writeable for table in (inverse, full, half))
    assert len(simulator._STEP_TABLES) == 1


def test_blow_up_guard_trips(grid):
    state, _, _ = random_state(grid, np.random.default_rng(8), scale=20.0)
    harsh = NonlinearityCoefficients(alpha=5.0, delta=5.0)
    with pytest.raises(BlowUpError):
        s = state
        for _ in range(50):
            s = step(s, 0.5, harsh)


def test_blow_up_guard_trips_on_non_finite_energy(grid):
    # |coef|^2 overflows, so the energy ratio is nan and only the finiteness check fires
    state, _, _ = random_state(grid, np.random.default_rng(8))
    huge = SystemState(t=state.t, speeds=state.speeds, grid=state.grid, coef=state.coef * 1e200)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        step(huge, 0.1, MIXED)
    assert info.value.state is huge


@pytest.mark.parametrize("coeffs", [NonlinearityCoefficients(), MIXED], ids=["zero", "mixed"])
@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_step_rejects_dt_not_finite_and_positive(grid, dt, coeffs):
    # a nan or inf dt is an input error, not an all-NaN state or a blow-up
    state, _, _ = random_state(grid, np.random.default_rng(3))
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        step(state, dt, coeffs)


@pytest.fixture(scope="module")
def report5():
    return scan_all(5.0)


def test_amplification_zero_coefficients(report5):
    record = run_resonant_amplification(
        report5, NonlinearityCoefficients(), t_final=20.0, dt=0.25
    )
    for run in record["runs"].values():
        series = run["band_energy"]
        assert abs(series[-1] - series[0]) < 1e-12 * max(series[0], 1e-300)
    assert record["growth_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_amplification_resonant_beats_detuned(report5):
    record = run_resonant_amplification(
        report5, NonlinearityCoefficients(delta=1.0),
        t_final=100.0, dt=0.25, amplitude=0.02,
    )
    assert not record["inconclusive"]
    assert record["growth_ratio"] >= 5.0
    assert record["caveat"]
    # the resonant carrier is exactly on the lattice
    params = record["parameters"]
    dxi = 2.0 * math.pi / params["box_length"]
    assert record["runs"]["resonant"]["carrier"] == pytest.approx(
        record["carrier_lattice_cells"] * dxi, rel=1e-12
    )
    assert abs(params["component_R"] - record["runs"]["resonant"]["carrier"]) < 1e-12


def test_amplification_linear_growth_in_horizon(report5):
    short = run_resonant_amplification(
        report5, NonlinearityCoefficients(delta=1.0), t_final=60.0, dt=0.25, amplitude=0.01
    )
    long = run_resonant_amplification(
        report5, NonlinearityCoefficients(delta=1.0), t_final=120.0, dt=0.25, amplitude=0.01
    )
    amp_short = math.sqrt(short["runs"]["resonant"]["band_energy"][-1])
    amp_long = math.sqrt(long["runs"]["resonant"]["band_energy"][-1])
    assert amp_long / amp_short == pytest.approx(2.0, rel=0.3)
    det_short = long["runs"]["detuned"]["band_energy"][len(short["runs"]["detuned"]["band_energy"]) - 1]
    det_final = long["runs"]["detuned"]["band_energy"][-1]
    assert det_final < 10.0 * max(det_short, 1e-300)


def test_amplification_requires_separated_report():
    tight = scan_all(5.0, tau_sep=0.01)
    with pytest.raises(ValueError):
        run_resonant_amplification(tight, NonlinearityCoefficients(delta=1.0))


def test_three_d_state_round_trip_and_linear_step():
    # the state machinery is dimension-generic even though experiments run 1-D
    sp = SpeedPair(5.0)
    rng = np.random.default_rng(9)
    grid = SpectralField.zeros(3, 8, 4.0)
    u0 = {s: SpectralField.from_physical(rng.normal(size=(8, 8, 8)), 4.0) for s in SPECIES}
    u1 = {s: SpectralField.from_physical(rng.normal(size=(8, 8, 8)), 4.0) for s in SPECIES}
    state = diagonalize(u0, u1, sp)
    r0, r1 = reconstruct(state)
    for s in SPECIES:
        assert np.abs(r0[s].coef - u0[s].coef).max() < 1e-12
        assert np.abs(r1[s].coef - u1[s].coef).max() < 1e-12
    advanced = step(state, 0.4, NonlinearityCoefficients())
    for key in KEYS:
        drift = np.abs(np.abs(advanced.field(*key).coef) - np.abs(state.field(*key).coef))
        assert drift.max() < 1e-13
    assert reality_error(advanced) < 1e-12
    assert grid.dims == 3


@st.composite
def stacked_states(draw):
    """(stacked state, its runs as separate states, coefficients): R in 1..3
    random complex states on a 1-D grid of 8 to 256 points or on 8^3."""
    dims = draw(st.sampled_from([1, 3]))
    n = draw(st.sampled_from([8, 16, 32, 64, 128, 256])) if dims == 1 else 8
    runs = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (runs, len(SPECIES)) + (n,) * dims
    coef = draw(st.floats(0.01, 1.0)) * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    grid = SpectralField.zeros(dims, n, draw(st.floats(4.0, 256.0)))
    stacked = SystemState(t=draw(st.floats(0.0, 10.0)), speeds=SpeedPair(5.0), grid=grid,
                          coef=coef)
    coeffs = NonlinearityCoefficients(*(draw(st.floats(-2.0, 2.0)) for _ in range(6)))
    return stacked, [replace(stacked, coef=c.copy()) for c in coef], coeffs


@given(stacked_states(), st.sampled_from(["ifrk4", "ifrk2"]), st.floats(0.01, 0.5))
def test_stacked_step_is_each_run_stepped_alone(data, scheme, dt):
    stacked, singles, coeffs = data
    assert stacked.runs == (len(singles),)
    for _ in range(2):
        outcomes = []
        for single in singles:
            try:
                outcomes.append(step(single, dt, coeffs, scheme=scheme))
            except BlowUpError:
                outcomes.append(None)
        tripped = [out is None for out in outcomes]
        if any(tripped):
            # the stack names exactly the runs that trip alone
            with pytest.raises(BlowUpError) as info:
                step(stacked, dt, coeffs, scheme=scheme)
            assert info.value.tripped.tolist() == tripped
            assert info.value.state is stacked
            return
        stacked = step(stacked, dt, coeffs, scheme=scheme)
        energies = energy(stacked)
        for r, single in enumerate(outcomes):
            assert stacked.coef[r].tobytes() == single.coef.tobytes()
            assert energies[r] == energy(single)
            assert stacked.t == single.t
        singles = outcomes


def test_step_guards_each_run_against_its_own_energy(grid):
    # a quiet run beside a hot one: only the hot run trips
    quiet, _, _ = random_state(grid, np.random.default_rng(8))
    hot = quiet.coef * 200.0
    stacked = replace(quiet, coef=np.stack([quiet.coef, hot, quiet.coef]))
    harsh = NonlinearityCoefficients(alpha=5.0, delta=5.0)
    with pytest.raises(BlowUpError) as info:
        step(stacked, 0.5, harsh)
    assert info.value.tripped.tolist() == [False, True, False]
    assert info.value.state is stacked
    step(quiet, 0.5, harsh)
    with pytest.raises(BlowUpError) as info:
        step(replace(quiet, coef=hot), 0.5, harsh)
    assert info.value.tripped.shape == ()


def test_state_rejects_a_shape_without_the_species_and_grid_axes(grid):
    sp = SpeedPair(5.0)
    for shape in [(N,), (3, N), (2, 2, N // 2), (2, 3, N)]:
        with pytest.raises(ValueError, match="does not end in"):
            SystemState(t=0.0, speeds=sp, grid=grid, coef=np.zeros(shape, dtype=complex))
    stacked = SystemState(t=0.0, speeds=sp, grid=grid, coef=np.zeros((4, 3, 2, N), complex))
    assert stacked.runs == (4, 3)
    assert energy(stacked).shape == (4, 3)
    with pytest.raises(ValueError, match="band_energy takes one run"):
        band_energy(stacked, 0.1, 0.2, "1")


def sequential_evolve(state, bands, species, dt, coeffs, scheme, steps, sample_every):
    """The amplification runs stepped one after the other, each a state
    without run axes: the oracle of the stacked ``simulator._evolve``."""
    series, inconclusive = [], False
    for coef, (lo, hi) in zip(state.coef, bands):
        run = replace(state, coef=coef)
        times, energies = [run.t], [band_energy(run, lo, hi, species=species)]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for k in range(1, steps + 1):
                    run = step(run, dt, coeffs, scheme=scheme)
                    if k % sample_every == 0 or k == steps:
                        times.append(run.t)
                        energies.append(band_energy(run, lo, hi, species=species))
        except BlowUpError:
            inconclusive = True
        series.append((times, energies))
    return series, inconclusive


def simulate_outputs(config, prefix):
    result = run_cli("simulate", "--config", config, "--output", prefix)
    files = [prefix.with_suffix(suffix).read_bytes() for suffix in (".json", ".csv")]
    return result.returncode, result.stderr, files


ALL_SIX = "alpha = 0.3\nbeta = -0.2\ngamma = 0.25\ndelta = 1.1\neps = -0.35\nzeta = 0.15\n"


@pytest.mark.parametrize(
    "config, lengths",
    [
        (None, (61, 61)),
        (f"c = 7.3\n{ALL_SIX}n = 1024\nt_final = 20.0\nsample_every = 8\n", (11, 11)),
        (f"c = 5.0\n{ALL_SIX}n = 4096\nt_final = 6.0\nsample_every = 5\n", (6, 6)),
        # the resonant run trips in the step after t = 41.25, the detuned run goes on
        ("c = 5.0\nalpha = 1.0\ndelta = 1.0\namplitude = 20.0\nn = 128\nt_final = 60.0\n"
         "sample_every = 5\n", (34, 49)),
        # both trip: the resonant run in the step after t = 3, the detuned run after t = 4
        ("c = 5.0\nalpha = 1.0\nbeta = 1.0\ngamma = 1.0\ndelta = 1.0\neps = 1.0\nzeta = 1.0\n"
         "amplitude = 20.0\nn = 128\nt_final = 10.0\nsample_every = 1\n", (13, 17)),
    ],
    ids=["bundled", "n1024-all-six", "n4096-all-six", "resonant-trips", "both-trip"],
)
def test_stacked_runs_write_the_sequential_record(tmp_path, monkeypatch, config, lengths):
    if config is None:
        path = resources.files("kgpair.configs").joinpath("resonant_c5.cfg")
    else:
        path = tmp_path / "run.cfg"
        path.write_text(config, encoding="utf-8")
    stacked = simulate_outputs(path, tmp_path / "stacked")
    monkeypatch.setattr(simulator, "_evolve", sequential_evolve)
    assert simulate_outputs(path, tmp_path / "sequential") == stacked
    doc = json.loads(stacked[2][0])
    assert tuple(len(doc["runs"][label]["times"]) for label in ("resonant", "detuned")) == lengths
    assert doc["inconclusive"] == (stacked[0] == 3)


def test_amplification_steps_both_runs_in_each_call(report5, monkeypatch):
    # one step call per time step for the two runs, 16 transforms in each,
    # the counts the benchmark reads as simulator.fft_calls_per_step
    calls, transforms = [], []
    original_step = simulator.step
    to_physical = SpectralField.to_physical
    from_physical = SpectralField.from_physical.__func__

    def counted_step(state, *args, **kwargs):
        calls.append(state.runs)
        transforms.append(0)
        return original_step(state, *args, **kwargs)

    def counted_to(self, out=None):
        transforms[-1] += 1
        return to_physical(self, out)

    def counted_from(cls, values, box_length, dims=None, out=None):
        transforms[-1] += 1
        return from_physical(cls, values, box_length, dims, out)

    monkeypatch.setattr(simulator, "step", counted_step)
    monkeypatch.setattr(SpectralField, "to_physical", counted_to)
    monkeypatch.setattr(SpectralField, "from_physical", classmethod(counted_from))
    steps = 12
    run_resonant_amplification(report5, MIXED, t_final=steps * 0.25, dt=0.25, sample_every=5)
    assert calls == [(2,)] * steps
    assert transforms == [16] * steps
