import math
from dataclasses import replace

import numpy as np
import pytest

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
    diagonalize,
    expand_quadratic,
    profile_of,
    reassemble_quadratic,
    reconstruct,
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
        advanced = step(current, dt, NonlinearityCoefficients.zero())
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
    advanced = step(state, t, NonlinearityCoefficients.zero())
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
            SpectralField.from_physical(coeffs.evaluate(u1, uc, k), grid.box_length).coef
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
    table = expand_quadratic(NonlinearityCoefficients.zero())
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
        direct = coeffs.evaluate(u1p, ucp, s)
        scale = max(np.abs(direct).max(), 1e-12)
        assert np.abs(rebuilt[s] - direct).max() < 1e-10 * scale


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
        advanced = step(advanced, 0.37, NonlinearityCoefficients.zero())
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
    assert band_energy(state, 0.4, 0.4 + 1e-9) == pytest.approx(0.0, abs=1e-300)
    full = band_energy(state, 0.0, math.inf)
    parseval = sum(state.field(*key).spectral_l2() ** 2 for key in KEYS)
    assert full == pytest.approx(parseval, rel=1e-12)
    split = band_energy(state, 0.0, 0.5) + band_energy(state, 0.5, math.inf)
    assert split == pytest.approx(full, rel=1e-12)
    with pytest.raises(ValueError):
        band_energy(state, 1.0, 0.5)


def test_band_energy_matches_per_field_sums(grid):
    # reference: one field per (species, sign), each with its own band mask
    state, _, _ = random_state(grid, np.random.default_rng(9))
    for species, sign in [(None, None), ("c", None), (None, -1), ("1", 1)]:
        expected = 0.0
        for sp, sg in KEYS:
            if species in (None, sp) and sign in (None, sg):
                f = state.field(sp, sg)
                norms = f.frequency_norms()
                mask = (norms >= 0.2) & (norms < 0.7)
                expected += float(np.sum(np.abs(f.coef[mask]) ** 2) * f.dxi**f.dims)
        assert expected > 0.0
        assert band_energy(state, 0.2, 0.7, species=species, sign=sign) == expected


def test_energy_matches_per_field_sums(grid):
    # reference: one Python-level sum per (species, sign) field
    state, _, _ = random_state(grid, np.random.default_rng(12))
    expected = sum(float(np.sum(np.abs(state.field(sp, sg).coef) ** 2)) for sp, sg in KEYS)
    assert state.energy() == pytest.approx(expected, rel=1e-13)


def test_steps_compute_each_state_energy_once(grid, monkeypatch):
    # a step's incoming energy is the previous step's outgoing one, so k
    # steps compute k + 1 energies, not 2k
    state, _, _ = random_state(grid, np.random.default_rng(14))
    calls = []
    energy = SystemState.__dict__["_energy"]  # the cached_property
    compute = energy.func

    def counted(s):
        calls.append(s.t)
        return compute(s)

    monkeypatch.setattr(energy, "func", counted)
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
    assert np.isfinite(state.energy())


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
    weights, full, half = simulator._step_tables(grid, state.speeds, 0.1)
    assert not any(table.flags.writeable for table in (weights, full, half))
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


@pytest.mark.parametrize("coeffs", [NonlinearityCoefficients.zero(), MIXED], ids=["zero", "mixed"])
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
        report5, NonlinearityCoefficients.zero(), t_final=20.0, dt=0.25
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
    advanced = step(state, 0.4, NonlinearityCoefficients.zero())
    for key in KEYS:
        drift = np.abs(np.abs(advanced.field(*key).coef) - np.abs(state.field(*key).coef))
        assert drift.max() < 1e-13
    assert reality_error(advanced) < 1e-12
    assert grid.dims == 3
