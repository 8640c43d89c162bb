"""Property tests of the diagonalized state on random 1-D and 3-D grids."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from kgpair.bilinear import SpectralField
from kgpair.dispersion import SpeedPair
from kgpair.simulator import (
    SPECIES,
    NonlinearityCoefficients,
    diagonalize,
    profile_of,
    reconstruct,
    step,
)


@st.composite
def initial_data(draw):
    """(speeds, u0, u1, largest bracket weight) with complex Gaussian coefficients."""
    dims = draw(st.sampled_from([1, 3]))
    n = draw(st.sampled_from([8, 64, 512] if dims == 1 else [4, 8]))
    box = draw(st.floats(4.0, 256.0))
    c = draw(st.floats(0.1, 10.0).filter(lambda c: c != 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n,) * dims

    def field():
        return SpectralField.from_coefficients(
            rng.normal(size=shape) + 1j * rng.normal(size=shape), box
        )

    speeds = SpeedPair(c)
    u0 = {s: field() for s in SPECIES}
    u1 = {s: field() for s in SPECIES}
    norms = u0["1"].frequency_norms()
    wmax = max(float(np.max(speeds.bracket_radial(s, norms))) for s in SPECIES)
    return speeds, u0, u1, wmax


times = st.floats(0.01, 2.0)


@given(initial_data())
def test_diagonalize_reconstruct_round_trip(data):
    speeds, u0, u1, wmax = data
    r0, r1 = reconstruct(diagonalize(u0, u1, speeds))
    for s in SPECIES:
        # u_s carries <D> u0, so du/dt comes back with an error of order eps * <D>
        assert np.abs(r0[s].coef - u0[s].coef).max() < 1e-13
        assert np.abs(r1[s].coef - u1[s].coef).max() < 1e-13 * wmax


@given(initial_data(), times)
def test_linear_step_conserves_moduli(data, dt):
    speeds, u0, u1, _ = data
    state = diagonalize(u0, u1, speeds)
    advanced = step(state, dt, NonlinearityCoefficients.zero())
    assert advanced.coef.shape == state.coef.shape
    drift = np.abs(np.abs(advanced.coef) - np.abs(state.coef))
    assert drift.max() <= 1e-14 * np.abs(state.coef).max()


@given(initial_data(), st.lists(times, min_size=1, max_size=3))
def test_profile_constant_under_linear_flow(data, dts):
    speeds, u0, u1, wmax = data
    state = diagonalize(u0, u1, speeds)
    p0 = profile_of(state)
    for dt in dts:
        state = step(state, dt, NonlinearityCoefficients.zero())
    p1 = profile_of(state)
    assert p1.t == state.t
    # phases exp(+-i t <D>) are rounded at |t <D>| * eps per factor
    tol = 1e-14 * (1.0 + state.t * wmax) * np.abs(p0.coef).max()
    assert np.abs(p1.coef - p0.coef).max() <= tol
