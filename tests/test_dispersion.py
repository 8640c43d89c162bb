import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgpair.dispersion import (
    PhaseIndex,
    SpeedPair,
    all_phase_indices,
    canonical_phase_indices,
    symmetry_reduce,
)


def enumerate_phases():
    """All 64 indices, each with its canonical representative and transform."""
    return [(idx, *symmetry_reduce(idx)) for idx in all_phase_indices()]


def random_pairs(rng, n, scale=10.0):
    return rng.uniform(-scale, scale, (n, 3)), rng.uniform(-scale, scale, (n, 3))


def test_speed_pair_rejects_degenerate():
    with pytest.raises(ValueError):
        SpeedPair(1.0)
    with pytest.raises(ValueError):
        SpeedPair(-2.0)
    with pytest.raises(TypeError):
        SpeedPair(5.0, c_slow=2.0)


def test_bracket_values():
    sp = SpeedPair(5.0)
    assert sp.bracket("1", 0.0) == 1.0
    assert sp.bracket("c", 1.0) == pytest.approx(math.sqrt(26.0), abs=1e-12)
    assert sp.bracket("1", 3.0) == pytest.approx(math.sqrt(10.0), abs=1e-12)
    # vector input uses the modulus
    assert sp.bracket("c", np.array([1.0, 0.0, 0.0])) == pytest.approx(math.sqrt(26.0))


def test_bracket_monotone_and_at_least_one():
    sp = SpeedPair(3.0)
    r = np.linspace(0.0, 20.0, 500)
    vals = sp.bracket_radial("1", r)
    assert np.all(vals >= 1.0)
    assert np.all(np.diff(vals) > 0.0)


def test_phase_at_origin():
    sp = SpeedPair(5.0)
    zero = np.zeros(3)
    # with all brackets equal to 1 the phase is the sum of the signs
    assert sp.phase(PhaseIndex.parse("111+--"), zero, zero) == pytest.approx(-1.0)
    assert sp.phase(PhaseIndex.parse("111+++"), zero, zero) == pytest.approx(3.0)


def test_phase_vanishes_at_known_point():
    # sqrt(1 + 4 c^2 r^2) = 2 sqrt(1 + r^2) at r^2 = 3/(4(c^2-1)); both sides
    # equal sqrt(33/8) for c = 5
    c = 5.0
    sp = SpeedPair(c)
    r = 1.0 / (4.0 * math.sqrt(2.0))
    assert r == pytest.approx(math.sqrt(3.0 / (4.0 * (c * c - 1.0))))
    eta = np.array([r, 0.0, 0.0])
    xi = 2.0 * eta
    idx = PhaseIndex.parse("c11+--")
    assert abs(sp.phase(idx, xi, eta)) < 1e-14
    assert sp.bracket("c", xi) == pytest.approx(math.sqrt(33.0 / 8.0))


def test_sign_symmetry_exact():
    sp = SpeedPair(5.0)
    rng = np.random.default_rng(7)
    xis, etas = random_pairs(rng, 50)
    for idx in all_phase_indices():
        vals = sp.phase(idx, xis, etas)
        flipped = sp.phase(idx.negate(), xis, etas)
        assert np.array_equal(flipped, -vals)


def test_swap_symmetry():
    # exact as an identity of functions; the evaluated arguments pick up one
    # rounding through xi - (xi - eta)
    sp = SpeedPair(2.5)
    rng = np.random.default_rng(8)
    xis, etas = random_pairs(rng, 50, scale=2.0)
    for idx in all_phase_indices():
        direct = sp.phase(idx, xis, etas)
        swapped = sp.phase(idx.swap(), xis, xis - etas)
        assert np.abs(direct - swapped).max() < 1e-14


vectors = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(np.array)


@given(st.floats(0.1, 3.0).filter(lambda c: c != 1.0), vectors, vectors)
def test_symmetry_reduction_property(c, xi, eta):
    # the tolerance of test_swap_symmetry on its scale (components up to 2,
    # c up to 3), where 1e-14 is a few ulps of the sum of the brackets
    sp = SpeedPair(c)
    for idx, canonical, transform in enumerate_phases():
        reduced = transform.sigma * sp.phase(canonical, *transform.apply(xi, eta))
        assert abs(sp.phase(idx, xi, eta) - reduced) < 1e-14


def test_gradients_match_central_differences():
    sp = SpeedPair(5.0)
    rng = np.random.default_rng(42)
    xis, etas = random_pairs(rng, 1000)
    h = 1e-5
    for idx in [PhaseIndex.parse(s) for s in ("c11+--", "ccc+-+", "1c1-++", "c1c+--")]:
        for which, grad in (("eta", sp.grad_eta_phase), ("xi", sp.grad_xi_phase)):
            analytic = grad(idx, xis, etas)
            fd = np.empty_like(analytic)
            for axis in range(3):
                d = np.zeros(3)
                d[axis] = h
                if which == "eta":
                    hi = sp.phase(idx, xis, etas + d)
                    lo = sp.phase(idx, xis, etas - d)
                else:
                    hi = sp.phase(idx, xis + d, etas)
                    lo = sp.phase(idx, xis - d, etas)
                fd[:, axis] = (hi - lo) / (2.0 * h)
            scale = np.maximum(np.linalg.norm(analytic, axis=1), 1e-3)
            err = np.linalg.norm(analytic - fd, axis=1) / scale
            assert err.max() < 1e-6, (idx.serialize(), which, err.max())


def test_gradient_bounded_and_zero_at_origin():
    sp = SpeedPair(5.0)
    rng = np.random.default_rng(3)
    xis, etas = random_pairs(rng, 500, scale=100.0)
    for idx in all_phase_indices():
        g = sp.grad_eta_phase(idx, xis, etas)
        bound = sp.speed_of(idx.l) + sp.speed_of(idx.m)
        assert np.linalg.norm(g, axis=1).max() <= bound + 1e-12
    idx = PhaseIndex.parse("c1c+--")
    assert np.allclose(sp.grad_eta_phase(idx, np.zeros(3), np.zeros(3)), 0.0)


def test_rotation_invariance():
    sp = SpeedPair(5.0)
    rng = np.random.default_rng(11)
    # random rotation via QR
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    xis, etas = random_pairs(rng, 200)
    for idx in [PhaseIndex.parse(s) for s in ("c11+--", "cc1+-+", "111++-")]:
        before = sp.phase(idx, xis, etas)
        after = sp.phase(idx, xis @ q.T, etas @ q.T)
        assert np.abs(before - after).max() < 1e-13


def test_enumerate_phases_size_and_annotations():
    entries = enumerate_phases()
    assert len(entries) == 64
    assert len({idx for idx, _, _ in entries}) == 64
    for idx, canonical, transform in entries:
        canon2, transform2 = symmetry_reduce(idx)
        assert canon2 == canonical and transform2 == transform


def test_all_negated_maps_to_positive_leading_sign():
    idx = PhaseIndex("c", "1", "1", -1, 1, 1)
    canonical, transform = symmetry_reduce(idx)
    assert canonical == PhaseIndex("c", "1", "1", 1, -1, -1)
    assert transform.sign_flip and not transform.swap


def test_swapped_tags_share_representative():
    a = PhaseIndex("c", "c", "1", 1, -1, -1)
    b = PhaseIndex("c", "1", "c", 1, -1, -1)
    assert symmetry_reduce(a)[0] == symmetry_reduce(b)[0]


def test_symmetry_reduce_idempotent_and_consistent():
    sp = SpeedPair(5.0)
    rng = np.random.default_rng(19)
    xis, etas = random_pairs(rng, 20, scale=2.0)
    for idx in all_phase_indices():
        canonical, transform = symmetry_reduce(idx)
        again, transform_id = symmetry_reduce(canonical)
        assert again == canonical
        assert not transform_id.sign_flip and not transform_id.swap
        txi, teta = transform.apply(xis, etas)
        recovered = transform.sigma * sp.phase(canonical, txi, teta)
        assert np.abs(recovered - sp.phase(idx, xis, etas)).max() < 1e-14


def test_canonical_representative_count():
    reps = canonical_phase_indices()
    assert len(reps) == 20
    assert len(reps) <= 24
    assert all(symmetry_reduce(idx)[0] == idx for idx in reps)


def test_serialization_round_trip():
    for idx in all_phase_indices():
        assert PhaseIndex.parse(idx.serialize()) == idx
    assert PhaseIndex.parse("c11+--").serialize() == "c11+--"
    with pytest.raises(ValueError):
        PhaseIndex.parse("c11+-")
    with pytest.raises(ValueError):
        PhaseIndex.parse("x11+--")
