import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import apply, grad_eta_phase, grad_xi_phase, sigma

from kgpair.dispersion import (
    PhaseIndex,
    SpeedPair,
    all_phase_indices,
    canonical_phase_indices,
    sum_of_squares,
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
        reduced = sigma(transform) * sp.phase(canonical, *apply(transform, xi, eta))
        assert abs(sp.phase(idx, xi, eta) - reduced) < 1e-14


def test_gradients_match_central_differences():
    sp = SpeedPair(5.0)
    rng = np.random.default_rng(42)
    xis, etas = random_pairs(rng, 1000)
    h = 1e-5
    for idx in [PhaseIndex.parse(s) for s in ("c11+--", "ccc+-+", "1c1-++", "c1c+--")]:
        for which, grad in (("eta", grad_eta_phase), ("xi", grad_xi_phase)):
            analytic = grad(sp, idx, xis, etas)
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
        g = grad_eta_phase(sp, idx, xis, etas)
        bound = sp.speed_of(idx.l) + sp.speed_of(idx.m)
        assert np.linalg.norm(g, axis=1).max() <= bound + 1e-12
    idx = PhaseIndex.parse("c1c+--")
    assert np.allclose(grad_eta_phase(sp, idx, np.zeros(3), np.zeros(3)), 0.0)


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
        txi, teta = apply(transform, xis, etas)
        recovered = sigma(transform) * sp.phase(canonical, txi, teta)
        assert np.abs(recovered - sp.phase(idx, xis, etas)).max() < 1e-14


def test_canonical_representative_count():
    reps = canonical_phase_indices()
    assert len(reps) == 20
    assert len(reps) <= 24
    assert all(symmetry_reduce(idx)[0] == idx for idx in reps)


def test_canonical_representatives_are_built_once():
    reps = canonical_phase_indices()
    # one shared tuple, which no caller can change for the next
    assert isinstance(reps, tuple) and canonical_phase_indices() is reps
    rebuilt = {symmetry_reduce(idx)[0] for idx in all_phase_indices()}
    assert list(reps) == sorted(rebuilt, key=PhaseIndex.sort_key)


def test_serialization_round_trip():
    for idx in all_phase_indices():
        assert PhaseIndex.parse(idx.serialize()) == idx
    assert PhaseIndex.parse("c11+--").serialize() == "c11+--"
    with pytest.raises(ValueError):
        PhaseIndex.parse("c11+-")
    with pytest.raises(ValueError):
        PhaseIndex.parse("x11+--")


# components: moderate values, and the edges where a running sum and a
# pairwise one could part: +-0, subnormals, squares that overflow, +-inf, nan
_COMPONENTS = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e-160, 1e200,
                     math.inf, -math.inf, math.nan]),
)


@st.composite
def vector_arrays(draw, length=None, lead=None):
    """A float array of shape lead + (length,), drawn as one of four layouts:
    contiguous, every other row of a larger array, Fortran order, or a
    broadcast view of a single vector."""
    length = draw(st.integers(1, 8)) if length is None else length
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=3))) if lead is None else lead
    layout = draw(st.sampled_from(["contiguous", "strided", "fortran", "broadcast"]))
    shape = lead + (length,)
    if layout == "broadcast":
        row = np.array(draw(st.lists(_COMPONENTS, min_size=length, max_size=length)))
        return np.broadcast_to(row, shape)
    if layout == "strided" and lead:
        shape = (2 * lead[0],) + shape[1:]
    values = draw(st.lists(_COMPONENTS, min_size=math.prod(shape), max_size=math.prod(shape)))
    x = np.array(values, dtype=float).reshape(shape)
    if layout == "strided" and lead:
        return x[::2]
    return np.asfortranarray(x) if layout == "fortran" else x


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    # every nan is a match: its payload is not part of numpy's contract
    both_nan = np.isnan(got) & np.isnan(want)
    assert np.array_equal(np.where(both_nan, 0.0, got).view(np.uint64),
                          np.where(both_nan, 0.0, want).view(np.uint64))


@settings(max_examples=200)
@given(vector_arrays())
def test_sum_of_squares_is_numpys_reduction_bit_for_bit(x):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = sum_of_squares(x)
        reference = x[..., 0] * x[..., 0]
        for k in range(1, x.shape[-1]):
            reference = reference + x[..., k] * x[..., k]
        _same_bits(got, reference)
        if x.shape[-1] < 8:
            _same_bits(got, np.sum(x * x, axis=-1))
            _same_bits(np.sqrt(got), np.linalg.norm(x, axis=-1))
        else:
            # from 8 components numpy sums pairwise, in an order that depends
            # on the layout; each order of 8 nonnegative terms is within
            # 7 half-ulps of the exact sum, so the two are within 7 ulps
            np.testing.assert_allclose(got, np.sum(x * x, axis=-1),
                                       rtol=8 * np.finfo(float).eps, atol=0.0)


@settings(max_examples=200)
@given(st.data(), st.integers(1, 4), st.integers(1, 3))
def test_sum_of_squares_of_two_vectors_is_that_of_their_concatenation(data, k1, k2):
    lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=3)))
    a = data.draw(vector_arrays(k1, lead))
    # the second argument broadcasts against the leading axes of the first
    b = data.draw(vector_arrays(k2, lead[data.draw(st.integers(0, len(lead))):]))
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    joined = np.concatenate([np.broadcast_to(a, shape + (k1,)), np.broadcast_to(b, shape + (k2,))],
                            axis=-1)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        _same_bits(sum_of_squares(a, b), np.sum(joined * joined, axis=-1))


def test_sum_of_squares_needs_a_component():
    with pytest.raises(ValueError, match="at least one"):
        sum_of_squares(np.zeros((4, 0)))
