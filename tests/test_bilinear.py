import functools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
import oracles
from oracles import lp_project, spectral_l2

from kgpair import bilinear
from kgpair.bilinear import (
    HOLDER_BOX,
    HOLDER_N,
    SHELL_BOX,
    SHELL_N,
    SpectralField,
    SymbolGrid,
    TruncationWarning,
    _coefficient_l1,
    bernstein_check,
    default_probe_symbols,
    holder_bound_probe,
    lp_psi,
    profile_l1_constant,
    pseudo_product,
    ridge_bound_probe,
    shell_weighted_ratio,
    snap_lambda,
    symbol_l1_norm,
)
from kgpair.cutoffs import bump

N, L = 128, 64.0


@pytest.fixture()
def grid():
    return SpectralField.zeros(1, N, L)


def random_field(grid, rng):
    return grid.with_coef(rng.normal(size=grid.coef.shape) + 1j * rng.normal(size=grid.coef.shape))


def dense_pseudo_product(symbol, f, g):
    """The n x n lattice quadrature of the module docstring: the oracle for
    the support-based kernel of ``pseudo_product`` (1-D symbols only)."""
    n = f.n
    const = f.dxi / (2.0 * math.pi) ** 0.5
    table = symbol.materialize(f)
    diff_idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return np.sum(table * f.coef[None, :] * g.coef[diff_idx], axis=1) * const


def ridge_symbol(rho, lam=2.0):
    return SymbolGrid.from_callable(lambda xi, eta: bump((xi - lam * eta) / rho))


def table_symbol(table):
    """The symbol whose (n, n) lattice table is ``table``."""
    return SymbolGrid.from_callable(lambda xi, eta: table)


def trig_table_symbol(seed=0):
    """The callable form of ``default_probe_symbols(seed)["random_trig"]``:
    its trigonometric polynomial evaluated over the whole table on the
    HOLDER_N grid (step 0.5), the dense oracle of the lattice-shift
    expansion."""
    rng = np.random.default_rng((seed, 777))
    coeffs = (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))) / 25.0

    def trig_polynomial(xi, eta):
        total = np.zeros(np.broadcast_shapes(np.shape(xi), np.shape(eta)), dtype=complex)
        for a in range(-2, 3):
            for b in range(-2, 3):
                total = total + coeffs[a + 2, b + 2] * np.exp(
                    1j * (a * xi + b * eta) * 0.5
                ) / (1.0 + a * a + b * b)
        return total

    return SymbolGrid.from_callable(trig_polynomial)


def table_with_empty_rows(n, seed=9):
    rng = np.random.default_rng(seed)
    table = np.where(rng.random((n, n)) < 0.05, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0.0)
    table[::3] = 0.0
    return table


ORACLE_CASES = {
    **{f"ridge_rho{rho}_n{n}": (ridge_symbol(rho), n, box)
       for rho in (1.0, 0.1, 0.01) for n, box in ((1024, 1310.72), (128, 64.0))},
    "gaussian_joint": (default_probe_symbols()["gaussian_joint"], N, L),
    "random_trig": (trig_table_symbol(), N, L),
    "table_with_empty_rows": (table_symbol(table_with_empty_rows(N)), N, L),
    "zero_table": (table_symbol(np.zeros((N, N))), N, L),
}


def test_round_trip_and_parseval(grid):
    rng = np.random.default_rng(0)
    values = rng.normal(size=N) + 1j * rng.normal(size=N)
    f = SpectralField.from_physical(values, L)
    assert np.abs(f.to_physical() - values).max() < 1e-12 * np.abs(values).max()
    assert f.row_lp_norms(2)[0][0] == pytest.approx(spectral_l2(f), rel=1e-12)


@pytest.mark.parametrize("n", [2, 8, 256, 4096])
def test_one_dimensional_transforms_are_the_fftn_formulas_bit_for_bit(n):
    # the 1-D methods call fft/ifft; the module docstring's conventions, as
    # written with fftn/ifftn for every dimension, give the same bits
    rng = np.random.default_rng(n)
    box = 3.7 * n
    h, dxi = box / n, 2.0 * math.pi / box
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    f = SpectralField.from_physical(values, box)
    assert np.array_equal(f.coef, np.fft.fftn(values) * (h / (2.0 * math.pi) ** 0.5))
    g = random_field(f, rng)
    expected = np.fft.ifftn(g.coef) * (n * dxi / (2.0 * math.pi) ** 0.5)
    assert np.array_equal(g.to_physical(), expected)


@pytest.mark.parametrize("dims, shape", [(1, (256,)), (1, (3, 64)), (3, (8, 8, 8))])
@pytest.mark.parametrize("dtype", [float, complex])
def test_from_physical_leaves_its_input_alone(dims, shape, dtype):
    rng = np.random.default_rng(5)
    values = rng.normal(size=shape).astype(dtype)
    kept = values.copy()
    f = SpectralField.from_physical(values, 6.0, dims)
    assert values.tobytes() == kept.tobytes()
    assert not np.shares_memory(f.coef, values)


@given(
    st.sampled_from([(1, n) for n in (2, 8, 64, 256, 4096)] + [(3, 4), (3, 8)]),
    st.lists(st.integers(1, 3), max_size=2),
    st.floats(1.0, 300.0),
    st.integers(0, 2**32 - 1),
)
def test_transforms_over_leading_axes_are_the_per_row_transforms(grid_size, leading, box, seed):
    # a field with leading axes transforms each row over its trailing grid axes
    dims, n = grid_size
    rng = np.random.default_rng(seed)
    shape = (*leading, *(n,) * dims)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    stacked = SpectralField.from_physical(values, box, dims)
    assert (stacked.dims, stacked.n, stacked.coef.shape) == (dims, n, shape)
    back = stacked.to_physical()
    for index in np.ndindex(*leading):
        row = SpectralField.from_physical(values[index], box)
        assert stacked.coef[index].tobytes() == row.coef.tobytes()
        assert back[index].tobytes() == row.to_physical().tobytes()
    # into an out= array, strided or the coefficients themselves: the same bits
    strided = np.empty(shape + (2,), dtype=complex)[..., 0]
    into = SpectralField.from_physical(values, box, dims, out=strided)
    assert into.coef is strided and strided.tobytes() == stacked.coef.tobytes()
    assert into.to_physical(out=strided) is strided and strided.tobytes() == back.tobytes()


def test_field_shape_must_end_in_the_grid():
    for dims, shape in [(1, (8, 4)), (3, (8, 8)), (3, (2, 8, 8, 4)), (1, ())]:
        with pytest.raises(ValueError, match="does not end in"):
            SpectralField(dims, 8, 1.0, np.zeros(shape, dtype=complex))
    assert SpectralField(1, 8, 1.0, np.zeros((3, 2, 8), dtype=complex)).coef.shape == (3, 2, 8)


def test_single_mode_single_coefficient(grid):
    x = grid.h * np.arange(grid.n)
    k = 5 * grid.dxi
    f = SpectralField.from_physical(np.exp(1j * k * x), L)
    mags = np.abs(f.coef)
    assert np.count_nonzero(mags > 1e-10 * mags.max()) == 1
    assert int(np.argmax(mags)) == 5


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralField.zeros(2, 16, 1.0)
    with pytest.raises(ValueError):
        SpectralField.zeros(1, 100, 1.0)
    with pytest.raises(ValueError):
        SpectralField.zeros(3, 128, 1.0)


FROM_PHYSICAL_ERRORS = {
    # invalid dims, n, box_length and shape: (values, box_length, dims, message)
    "dims2": (np.zeros(8), 1.0, 2, "dims must be 1 or 3"),
    "dims0": (np.zeros(8), 1.0, 0, "dims must be 1 or 3"),
    "dims4": (np.zeros((2, 2, 2, 2)), 1.0, None, "dims must be 1 or 3"),
    "n12": (np.zeros(12), 1.0, None, "grid size must be a power of two"),
    "n1": (np.zeros(1), 1.0, None, "grid size n is limited to integers from 2 to 262144, got 1"),
    "n0": (np.zeros(0), 1.0, None, "grid size n is limited to integers from 2 to 262144, got 0"),
    "n2e19": (np.zeros(2**19), 1.0, None,
              "grid size n is limited to integers from 2 to 262144, got 524288"),
    "n128_3d": (np.zeros((2, 2, 128)), 1.0, None, "grid size n is limited to integers from 2 to 64, got 128"),
    "nan_box": (np.zeros(8), math.nan, None, "box_length must be finite and positive, got nan"),
    "inf_box": (np.zeros(8), math.inf, None, "box_length must be finite and positive, got inf"),
    "zero_box": (np.zeros(8), 0.0, None, "box_length must be finite and positive, got 0.0"),
    "negative_box": (np.zeros(8), -1.0, None, "box_length must be finite and positive, got -1.0"),
    "ragged": (np.zeros((8, 8, 4)), 1.0, None, "coefficient shape (8, 8, 4) does not end in (4, 4, 4)"),
    "ragged_leading": (np.zeros((4, 8, 8)), 1.0, 3, "coefficient shape (4, 8, 8) does not end in (8, 8, 8)"),
    # a grid of more axes than the values have: before the one check ran
    # first, fftn raised an IndexError here
    "dims3_of_2d": (np.zeros((8, 8)), 1.0, 3, "coefficient shape (8, 8) does not end in (8, 8, 8)"),
}


def counted_field_checks(monkeypatch):
    """Record each ``_check_grid`` call and each ``SpectralField.__init__``."""
    checks, inits = [], []
    check_grid, init = bilinear._check_grid, SpectralField.__init__

    def counted_check(n, dims):
        checks.append((n, dims))
        return check_grid(n, dims)

    def counted_init(self, *args, **kwargs):
        inits.append(args)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(bilinear, "_check_grid", counted_check)
    monkeypatch.setattr(SpectralField, "__init__", counted_init)
    return checks, inits


@pytest.mark.parametrize("name", FROM_PHYSICAL_ERRORS)
def test_from_physical_rejects_a_bad_grid_before_transforming(monkeypatch, name):
    # the one check of the one field it builds, before any transform work,
    # with that check's message
    checks, inits = counted_field_checks(monkeypatch)

    def forbidden(*args, **kwargs):
        raise AssertionError("transform before the grid check")

    monkeypatch.setattr(np.fft, "fft", forbidden)
    monkeypatch.setattr(np.fft, "fftn", forbidden)
    values, box, dims, message = FROM_PHYSICAL_ERRORS[name]
    with pytest.raises(ValueError) as error:
        SpectralField.from_physical(values, box, dims)
    assert str(error.value) == message
    assert len(checks) == 1 and len(inits) == 1


def test_from_physical_checks_its_grid_once(monkeypatch):
    checks, inits = counted_field_checks(monkeypatch)
    grids = [(1, (256,)), (1, (3, 64)), (3, (8, 8, 8)), (3, (2, 4, 4, 4))]
    for dims, shape in grids:
        SpectralField.from_physical(np.ones(shape), 6.0, dims)
        SpectralField.from_physical(np.ones(shape), 6.0, dims, out=np.empty(shape, dtype=complex))
    assert checks == [(shape[-1], dims) for dims, shape in grids for _ in range(2)]
    assert len(inits) == 2 * len(grids)


@pytest.mark.parametrize("box", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_box_length_must_be_finite_and_positive(box):
    with pytest.raises(ValueError, match="box_length must be finite and positive"):
        SpectralField.zeros(1, 8, box)


def test_unit_symbol_is_pointwise_product(grid):
    rng = np.random.default_rng(1)
    f, g = random_field(grid, rng), random_field(grid, rng)
    expected = f.to_physical() * g.to_physical()
    direct = pseudo_product(
        SymbolGrid.from_callable(lambda xi, eta: np.ones(np.broadcast_shapes(np.shape(xi), np.shape(eta)))),
        f,
        g,
    )
    fast = pseudo_product(SymbolGrid.constant(), f, g)
    scale = np.abs(expected).max()
    assert np.abs(direct.to_physical() - expected).max() < 1e-10 * scale
    assert np.abs(fast.to_physical() - expected).max() < 1e-10 * scale


def test_separable_symbol_is_multiplier_product(grid):
    rng = np.random.default_rng(2)
    f, g = random_field(grid, rng), random_field(grid, rng)
    a = lambda eta: bump(np.asarray(eta) / 3.0)
    b = lambda diff: bump(np.asarray(diff) / 2.0)
    result = pseudo_product(SymbolGrid.separable(a, b), f, g)
    expected = f.apply_multiplier(a).to_physical() * g.apply_multiplier(b).to_physical()
    assert np.abs(result.to_physical() - expected).max() < 1e-10


def test_bilinearity(grid):
    rng = np.random.default_rng(3)
    f1, f2, g = (random_field(grid, rng) for _ in range(3))
    symbol = default_probe_symbols()["gaussian_joint"]
    alpha = 0.7 - 0.2j
    lhs = pseudo_product(symbol, f1.with_coef(alpha * f1.coef + f2.coef), g)
    rhs = alpha * pseudo_product(symbol, f1, g).coef + pseudo_product(symbol, f2, g).coef
    assert np.abs(lhs.coef - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())


def test_three_d_separable_product():
    rng = np.random.default_rng(4)
    n = 16
    values = rng.normal(size=(n, n, n))
    f = SpectralField.from_physical(values, 8.0)
    g = SpectralField.from_physical(values[::-1], 8.0)
    out = pseudo_product(SymbolGrid.constant(), f, g)
    expected = f.to_physical() * g.to_physical()
    assert np.abs(out.to_physical() - expected).max() < 1e-10
    with pytest.raises(ValueError):
        pseudo_product(SymbolGrid.from_callable(lambda a, b: a + b), f, g)


def test_symbol_l1_constant_and_tensor(grid):
    assert symbol_l1_norm(SymbolGrid.constant(), grid) == pytest.approx(1.0, abs=1e-12)
    a = lambda eta: bump(np.asarray(eta) / 3.0)
    b = lambda diff: bump(np.asarray(diff) / 2.0)
    xi = grid.frequency_axis()
    one_d = np.abs(np.fft.ifft(a(xi))).sum() * np.abs(np.fft.ifft(b(xi))).sum()
    assert symbol_l1_norm(SymbolGrid.separable(a, b), grid) == pytest.approx(one_d, abs=1e-8)


def test_callable_symbol_table_is_n_by_n(grid):
    for one in (SymbolGrid.from_callable(lambda xi, eta: 1.0),
                SymbolGrid.separable(lambda freqs: 1.0, None)):
        assert one.materialize(grid).shape == (N, N)
        assert symbol_l1_norm(one, grid) == symbol_l1_norm(SymbolGrid.constant(), grid)
        assert symbol_l1_norm(one, grid) == pytest.approx(1.0, abs=1e-12)
    # depends on xi only: the callable returns an (n, 1) column
    column = SymbolGrid.from_callable(lambda xi, eta: bump(xi / 3.0))
    xi = grid.frequency_axis()
    table = np.repeat(bump(xi / 3.0)[:, None], N, axis=1)
    assert np.array_equal(column.materialize(grid), table)
    assert symbol_l1_norm(column, grid) == symbol_l1_norm(table_symbol(table), grid)
    rng = np.random.default_rng(2)
    f, g = random_field(grid, rng), random_field(grid, rng)
    assert np.array_equal(pseudo_product(column, f, g).coef,
                          pseudo_product(table_symbol(table), f, g).coef)
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        SymbolGrid.from_callable(lambda xi, eta: np.ones(3)).materialize(grid)


def test_truncation_warning(grid):
    rough = SymbolGrid.from_callable(
        lambda xi, eta: np.where(np.abs(xi - eta) < 0.1, 1.0, 0.0)
    )
    with pytest.warns(TruncationWarning):
        symbol_l1_norm(rough, grid)


def test_measured_operator_bounded_by_symbol_l1(grid):
    report = holder_bound_probe(pairs=100, seed=5)
    assert len(report["rows"]) >= 9
    for row in report["rows"]:
        assert row["max_normalized_ratio"] <= 1.0 + 1e-6, row


def test_lp_single_mode_in_plateau(grid):
    j = 2
    k = int(round(2.0**j / grid.dxi))
    coef = np.zeros(N, dtype=complex)
    coef[k] = 1.0
    f = grid.with_coef(coef)
    assert np.abs(lp_project(f, j).coef - coef).max() == 0.0


def test_lp_distant_blocks_annihilate(grid):
    rng = np.random.default_rng(6)
    f = random_field(grid, rng)
    for j, jp in ((0, 2), (1, 3), (0, 4), (2, 4)):
        twice = lp_project(lp_project(f, j), jp)
        assert np.abs(twice.coef).max() < 1e-12


def test_lp_telescoping_identity(grid):
    rng = np.random.default_rng(7)
    f = random_field(grid, rng)
    j_max = 4
    mask = grid.frequency_norms() <= 0.75 * 2.0**j_max
    band = grid.with_coef(f.coef * mask)
    total = lp_project(band, 0, mode="ball")
    for j in range(0, j_max + 1):
        total = total.with_coef(total.coef + lp_project(band, j).coef)
    assert np.abs(total.coef - band.coef).max() < 1e-12


def test_bernstein_equal_exponents_unit_ratio():
    [ratio] = bernstein_check([2], 4.0, 4.0, trials=5, seed=0)
    assert ratio <= 1.0 + 1e-10


def test_bernstein_single_mode_volume_constant():
    box = 64.0
    grid = SpectralField.zeros(1, 2048, box)
    for j in (0, 2, 4):
        k = int(round(2.0**j / grid.dxi))
        coef = np.zeros(2048, dtype=complex)
        coef[k] = 1.0
        f = grid.with_coef(coef)
        [(sup, l2)] = f.row_lp_norms(math.inf, 2)
        assert sup / l2 == pytest.approx(box**-0.5, rel=1e-10)


def test_bernstein_ratios_j_independent():
    ratios = bernstein_check(range(6), 6.0, 2.0, trials=30, seed=11)
    assert max(ratios) / min(ratios) < 2.0


def _bernstein_projecting_each_trial(j, p, q, trials, seed):
    """``bernstein_check`` as it was, with ``lp_project`` called on every trial."""
    base = SpectralField.zeros(1, 2048, 64.0)
    axis, norms = base.frequency_axis(), base.frequency_norms()
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    best = 0.0
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        coef = np.zeros_like(norms, dtype=complex)
        for _ in range(3):
            center = 2.0**j * rng.uniform(1.05, 1.45)
            width = 2.0**j * rng.uniform(0.05, 0.12)
            x0 = rng.uniform(0.0, base.box_length)
            amp = rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            envelope = np.exp(-((norms - center) ** 2) / (2.0 * width**2))
            coef += amp * envelope * np.exp(-1j * axis * x0) * (axis > 0)
        f = lp_project(base.with_coef(coef), j, mode="annulus")
        [(denom, numer)] = f.row_lp_norms(q, p)
        if denom != 0.0:
            best = max(best, numer / (2.0 ** (j * (1.0 / q - inv_p)) * denom))
    return best


@pytest.mark.parametrize("j, p, q", [(0, 6.0, 2.0), (2, 4.0, 4.0), (3, math.inf, 1.0),
                                     (4, 3.0, 2.0), (5, 6.0, 2.0)])
def test_bernstein_builds_band_weights_once(monkeypatch, j, p, q):
    calls = []

    def counted(r):
        calls.append(np.shape(r))
        return lp_psi(r)

    monkeypatch.setattr("kgpair.bilinear.lp_psi", counted)
    got = bernstein_check([j], p, q, trials=6, seed=j)
    assert calls == [(2048,)]
    assert got == [_bernstein_projecting_each_trial(j, p, q, trials=6, seed=j)]


def _bernstein_full_length_packets(j, p, q, trials, seed):
    """``bernstein_check`` as it was, with each packet built on the whole
    frequency axis and then masked to the positive frequencies."""
    base = SpectralField.zeros(1, 2048, 64.0)
    axis, norms = base.frequency_axis(), base.frequency_norms()
    band = lp_psi(norms / 2.0**j)
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    best = 0.0
    for t in range(trials):
        rng = np.random.default_rng((seed, t))
        coef = np.zeros_like(norms, dtype=complex)
        for _ in range(3):
            center = 2.0**j * rng.uniform(1.05, 1.45)
            width = 2.0**j * rng.uniform(0.05, 0.12)
            x0 = rng.uniform(0.0, base.box_length)
            amp = rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            envelope = np.exp(-((norms - center) ** 2) / (2.0 * width**2))
            coef += amp * envelope * np.exp(-1j * axis * x0) * (axis > 0)
        f = base.with_coef(coef * band)
        [(denom, numer)] = f.row_lp_norms(q, p)
        if denom != 0.0:
            best = max(best, numer / (2.0 ** (j * (1.0 / q - inv_p)) * denom))
    return best


@pytest.mark.parametrize("seed", [3, 5, 2024])
@pytest.mark.parametrize("p, q", [(6.0, 2.0), (math.inf, 1.0), (4.0, 4.0)])
def test_bernstein_positive_packets_match_full_length_packets(p, q, seed):
    # bit for bit, although each packet is built on its envelope's live modes
    # only; one trial, one stack and stacks that end short of _STACK_TRIALS
    for trials in (1, 17, 20, 33):
        got = bernstein_check(range(6), p, q, trials=trials, seed=seed)
        for j in range(6):
            want = _bernstein_full_length_packets(j, p, q, trials, seed)
            assert struct.pack("<d", got[j]) == struct.pack("<d", want), (j, trials)


@pytest.mark.parametrize("js", [range(6), [5, 0, 3]])
@pytest.mark.parametrize("p, q", [(6.0, 2.0), (4.0, 4.0), (math.inf, 1.0)])
def test_bernstein_matches_the_per_j_oracle(js, p, q):
    # one call for all j, bit for bit equal to one oracle call per j; no
    # trial, one, a full stack, and stacks that end short of _STACK_TRIALS
    for trials in (0, 1, 16, 17, 33):
        got = bernstein_check(js, p, q, trials=trials, seed=trials + 4)
        want = [oracles.bernstein_check(j, p, q, trials=trials, seed=trials + 4) for j in js]
        assert [struct.pack("<d", r) for r in got] == [struct.pack("<d", r) for r in want], trials


def count_generators(monkeypatch):
    seeds = []
    original = np.random.default_rng

    def counted(seed=None):
        seeds.append(seed)
        return original(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return seeds


def test_bernstein_draws_each_trial_once(monkeypatch):
    seeds = count_generators(monkeypatch)
    bernstein_check(range(6), 6.0, 2.0, trials=17, seed=9)
    assert seeds == [(9, t) for t in range(17)]


def test_bernstein_rejects_bad_exponents():
    with pytest.raises(ValueError):
        bernstein_check([0], 2.0, 4.0)


def test_bernstein_rejects_an_unrepresentable_j_before_drawing(monkeypatch):
    seeds = count_generators(monkeypatch)
    with pytest.raises(ValueError, match="j = 6"):
        bernstein_check([0, 5, 6], 6.0, 2.0, trials=3)
    assert seeds == []


def test_ridge_probe_uniform_in_rho():
    probe = ridge_bound_probe(trials=6, seed=1)
    constants = [row["profile_constant"] for row in probe["rows"]]
    adapted = [row["adapted_ratio"] for row in probe["rows"]]
    assert max(constants) / min(constants) < 1.1
    assert max(adapted) / min(adapted) < 1.1
    for row in probe["rows"]:
        assert row["adapted_ratio"] <= row["grid_constant"] * (1.0 + 1e-6)
        assert row["random_ratio"] <= row["grid_constant"] * (1.0 + 1e-6)


def cyclic_table(g, lam):
    """The dense cyclic ridge table g[(a - lam*b) mod n]: the oracle of the
    band support, the 1-D constant and the ridge product."""
    idx = np.arange(g.size)
    return g[(idx[:, None] - lam * idx[None, :]) % g.size]


def table_nonzeros(table):
    """``(rows, starts, cols, diffs, vals)`` of a table's nonzeros in row order."""
    entries, cols = np.nonzero(table)
    starts = np.flatnonzero(np.diff(entries, prepend=-1))
    return entries[starts], starts, cols, (entries - cols) % table.shape[0], table[entries, cols]


RIDGE_GRIDS = {128: 64.0, 1024: 1310.72}


@pytest.mark.parametrize("rho", [1.0, 0.1, 0.01])
@pytest.mark.parametrize("n", [128, 1024])
def test_cyclic_ridge_constant_is_the_dense_coefficient_sum(n, rho):
    grid = SpectralField.zeros(1, n, RIDGE_GRIDS[n])
    g = bump(grid.frequency_axis() / rho)
    dense = float(np.abs(np.fft.ifft2(cyclic_table(g, 2))).sum())
    assert _coefficient_l1(g) == pytest.approx(dense, rel=1e-12, abs=0.0)
    # symbol_l1_norm takes the cyclic symbol's exact 1-D sum: no table, and no
    # TruncationWarning (an error under the test settings) at any rho
    symbol = SymbolGrid.cyclic_ridge(lambda k: bump(k / rho), 2)
    assert symbol_l1_norm(symbol, grid) == pytest.approx(dense, rel=1e-12, abs=0.0)
    assert not symbol._cache


def test_ridge_probe_grid_constant_is_the_dense_coefficient_sum():
    grid = SpectralField.zeros(1, 1024, 1310.72)
    for row in ridge_bound_probe(trials=4, seed=0)["rows"]:
        table = cyclic_table(bump(grid.frequency_axis() / row["rho"]), 2)
        dense = float(np.abs(np.fft.ifft2(table)).sum())
        assert row["grid_constant"] == pytest.approx(dense, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho", [1.0, 0.1, 0.01])
@pytest.mark.parametrize("n", [128, 1024])
def test_cyclic_ridge_band_matches_dense_table(n, rho):
    grid = SpectralField.zeros(1, n, RIDGE_GRIDS[n])
    symbol = SymbolGrid.cyclic_ridge(lambda k: bump(k / rho), 2.0)
    table = cyclic_table(bump(grid.frequency_axis() / rho), 2)
    support = blocked_support(symbol, grid)
    assert [a.dtype for a in support[2:]] == [np.int32, np.int32, np.float64]
    for got, expected in zip(support, table_nonzeros(table)):
        assert np.array_equal(got, expected)
    assert np.array_equal(symbol.materialize(grid), table)
    rng = np.random.default_rng(12)
    f, g = random_field(grid, rng), random_field(grid, rng)
    oracle = dense_pseudo_product(table_symbol(table), f, g)
    assert np.abs(pseudo_product(symbol, f, g).coef - oracle).max() <= 1e-13 * np.abs(oracle).max()


@given(
    st.sampled_from([8, 16, 32, 64, 128, 256]),
    st.floats(2.0, 500.0),
    st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]),
    st.floats(1e-3, 50.0),
    st.integers(0, 2**32 - 1),
)
def test_cyclic_ridge_matches_dense_table_property(n, box, lam, rho, seed):
    grid = SpectralField.zeros(1, n, box)
    rng = np.random.default_rng(seed)
    f, g = random_field(grid, rng), random_field(grid, rng)
    symbol = SymbolGrid.cyclic_ridge(lambda k: bump(k / rho), lam)
    samples = bump(grid.frequency_axis() / rho)
    table = cyclic_table(samples, lam)
    for got, expected in zip(blocked_support(symbol, grid), table_nonzeros(table)):
        assert np.array_equal(got, expected)
    dense = float(np.abs(np.fft.ifft2(table)).sum())
    assert _coefficient_l1(samples) == pytest.approx(dense, rel=1e-12, abs=0.0)
    out = pseudo_product(symbol, f, g).coef
    oracle = dense_pseudo_product(table_symbol(table), f, g)
    scale = rounding_scale(table, np.abs(f.coef), np.abs(g.coef), grid.dxi)
    assert np.abs(out - oracle).max() <= 2.0 * n * np.finfo(float).eps * scale


def blocked_support(symbol, grid, window=bilinear._CHUNK_POINTS):
    """``(rows, starts, cols, diffs, vals)`` of ``symbol.support(grid)`` with
    the per-entry differences and values joined from the blocks of
    ``_support_blocks``; the blocks' rows, offsets and columns must join to
    the support's own."""
    rows, starts, cols = symbol.support(grid)
    blocks = list(symbol._support_blocks(grid, window))
    firsts = np.cumsum([0] + [b[2].size for b in blocks])[:-1]

    def joined(k, dtype):
        return np.concatenate([b[k] for b in blocks]) if blocks else np.empty(0, dtype)

    assert np.array_equal(joined(0, rows.dtype), rows)
    assert np.array_equal(np.concatenate([b[1] + e0 for b, e0 in zip(blocks, firsts)] or [starts]), starts)
    assert np.array_equal(joined(2, cols.dtype), cols)
    return rows, starts, cols, joined(3, cols.dtype), joined(4, complex)


def five_array_support(symbol, grid):
    """The former ``SymbolGrid.support``, which kept per entry the column,
    the difference index and the value: ``(rows, starts, cols, diffs,
    vals)``, built by one in-place int32 key pass for a cyclic ridge.  The
    bit-for-bit oracle of the support that derives diffs and values per
    block."""
    n = grid.n
    mask, shift = n - 1, n.bit_length() - 1
    if symbol.ridge_profile is not None:
        lam = symbol.ridge_lambda % n
        g = symbol._ridge_samples(grid)
        dtype = np.int32 if n <= 1 << 15 else np.int64
        b = np.arange(n, dtype=dtype)[:, None]
        entries = np.empty((n, np.count_nonzero(g)), dtype=dtype)
        entries[:] = np.flatnonzero(g)
        entries += lam * b
        entries &= mask
        entries <<= shift
        entries |= b
        entries = entries.ravel()
        entries.sort()
        cols = entries & mask
        entries >>= shift
        idx = cols * -lam
        idx += entries
        idx &= mask
        vals = g[idx]
        del idx
    else:
        table = symbol.materialize(grid)
        entries, cols = np.nonzero(table)
        vals = table[entries, cols]
    bounds = np.searchsorted(entries, np.arange(n + 1, dtype=entries.dtype))
    rows = np.flatnonzero(np.diff(bounds))
    starts = bounds[rows]
    diffs = entries
    diffs -= cols
    diffs &= mask
    return rows, starts, cols, diffs, vals


def sorted_ridge_support(g, lam):
    """The cyclic ridge's support built as one int64 sort of the keys
    a*n + b with a modulo and a diff for the segments: the oracle of the
    in-place build of ``SymbolGrid.support``."""
    n = g.size
    lam %= n
    mask, shift = n - 1, n.bit_length() - 1
    b = np.arange(n)[:, None]
    keys = np.sort((((np.flatnonzero(g) + lam * b) & mask) << shift | b).ravel())
    entries, cols = keys >> shift, keys & mask
    vals = g[(entries - lam * cols) & mask]
    starts = np.flatnonzero(np.diff(entries, prepend=-1))
    return entries[starts], starts, cols, (entries - cols) % n, vals


@given(
    st.sampled_from([2**k for k in range(3, 13)]),
    st.sampled_from([*range(-4, 5), "n-1"]),
    st.floats(2.0, 500.0),
    st.floats(0.3, 48.0),
)
def test_ridge_support_matches_the_sorted_int64_build(n, lam, box, half_width):
    # rho spans up to 48 lattice spacings: at most 97 entries per column
    grid = SpectralField.zeros(1, n, box)
    lam = n - 1 if lam == "n-1" else lam
    rho = half_width * grid.dxi
    symbol = SymbolGrid.cyclic_ridge(lambda k: bump(k / rho), lam)
    # the support keeps rows, starts and int32 columns; the blocks derive
    # int32 differences and the float64 values
    assert [a.dtype for a in symbol.support(grid)[2:]] == [np.int32]
    support = blocked_support(symbol, grid)
    assert [a.dtype for a in support[2:]] == [np.int32, np.int32, np.float64]
    for got, expected in zip(support, sorted_ridge_support(bump(grid.frequency_axis() / rho), lam)):
        assert np.array_equal(got, expected)


def test_ridge_support_takes_int64_keys_above_2_to_the_15():
    n = 2**16
    grid = SpectralField.zeros(1, n, 7.5 * n)
    rho = 2.5 * grid.dxi  # five nonzero profile samples
    for lam in (3, -2, n - 1):
        symbol = SymbolGrid.cyclic_ridge(lambda k: bump(k / rho), lam)
        assert [a.dtype for a in symbol.support(grid)[2:]] == [np.int64]
        support = blocked_support(symbol, grid)
        assert support[4].size == 5 * n
        assert [a.dtype for a in support[2:]] == [np.int64, np.int64, np.float64]
        for got, expected in zip(support, sorted_ridge_support(bump(grid.frequency_axis() / rho), lam)):
            assert np.array_equal(got, expected)


def one_pass_product(symbol, f, g):
    """``pseudo_product`` of a non-separable symbol over its whole support at
    once, with the operand order of the blocks and the per-entry arrays of
    the five-array support: the oracle of the blocking."""
    rows, starts, cols, diffs, vals = five_array_support(symbol, f)
    terms = f.coef[cols]
    terms *= vals
    terms *= g.coef[diffs]
    out = np.zeros(f.n, dtype=complex)
    out[rows] = np.add.reduceat(terms, starts)
    return out * (f.dxi / (2.0 * math.pi) ** 0.5)


BLOCKED_CASES = {
    # 427008 entries in rows of 417: 52 blocks
    "ridge_rho1_n1024": (SymbolGrid.cyclic_ridge(bump, 2), 1024, 1310.72),
    # lam = 0: each nonempty row holds all 16384 columns, two blocks' worth
    "ridge_rows_longer_than_a_block": (
        SymbolGrid.cyclic_ridge(lambda k: bump(k / 0.002), 0), 2**14, 2**14 * 0.6),
    # the 16384-entry complex holder tables: two blocks of 64 rows
    "gaussian_joint": (default_probe_symbols()["gaussian_joint"], HOLDER_N, HOLDER_BOX),
    "random_trig": (trig_table_symbol(), HOLDER_N, HOLDER_BOX),
    "table_with_empty_rows": (table_symbol(table_with_empty_rows(N)), N, L),
}


@pytest.mark.parametrize("chunk", [None, 1, 100])
@pytest.mark.parametrize("name", BLOCKED_CASES)
def test_blocked_product_is_the_one_pass_product_bit_for_bit(monkeypatch, name, chunk):
    symbol, n, box = BLOCKED_CASES[name]
    if chunk is not None:
        monkeypatch.setattr(bilinear, "_CHUNK_POINTS", chunk)
    grid = SpectralField.zeros(1, n, box)
    rng = np.random.default_rng(17)
    f, g = random_field(grid, rng), random_field(grid, rng)
    assert pseudo_product(symbol, f, g).coef.tobytes() == one_pass_product(symbol, f, g).tobytes()


@pytest.mark.parametrize("name", ["ridge_rho1_n1024", "random_trig"])
@pytest.mark.parametrize("real", ["f", "g", "fg"])
def test_blocked_product_takes_real_coefficients(name, real):
    # real vals (a ridge) or complex ones (a table) against float64 f and/or
    # g (built directly: with_coef makes them complex); the terms promote to
    # complex as in the one-pass product
    symbol, n, box = BLOCKED_CASES[name]
    grid = SpectralField.zeros(1, n, box)
    rng = np.random.default_rng(23)
    f, g = random_field(grid, rng), random_field(grid, rng)
    f_in = SpectralField(1, n, box, f.coef.real.copy()) if "f" in real else f
    g_in = SpectralField(1, n, box, g.coef.real.copy()) if "g" in real else g
    expected = pseudo_product(symbol, f_in.with_coef(f_in.coef), g_in.with_coef(g_in.coef))
    assert np.array_equal(pseudo_product(symbol, f_in, g_in).coef, expected.coef)


@pytest.mark.parametrize("lam", [2.5, -0.5, math.nan, math.inf])
def test_cyclic_ridge_needs_an_integer_lambda(lam):
    with pytest.raises(ValueError, match="ridge lambda must be an integer"):
        SymbolGrid.cyclic_ridge(bump, lam)


@pytest.mark.parametrize("rho", [1.0, 0.1, 0.01])
def test_cyclic_ridge_memory_scales_with_its_band(rho):
    # the build peaks near 8 bytes per entry (int32 keys and columns) and
    # keeps 4, the int32 columns: the differences and values are derived per
    # block, so a product holds one block of terms at a time.  One complex
    # n x n table would take 16 n^2 bytes: 16.8 MB here
    grid = SpectralField.zeros(1, 1024, 1310.72)
    rng = np.random.default_rng(4)
    f, g = random_field(grid, rng), random_field(grid, rng)
    symbol = SymbolGrid.cyclic_ridge(lambda k: bump(k / rho), 2)
    tracemalloc.start()
    try:
        support = symbol.support(grid)
        build_kept, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        pseudo_product(symbol, f, g)
        # the kept support is still traced: count only what the product added
        product_peak = tracemalloc.get_traced_memory()[1] - build_kept
    finally:
        tracemalloc.stop()
    entries = support[2].size
    assert build_peak < min(4e6, 10 * entries + 256 * grid.n)
    assert build_kept < 4 * entries + 256 * grid.n
    assert product_peak < min(2e6, 64 * entries + 256 * grid.n)


def test_ridge_probe_is_sharp_and_bounded():
    for seed in (0, 1):
        for row in ridge_bound_probe(trials=5, seed=seed)["rows"]:
            assert row["adapted_ratio"] >= 0.75 * row["grid_constant"]
            assert max(row["adapted_ratio"], row["random_ratio"]) <= row["grid_constant"] * (1.0 + 1e-12)


def test_ridge_probe_builds_no_dense_table(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense table built on the ridge path")

    monkeypatch.setattr(SymbolGrid, "materialize", forbidden)
    monkeypatch.setattr("kgpair.bilinear.symbol_l1_norm", forbidden)
    monkeypatch.setattr(np.fft, "ifft2", forbidden)
    assert len(ridge_bound_probe(trials=4, seed=2)["rows"]) == 3


def test_profile_constant_matches_bound_shape():
    values = [profile_l1_constant(bump, rho) for rho in (1.0, 0.1, 0.01)]
    assert max(values) / min(values) < 1.01


def test_snap_lambda():
    snapped, err = snap_lambda(2.0)
    assert snapped == 2.0 and err == 0.0
    snapped, err = snap_lambda(27.41)
    assert snapped == 27.0 and err == pytest.approx(0.41 / 27.41, rel=1e-6)


def test_shell_weighted_rho_scaling():
    dxi = 2.0 * math.pi / 128.0
    for s in (0.5, 1.0):
        lo, hi = dxi, 10.0 * dxi
        c_lo, c_hi = shell_weighted_ratio(16 * dxi, [(lo, s), (hi, s)])
        measured = c_lo / c_hi
        predicted = (lo / hi) ** (s / 3.0)
        assert measured / predicted < 3.0
        assert predicted / measured < 3.0


def test_grid_mismatch_rejected(grid):
    other = SpectralField.zeros(1, N, L / 2)
    with pytest.raises(ValueError):
        pseudo_product(SymbolGrid.constant(), grid, other)


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_sparse_kernel_matches_dense_oracle(name):
    symbol, n, box = ORACLE_CASES[name]
    grid = SpectralField.zeros(1, n, box)
    rng = np.random.default_rng(10)
    f, g = random_field(grid, rng), random_field(grid, rng)
    oracle = dense_pseudo_product(symbol, f, g)
    out = pseudo_product(symbol, f, g).coef
    assert np.abs(out - oracle).max() <= 1e-13 * np.abs(oracle).max()
    assert np.all(out[~symbol.materialize(grid).any(axis=1)] == 0.0)


def test_support_is_built_once_per_grid(grid):
    symbol = ridge_symbol(0.5)
    first = symbol.support(grid)
    assert symbol.support(SpectralField.zeros(1, N, L)) is first
    assert symbol.support(SpectralField.zeros(1, N, 2.0 * L)) is not first
    rows, starts, cols, diffs, vals = blocked_support(symbol, grid)
    table = symbol.materialize(grid)
    assert np.count_nonzero(table) == vals.size < N * N
    entry_rows = np.repeat(rows, np.diff(np.append(starts, vals.size)))
    assert np.array_equal(table[entry_rows, cols], vals)
    assert np.array_equal(diffs, (entry_rows - cols) % N)


def test_non_finite_input_reaches_only_support_rows(grid):
    table = np.zeros((N, N), dtype=complex)
    table[5, 2] = 1.0
    f = grid.with_coef(np.ones(N, dtype=complex))
    f.coef[7] = np.nan
    g = grid.with_coef(np.ones(N, dtype=complex))
    g.coef[40] = np.inf
    out = pseudo_product(table_symbol(table), f, g).coef
    assert np.all(np.isfinite(out))
    assert np.count_nonzero(out) == 1 and out[5] != 0.0
    f.coef[2] = np.nan
    out = pseudo_product(table_symbol(table), f, g).coef
    assert np.isnan(out[5]) and np.all(np.delete(out, 5) == 0.0)


# -- property tests on random fields and random sparse tables ----------------


@st.composite
def field_pair(draw):
    """Two random complex fields on a random 1-D grid, and a seeded generator."""
    n = draw(st.sampled_from([8, 32, 128, 256]))
    box = draw(st.floats(2.0, 500.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = SpectralField.zeros(1, n, box)
    return grid, random_field(grid, rng), random_field(grid, rng), rng


def sparse_table(rng, n, density):
    mask = rng.random((n, n)) < density
    return np.where(mask, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0.0)


def rounding_scale(table, f_abs, g_abs, dxi):
    """max over xi of const * sum_eta |m| |f^| |g^|, the size that bounds the
    rounding error of one output mode: a sum of n terms is off by at most
    n * eps times it."""
    n = f_abs.size
    diff_idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    const = dxi / (2.0 * math.pi) ** 0.5
    return const * float((np.abs(table) * f_abs[None, :] * g_abs[diff_idx]).sum(axis=1).max())


@given(field_pair())
def test_unit_callable_symbol_is_pointwise_product_property(data):
    grid, f, g, _ = data
    unit = SymbolGrid.from_callable(lambda xi, eta: np.ones(np.broadcast_shapes(np.shape(xi), np.shape(eta))))
    expected = f.to_physical() * g.to_physical()
    got = pseudo_product(unit, f, g).to_physical()
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@given(field_pair(), st.floats(0.0, 1.0), st.complex_numbers(max_magnitude=4.0))
def test_bilinearity_on_sparse_tables(data, density, alpha):
    grid, f, g, rng = data
    table = sparse_table(rng, grid.n, density)
    symbol = table_symbol(table)
    f2, g2 = random_field(grid, rng), random_field(grid, rng)
    tol = 8.0 * grid.n * np.finfo(float).eps
    absf, absg = np.abs(f.coef), np.abs(g.coef)
    lhs = pseudo_product(symbol, f.with_coef(alpha * f.coef + f2.coef), g).coef
    rhs = alpha * pseudo_product(symbol, f, g).coef + pseudo_product(symbol, f2, g).coef
    scale = rounding_scale(table, abs(alpha) * absf + np.abs(f2.coef), absg, grid.dxi)
    assert np.abs(lhs - rhs).max() <= tol * scale
    lhs = pseudo_product(symbol, f, g.with_coef(alpha * g.coef + g2.coef)).coef
    rhs = alpha * pseudo_product(symbol, f, g).coef + pseudo_product(symbol, f, g2).coef
    scale = rounding_scale(table, absf, abs(alpha) * absg + np.abs(g2.coef), grid.dxi)
    assert np.abs(lhs - rhs).max() <= tol * scale


@given(field_pair(), st.floats(0.0, 1.0))
def test_sparse_tables_match_dense_oracle(data, density):
    grid, f, g, rng = data
    table = sparse_table(rng, grid.n, density)
    symbol = table_symbol(table)
    out = pseudo_product(symbol, f, g).coef
    oracle = dense_pseudo_product(symbol, f, g)
    # the two kernels sum the same products in different orders
    scale = rounding_scale(table, np.abs(f.coef), np.abs(g.coef), grid.dxi)
    assert np.abs(out - oracle).max() <= 2.0 * grid.n * np.finfo(float).eps * scale
    assert np.all(out[~table.any(axis=1)] == 0.0)


def single_pair_shell_ratio(R, rho, s):
    """The one-pair ``shell_weighted_ratio`` that rebuilt the 64^3 field, its
    spectrum and its frequency norms on every call: the oracle of the
    many-pair version."""
    h = SHELL_BOX / SHELL_N
    grid_x = (np.arange(SHELL_N) - SHELL_N / 2.0) * h
    xg, yg, zg = np.meshgrid(grid_x, grid_x, grid_x, indexing="ij")
    r2 = xg**2 + yg**2 + zg**2
    values = np.exp(-r2 / (2.0 * 1.5**2))
    f = SpectralField.from_physical(values, SHELL_BOX)
    shell = f.apply_multiplier(lambda v: bump((np.linalg.norm(v, axis=-1) - R) / rho))
    weighted = float(math.sqrt(np.sum(r2**s * np.abs(values) ** 2) * h**3))
    return spectral_l2(shell) / weighted


def test_shell_ratios_match_single_pair_oracle():
    dxi = 2.0 * math.pi / SHELL_BOX
    cli_pairs = [(rho, s) for s in (0.5, 1.0) for rho in (dxi, 10.0 * dxi)]
    more_pairs = [(0.5 * dxi, 0.0), (3.0 * dxi, 2.0), (40.0 * dxi, 0.25)]
    # one numerator per distinct rho: repeated, unsorted and single pairs
    repeated = [(10.0 * dxi, 1.0), (dxi, 0.5), (10.0 * dxi, 1.0), (3.0 * dxi, 2.0), (dxi, 1.0)]
    oracle = functools.lru_cache(maxsize=None)(single_pair_shell_ratio)
    for R, pairs in ((16 * dxi, cli_pairs + more_pairs), (5.5 * dxi, more_pairs),
                     (16 * dxi, repeated), (16 * dxi, [(dxi, 0.5)])):
        want = np.array([oracle(R, *pair) for pair in pairs])
        assert np.array(shell_weighted_ratio(R, pairs)).tobytes() == want.tobytes()
    assert shell_weighted_ratio(16 * dxi, []) == []


def whole_array_shell_ratio(R, pairs):
    """The former ``shell_weighted_ratio``, which held the Gaussian, |x|^2,
    the spectrum, the frequency norms, a product buffer and one rho's
    weights as whole 64^3 arrays at once: the bit-for-bit oracle of the
    slab-by-slab version."""
    h = SHELL_BOX / SHELL_N
    grid_x = (np.arange(SHELL_N) - SHELL_N / 2.0) * h
    xg, yg, zg = np.meshgrid(grid_x, grid_x, grid_x, indexing="ij", sparse=True)
    r2 = xg**2 + yg**2 + zg**2
    values = bilinear._exp_above_floor(-r2 / (2.0 * 1.5**2))
    f = SpectralField.from_physical(values, SHELL_BOX)
    density = np.abs(values) ** 2
    del values
    weighted = {s: float(math.sqrt(np.sum(r2**s * density) * h**3))
                for s in dict.fromkeys(s for _, s in pairs)}
    del r2, density
    offsets = f.frequency_norms()
    offsets -= R
    product = np.empty_like(f.coef)
    numerators = {}
    for rho in dict.fromkeys(rho for rho, _ in pairs):
        weights = bump(offsets / rho)
        np.multiply(f.coef, weights, out=product)
        np.square(np.abs(product, out=weights), out=weights)
        numerators[rho] = float(math.sqrt(np.sum(weights) * f.dxi**f.dims))
        del weights
    return [numerators[rho] / weighted[s] for rho, s in pairs]


@pytest.mark.parametrize("R_steps, pairs", [
    (16.0, [(1.0, 0.5), (10.0, 0.5), (1.0, 1.0), (10.0, 1.0)]),  # operator-probe's pairs
    (5.5, [(0.5, 0.0), (3.0, 2.0), (40.0, 0.25)]),
    (0.0, [(1.0, 3.0), (2.5, 1.0)]),
    (30.0, [(100.0, 0.1), (1e-3, 1.7), (100.0, 0.1)]),
    (45.5, [(0.25, 0.75)]),
])
def test_slab_shell_ratios_are_the_whole_array_ratios(R_steps, pairs):
    dxi = 2.0 * math.pi / SHELL_BOX
    pairs = [(rho * dxi, s) for rho, s in pairs]
    want = np.array(whole_array_shell_ratio(R_steps * dxi, pairs))
    assert np.array(shell_weighted_ratio(R_steps * dxi, pairs)).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_slab_total_is_np_sum_bit_for_bit(seed):
    # np.sum over a contiguous array splits it into halves down to blocks of
    # 128 values; if numpy ever sums in another order, the slab ratios lose
    # their bits and this test says why
    rng = np.random.default_rng(seed)
    shape = (SHELL_N,) * 3
    values = rng.normal(size=shape) * np.exp2(rng.integers(-60, 60, size=shape))  # mixed magnitudes
    values[rng.random(shape) < 0.2] = -0.0
    values[rng.random(shape) < 0.2] = 0.0
    tiny = rng.random(shape) < 0.1
    values[tiny] = rng.normal(size=int(tiny.sum())) * 5e-320  # subnormals
    if seed % 2:
        values = np.abs(values) * 1e-300  # nonnegative, partly subnormal, like |f^ chi|^2
    if seed == 4:
        values = np.full(shape, -0.0)
    slabs = range(0, SHELL_N, bilinear._SHELL_SLAB)
    total = bilinear._slab_total([np.sum(values[x:x + bilinear._SHELL_SLAB]) for x in slabs])
    assert np.float64(total).tobytes() == np.sum(values).tobytes()
    assert SHELL_N % bilinear._SHELL_SLAB == 0 and len(slabs) & (len(slabs) - 1) == 0


def test_exp_above_floor_is_np_exp_bit_for_bit():
    floor, edge = bilinear._EXP_FLOOR, -745.1332191019412  # exp rounds to +0.0 below edge
    around = [np.nextafter(x, direction) for x in (floor, edge) for direction in (-np.inf, np.inf)]
    special = [floor, edge, *around, -708.4, -720.0, -740.0, -745.0, -np.inf, np.nan, -np.nan,
               0.0, -0.0, -1e-300, -5e-324]
    args = np.concatenate([np.linspace(-1e4, 0.0, 20_001), special])
    got = bilinear._exp_above_floor(args)
    assert got.tobytes() == np.exp(args).tobytes()
    assert np.isnan(got[-6:-4]).all()
    subnormal = (got > 0.0) & (got < np.finfo(float).tiny)
    assert subnormal.sum() > 10  # results in (0, 2.2e-308) are still computed
    cube = args[:4096].reshape(16, 16, 16)
    assert bilinear._exp_above_floor(cube).tobytes() == np.exp(cube).tobytes()
    # every argument below the floor, -inf included, gives +0.0 with a clear sign bit
    below = np.concatenate([np.linspace(-1e4, floor, 100_001)[:-1], around[:1], [-np.inf]])
    assert (below < floor).all()
    assert np.exp(below).tobytes() == np.zeros(below.size).tobytes()


def old_lp_norm(field, p):
    # the L^p norm of the whole field, one transform per exponent
    values = np.abs(field.to_physical())
    if math.isinf(p):
        return float(values.max())
    return float((np.sum(values**p) * field.h**field.dims) ** (1.0 / p))


@pytest.mark.parametrize("dims, n", [(1, 128), (3, 16)])
def test_row_lp_norms_match_old_lp_norm_bit_for_bit(dims, n):
    rng = np.random.default_rng(21)
    shape = (n,) * dims
    f = SpectralField.from_physical(rng.normal(size=shape) + 1j * rng.normal(size=shape), 9.5)
    ps = (1, 2, 3, 4, 6, math.inf, 2.0, 1.5)
    assert f.row_lp_norms(*ps) == [tuple(old_lp_norm(f, p) for p in ps)]


@pytest.mark.parametrize("p", [math.nan, -math.inf, 0.999, 0.0, -2.0])
def test_row_lp_norms_reject_exponents_before_transforming(grid, monkeypatch, p):
    def forbidden(self):
        raise AssertionError("transform taken before the exponent check")

    monkeypatch.setattr(SpectralField, "to_physical", forbidden)
    with pytest.raises(ValueError, match="p must be >= 1 or \\+inf"):
        grid.row_lp_norms(p)
    with pytest.raises(ValueError, match="p must be >= 1 or \\+inf"):
        grid.row_lp_norms(2.0, math.inf, p)


def count_to_physical(monkeypatch) -> list:
    """Record, per to_physical call, how many fields its stack holds."""
    calls = []
    original = SpectralField.to_physical

    def counted(self):
        calls.append(math.prod(self.coef.shape[:-self.dims]))
        return original(self)

    monkeypatch.setattr(SpectralField, "to_physical", counted)
    return calls


def test_bernstein_check_transforms_each_trial_once(monkeypatch):
    # every trial field is transformed once per j, in one call per stack and j
    cap = bilinear._STACK_TRIALS
    calls = count_to_physical(monkeypatch)
    bernstein_check(range(6), 6.0, 2.0, trials=2 * cap + 3, seed=3)
    assert calls == [size for size in (cap, cap, 3) for _ in range(6)]


def test_holder_probe_transforms_each_field_and_product_once(monkeypatch):
    cap = bilinear._STACK_TRIALS
    calls = count_to_physical(monkeypatch)
    pairs = cap + 6
    holder_bound_probe(pairs=pairs, seed=2)
    # one transform per f, per g and per product of each of the four symbols,
    # plus the two that each of the two separable products and the
    # expansion's product take inside
    assert sum(calls) == pairs * (2 + 4) + 3 * 2 * pairs
    # in one call per stack each: f, g, then per symbol its product's
    # transform (two more inside each separable or expansion product)
    per_stack = 2 + 4 + 3 * 2
    assert calls == [cap] * per_stack + [6] * per_stack


def test_ridge_probe_transforms_each_stack_once(monkeypatch):
    cap = bilinear._STACK_TRIALS
    calls = count_to_physical(monkeypatch)
    trials = cap + 2
    ridge_bound_probe(trials=trials, seed=1)
    # per stack and rho: the product, f and g stacks of every kind of pair
    # (carriers, packets at rho = 1 and 0.1, random); the carriers' product
    # is built without a product call or a transform
    kinds = (3, 3, 2)
    assert calls == [k * size for k in kinds for size in (cap, 2) for _ in range(3)]


# ---------------------------------------------------------------------------
# Stacked fields against one call per field
# ---------------------------------------------------------------------------

def _stacked_symbols():
    rng = np.random.default_rng(31)
    dense = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    dense[rng.random((N, N)) < 0.5] = 0.0
    symbols = {f"ridge_lam{lam}": (SymbolGrid.cyclic_ridge(lambda k: bump(k / 0.3), lam), N, L)
               for lam in (*range(-3, 4), N - 1)}
    symbols["ridge_lam2_n1024"] = (SymbolGrid.cyclic_ridge(bump, 2), 1024, 1310.72)
    symbols["complex_table"] = (table_symbol(dense), N, L)
    symbols["separable"] = (default_probe_symbols()["separable_bumps"], N, L)
    symbols["constant"] = (SymbolGrid.constant(), N, L)
    symbols["expansion"] = (default_probe_symbols()["random_trig"], N, L)
    return symbols


STACKED_SYMBOLS = _stacked_symbols()


@pytest.mark.parametrize("real", [None, "f", "g"])
@pytest.mark.parametrize("leading", [(), (1,), (5,), (2, 3)])
@pytest.mark.parametrize("name", STACKED_SYMBOLS)
def test_stacked_product_is_the_per_row_product_bit_for_bit(name, leading, real):
    symbol, n, box = STACKED_SYMBOLS[name]
    rng = np.random.default_rng(41)
    shape = (*leading, n)
    f_coef = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    g_coef = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # float64 coefficients, built directly: with_coef makes them complex
    f = SpectralField(1, n, box, f_coef.real.copy() if real == "f" else f_coef)
    g = SpectralField(1, n, box, g_coef.real.copy() if real == "g" else g_coef)
    stacked = pseudo_product(symbol, f, g)
    assert stacked.coef.shape == shape
    for index in np.ndindex(*leading):
        row = pseudo_product(symbol, SpectralField(1, n, box, f.coef[index]),
                             SpectralField(1, n, box, g.coef[index]))
        assert stacked.coef[index].tobytes() == row.coef.tobytes()


@pytest.mark.parametrize("chunk", [1, 100])
def test_stacked_blocks_are_the_per_row_product_bit_for_bit(monkeypatch, chunk):
    # windows narrower than one row's entries still take each row whole
    monkeypatch.setattr(bilinear, "_CHUNK_POINTS", chunk)
    symbol, n, box = STACKED_SYMBOLS["complex_table"]
    grid = SpectralField.zeros(1, n, box)
    rng = np.random.default_rng(43)
    f, g = random_field(grid.with_coef(np.zeros((7, n))), rng), random_field(grid, rng)
    stacked = pseudo_product(symbol, f, g)  # g broadcasts against the 7 rows of f
    for row in range(7):
        expected = pseudo_product(symbol, grid.with_coef(f.coef[row]), g)
        assert stacked.coef[row].tobytes() == expected.coef.tobytes()


def test_three_d_stacked_separable_product():
    rng = np.random.default_rng(47)
    grid = SpectralField.zeros(3, 8, 8.0)
    f, g = random_field(grid.with_coef(np.zeros((2, 8, 8, 8))), rng), random_field(grid, rng)
    stacked = pseudo_product(SymbolGrid.constant(), f, g)
    assert stacked.coef.shape == (2, 8, 8, 8)
    for row in range(2):
        expected = pseudo_product(SymbolGrid.constant(), grid.with_coef(f.coef[row]), g)
        assert stacked.coef[row].tobytes() == expected.coef.tobytes()


@pytest.mark.parametrize("dims, n, leading", [(1, 128, (1000,)), (1, 2048, (3, 5)), (3, 8, (4,))])
def test_row_lp_norms_are_the_per_row_lp_norms(dims, n, leading):
    # 1000 rows of sixth roots: an array power in place of the scalar
    # one rounds some of them differently
    rng = np.random.default_rng(53)
    shape = (*leading, *(n,) * dims)
    stack = SpectralField.from_physical(rng.normal(size=shape) + 1j * rng.normal(size=shape), 9.5, dims)
    ps = (1, 2, 3, 4, 6, math.inf)
    rows = stack.row_lp_norms(*ps)
    assert len(rows) == math.prod(leading)
    for got, index in zip(rows, np.ndindex(*leading)):
        row = stack.with_coef(stack.coef[index])
        assert [got] == row.row_lp_norms(*ps) == [tuple(old_lp_norm(row, p) for p in ps)]


def test_row_lp_norms_of_an_empty_stack():
    empty = SpectralField(1, 16, 2.0, np.zeros((0, 16), dtype=complex))
    assert empty.row_lp_norms(2.0, math.inf) == []
    assert SpectralField.zeros(1, 16, 2.0).row_lp_norms() == [()]


@pytest.mark.parametrize("rho", [1.0, 0.1, 0.01])
def test_ridge_carrier_products_are_the_one_hot_products(rho):
    grid = SpectralField.zeros(1, 1024, 1310.72)
    symbol = SymbolGrid.cyclic_ridge(lambda k: bump(k / rho), 2)
    modes = np.arange(80, 120)
    partners = modes % grid.n  # round((lam - 1) * mode) at lam = 2
    got = bilinear._ridge_carrier_products(symbol, grid, modes, partners)
    for row, (b, d) in enumerate(zip(modes, partners)):
        fc, gc = np.zeros(grid.n, dtype=complex), np.zeros(grid.n, dtype=complex)
        fc[b] = gc[d] = 1.0
        expected = pseudo_product(symbol, grid.with_coef(fc), grid.with_coef(gc))
        assert got[row].tobytes() == expected.coef.tobytes()


def test_probes_without_trials_keep_their_empty_results():
    holder = holder_bound_probe(0, 1)
    assert [row["max_normalized_ratio"] for row in holder["rows"]] == [0.0] * 12
    ridge = ridge_bound_probe(0, 1)
    for row in ridge["rows"]:
        assert row["adapted_ratio"] == row["random_ratio"] == 0.0
        assert math.isnan(row["packet_ratio"])
    assert bernstein_check([2], 6.0, 2.0, trials=0) == [0.0]


# the --trials 1000 counts of operator-probe.  The Bernstein and holder
# bounds are the unstacked implementation's tracemalloc peak (one trial per
# product and transform) plus 4 MB.  The ridge bound holds its three-array
# support (6.4 MB; 11.1 MB with the per-entry differences and values
# stored), and the shell bound its slabs (7.0 MB; 15.9 MB as whole arrays)
@pytest.mark.parametrize("stage, run, bound_mb", [
    ("bernstein", lambda: bernstein_check(range(6), 6.0, 2.0, trials=500, seed=0), 5.2),
    ("holder", lambda: holder_bound_probe(pairs=1000, seed=0), 12.0),
    ("ridge", lambda: ridge_bound_probe(trials=125, seed=0), 7.5),
    ("shell", lambda: shell_weighted_ratio(16 * 2.0 * math.pi / SHELL_BOX,
                                           [(rho * 2.0 * math.pi / SHELL_BOX, s)
                                            for s in (0.5, 1.0) for rho in (1.0, 10.0)]), 8.0),
])
def test_stacked_probes_hold_bounded_memory(stage, run, bound_mb):
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6, f"{stage}: {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------------------
# Lattice-shift expansions against their dense tables
# ---------------------------------------------------------------------------

def expansion_table(shifts, coefs, n):
    """The (n, n) table of sum c exp(i (a xi + b eta) h): each phase
    exp(2 pi i (a k mod n) / n) is taken from an exact integer exponent, so
    the oracle keeps its accuracy at shifts of any size."""
    k = np.arange(n)
    table = np.zeros((n, n), dtype=complex)
    for (a, b), c in zip(shifts, coefs):
        table += c * np.outer(np.exp(2j * np.pi * (a * k % n) / n), np.exp(2j * np.pi * (b * k % n) / n))
    return table


def merged_l1(shifts, coefs, n):
    """The sum of |c| once the terms of equal shifts modulo n are added."""
    merged = {}
    for (a, b), c in zip(shifts, coefs):
        merged[a % n, b % n] = merged.get((a % n, b % n), 0.0) + c
    return sum(abs(c) for c in merged.values())


@st.composite
def expansion_case(draw):
    """A grid, an expansion with shifts in [-n, n] that repeat modulo n, and
    the leading shapes of a broadcasting pair of field stacks."""
    n = draw(st.sampled_from([8, 128, 1024]))
    shifts = draw(st.lists(st.tuples(st.integers(-n, n), st.integers(-n, n)), min_size=1, max_size=8))
    # copies of drawn shifts, as they are or moved by n towards the other
    # end of [-n, n]: equal to them modulo n
    wrap = lambda s, moved: (s - n if s > 0 else s + n) if moved else s
    copies = draw(st.lists(st.tuples(st.integers(0, len(shifts) - 1), st.booleans(), st.booleans()),
                           max_size=4))
    shifts += [(wrap(shifts[i][0], move_a), wrap(shifts[i][1], move_b)) for i, move_a, move_b in copies]
    coefs = draw(st.lists(st.complex_numbers(max_magnitude=4.0), min_size=len(shifts),
                          max_size=len(shifts)))
    leading = draw(st.sampled_from([((), ()), ((3,), ()), ((), (2,)), ((2, 1), (1,)), ((1,), (1, 2))]))
    return n, shifts, coefs, leading, draw(st.floats(2.0, 500.0)), draw(st.integers(0, 2**32 - 1))


@given(expansion_case())
@example((8, [(0, 0)], [5e-324 + 0j], ((), ()), 2.0, 0))  # a subnormal coefficient
def test_expansion_product_matches_its_dense_table(case):
    n, shifts, coefs, (f_leading, g_leading), box, seed = case
    grid = SpectralField.zeros(1, n, box)
    rng = np.random.default_rng(seed)
    f = random_field(grid.with_coef(np.zeros((*f_leading, n))), rng)
    g = random_field(grid.with_coef(np.zeros((*g_leading, n))), rng)
    symbol = SymbolGrid.lattice_expansion(shifts, coefs)
    out = pseudo_product(symbol, f, g).coef
    shape = np.broadcast_shapes(f.coef.shape, g.coef.shape)
    assert out.shape == shape
    oracle_symbol = table_symbol(expansion_table(shifts, coefs, n))
    terms_l1 = sum(abs(c) for c in coefs)
    # results below the normal range round to a multiple of the smallest
    # subnormal, a step no relative gate reaches: allow a few per summed term
    underflow = 4.0 * n * len(coefs) * np.finfo(float).smallest_subnormal
    fc, gc = np.broadcast_to(f.coef, shape), np.broadcast_to(g.coef, shape)
    for index in np.ndindex(*shape[:-1]):
        f_row, g_row = grid.with_coef(fc[index]), grid.with_coef(gc[index])
        oracle = dense_pseudo_product(oracle_symbol, f_row, g_row)
        # |m| <= sum |c| at every entry: the gate scales the unit symbol's size
        scale = terms_l1 * rounding_scale(np.ones((1, 1)), np.abs(f_row.coef), np.abs(g_row.coef), grid.dxi)
        assert np.abs(out[index] - oracle).max() <= 2.0 * n * np.finfo(float).eps * scale + underflow
    assert symbol_l1_norm(symbol, grid) == pytest.approx(merged_l1(shifts, coefs, n), rel=1e-14, abs=0.0)


def test_expansion_takes_float_shifts_with_integer_values():
    grid = SpectralField.zeros(1, 16, 3.0)
    rng = np.random.default_rng(61)
    f, g = random_field(grid, rng), random_field(grid, rng)
    as_ints = SymbolGrid.lattice_expansion([[2, -1], [-16, 3]], [0.5, 1j])
    as_floats = SymbolGrid.lattice_expansion(np.array([[2.0, -1.0], [-16.0, 3.0]]), [0.5, 1j])
    assert as_ints == as_floats
    assert pseudo_product(as_ints, f, g).coef.tobytes() == pseudo_product(as_floats, f, g).coef.tobytes()
    empty = SymbolGrid.lattice_expansion(np.zeros((0, 2)), [])
    assert not np.any(pseudo_product(empty, f, g).coef)
    assert symbol_l1_norm(empty, grid) == 0.0


@pytest.mark.parametrize("shifts, coefs, message", [
    ([[0, 1]], [math.nan], "coefficients must be finite"),
    ([[0, 1]], [complex(0.0, math.inf)], "coefficients must be finite"),
    ([[0, 1], [1, 0]], [1.0, -math.inf], "coefficients must be finite"),
    ([[0.5, 1]], [1.0], "shifts must be integers"),
    ([[0, math.nan]], [1.0], "shifts must be integers"),
    ([[math.inf, 0]], [1.0], "shifts must be integers"),
    ([[0, 1, 2]], [1.0], r"\(1, 2\) array of shifts"),
    ([[0, 1]], [1.0, 2.0], r"\(2, 2\) array of shifts"),
    ([0, 1], [1.0], r"\(1, 2\) array of shifts"),
], ids=["nan", "inf_imag", "neg_inf", "half_shift", "nan_shift", "inf_shift", "three_columns",
        "too_few_shifts", "flat_shifts"])
def test_lattice_expansion_rejects_bad_terms(shifts, coefs, message):
    with pytest.raises(ValueError, match=message):
        SymbolGrid.lattice_expansion(shifts, coefs)


def test_lattice_expansion_lives_on_one_d_grids():
    symbol = SymbolGrid.lattice_expansion([[1, -1]], [0.5])
    assert not symbol.is_separable
    cube = SpectralField.zeros(3, 8, 4.0)
    with pytest.raises(ValueError, match="1-D grids"):
        pseudo_product(symbol, cube, cube)
    with pytest.raises(ValueError, match="1-D grids"):
        symbol_l1_norm(symbol, cube)
    with pytest.raises(ValueError, match="without a table"):
        symbol.materialize(SpectralField.zeros(1, 8, 4.0))


@pytest.mark.parametrize("seed", [0, 3, 5, 123456])
def test_random_trig_constant_is_its_coefficient_sum(seed):
    # exactly the sum of |c_ab| / (1 + a^2 + b^2); a warning of any kind
    # fails the test under the test settings
    rng = np.random.default_rng((seed, 777))
    coeffs = (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))) / 25.0
    a, b = np.meshgrid(np.arange(-2, 3), np.arange(-2, 3), indexing="ij")
    expected = float(np.sum(np.abs(coeffs) / (1.0 + a * a + b * b)))
    grid = SpectralField.zeros(1, HOLDER_N, HOLDER_BOX)
    symbol = default_probe_symbols(seed)["random_trig"]
    assert symbol_l1_norm(symbol, grid) == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert not symbol._cache
    # the inverse-DFT sum of the dense table agrees to its roundoff
    dense = symbol_l1_norm(trig_table_symbol(seed), grid)
    assert symbol_l1_norm(symbol, grid) == pytest.approx(dense, rel=1e-13, abs=0.0)


def test_holder_probe_builds_no_table_for_the_expansion(monkeypatch):
    names = {}
    original_symbols, original_materialize = default_probe_symbols, SymbolGrid.materialize
    calls = {}

    def recorded_symbols(seed=0):
        symbols = original_symbols(seed)
        names.update({id(symbol): name for name, symbol in symbols.items()})
        return symbols

    def counted(self, grid):
        calls[names[id(self)]] = calls.get(names[id(self)], 0) + 1
        return original_materialize(self, grid)

    monkeypatch.setattr("kgpair.bilinear.default_probe_symbols", recorded_symbols)
    monkeypatch.setattr(SymbolGrid, "materialize", counted)
    holder_bound_probe(pairs=20, seed=4)
    # the l1 norm of each table symbol, and the support build of the
    # callable one (a cache hit)
    assert calls == {"constant": 1, "separable_bumps": 1, "gaussian_joint": 2}
