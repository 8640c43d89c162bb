import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgpair.bilinear import (
    SHELL_BOX,
    SHELL_N,
    SpectralField,
    SymbolGrid,
    TruncationWarning,
    bernstein_check,
    default_probe_symbols,
    holder_bound_probe,
    lp_project,
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


def table_with_empty_rows(n, seed=9):
    rng = np.random.default_rng(seed)
    table = np.where(rng.random((n, n)) < 0.05, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0.0)
    table[::3] = 0.0
    return table


ORACLE_CASES = {
    **{f"ridge_rho{rho}_n{n}": (ridge_symbol(rho), n, box)
       for rho in (1.0, 0.1, 0.01) for n, box in ((1024, 1310.72), (128, 64.0))},
    "gaussian_joint": (default_probe_symbols()["gaussian_joint"], N, L),
    "random_trig": (default_probe_symbols()["random_trig"], N, L),
    "table_with_empty_rows": (table_symbol(table_with_empty_rows(N)), N, L),
    "zero_table": (table_symbol(np.zeros((N, N))), N, L),
}


def test_round_trip_and_parseval(grid):
    rng = np.random.default_rng(0)
    values = rng.normal(size=N) + 1j * rng.normal(size=N)
    f = SpectralField.from_physical(values, L)
    assert np.abs(f.to_physical() - values).max() < 1e-12 * np.abs(values).max()
    assert f.lp_norm(2) == pytest.approx(f.spectral_l2(), rel=1e-12)


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
    fast = pseudo_product(SymbolGrid.constant(1.0), f, g)
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
    lhs = pseudo_product(symbol, alpha * f1 + f2, g)
    rhs = alpha * pseudo_product(symbol, f1, g) + pseudo_product(symbol, f2, g)
    assert np.abs(lhs.coef - rhs.coef).max() < 1e-12 * max(1.0, np.abs(rhs.coef).max())


def test_three_d_separable_product():
    rng = np.random.default_rng(4)
    n = 16
    values = rng.normal(size=(n, n, n))
    f = SpectralField.from_physical(values, 8.0)
    g = SpectralField.from_physical(values[::-1], 8.0)
    out = pseudo_product(SymbolGrid.constant(1.0), f, g)
    expected = f.to_physical() * g.to_physical()
    assert np.abs(out.to_physical() - expected).max() < 1e-10
    with pytest.raises(ValueError):
        pseudo_product(SymbolGrid.from_callable(lambda a, b: a + b), f, g)


def test_symbol_l1_constant_and_tensor(grid):
    assert symbol_l1_norm(SymbolGrid.constant(1.0), grid) == pytest.approx(1.0, abs=1e-12)
    a = lambda eta: bump(np.asarray(eta) / 3.0)
    b = lambda diff: bump(np.asarray(diff) / 2.0)
    xi = grid.frequency_axis()
    one_d = np.abs(np.fft.ifft(a(xi))).sum() * np.abs(np.fft.ifft(b(xi))).sum()
    assert symbol_l1_norm(SymbolGrid.separable(a, b), grid) == pytest.approx(one_d, abs=1e-8)


def test_callable_symbol_table_is_n_by_n(grid):
    for one in (SymbolGrid.from_callable(lambda xi, eta: 1.0),
                SymbolGrid.separable(lambda freqs: 1.0, None)):
        assert one.materialize(grid).shape == (N, N)
        assert symbol_l1_norm(one, grid) == symbol_l1_norm(SymbolGrid.constant(1.0), grid)
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
    report = holder_bound_probe(n=N, box_length=L, pairs=100, seed=5)
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
        total = total + lp_project(band, j)
    assert np.abs(total.coef - band.coef).max() < 1e-12


def test_bernstein_equal_exponents_unit_ratio():
    ratio = bernstein_check(2, 4.0, 4.0, trials=5, seed=0)
    assert ratio <= 1.0 + 1e-10


def test_bernstein_single_mode_volume_constant():
    box = 64.0
    grid = SpectralField.zeros(1, 2048, box)
    for j in (0, 2, 4):
        k = int(round(2.0**j / grid.dxi))
        coef = np.zeros(2048, dtype=complex)
        coef[k] = 1.0
        f = grid.with_coef(coef)
        assert f.lp_norm(math.inf) / f.lp_norm(2) == pytest.approx(box**-0.5, rel=1e-10)


def test_bernstein_ratios_j_independent():
    ratios = [bernstein_check(j, 6.0, 2.0, trials=30, seed=11) for j in range(6)]
    assert max(ratios) / min(ratios) < 2.0


def test_bernstein_rejects_bad_exponents():
    with pytest.raises(ValueError):
        bernstein_check(0, 2.0, 4.0)


def test_ridge_probe_uniform_in_rho():
    probe = ridge_bound_probe(trials=6, seed=1)
    constants = [row["profile_constant"] for row in probe["rows"]]
    adapted = [row["adapted_ratio"] for row in probe["rows"]]
    assert max(constants) / min(constants) < 1.1
    assert max(adapted) / min(adapted) < 1.1
    for row in probe["rows"]:
        assert row["adapted_ratio"] <= row["grid_constant"] * (1.0 + 1e-6)
        assert row["random_ratio"] <= row["grid_constant"] * (1.0 + 1e-6)


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


def test_binary_round_trip():
    rng = np.random.default_rng(8)
    f = SpectralField.from_physical(rng.normal(size=N) + 1j * rng.normal(size=N), L)
    blob = f.to_bytes()
    assert blob[:8] == (1).to_bytes(8, "little")
    g = SpectralField.from_bytes(blob)
    assert g.dims == 1 and g.n == N and g.box_length == L
    assert np.array_equal(g.coef, f.coef)
    cube = SpectralField.from_physical(rng.normal(size=(8, 8, 8)), 4.0)
    assert np.array_equal(SpectralField.from_bytes(cube.to_bytes()).coef, cube.coef)
    # signed zeros compare equal, so compare the bytes
    zeros = SpectralField(1, 2, 1.0, np.array([complex(-0.0, -0.0), complex(-0.0, 0.0)]))
    assert SpectralField.from_bytes(zeros.to_bytes()).to_bytes() == zeros.to_bytes()


@given(st.data(), st.sampled_from([(1, 2), (1, 16), (1, 256), (3, 2), (3, 4)]),
       st.floats(min_value=1e-6, max_value=1e6))
def test_binary_round_trip_on_random_fields(data, shape, box_length):
    dims, n = shape
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=2 * n**dims, max_size=2 * n**dims))
    parts = np.array(values).reshape(2, *(n,) * dims)
    f = SpectralField(dims, n, box_length, parts[0] + 1j * parts[1])
    blob = f.to_bytes()
    g = SpectralField.from_bytes(blob)
    assert (g.dims, g.n, g.box_length) == (dims, n, box_length)
    assert np.array_equal(g.coef, f.coef)
    assert g.to_bytes() == blob


def test_spectrum_csv_shape():
    f = SpectralField.zeros(1, 8, 4.0)
    lines = f.spectrum_csv().strip().split("\n")
    assert lines[0] == "xi_0,re,im"
    assert len(lines) == 9


def per_row_spectrum_csv(f: SpectralField) -> str:
    """Reference: the former per-row loop of spectrum_csv."""
    vecs = f._frequency_vectors()
    lines = [",".join([f"xi_{i}" for i in range(f.dims)] + ["re", "im"])]
    flat_vec = vecs.reshape(-1, f.dims) if f.dims > 1 else vecs.reshape(-1, 1)
    for row, value in zip(flat_vec, f.coef.ravel()):
        coords = ",".join(format(x, ".17g") for x in row)
        lines.append(f"{coords},{format(value.real, '.17g')},{format(value.imag, '.17g')}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dims,n", [(1, 2), (1, 64), (3, 2), (3, 8)])
def test_spectrum_csv_matches_per_row_reference(dims, n):
    rng = np.random.default_rng(dims * 100 + n)
    coef = rng.normal(size=(n,) * dims) + 1j * rng.normal(size=(n,) * dims)
    coef.flat[0] = complex(-0.0, math.nan)
    coef.flat[-1] = complex(math.inf, 5e-324)
    f = SpectralField(dims, n, 7.0, coef)
    assert f.spectrum_csv() == per_row_spectrum_csv(f)


def test_grid_mismatch_rejected(grid):
    other = SpectralField.zeros(1, N, L / 2)
    with pytest.raises(ValueError):
        pseudo_product(SymbolGrid.constant(1.0), grid, other)


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
    rows, starts, cols, diffs, vals = first
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


def _blob(dims, sizes, box, payload_doubles):
    return (struct.pack("<Q", dims) + struct.pack(f"<{len(sizes)}Q", *sizes)
            + struct.pack("<d", box) + bytes(8 * payload_doubles))


@pytest.mark.parametrize(
    "blob, message",
    [
        (_blob(2, (8, 8), 1.0, 128), "dims"),
        (_blob(2**40, (), 1.0, 0), "dims"),
        (_blob(1, (2**40,), 1.0, 16), "limited"),
        (_blob(1, (12,), 1.0, 24), "power of two"),
        (_blob(3, (128, 128, 128), 1.0, 0), "limited"),
        (_blob(3, (8, 8, 4), 1.0, 0), "agree"),
        (_blob(1, (8,), math.nan, 16), "box_length"),
        (_blob(1, (8,), 1.0, 16)[:-8], "payload"),
        (_blob(1, (8,), 1.0, 0)[:20], "shorter"),
        (b"\x01", "shorter"),
    ],
    ids=["dims2", "dims2e40", "n2e40", "n12", "n128_3d", "ragged", "nan_box", "truncated_payload",
         "truncated_header", "one_byte"],
)
def test_from_bytes_rejects_bad_header(blob, message):
    with pytest.raises(ValueError, match=message):
        SpectralField.from_bytes(blob)


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
    lhs = pseudo_product(symbol, alpha * f + f2, g).coef
    rhs = alpha * pseudo_product(symbol, f, g).coef + pseudo_product(symbol, f2, g).coef
    scale = rounding_scale(table, abs(alpha) * absf + np.abs(f2.coef), absg, grid.dxi)
    assert np.abs(lhs - rhs).max() <= tol * scale
    lhs = pseudo_product(symbol, f, alpha * g + g2).coef
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
    return shell.spectral_l2() / weighted


def test_shell_ratios_match_single_pair_oracle():
    dxi = 2.0 * math.pi / SHELL_BOX
    cli_pairs = [(rho, s) for s in (0.5, 1.0) for rho in (dxi, 10.0 * dxi)]
    more_pairs = [(0.5 * dxi, 0.0), (3.0 * dxi, 2.0), (40.0 * dxi, 0.25)]
    for R, pairs in ((16 * dxi, cli_pairs + more_pairs), (5.5 * dxi, more_pairs)):
        assert shell_weighted_ratio(R, pairs) == [single_pair_shell_ratio(R, *pair) for pair in pairs]
    assert shell_weighted_ratio(16 * dxi, []) == []


def old_lp_norm(field, p):
    # lp_norm as it was before lp_norms: one transform per exponent
    values = np.abs(field.to_physical())
    if math.isinf(p):
        return float(values.max())
    return float((np.sum(values**p) * field.h**field.dims) ** (1.0 / p))


@pytest.mark.parametrize("dims, n", [(1, 128), (3, 16)])
def test_lp_norms_match_lp_norm_bit_for_bit(dims, n):
    rng = np.random.default_rng(21)
    shape = (n,) * dims
    f = SpectralField.from_physical(rng.normal(size=shape) + 1j * rng.normal(size=shape), 9.5)
    ps = (1, 2, 3, 4, 6, math.inf, 2.0, 1.5)
    norms = f.lp_norms(*ps)
    assert norms == tuple(f.lp_norm(p) for p in ps)
    assert norms == tuple(old_lp_norm(f, p) for p in ps)
    assert f.lp_norms() == ()


@pytest.mark.parametrize("p", [math.nan, -math.inf, 0.999, 0.0, -2.0])
def test_lp_norms_reject_exponents_before_transforming(grid, monkeypatch, p):
    def forbidden(self):
        raise AssertionError("transform taken before the exponent check")

    monkeypatch.setattr(SpectralField, "to_physical", forbidden)
    with pytest.raises(ValueError, match="p must be >= 1 or \\+inf"):
        grid.lp_norm(p)
    with pytest.raises(ValueError, match="p must be >= 1 or \\+inf"):
        grid.lp_norms(2.0, math.inf, p)


def count_to_physical(monkeypatch) -> list:
    calls = []
    original = SpectralField.to_physical

    def counted(self):
        calls.append(self.dims)
        return original(self)

    monkeypatch.setattr(SpectralField, "to_physical", counted)
    return calls


def test_bernstein_check_transforms_each_trial_once(monkeypatch):
    calls = count_to_physical(monkeypatch)
    bernstein_check(2, 6.0, 2.0, trials=7, seed=3)
    assert len(calls) == 7


def test_holder_probe_transforms_each_field_and_product_once(monkeypatch):
    calls = count_to_physical(monkeypatch)
    pairs = 6
    holder_bound_probe(pairs=pairs, seed=2)
    # one transform per f, per g and per product of each of the four symbols,
    # plus the two that each of the two separable products takes inside
    assert len(calls) == pairs * (2 + 4) + 2 * 2 * pairs
