"""Periodic spectral fields, dyadic projections, and pseudo-product operators.

Transform conventions on the box [0, L)^d with n points per axis:

    coef(xi)  = (h^d / (2 pi)^{d/2}) * sum_x f(x) exp(-i x.xi),  h = L/n
    f(x)      = (dxi^d / (2 pi)^{d/2}) * sum_xi coef(xi) exp(i x.xi)

with the frequency lattice xi in dxi * Z^d, dxi = 2 pi / L.  The bilinear
operator is the lattice quadrature

    T_m(f,g)^(xi) = (2 pi)^{-d/2} dxi^d sum_eta m(xi,eta) f^(eta) g^(xi-eta)

with the difference taken cyclically; these constants make T_1(f,g) = f*g
exact, which pins every other convention.  Separable symbols are applied as
two multipliers and a physical-space product, and a lattice-shift expansion
sum_k c_k exp(i (a_k xi + b_k eta) h) as a sum of products of grid
translates.  Any other symbol is applied by summing over its nonzero
support, built once per (symbol, grid) and then
O(nnz) per call: from the n^2 table for a callable, and straight from the
sheared band for a cyclic ridge g[(a - lam*b) mod n], which keeps one int32
column per entry up to n = 2^15.  A call takes the support in blocks of
whole rows and derives each block's differences (and a ridge's values), so
it holds one block of terms at a time; a stack of fields (leading axes)
shares each block.  The sharp discrete
operator bound is then ||T_m(f,g)||_r <= l1(m^) ||f||_p ||g||_q for Hoelder
exponents, where l1(m^) is the plain inverse-DFT coefficient sum computed by
``symbol_l1_norm``; for a cyclic ridge it is the 1-D sum of g's coefficients,
and for an expansion the sum of |c_k| over its shifts merged modulo n.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from kgpair.cutoffs import bump, edge_down
from kgpair.dispersion import _require_count, _require_positive
from kgpair.reporting import curve_csv

MAX_GRID_3D = 64
MAX_GRID_1D = MAX_GRID_3D**3  # as many points as the largest 3-D grid
MAX_DENSE_SYMBOL = 4096
_CHUNK_POINTS = 32768  # support entries per block of pseudo_product (whole rows)
_STACK_TRIALS = 16  # trials per stack of fields in the operator probes
PROFILE_N = 1 << 16  # fine lattice of profile_l1_constant
# holder_bound_probe: its 1-D grid (points, box length) and Hoelder exponents (p, q, r)
HOLDER_N = 128
HOLDER_BOX = 64.0
HOLDER_EXPONENTS = ((2.0, 2.0, 1.0), (4.0, 4.0, 2.0), (6.0, 3.0, 2.0))
# localized 3-D field of shell_weighted_ratio: points per axis and box length
SHELL_N = 64
SHELL_BOX = 128.0
_SHELL_SLAB = 8  # x-planes per slab of shell_weighted_ratio: a power of two dividing SHELL_N
# exp(x) rounds to +0.0 for every x below -745.133 (subnormal results reach
# down to there), so no argument below this floor needs evaluating
_EXP_FLOOR = -746.0


def _exp_above_floor(arg: np.ndarray) -> np.ndarray:
    """``np.exp(arg)`` with its bits, evaluated only where arg is not below
    _EXP_FLOOR: numpy takes a slow path for arguments that underflow, and
    each of those gives +0.0.  A NaN argument fails the comparison, so it is
    evaluated and stays NaN."""
    out = np.zeros(arg.shape)
    live = ~(arg < _EXP_FLOOR)
    out[live] = np.exp(arg[live])
    return out


class TruncationWarning(UserWarning):
    """The sampled symbol carries significant mass at the edge of the lattice."""


def _check_grid(n: int, dims: int):
    if dims not in (1, 3):
        raise ValueError("dims must be 1 or 3")
    n = _require_count("grid size n", n, 2, MAX_GRID_1D if dims == 1 else MAX_GRID_3D)
    if n & (n - 1):
        raise ValueError("grid size must be a power of two")


@dataclass(frozen=True)
class SpectralField:
    """Periodic grid function stored as Fourier coefficients.

    The grid axes are the trailing ``dims`` axes of ``coef``. Leading axes,
    if any, index a stack of independent fields on the same grid: the
    transforms and ``pseudo_product`` act on each of them, ``row_lp_norms``
    gives the norms of each, and ``lp_norms`` and ``spectral_l2`` treat
    ``coef`` as one field.
    """

    dims: int
    n: int
    box_length: float
    coef: np.ndarray

    def __post_init__(self):
        _check_grid(self.n, self.dims)
        _require_positive("box_length", self.box_length)
        expected = (self.n,) * self.dims
        if self.coef.shape[-self.dims:] != expected:
            raise ValueError(f"coefficient shape {self.coef.shape} does not end in {expected}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, dims: int, n: int, box_length: float) -> "SpectralField":
        _check_grid(n, dims)
        return cls(dims, n, box_length, np.zeros((n,) * dims, dtype=complex))

    @classmethod
    def from_physical(cls, values, box_length: float, dims: int | None = None,
                      out: np.ndarray | None = None) -> "SpectralField":
        """The field of physical ``values``; ``dims`` counts the trailing grid
        axes and defaults to all of them.  With ``out``, a complex array of
        the shape of ``values``, the coefficients are written there and the
        field holds it; the bits are the same."""
        # one complex copy, fresh or ``out``, transformed (out= needs numpy
        # 2.0) and scaled in place; the caller's ``values`` are never written
        if out is None:
            coef = np.array(values, dtype=complex)
        else:
            coef = out
            np.copyto(coef, values)
        # the field is built around the copy first, so its one check of the
        # grid, box and shape runs before any transform work
        field = cls(coef.ndim if dims is None else dims, coef.shape[-1], box_length, coef)
        dims = field.dims
        # the 1-D transform skips fftn's axis bookkeeping; the bits are the same
        if dims == 1:
            np.fft.fft(coef, out=coef)
        else:
            np.fft.fftn(coef, axes=(-3, -2, -1), out=coef)
        coef *= field.h**dims / (2.0 * math.pi) ** (dims / 2.0)
        return field

    # -- geometry -------------------------------------------------------------

    @property
    def dxi(self) -> float:
        return 2.0 * math.pi / self.box_length

    @property
    def h(self) -> float:
        return self.box_length / self.n

    def frequency_axis(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.h)

    def frequency_norms(self) -> np.ndarray:
        axis = self.frequency_axis()
        if self.dims == 1:
            return np.abs(axis)
        # open grids: the squares broadcast into one full-size array
        grids = np.meshgrid(*([axis] * self.dims), indexing="ij", sparse=True)
        return np.sqrt(sum(g * g for g in grids))

    # -- evaluation and norms ---------------------------------------------------

    def to_physical(self, out: np.ndarray | None = None) -> np.ndarray:
        """The physical values, in a fresh array or, with ``out`` (a complex
        array of the shape of ``coef``, which may be ``coef`` itself), in
        ``out``; the bits are the same."""
        scale = self.n**self.dims * self.dxi**self.dims
        coef = self.coef
        if self.dims == 1:
            values = np.fft.ifft(coef, out=out)
        else:
            values = np.fft.ifftn(coef, axes=(-3, -2, -1), out=out)
        # scaled in place: the same products as ``values * factor``
        values *= scale / (2.0 * math.pi) ** (self.dims / 2.0)
        return values

    def lp_norm(self, p: float) -> float:
        return self.lp_norms(p)[0]

    def lp_norms(self, *ps: float) -> tuple:
        """The L^p norms for each exponent of ``ps`` from one physical-space
        transform; every exponent must be >= 1 or +inf."""
        return self._norms_of_rows((1, -1), ps)[0]  # the whole stack as one row

    def row_lp_norms(self, *ps: float) -> list:
        """``lp_norms(*ps)`` of each field of the stack, with the same bits:
        one tuple per field, the leading axes taken in C order, from one
        transform of the whole stack."""
        return self._norms_of_rows((-1, self.n**self.dims), ps)

    def _norms_of_rows(self, shape: tuple, ps) -> list:
        for p in ps:
            if not p >= 1:  # also rejects nan
                raise ValueError(f"p must be >= 1 or +inf, got {p}")
        values = np.abs(self.to_physical()).reshape(shape)
        columns = []
        for p in ps:
            if p == math.inf:
                columns.append(values.max(axis=-1).tolist())
            else:
                sums = np.sum(values**p, axis=-1) * self.h**self.dims
                # each root a scalar power: numpy's array power takes a SIMD
                # path that rounds some roots differently
                columns.append([float(total ** (1.0 / p)) for total in sums])
        return [tuple(column[row] for column in columns) for row in range(values.shape[0])]

    def spectral_l2(self) -> float:
        return float(
            math.sqrt(np.sum(np.abs(self.coef) ** 2) * self.dxi**self.dims)
        )

    # -- algebra ----------------------------------------------------------------

    def with_coef(self, coef) -> "SpectralField":
        return SpectralField(self.dims, self.n, self.box_length, np.asarray(coef, dtype=complex))

    def apply_multiplier(self, multiplier) -> "SpectralField":
        """Multiply the coefficients by multiplier(frequency vector array)."""
        if callable(multiplier):
            weights = multiplier(self._frequency_vectors())
        else:
            weights = np.asarray(multiplier)
        return self.with_coef(self.coef * weights)

    def _frequency_vectors(self):
        axis = self.frequency_axis()
        if self.dims == 1:
            return axis
        grids = np.meshgrid(*([axis] * self.dims), indexing="ij")
        return np.stack(grids, axis=-1)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return self.with_coef(self.coef + other.coef)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return self.with_coef(self.coef - other.coef)

    def __mul__(self, scalar) -> "SpectralField":
        return self.with_coef(self.coef * scalar)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "SpectralField"):
        if (self.dims, self.n, self.box_length) != (other.dims, other.n, other.box_length):
            raise ValueError("fields live on different grids")

    # -- serialization ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Flat binary block: dims, per-axis sizes, box_length (little-endian
        64-bit), then interleaved real/imaginary doubles in C order."""
        header = struct.pack("<Q", self.dims)
        header += struct.pack(f"<{self.dims}Q", *((self.n,) * self.dims))
        header += struct.pack("<d", self.box_length)
        flat = np.empty(2 * self.coef.size)
        flat[0::2] = self.coef.real.ravel()
        flat[1::2] = self.coef.imag.ravel()
        return header + flat.astype("<f8").tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SpectralField":
        """Inverse of ``to_bytes``.  The grid sizes are checked before anything
        is allocated; a malformed blob raises ValueError."""
        if len(blob) < 8:
            raise ValueError("blob is shorter than its header")
        (dims,) = struct.unpack_from("<Q", blob, 0)
        if dims not in (1, 3):
            raise ValueError(f"dims must be 1 or 3, got {dims}")
        offset = 8 * (dims + 2)
        if len(blob) < offset:
            raise ValueError("blob is shorter than its header")
        sizes = struct.unpack_from(f"<{dims}Q", blob, 8)
        (box_length,) = struct.unpack_from("<d", blob, offset - 8)
        if len(set(sizes)) != 1:
            raise ValueError("per-axis sizes must agree")
        n = sizes[0]
        _check_grid(n, dims)
        if len(blob) != offset + 16 * n**dims:
            raise ValueError("payload size does not match header")
        # read as complex, not as re + 1j*im, which turns a -0.0 real part into 0.0
        coef = np.frombuffer(blob, dtype="<c16", offset=offset).reshape((n,) * dims).astype(complex)
        return cls(int(dims), int(n), float(box_length), coef)

    def spectrum_csv(self) -> str:
        """CSV dump of the spectrum: frequency coordinates, re, im."""
        vecs = self._frequency_vectors().reshape(-1, self.dims)
        columns = {f"xi_{i}": vecs[:, i] for i in range(self.dims)}
        columns["re"] = self.coef.real.ravel()
        columns["im"] = self.coef.imag.ravel()
        return curve_csv(columns)


# ---------------------------------------------------------------------------
# Littlewood-Paley projections
# ---------------------------------------------------------------------------

def _lp_low_profile(r):
    # 1 on |xi| <= 3/4, 0 on |xi| >= 1; the dyadic difference of its
    # rescalings is supported in the annulus (3/4, 2) with plateau [1, 3/2]
    return edge_down(r, 0.75, 1.0)


def lp_psi(r):
    """Annulus profile: supp in (3/4, 2), identically 1 on [1, 3/2]."""
    r = np.asarray(r, dtype=float)
    return _lp_low_profile(r / 2.0) - _lp_low_profile(r)


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


# ---------------------------------------------------------------------------
# Pseudo-product operators
# ---------------------------------------------------------------------------

def _leading_shape(freqs) -> tuple:
    # frequency coordinates are a flat (n,) axis in 1-D and an (..., 3)
    # vector array in 3-D; factors return arrays of the leading shape
    freqs = np.asarray(freqs)
    return freqs.shape[:-1] if freqs.ndim > 1 else freqs.shape


@dataclass(frozen=True)
class SymbolGrid:
    """Bilinear symbol m(xi, eta): a callable or separable factors.

    Callables receive lattice frequency arrays (fundamental domain); the
    operator itself treats the difference xi - eta cyclically.  Separable
    factors receive the frequency coordinates (signed values in 1-D, vectors
    with a trailing component axis in 3-D).  A cyclic ridge (1-D only) takes
    its real profile g = profile(frequency axis) and an integer lam.

    A lattice-shift expansion (1-D only) holds terms (a, b, c) with integer
    shifts: m(xi, eta) = sum c exp(i (a xi + b eta) h) on a grid of step h.
    The shifts count grid points, so the terms give the same lattice
    operator on every grid, T_m(f, g)(x) = sum c f(x + (a + b) h) g(x + a h),
    while the symbol as a function of the frequencies scales with the step:
    on a grid of step k h it is m(k xi, k eta) of the symbol at step h.  Its
    bound constant is exactly the sum of |c| once terms whose shifts agree
    modulo n are merged: no table is built for it.
    """

    fn: object = None
    factor_eta: object = None
    factor_diff: object = None
    ridge_profile: object = None
    ridge_lambda: int = 0
    expansion: tuple = None  # (shifts, coefficients) of a lattice-shift expansion
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_callable(cls, fn) -> "SymbolGrid":
        return cls(fn=fn)

    @classmethod
    def separable(cls, factor_eta, factor_diff) -> "SymbolGrid":
        return cls(factor_eta=factor_eta, factor_diff=factor_diff)

    @classmethod
    def constant(cls, value: float = 1.0) -> "SymbolGrid":
        return cls(factor_eta=lambda freqs: value, factor_diff=None)

    @classmethod
    def cyclic_ridge(cls, profile, lam: float) -> "SymbolGrid":
        """The ridge m(xi_a, eta_b) = g[(a - lam*b) mod n], g = profile(xi):
        profile(xi - lam*eta) with the difference wrapped onto the lattice.
        ``lam`` must be an integer (a float with an integer value is taken)."""
        if not (math.isfinite(lam) and lam == int(lam)):
            raise ValueError(f"ridge lambda must be an integer, got {lam}")
        return cls(ridge_profile=profile, ridge_lambda=int(lam))

    @classmethod
    def lattice_expansion(cls, shifts, coefs) -> "SymbolGrid":
        """The expansion sum_k coefs[k] exp(i (a_k xi + b_k eta) h) with
        (a_k, b_k) = shifts[k], a (k, 2) array of integers (floats with an
        integer value are taken); every coefficient must be finite."""
        shifts, coefs = np.asarray(shifts), np.asarray(coefs, dtype=complex)
        if coefs.ndim != 1 or shifts.shape != (coefs.size, 2):
            raise ValueError(f"expansion needs a ({coefs.size}, 2) array of shifts, got {shifts.shape}")
        if not np.isfinite(coefs).all():
            raise ValueError("expansion coefficients must be finite")
        for value in shifts.ravel().tolist():
            if not (math.isfinite(value) and value == int(value)):
                raise ValueError(f"lattice shifts must be integers, got {value}")
        return cls(expansion=(tuple((int(a), int(b)) for a, b in shifts.tolist()), tuple(coefs.tolist())))

    @property
    def is_separable(self) -> bool:
        return self.fn is None and self.ridge_profile is None and self.expansion is None

    def _lattice_terms(self, grid: SpectralField) -> tuple:
        """The expansion's terms on ``grid`` as arrays (a, b, c): shifts
        reduced modulo n, terms of equal shifts merged, sorted by (a, b)."""
        if grid.dims != 1:
            raise ValueError("a lattice-shift expansion lives on 1-D grids")
        n = grid.n
        shifts, coefs = self.expansion
        shifts = np.array(shifts, dtype=np.int64).reshape(-1, 2) % n
        keys, merged_at = np.unique(shifts[:, 0] * n + shifts[:, 1], return_inverse=True)
        merged = np.zeros(keys.size, dtype=complex)
        np.add.at(merged, merged_at, coefs)
        return keys // n, keys % n, merged

    def _ridge_samples(self, grid: SpectralField) -> np.ndarray:
        """The cyclic ridge's profile g on the frequency axis of ``grid``."""
        return np.asarray(self.ridge_profile(grid.frequency_axis()), dtype=float)

    def materialize(self, grid: SpectralField) -> np.ndarray:
        """The (n, n) coefficient table used by the dense 1-D operator."""
        if grid.dims != 1:
            raise ValueError("symbol tables are only materialized on 1-D grids")
        if self.expansion is not None:
            raise ValueError("a lattice-shift expansion is applied without a table")
        n = grid.n
        if n > MAX_DENSE_SYMBOL:
            raise ValueError(f"dense symbol tables are limited to n <= {MAX_DENSE_SYMBOL}")
        key = (n, grid.box_length)
        if key in self._cache:
            return self._cache[key]
        xi = grid.frequency_axis()
        if self.fn is not None:
            out = np.asarray(self.fn(xi[:, None], xi[None, :]), dtype=complex)
            try:
                out = np.broadcast_to(out, (n, n))
            except ValueError:
                raise ValueError(
                    f"symbol callable returned shape {out.shape}, which does not "
                    f"broadcast to ({n}, {n})"
                ) from None
        elif self.ridge_profile is not None:
            idx = np.arange(n)
            diag = (idx[:, None] - (self.ridge_lambda % n) * idx[None, :]) % n
            out = self._ridge_samples(grid)[diag].astype(complex)
        else:
            diff_idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
            eta_part = self._eval_factor(self.factor_eta, xi)[None, :]
            diff_part = self._eval_factor(self.factor_diff, xi)[diff_idx]
            out = (np.ones((n, n), dtype=complex) * eta_part) * diff_part
        self._cache[key] = out
        return out

    def support(self, grid: SpectralField) -> tuple:
        """The nonzero entries of ``materialize(grid)`` in CSR form.

        Returns ``(rows, starts, cols)``: the nonempty row ids (xi indices),
        the start of each row's segment and per entry the eta index, in row
        order with ascending columns.  Built once per grid: from the dense
        table (intp indices; the entries' values are kept beside them), or
        for a cyclic ridge from its band alone, with no n x n array and int32
        indices up to n = 2^15 (int64 above).  Each entry's cyclic difference
        (xi - eta) mod n and value are derived per block by
        ``_support_blocks``; a ridge reads its values from the n-point
        profile, so it keeps 4 bytes per entry up to n = 2^15.
        """
        key = ("support", grid.n, grid.box_length)
        if key not in self._cache:
            n = grid.n
            mask, shift = n - 1, n.bit_length() - 1
            if self.ridge_profile is not None:
                # column b holds the rows a = (k + lam*b) mod n, k in supp g;
                # sorting the keys a*n + b puts the entries in row order with
                # ascending columns (n is a power of two: & and shifts are
                # exact).  One key array, updated in place, becomes the row
                # ids; up to n = 2^15 every key and every lam*b stays below
                # 2^30, so int32 holds them
                lam = self.ridge_lambda % n
                values = self._ridge_samples(grid)
                dtype = np.int32 if n <= 1 << 15 else np.int64
                b = np.arange(n, dtype=dtype)[:, None]
                entries = np.empty((n, np.count_nonzero(values)), dtype=dtype)
                entries[:] = np.flatnonzero(values)
                entries += lam * b
                entries &= mask
                entries <<= shift
                entries |= b
                entries = entries.ravel()
                entries.sort()
                cols = entries & mask
                entries >>= shift
            else:
                table = self.materialize(grid)
                entries, cols = np.nonzero(table)
                values = table[entries, cols]
            # row k spans bounds[k]:bounds[k+1] of the sorted row ids; unlike
            # np.bincount, searchsorted takes int32 ids without an intp copy
            bounds = np.searchsorted(entries, np.arange(n + 1, dtype=entries.dtype))
            rows = np.flatnonzero(np.diff(bounds)).astype(cols.dtype, copy=False)
            self._cache[key] = (rows, bounds[rows], cols)
            self._cache[("values", n, grid.box_length)] = values
        return self._cache[key]

    def _support_blocks(self, grid: SpectralField, window: int):
        """The support in blocks of whole rows: each block takes every row
        that starts within ``window`` entries of its first entry.  Yields
        per block the row ids, each row's offset in the block, and per entry
        the column, the cyclic difference (xi - eta) mod n and the value."""
        rows, starts, cols = self.support(grid)
        values = self._cache[("values", grid.n, grid.box_length)]
        mask, lam = grid.n - 1, self.ridge_lambda % grid.n
        counts = np.diff(starts, append=cols.size)
        s0 = 0
        while s0 < rows.size:
            e0 = starts[s0]
            s1 = int(np.searchsorted(starts, e0 + window))
            e1 = starts[s1] if s1 < rows.size else cols.size
            block_cols = cols[e0:e1]
            # each entry's row id, in the dtype of the columns
            ids = np.repeat(rows[s0:s1], counts[s0:s1])
            if self.ridge_profile is None:
                vals = values[e0:e1]
            else:
                # the profile index (a - lam*b) mod n; |lam*b| < 2^30 in int32
                idx = block_cols * -lam
                idx += ids
                idx &= mask
                vals = np.take(values, idx)
                del idx
            ids -= block_cols
            ids &= mask
            yield rows[s0:s1], starts[s0:s1] - e0, block_cols, ids, vals
            s0 = s1

    @staticmethod
    def _eval_factor(factor, freqs):
        if factor is None:
            return np.ones(_leading_shape(freqs), dtype=complex)
        return np.broadcast_to(np.asarray(factor(freqs), dtype=complex), _leading_shape(freqs))


def pseudo_product(symbol: SymbolGrid, f: SpectralField, g: SpectralField) -> SpectralField:
    """Bilinear operator with the stated lattice quadrature normalization.

    Separable symbols go through two multipliers and one physical-space
    product.  A lattice-shift expansion (1-D only) goes through one
    transform of each of f and g and the sum of c * F(x + (a + b) h)
    G(x + a h) over its merged terms, as rolls of the physical values.
    Other symbols (1-D only) sum over the symbol's nonzero support
    (``SymbolGrid.support``): O(nnz) work per call after one build per
    (symbol, grid), taken in blocks of whole rows of about _CHUNK_POINTS
    terms (``SymbolGrid._support_blocks``), each of which derives its
    entries' row ids, differences (xi - eta) mod n and, for a cyclic ridge,
    values g[(xi - lam*eta) mod n]; so a call holds one block of terms at a
    time.  Output modes outside the support are exactly zero, so a NaN or
    inf in f or g reaches only the rows of the support.

    ``f`` and ``g`` may be stacks of fields (leading axes, see
    ``SpectralField``) whose leading shapes broadcast; each field of the
    result is the product of the matching fields, with the bits of one call
    per pair.
    """
    f._check_same_grid(g)
    d = f.dims
    if symbol.is_separable:
        af = f.apply_multiplier(lambda v: SymbolGrid._eval_factor(symbol.factor_eta, v))
        bg = g.apply_multiplier(lambda v: SymbolGrid._eval_factor(symbol.factor_diff, v))
        return SpectralField.from_physical(af.to_physical() * bg.to_physical(), f.box_length, d)
    if d != 1:
        raise ValueError("non-separable symbols are only supported on 1-D grids")
    if symbol.expansion is not None:
        return _expansion_product(symbol, f, g)
    shape = np.broadcast_shapes(f.coef.shape, g.coef.shape)
    fc, gc = np.broadcast_to(f.coef, shape), np.broadcast_to(g.coef, shape)
    out = np.zeros(shape, dtype=complex)
    # a block spans this many entries of each field, so about _CHUNK_POINTS in all
    window = max(1, _CHUNK_POINTS // math.prod(shape[:-1]))
    for rows, offsets, cols, diffs, vals in symbol._support_blocks(f, window):
        # f's terms (complex, so real fields promote), then in place the
        # values and g's terms.  f first: on supports of 16384 entries or
        # more numpy elided the former one-pass product's 256 KiB temporary
        # as f.coef[cols] * vals, and the other operand order rounds complex
        # values differently (FMA); on smaller complex supports, which it
        # took as vals * f.coef[cols], a term may differ in the last bit.
        # np.take gathers with int32 indices faster than [] does
        terms = np.take(fc, cols, axis=-1).astype(complex, copy=False)
        terms *= vals
        terms *= np.take(gc, diffs, axis=-1)
        out[..., rows] = np.add.reduceat(terms, offsets, axis=-1)
    return f.with_coef(out * _quadrature_constant(f))


def _expansion_product(symbol: SymbolGrid, f: SpectralField, g: SpectralField) -> SpectralField:
    # exp(i b eta h) f^(eta) is the transform of f(x + b h), and exp(i a xi h)
    # shifts the product by a h: per distinct a, the weighted translates of F
    # are summed first and take one product with G
    n = f.n
    big_f, big_g = f.to_physical(), g.to_physical()
    wrapped = np.concatenate([big_f, big_f], axis=-1)  # F(x + b h) is wrapped[..., b:b + n]
    total = np.zeros(np.broadcast_shapes(big_f.shape, big_g.shape), dtype=complex)
    shifts_a, shifts_b, coefs = symbol._lattice_terms(f)
    runs = np.flatnonzero(np.diff(shifts_a, prepend=-1, append=n)).tolist()
    for start, stop in zip(runs[:-1], runs[1:]):
        weighted = sum(c * wrapped[..., b:b + n]
                       for b, c in zip(shifts_b[start:stop].tolist(), coefs[start:stop].tolist()))
        total += np.roll(weighted * big_g, -int(shifts_a[start]), axis=-1)
    return SpectralField.from_physical(total, f.box_length, 1)


def _quadrature_constant(grid: SpectralField) -> float:
    # (2 pi)^{-d/2} dxi^d of the lattice quadrature in the module docstring
    return grid.dxi**grid.dims / (2.0 * math.pi) ** (grid.dims / 2.0)


def symbol_l1_norm(symbol: SymbolGrid, grid: SpectralField) -> float:
    """Sharp discrete operator-bound constant: the l1 sum of the symbol's
    inverse-DFT coefficients on the product lattice.

    Warns when more than 1 % of the coefficient mass sits at the edge of the
    lattice (the truncated symbol is then unreliable).  A cyclic ridge has no
    lattice cut: its sum is the exact 1-D one of its profile, with no table
    and no warning.  Nor has a lattice-shift expansion: the inverse DFT of
    its table is c at each merged shift (a mod n, b mod n), so its sum is
    the sum of |c| over the merged terms, again with no table or warning.
    """
    if symbol.expansion is not None:
        return float(np.abs(symbol._lattice_terms(grid)[2]).sum())
    if symbol.ridge_profile is not None:
        if grid.dims != 1:
            raise ValueError("a cyclic ridge lives on 1-D grids")
        return _coefficient_l1(symbol._ridge_samples(grid))
    table = symbol.materialize(grid)
    coeffs = np.abs(np.fft.ifft2(table))
    total = float(coeffs.sum())
    n = grid.n
    idx = np.minimum(np.arange(n), n - np.arange(n))
    outer = idx > (3 * n) // 8
    boundary = float(coeffs[outer, :].sum() + coeffs[:, outer].sum() - coeffs[np.ix_(outer, outer)].sum())
    if total > 0.0 and boundary / total > 0.01:
        warnings.warn(
            f"{boundary / total:.1%} of the symbol coefficient mass is at the "
            "lattice boundary; the bound constant may be truncated",
            TruncationWarning,
            stacklevel=2,
        )
    return total


def _coefficient_l1(samples) -> float:
    # the l1 sum of the inverse-DFT coefficients of a cyclic profile g; for
    # the table g[(a - lam*b) mod n] with integer lam, the 2-D coefficients
    # are ifft(g)[x] on the line y = -lam*x (mod n) and zero elsewhere, so
    # this 1-D sum is exactly its symbol_l1_norm
    return float(np.abs(np.fft.ifft(samples)).sum())


def profile_l1_constant(profile, rho: float) -> float:
    """Operator-bound constant of the one-variable ridge profile chi(./rho).

    For m(xi, eta) = chi((xi - lambda*eta)/rho) with lattice-commensurable
    lambda, the 2-D coefficient sum collapses to this 1-D inverse-DFT sum,
    taken on the fine lattice of PROFILE_N points at spacing 1.25e-4.
    """
    xi = 1.25e-4 * np.fft.fftfreq(PROFILE_N, d=1.0 / PROFILE_N)
    return _coefficient_l1(profile(xi / rho))


def snap_lambda(lam: float) -> tuple[float, float]:
    """Round the colinearity ratio to the nearest integer (lattice-exact on
    coarse grids); returns (snapped, relative error)."""
    snapped = float(round(lam))
    if snapped == 0.0:
        snapped = math.copysign(1.0, lam)
    return snapped, abs(snapped - lam) / max(abs(lam), 1e-300)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def _stacks(trials: int):
    """The trial numbers 0 .. trials-1 in consecutive ranges of at most
    _STACK_TRIALS, one per stack of fields."""
    return (range(t, min(t + _STACK_TRIALS, trials)) for t in range(0, trials, _STACK_TRIALS))


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


def _packet(xi: np.ndarray, center: float, width: float, x0: float) -> np.ndarray:
    # envelope times phase on the envelope's live modes, +0 elsewhere (where
    # the full product is a signed zero)
    arg = -((xi - center) ** 2) / (2.0 * width**2)
    live = np.flatnonzero(~(arg < _EXP_FLOOR))
    out = np.zeros(xi.shape, dtype=complex)
    out[live] = np.exp(arg[live]) * np.exp(-1j * xi[live] * x0)
    return out


def _ridge_carrier_products(symbol: SymbolGrid, grid: SpectralField, b, d) -> np.ndarray:
    """``pseudo_product(symbol, e_b, e_d).coef`` of a cyclic ridge for the
    one-hot pairs of the index arrays ``b`` and ``d``, one row each, from the
    one term const * m(b + d, b) at mode b + d.  The product sums that term
    with +0 terms, so the bits are the same."""
    n = grid.n
    a = (b + d) % n
    values = symbol._ridge_samples(grid)[(a - symbol.ridge_lambda * b) % n]
    out = np.zeros((len(a), n), dtype=complex)
    out[np.arange(len(a)), a] = values * _quadrature_constant(grid)
    return out


def ridge_bound_probe(trials: int = 12, seed: int = 0) -> dict:
    """Uniformity-in-rho probe for the translation-type symbol chi((xi - lam*eta)/rho).

    The symbol is the cyclic ridge g[(a - lam*b) mod n] with
    g = bump(frequency axis / rho) and lam = 2, on the 1-D grid of 1024
    points on a box of length 1310.72.  For each rho in (1, 0.1, 0.01): the
    fine-lattice profile constant (the continuum bound), the grid constant
    (the sharp bound of this discrete operator: the l1 sum of g's inverse-DFT
    coefficients, which equals the 2-D sum over the cyclic table), and the
    measured L^4 x L^4 -> L^2 operator ratio over ridge-adapted carrier and
    packet pairs and over random fields.  Every ratio is at most the grid
    constant; the continuum bound is rho-independent, and the adapted
    ratios inherit that uniformity.  Trial t draws from its own generator,
    seeded (seed, t).  The trials run in stacks of up to _STACK_TRIALS: per
    stack and rho, one product of the packet and random pairs and one
    transform each of the f, g and product stacks; the carrier products
    are built from their one term.
    """
    lam, lam_err = snap_lambda(2.0)
    p, q, r = 4.0, 4.0, 2.0
    grid = SpectralField.zeros(1, 1024, 1310.72)
    n, dxi = grid.n, grid.dxi
    xi = grid.frequency_axis()
    rows = []
    for rho in (1.0, 1e-1, 1e-2):
        profile = lambda k, rho=rho: bump(k / rho)
        symbol = SymbolGrid.cyclic_ridge(profile, lam)
        k_fine = profile_l1_constant(bump, rho)
        k_grid = _coefficient_l1(profile(xi))
        adapted = 0.0
        packet = math.nan
        randomized = 0.0
        width = rho / 8.0
        packets = width >= 2.0 * dxi
        for stack in _stacks(trials):
            # kinds of pair along axis 0: carriers, packets (when they fit), random
            fs = np.zeros((3 if packets else 2, len(stack), n), dtype=complex)
            gs = np.zeros_like(fs)
            modes = np.empty(len(stack), dtype=int)
            partners = np.empty_like(modes)
            for i, t in enumerate(stack):
                rng = np.random.default_rng((seed, t))
                mode = 80 + int(rng.integers(0, 40))
                eta0 = mode * dxi
                # exact ridge-aligned carrier pair: the extremal input at any rho
                modes[i], partners[i] = mode, int(round((lam - 1.0) * mode)) % n
                fs[0, i, mode] = 1.0
                gs[0, i, partners[i]] = 1.0
                if packets:
                    # rho-scaled packet pair, co-located so the packets interact
                    x0 = rng.uniform(0.0, grid.box_length)
                    fs[1, i] = _packet(xi, eta0, width, x0)
                    gs[1, i] = _packet(xi, (lam - 1.0) * eta0, width, x0)
                fs[-1, i] = rng.normal(size=n) + 1j * rng.normal(size=n)
                gs[-1, i] = rng.normal(size=n) + 1j * rng.normal(size=n)
            ts = np.empty_like(fs)
            ts[0] = _ridge_carrier_products(symbol, grid, modes, partners)
            ts[1:] = pseudo_product(symbol, grid.with_coef(fs[1:]), grid.with_coef(gs[1:])).coef
            norms = zip(grid.with_coef(ts).row_lp_norms(r), grid.with_coef(fs).row_lp_norms(p),
                        grid.with_coef(gs).row_lp_norms(q))
            ratios = [tn / (fn * gn) for (tn,), (fn,), (gn,) in norms]
            # the maxima take the trials in order, each trial's kinds in order
            by_kind = [ratios[k:k + len(stack)] for k in range(0, len(ratios), len(stack))]
            for i in range(len(stack)):
                adapted = max(adapted, by_kind[0][i])
                if packets:
                    value = by_kind[1][i]
                    packet = value if math.isnan(packet) else max(packet, value)
                    adapted = max(adapted, value)
                randomized = max(randomized, by_kind[-1][i])
        rows.append(
            {
                "rho": float(rho),
                "profile_constant": k_fine,
                "grid_constant": k_grid,
                "adapted_ratio": adapted,
                "packet_ratio": packet,
                "random_ratio": randomized,
            }
        )
    return {
        "schema": "ridge-probe/1",
        "lambda": lam,
        "lambda_snap_error": lam_err,
        "exponents": [p, q, r],
        "rows": rows,
    }


def _slab_total(slab_sums) -> float:
    """The sum of the per-slab ``np.sum`` values in the order of np.sum over
    all slabs at once: numpy sums a contiguous array pairwise, splitting it
    into halves down to blocks of 128, so for a power-of-two count of equal
    slabs of at least 128 values the halves are sums of whole slabs."""
    while len(slab_sums) > 1:
        slab_sums = [a + b for a, b in zip(slab_sums[0::2], slab_sums[1::2])]
    return slab_sums[0]


def shell_weighted_ratio(R: float, pairs) -> list:
    """Measured ||chi((|D|-R)/rho) f||_2 / || |x|^s f ||_2 for each (rho, s)
    of ``pairs``, on one localized 3-D field: a Gaussian of width 1.5 on the
    SHELL_N^3 grid of the SHELL_BOX box, built and transformed once per call.
    The numerator depends on rho alone and the denominator on s alone: each
    is taken once per distinct value.

    The work runs in slabs of _SHELL_SLAB x-planes: the Gaussian is written
    slab by slab into the one complex array that is then transformed in
    place, and the |x|^s sums, the frequency norms, the shell weights and
    |f^ chi|^2 are taken per slab.  The slab sums are added in np.sum's
    pairwise order, so every ratio has the bits of the whole-array sums."""
    h = SHELL_BOX / SHELL_N
    grid_x = (np.arange(SHELL_N) - SHELL_N / 2.0) * h
    xg, yg, zg = np.meshgrid(grid_x, grid_x, grid_x, indexing="ij", sparse=True)
    x2, y2, z2 = xg**2, yg**2, zg**2
    slabs = [slice(x, x + _SHELL_SLAB) for x in range(0, SHELL_N, _SHELL_SLAB)]
    moments = {s: [] for _, s in pairs}  # per distinct s, its slab sums
    coef = np.empty((SHELL_N,) * 3, dtype=complex)
    for slab in slabs:
        r2 = x2[slab] + y2 + z2
        values = _exp_above_floor(-r2 / (2.0 * 1.5**2))  # most of the box underflows
        coef[slab] = values
        density = np.abs(values) ** 2
        for s, sums in moments.items():
            sums.append(np.sum(r2**s * density))
    f = SpectralField.from_physical(coef, SHELL_BOX, out=coef)
    weighted = {s: float(math.sqrt(_slab_total(sums) * h**3)) for s, sums in moments.items()}
    # f.apply_multiplier(weights).spectral_l2() for each rho, with the same
    # operations and bits slab by slab: |xi| as in frequency_norms, |xi| - R
    # once per slab, and one product buffer for every rho of a slab
    kx, ky, kz = np.meshgrid(*([f.frequency_axis()] * 3), indexing="ij", sparse=True)
    shells = {rho: [] for rho, _ in pairs}  # per distinct rho, its slab sums
    product = np.empty((_SHELL_SLAB, SHELL_N, SHELL_N), dtype=complex)
    for slab in slabs:
        offsets = np.sqrt(sum(k * k for k in (kx[slab], ky, kz)))
        offsets -= R
        for rho, sums in shells.items():
            weights = bump(offsets / rho)
            np.multiply(coef[slab], weights, out=product)
            np.square(np.abs(product, out=weights), out=weights)
            sums.append(np.sum(weights))
    numerators = {rho: float(math.sqrt(_slab_total(sums) * f.dxi**f.dims))
                  for rho, sums in shells.items()}
    return [numerators[rho] / weighted[s] for rho, s in pairs]


def holder_bound_probe(pairs: int = 100, seed: int = 0) -> dict:
    """Measured operator ratios against the discrete bound constant.

    Returns, per symbol of ``default_probe_symbols(seed)`` and exponent
    triple of HOLDER_EXPONENTS, the maximum ratio
    ||T_m(f,g)||_r / (l1(m^) ||f||_p ||g||_q) over random field pairs on the
    HOLDER_N-point grid of the HOLDER_BOX box; the discrete bound guarantees
    the ratio stays below 1 up to roundoff.  The pairs run in stacks of up
    to _STACK_TRIALS: per stack, one transform each of the f and g stacks,
    and one product and one transform of it per symbol.
    """
    grid = SpectralField.zeros(1, HOLDER_N, HOLDER_BOX)
    symbols = default_probe_symbols(seed)
    constants = {name: symbol_l1_norm(symbol, grid) for name, symbol in symbols.items()}
    rng = np.random.default_rng(seed)
    ps, qs, rs = (sorted({t[k] for t in HOLDER_EXPONENTS}) for k in range(3))
    worst = dict.fromkeys(((name, triple) for name in symbols for triple in HOLDER_EXPONENTS), 0.0)
    for stack in _stacks(pairs):
        # each pair draws f.re, f.im, g.re and g.im in turn
        draws = rng.normal(size=(len(stack), 4, HOLDER_N))
        f = grid.with_coef(draws[:, 0] + 1j * draws[:, 1])
        g = grid.with_coef(draws[:, 2] + 1j * draws[:, 3])
        # every norm of one field comes from a single transform of its stack
        f_norms = [dict(zip(ps, row)) for row in f.row_lp_norms(*ps)]
        g_norms = [dict(zip(qs, row)) for row in g.row_lp_norms(*qs)]
        for name, symbol in symbols.items():
            t_norms = [dict(zip(rs, row)) for row in pseudo_product(symbol, f, g).row_lp_norms(*rs)]
            for p, q, r in HOLDER_EXPONENTS:
                key = (name, (p, q, r))
                for tm, fm, gm in zip(t_norms, f_norms, g_norms):
                    worst[key] = max(worst[key], tm[r] / (constants[name] * fm[p] * gm[q]))
    results = [
        {
            "symbol": name,
            "p": p,
            "q": q,
            "r": r,
            "bound_constant": constants[name],
            "max_normalized_ratio": worst[name, (p, q, r)],
        }
        for name, (p, q, r) in worst
    ]
    return {"schema": "holder-probe/1", "pairs": pairs, "seed": seed, "rows": results}


def default_probe_symbols(seed: int = 0) -> dict:
    """A spread of smooth test symbols for the operator-bound probe.

    ``random_trig`` is the lattice-shift expansion with shifts a, b in
    -2 .. 2 and coefficients c_ab / (1 + a^2 + b^2), c_ab complex normal
    draws / 25: on the HOLDER_N grid (step 0.5) the trigonometric
    polynomial sum c_ab exp(i (a xi + b eta) / 2) / (1 + a^2 + b^2).
    """
    rng = np.random.default_rng((seed, 777))
    coeffs = (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))) / 25.0
    a, b = np.meshgrid(np.arange(-2, 3), np.arange(-2, 3), indexing="ij")
    trig = SymbolGrid.lattice_expansion(np.stack([a.ravel(), b.ravel()], axis=1),
                                        (coeffs / (1.0 + a * a + b * b)).ravel())
    return {
        "constant": SymbolGrid.constant(1.0),
        "separable_bumps": SymbolGrid.separable(
            lambda eta: bump(np.asarray(eta) / 3.0),
            lambda diff: bump(np.asarray(diff) / 2.0),
        ),
        "gaussian_joint": SymbolGrid.from_callable(
            lambda xi, eta: np.exp(-(xi**2 + eta**2 + 0.3 * xi * eta) / 4.0)
        ),
        "random_trig": trig,
    }
