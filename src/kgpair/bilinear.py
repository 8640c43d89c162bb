"""Periodic spectral fields, dyadic projections, and pseudo-product operators.

Transform conventions on the box [0, L)^d with n points per axis:

    coef(xi)  = (h^d / (2 pi)^{d/2}) * sum_x f(x) exp(-i x.xi),  h = L/n
    f(x)      = (dxi^d / (2 pi)^{d/2}) * sum_xi coef(xi) exp(i x.xi)

with the frequency lattice xi in dxi * Z^d, dxi = 2 pi / L.  The bilinear
operator is the lattice quadrature

    T_m(f,g)^(xi) = (2 pi)^{-d/2} dxi^d sum_eta m(xi,eta) f^(eta) g^(xi-eta)

with the difference taken cyclically; these constants make T_1(f,g) = f*g
exact, which pins every other convention.  Separable symbols are applied as
two multipliers and a physical-space product.  Any other symbol is applied
by summing over its nonzero support, built once per (symbol, grid) in O(n^2)
and then O(nnz) per call; on the thin ridges of the probe symbols that is a
small share of the n^2 lattice.  The sharp discrete operator bound
is then ||T_m(f,g)||_r <= l1(m^) ||f||_p ||g||_q for Hoelder exponents, where
l1(m^) is the plain inverse-DFT coefficient sum computed by
``symbol_l1_norm``.
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
PROFILE_N = 1 << 16  # fine lattice of profile_l1_constant
# Hoelder exponents (p, q, r) of holder_bound_probe
HOLDER_EXPONENTS = ((2.0, 2.0, 1.0), (4.0, 4.0, 2.0), (6.0, 3.0, 2.0))
# localized 3-D field of shell_weighted_ratio: points per axis and box length
SHELL_N = 64
SHELL_BOX = 128.0


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
    """Periodic grid function stored as Fourier coefficients."""

    dims: int
    n: int
    box_length: float
    coef: np.ndarray

    def __post_init__(self):
        _check_grid(self.n, self.dims)
        _require_positive("box_length", self.box_length)
        expected = (self.n,) * self.dims
        if self.coef.shape != expected:
            raise ValueError(f"coefficient shape {self.coef.shape} != {expected}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, dims: int, n: int, box_length: float) -> "SpectralField":
        _check_grid(n, dims)
        return cls(dims, n, box_length, np.zeros((n,) * dims, dtype=complex))

    @classmethod
    def from_physical(cls, values, box_length: float) -> "SpectralField":
        values = np.asarray(values, dtype=complex)
        dims = values.ndim
        n = values.shape[0]
        _check_grid(n, dims)
        h = box_length / n
        coef = np.fft.fftn(values) * (h**dims / (2.0 * math.pi) ** (dims / 2.0))
        return cls(dims, n, box_length, coef)

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
        grids = np.meshgrid(*([axis] * self.dims), indexing="ij")
        return np.sqrt(sum(g * g for g in grids))

    # -- evaluation and norms ---------------------------------------------------

    def to_physical(self) -> np.ndarray:
        scale = self.n**self.dims * self.dxi**self.dims
        return np.fft.ifftn(self.coef) * (scale / (2.0 * math.pi) ** (self.dims / 2.0))

    def lp_norm(self, p: float) -> float:
        return self.lp_norms(p)[0]

    def lp_norms(self, *ps: float) -> tuple:
        """The L^p norms for each exponent of ``ps`` from one physical-space
        transform; every exponent must be >= 1 or +inf."""
        for p in ps:
            if not p >= 1:  # also rejects nan
                raise ValueError(f"p must be >= 1 or +inf, got {p}")
        values = np.abs(self.to_physical())
        return tuple(
            float(values.max()) if p == math.inf
            else float((np.sum(values**p) * self.h**self.dims) ** (1.0 / p))
            for p in ps
        )

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
    with a trailing component axis in 3-D).
    """

    fn: object = None
    factor_eta: object = None
    factor_diff: object = None
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

    @property
    def is_separable(self) -> bool:
        return self.fn is None

    def materialize(self, grid: SpectralField) -> np.ndarray:
        """The (n, n) coefficient table used by the dense 1-D operator."""
        if grid.dims != 1:
            raise ValueError("symbol tables are only materialized on 1-D grids")
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
        else:
            diff_idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
            eta_part = self._eval_factor(self.factor_eta, xi)[None, :]
            diff_part = self._eval_factor(self.factor_diff, xi)[diff_idx]
            out = (np.ones((n, n), dtype=complex) * eta_part) * diff_part
        self._cache[key] = out
        return out

    def support(self, grid: SpectralField) -> tuple:
        """The nonzero entries of ``materialize(grid)`` in CSR form.

        Returns ``(rows, starts, cols, diffs, vals)``: the nonempty row ids
        (xi indices), the start of each row's segment, and per entry the eta
        index, the cyclic difference index (xi - eta) mod n and the value.
        Built once per grid from the dense table.
        """
        key = ("support", grid.n, grid.box_length)
        if key not in self._cache:
            table = self.materialize(grid)
            entries, cols = np.nonzero(table)
            starts = np.flatnonzero(np.diff(entries, prepend=-1))
            self._cache[key] = (
                entries[starts],
                starts,
                cols,
                (entries - cols) % grid.n,
                table[entries, cols],
            )
        return self._cache[key]

    @staticmethod
    def _eval_factor(factor, freqs):
        if factor is None:
            return np.ones(_leading_shape(freqs), dtype=complex)
        return np.broadcast_to(np.asarray(factor(freqs), dtype=complex), _leading_shape(freqs))


def pseudo_product(symbol: SymbolGrid, f: SpectralField, g: SpectralField) -> SpectralField:
    """Bilinear operator with the stated lattice quadrature normalization.

    Separable symbols go through two multipliers and one physical-space
    product.  Other symbols (1-D only) sum over the symbol's nonzero support
    (``SymbolGrid.support``): O(nnz) work per call after one O(n^2) build per
    (symbol, grid).  Output modes outside the support are exactly zero, so a
    NaN or inf in f or g reaches only the rows of the support.
    """
    f._check_same_grid(g)
    d = f.dims
    const = f.dxi**d / (2.0 * math.pi) ** (d / 2.0)
    if symbol.is_separable:
        af = f.apply_multiplier(lambda v: SymbolGrid._eval_factor(symbol.factor_eta, v))
        bg = g.apply_multiplier(lambda v: SymbolGrid._eval_factor(symbol.factor_diff, v))
        return SpectralField.from_physical(af.to_physical() * bg.to_physical(), f.box_length)
    if d != 1:
        raise ValueError("non-separable symbols are only supported on 1-D grids")
    rows, starts, cols, diffs, vals = symbol.support(f)
    terms = vals * f.coef[cols]
    terms *= g.coef[diffs]
    out = np.zeros(f.n, dtype=complex)
    out[rows] = np.add.reduceat(terms, starts)
    return f.with_coef(out * const)


def symbol_l1_norm(symbol: SymbolGrid, grid: SpectralField) -> float:
    """Sharp discrete operator-bound constant: the l1 sum of the symbol's
    inverse-DFT coefficients on the product lattice.

    Warns when more than 1 % of the coefficient mass sits at the edge of the
    lattice (the truncated symbol is then unreliable).
    """
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


def profile_l1_constant(profile, rho: float) -> float:
    """Operator-bound constant of the one-variable ridge profile chi(./rho).

    For m(xi, eta) = chi((xi - lambda*eta)/rho) with lattice-commensurable
    lambda, the 2-D coefficient sum collapses to this 1-D inverse-DFT sum,
    taken on the fine lattice of PROFILE_N points at spacing 1.25e-4.
    """
    xi = 1.25e-4 * np.fft.fftfreq(PROFILE_N, d=1.0 / PROFILE_N)
    return float(np.abs(np.fft.ifft(profile(xi / rho))).sum())


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

def bernstein_check(j: int, p: float, q: float, trials: int = 100, seed: int = 0) -> float:
    """Max over random band fields of ||P_j f||_p / (2^{j (1/q - 1/p)} ||P_j f||_q).

    The fields live on the 1-D grid of 2048 points on a box of length 64.
    Trial fields are random superpositions of wave packets at scale 2^j,
    drawn self-similarly so that ratios are comparable across j.
    """
    if not (1 <= q <= p):
        raise ValueError("need 1 <= q <= p")
    base = SpectralField.zeros(1, 2048, 64.0)
    if 2.0 * 2**j > (base.n / 2) * base.dxi:
        raise ValueError("annulus for this j is not representable on the grid")
    best = 0.0
    axis = base.frequency_axis()
    norms = base.frequency_norms()
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
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
        denom, numer = f.lp_norms(q, p)
        if denom == 0.0:
            continue
        ratio = numer / (2.0 ** (j * (1.0 / q - inv_p)) * denom)
        best = max(best, ratio)
    return best


def _packet_field(grid: SpectralField, center: float, width: float, x0: float) -> SpectralField:
    xi = grid.frequency_axis()
    coef = np.exp(-((xi - center) ** 2) / (2.0 * width**2)) * np.exp(-1j * xi * x0)
    return grid.with_coef(coef.astype(complex))


def ridge_bound_probe(trials: int = 12, seed: int = 0) -> dict:
    """Uniformity-in-rho probe for the translation-type symbol chi((xi - lam*eta)/rho).

    For each rho in (1, 0.1, 0.01): the fine-lattice profile constant (the
    theoretical bound), the same-grid constant (the sharp bound for the
    discrete operator), and the measured L^4 x L^4 -> L^2 operator ratio over
    ridge-adapted packet pairs plus random fields, with lam = 2 on the 1-D
    grid of 1024 points on a box of length 1310.72.  The continuum bound is
    rho-independent; adapted measurements inherit that uniformity.
    """
    lam, lam_err = snap_lambda(2.0)
    p, q, r = 4.0, 4.0, 2.0
    grid = SpectralField.zeros(1, 1024, 1310.72)
    n, dxi = grid.n, grid.dxi
    rows = []
    for rho in (1.0, 1e-1, 1e-2):
        symbol = SymbolGrid.from_callable(lambda xi, eta, rho=rho: bump((xi - lam * eta) / rho))
        k_fine = profile_l1_constant(bump, rho)
        with warnings.catch_warnings():
            # the ridge legitimately reaches the lattice edge at large rho
            warnings.simplefilter("ignore", TruncationWarning)
            k_grid = symbol_l1_norm(symbol, grid)
        adapted = 0.0
        packet = math.nan
        randomized = 0.0
        width = rho / 8.0
        for t in range(trials):
            rng = np.random.default_rng((seed, t))
            mode = 80 + int(rng.integers(0, 40))
            eta0 = mode * dxi
            # exact ridge-aligned carrier pair: the extremal input at any rho
            fc = np.zeros(n, dtype=complex)
            gc = np.zeros(n, dtype=complex)
            fc[mode] = 1.0
            gc[int(round((lam - 1.0) * mode)) % n] = 1.0
            f1, g1 = grid.with_coef(fc), grid.with_coef(gc)
            t1 = pseudo_product(symbol, f1, g1)
            adapted = max(adapted, t1.lp_norm(r) / (f1.lp_norm(p) * g1.lp_norm(q)))
            if width >= 2.0 * dxi:
                # rho-scaled packet pair, co-located so the packets interact
                x0 = rng.uniform(0.0, grid.box_length)
                f = _packet_field(grid, eta0, width, x0)
                g = _packet_field(grid, (lam - 1.0) * eta0, width, x0)
                tm = pseudo_product(symbol, f, g)
                value = tm.lp_norm(r) / (f.lp_norm(p) * g.lp_norm(q))
                packet = value if math.isnan(packet) else max(packet, value)
                adapted = max(adapted, value)
            fr = grid.with_coef(rng.normal(size=n) + 1j * rng.normal(size=n))
            gr = grid.with_coef(rng.normal(size=n) + 1j * rng.normal(size=n))
            tr = pseudo_product(symbol, fr, gr)
            randomized = max(randomized, tr.lp_norm(r) / (fr.lp_norm(p) * gr.lp_norm(q)))
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


def shell_weighted_ratio(R: float, pairs) -> list:
    """Measured ||chi((|D|-R)/rho) f||_2 / || |x|^s f ||_2 for each (rho, s)
    of ``pairs``, on one localized 3-D field: a Gaussian of width 1.5 on the
    SHELL_N^3 grid of the SHELL_BOX box, built and transformed once per call."""
    h = SHELL_BOX / SHELL_N
    grid_x = (np.arange(SHELL_N) - SHELL_N / 2.0) * h
    xg, yg, zg = np.meshgrid(grid_x, grid_x, grid_x, indexing="ij")
    r2 = xg**2 + yg**2 + zg**2
    del xg, yg, zg  # 2 MB each; kept, they raise the probe's peak RSS
    values = np.exp(-r2 / (2.0 * 1.5**2))
    f = SpectralField.from_physical(values, SHELL_BOX)
    density = np.abs(values) ** 2
    del values
    norms = np.linalg.norm(f._frequency_vectors(), axis=-1)
    ratios = []
    for rho, s in pairs:
        shell = f.apply_multiplier(bump((norms - R) / rho))
        weighted = float(math.sqrt(np.sum(r2**s * density) * h**3))
        ratios.append(shell.spectral_l2() / weighted)
    return ratios


def holder_bound_probe(
    n: int = 128, box_length: float = 64.0, pairs: int = 100, seed: int = 0
) -> dict:
    """Measured operator ratios against the discrete bound constant.

    Returns, per symbol of ``default_probe_symbols(seed)`` and exponent
    triple of HOLDER_EXPONENTS, the maximum ratio
    ||T_m(f,g)||_r / (l1(m^) ||f||_p ||g||_q) over random field pairs; the
    discrete bound guarantees the ratio stays below 1 up to roundoff.
    """
    grid = SpectralField.zeros(1, n, box_length)
    symbols = default_probe_symbols(seed)
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(pairs):
        f = grid.with_coef(rng.normal(size=n) + 1j * rng.normal(size=n))
        g = grid.with_coef(rng.normal(size=n) + 1j * rng.normal(size=n))
        fields.append((f, g))
    # every norm of one field comes from a single transform of it
    ps, qs, rs = (sorted({t[k] for t in HOLDER_EXPONENTS}) for k in range(3))
    f_norms = [dict(zip(ps, f.lp_norms(*ps))) for f, _ in fields]
    g_norms = [dict(zip(qs, g.lp_norms(*qs))) for _, g in fields]
    results = []
    for name, symbol in symbols.items():
        constant = symbol_l1_norm(symbol, grid)
        t_norms = [dict(zip(rs, pseudo_product(symbol, f, g).lp_norms(*rs))) for f, g in fields]
        for p, q, r in HOLDER_EXPONENTS:
            worst = 0.0
            for tm, fm, gm in zip(t_norms, f_norms, g_norms):
                worst = max(worst, tm[r] / (constant * fm[p] * gm[q]))
            results.append(
                {
                    "symbol": name,
                    "p": p,
                    "q": q,
                    "r": r,
                    "bound_constant": constant,
                    "max_normalized_ratio": worst,
                }
            )
    return {"schema": "holder-probe/1", "pairs": pairs, "seed": seed, "rows": results}


def default_probe_symbols(seed: int = 0) -> dict:
    """A spread of smooth test symbols for the operator-bound probe."""
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

    return {
        "constant": SymbolGrid.constant(1.0),
        "separable_bumps": SymbolGrid.separable(
            lambda eta: bump(np.asarray(eta) / 3.0),
            lambda diff: bump(np.asarray(diff) / 2.0),
        ),
        "gaussian_joint": SymbolGrid.from_callable(
            lambda xi, eta: np.exp(-(xi**2 + eta**2 + 0.3 * xi * eta) / 4.0)
        ),
        "random_trig": SymbolGrid.from_callable(trig_polynomial),
    }
