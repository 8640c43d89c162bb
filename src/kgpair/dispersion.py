"""Dispersion relations and interaction phases for a two-speed Klein-Gordon pair.

The system couples a unit-speed wave (tag ``"1"``) to a wave of speed ``c``
(tag ``"c"``).  A bilinear interaction is labelled by three speed tags
``(k, l, m)`` and three signs ``(s0, s1, s2)``; its phase function is

    phi(xi, eta) = s0*<xi>_k + s1*<eta>_l + s2*<xi - eta>_m

with the bracket ``<x>_a = sqrt(1 + c_a^2 |x|^2)``.  The sign labels are the
literal coefficients of the three brackets, so the serialized index
``"c11+--"`` denotes ``<xi>_c - <eta> - <xi-eta>``.

There are 64 indices.  Negating all three signs flips the sign of the phase,
and exchanging the roles of eta and xi-eta swaps the last two (tag, sign)
slots, so every index reduces to one of 20 canonical representatives.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

SPEED_TAGS = ("c", "1")
SIGNS = (1, -1)
# largest fast speed c and largest 1/c: the closed forms of scan_all give
# finite radii for 1e-153 <= c <= 1e51 (c^2 underflows at 1e-154, and the
# product under the square root of R overflows at 1e52), and the tests check
# the radii against 50-digit values up to 1e16
SPEED_MAX = 1e16
_FLOAT_MAX = sys.float_info.max
_BUILTIN_REAL = (float, int)

_TAG_RANK = {"c": 0, "1": 1}
_SIGN_CHAR = {1: "+", -1: "-"}
_CHAR_SIGN = {"+": 1, "-": -1}


def _require_positive(name: str, value, hi: float = _FLOAT_MAX) -> float:
    """``float(value)`` for a real number in (0, hi], else a ValueError naming it.

    NaN fails both comparisons and inf exceeds any finite ``hi``, so the
    default admits exactly the finite positive numbers.  The builtin types are
    tested first because an ABC check is many times slower, and the rule
    guards every SpectralField.
    """
    if (isinstance(value, _BUILTIN_REAL) or isinstance(value, numbers.Real)) and 0.0 < value <= hi:
        return float(value)
    limit = "" if hi == _FLOAT_MAX else f" and at most {hi:g}"
    raise ValueError(f"{name} must be finite and positive{limit}, got {value!r}")


def _require_count(name: str, value, lo: int, hi: int) -> int:
    """``int(value)`` for an integral number in [lo, hi], else a ValueError naming it."""
    if ((isinstance(value, _BUILTIN_REAL) or isinstance(value, numbers.Real))
            and lo <= value <= hi and value == int(value)):
        return int(value)
    raise ValueError(f"{name} is limited to integers from {lo} to {hi}, got {value!r}")


def sum_of_squares(*vectors) -> np.ndarray:
    """x0^2 + x1^2 + ... over the last axis of each argument in turn.

    The squares are added left to right, one component array at a time, so
    the result equals ``np.sum(x*x, axis=-1)`` (and its square root
    ``np.linalg.norm(x, axis=-1)``) bit for bit for last axes shorter than
    8, where numpy's reduction is a plain running sum; from 8 on numpy sums
    pairwise in an order that depends on the memory layout.  Several
    arguments sum like their concatenation along the last axis, and their
    leading axes broadcast.  It avoids numpy's per-row reduction loop,
    which costs far more than the arithmetic on 3- and 6-vectors.
    """
    total = None
    for vector in vectors:
        vector = np.asarray(vector, dtype=float)
        for k in range(vector.shape[-1]):
            component = vector[..., k]
            square = component * component
            if total is None:
                total = square
            elif total.shape == square.shape:
                total += square
            else:
                total = total + square
    if total is None:
        raise ValueError("sum_of_squares needs at least one vector component")
    return total


@dataclass(frozen=True)
class SpeedPair:
    """Speeds c of tag "c" and 1 of tag "1"; c and 1/c are at most SPEED_MAX, and c != 1."""

    c_fast: float

    def __post_init__(self):
        _require_positive("c", self.c_fast, SPEED_MAX)
        _require_positive("1/c", 1.0 / self.c_fast, SPEED_MAX)
        if self.c_fast == 1.0:
            raise ValueError("equal speeds (c = 1) form a degenerate configuration")

    def speed_of(self, tag: str) -> float:
        if tag == "c":
            return self.c_fast
        if tag == "1":
            return 1.0
        raise ValueError(f"unknown speed tag {tag!r}")

    def bracket(self, tag: str, x) -> np.ndarray | float:
        """Japanese bracket sqrt(1 + c_tag^2 |x|^2).

        A scalar ``x`` is read as a nonnegative modulus; array input is read
        as vectors whose last axis holds the components.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return self.bracket_radial(tag, x)
        return self.bracket_radial(tag, np.sqrt(sum_of_squares(x)))

    def bracket_radial(self, tag: str, r) -> np.ndarray | float:
        """Bracket as an elementwise function of the modulus |x| = r."""
        r = np.asarray(r, dtype=float)
        ca = self.speed_of(tag)
        return np.sqrt(1.0 + ca * ca * r * r)

    def phase(self, idx: "PhaseIndex", xi, eta) -> np.ndarray | float:
        """Interaction phase s0*<xi>_k + s1*<eta>_l + s2*<xi-eta>_m."""
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        return (
            idx.s0 * self.bracket(idx.k, xi)
            + idx.s1 * self.bracket(idx.l, eta)
            + idx.s2 * self.bracket(idx.m, xi - eta)
        )

    def phase_radial(self, idx: "PhaseIndex", r_xi, r_eta, r_diff) -> np.ndarray | float:
        """Phase evaluated from the three moduli |xi|, |eta|, |xi - eta|."""
        return (
            idx.s0 * self.bracket_radial(idx.k, np.abs(r_xi))
            + idx.s1 * self.bracket_radial(idx.l, np.abs(r_eta))
            + idx.s2 * self.bracket_radial(idx.m, np.abs(r_diff))
        )

    def momentum_slope(self, tag: str, x, bracket) -> np.ndarray:
        """Gradient c_tag^2 * x / <x>_tag of the bracket (vector valued), given
        the bracket <x>_tag of the same vectors, so that no modulus is retaken."""
        x = np.asarray(x, dtype=float)
        ca = self.speed_of(tag)
        return ca * ca * x / np.asarray(bracket)[..., np.newaxis]

    def grad_eta_phase(self, idx: "PhaseIndex", xi, eta) -> np.ndarray:
        """d(phi)/d(eta) = s1*c_l^2*eta/<eta>_l - s2*c_m^2*(xi-eta)/<xi-eta>_m."""
        eta = np.asarray(eta, dtype=float)
        diff = np.asarray(xi, dtype=float) - eta
        return (idx.s1 * self.momentum_slope(idx.l, eta, self.bracket(idx.l, eta))
                - idx.s2 * self.momentum_slope(idx.m, diff, self.bracket(idx.m, diff)))

    def grad_xi_phase(self, idx: "PhaseIndex", xi, eta) -> np.ndarray:
        """d(phi)/d(xi) = s0*c_k^2*xi/<xi>_k + s2*c_m^2*(xi-eta)/<xi-eta>_m."""
        xi = np.asarray(xi, dtype=float)
        diff = xi - np.asarray(eta, dtype=float)
        return (idx.s0 * self.momentum_slope(idx.k, xi, self.bracket(idx.k, xi))
                + idx.s2 * self.momentum_slope(idx.m, diff, self.bracket(idx.m, diff)))


@dataclass(frozen=True, order=False)
class PhaseIndex:
    """Label (k, l, m, s0, s1, s2) of one of the 64 interaction phases."""

    k: str
    l: str
    m: str
    s0: int
    s1: int
    s2: int

    def __post_init__(self):
        for tag in (self.k, self.l, self.m):
            if tag not in SPEED_TAGS:
                raise ValueError(f"speed tag must be '1' or 'c', got {tag!r}")
        for s in (self.s0, self.s1, self.s2):
            if s not in SIGNS:
                raise ValueError(f"sign must be +1 or -1, got {s!r}")

    def serialize(self) -> str:
        """Six character form, speed tags then signs, e.g. ``"c11+--"``."""
        return self.k + self.l + self.m + "".join(_SIGN_CHAR[s] for s in (self.s0, self.s1, self.s2))

    @classmethod
    def parse(cls, text: str) -> "PhaseIndex":
        if len(text) != 6:
            raise ValueError(f"phase index string must have 6 characters, got {text!r}")
        try:
            signs = tuple(_CHAR_SIGN[ch] for ch in text[3:])
        except KeyError:
            raise ValueError(f"bad sign characters in {text!r}") from None
        return cls(text[0], text[1], text[2], *signs)

    def negate(self) -> "PhaseIndex":
        return PhaseIndex(self.k, self.l, self.m, -self.s0, -self.s1, -self.s2)

    def swap(self) -> "PhaseIndex":
        """Image under the exchange of the eta and xi-eta argument slots."""
        return PhaseIndex(self.k, self.m, self.l, self.s0, self.s2, self.s1)

    def sort_key(self) -> tuple:
        # Fast tag before slow and '+' before '-', so that the canonical
        # representatives match the conventional listing (c11+--, cc1+--).
        return (
            _TAG_RANK[self.k],
            _TAG_RANK[self.l],
            _TAG_RANK[self.m],
            self.s0 < 0,
            self.s1 < 0,
            self.s2 < 0,
        )

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.serialize()


@dataclass(frozen=True)
class IndexTransform:
    """How an index maps onto its canonical representative.

    ``phase(idx, (xi, eta)) = sigma * phase(canonical, T(xi, eta))`` where
    ``sigma`` is -1 exactly when ``sign_flip`` and ``T`` is the argument swap
    ``(xi, eta) -> (xi, xi - eta)`` exactly when ``swap``.
    """

    sign_flip: bool
    swap: bool

    @property
    def sigma(self) -> int:
        return -1 if self.sign_flip else 1

    def apply(self, xi, eta):
        if self.swap:
            xi = np.asarray(xi, dtype=float)
            eta = np.asarray(eta, dtype=float)
            return xi, xi - eta
        return xi, eta


def orbit(idx: PhaseIndex) -> tuple[PhaseIndex, ...]:
    """The (at most 4-element) symmetry orbit of an index."""
    return (idx, idx.negate(), idx.swap(), idx.swap().negate())


def symmetry_reduce(idx: PhaseIndex) -> tuple[PhaseIndex, IndexTransform]:
    """Canonical representative of ``idx`` and the transform relating them."""
    members = orbit(idx)  # idx, its negation, its swap, the negated swap
    k = min(range(len(members)), key=lambda i: members[i].sort_key())
    return members[k], IndexTransform(sign_flip=k % 2 == 1, swap=k >= 2)


def all_phase_indices() -> list[PhaseIndex]:
    """All 64 indices in deterministic order."""
    return [PhaseIndex(*label) for label in product(*[SPEED_TAGS] * 3, *[SIGNS] * 3)]


@cache
def canonical_phase_indices() -> tuple[PhaseIndex, ...]:
    """The 20 canonical representatives, sorted; built once, shared as a tuple."""
    reps = {symmetry_reduce(idx)[0] for idx in all_phase_indices()}
    return tuple(sorted(reps, key=PhaseIndex.sort_key))
