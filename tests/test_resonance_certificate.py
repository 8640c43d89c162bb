"""Certificate of the closed-form resonant components, for every c != 1.

In the scaled speeds of ``kgpair.resonance`` (1 for the slower species and
sqrt(1 + delta) for the faster, e = 1 marking a faster tag), the space-time
resonances of a phase are the zeros of the unsquared gap Z on the domain
y > 0, or y > -1/(delta + 1) when l and m are both faster.  Every check below
holds for a symbolic delta > 0, except the last, which evaluates Z with
mpmath at sampled speeds.
"""

import itertools

import mpmath
import numpy as np
import pytest
import sympy as sp

from kgpair.dispersion import PhaseIndex, SpeedPair
from kgpair.resonance import find_resonant_components
from test_resonance import _gap_mp, _radius_mp, resonance_quartic

DELTA = sp.Symbol("delta", positive=True)
Y, T = sp.symbols("y t", real=True)
W, P_L, P_M, S_L, S_M = sp.symbols("w P_l P_m S_l S_m", positive=True)

PATTERNS = list(itertools.product((1, 0), repeat=3))  # (e_k, e_l, e_m)
CUBIC = (3 * DELTA + 3) * Y**3 + (2 * DELTA + 1) * Y**2 + (1 - DELTA) * Y - 1
FACTORED = {
    (1, 1, 1): -3 * (DELTA + 1) ** 4 * ((DELTA + 1) * Y + 1) ** 4,
    (1, 1, 0): -(DELTA + 1) ** 2 * ((DELTA + 1) * Y + 1) * CUBIC,
    (1, 0, 1): -(DELTA + 1) ** 2 * ((DELTA + 1) * Y + 1) * CUBIC,
    (1, 0, 0): -Y**3 * (3 * Y - 4),
    (0, 1, 1): -(DELTA + 1) ** 3 * ((DELTA + 1) * Y + 1) ** 3
    * (3 * (DELTA + 1) ** 2 * Y + 3 * DELTA + 7),
    (0, 1, 0): -Y * (3 * (DELTA + 1) ** 4 * Y**3 + 2 * (DELTA + 1) ** 2 * (5 * DELTA + 4) * Y**2
                     + (11 * DELTA**2 + 20 * DELTA + 8) * Y + 4 * (DELTA + 1)),
    (0, 0, 0): -3 * Y**4,
}
FACTORED[(0, 0, 1)] = FACTORED[(0, 1, 0)]
# the factor holding the one in-domain root, for the patterns that have one
ROOT_FACTOR = {(1, 0, 0): 3 * Y - 4, (1, 1, 0): CUBIC, (1, 0, 1): CUBIC}


def quartic(pattern) -> sp.Poly:
    """q(y) as ``resonance_quartic`` builds it, with delta a symbol."""
    ek, el, em = pattern
    L, M, K = 1 + DELTA * el, 1 + DELTA * em, 1 + DELTA * ek
    a, b = L * Y + el, M * Y + em
    g = L * M * Y + el + em - ek + DELTA * el * em
    h = (a + b) * g + L * M * (el * b + em * a) * (DELTA * Y + 1) - K * (em * b + el * a) - L * M * a * b
    return sp.Poly(sp.expand(h**2 - 4 * L * M * g**2 * a * b), Y)


def domain_floor(pattern):
    """Lower end of the domain in y: w < min(c_l, c_m)^2 with w = 1/(1 + delta y)."""
    return -1 / (DELTA + 1) if pattern[1] == pattern[2] == 1 else sp.Integer(0)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_quartic_is_the_gap_squared_twice(pattern):
    # with P = sqrt(c^2 - w) and S = c, the brackets at the space-resonant
    # point are <eta>_l = S_l/P_l, <xi - eta>_m = S_m/P_m and <xi>_k^2 =
    # 1 + c_k^2 w (1/(S_l P_l) + sigma/(S_m P_m))^2, sigma = s1 s2.  Z = 0 makes
    # <xi>_k^2 - (S_l/P_l + sigma S_m/P_m)^2 vanish; times c_l^2 c_m^2 P_l^2
    # P_m^2 it is a factor below, and the product of the two factors is even
    # in S and P and, at w = 1/(1 + delta y), equals delta^4 w^4 q(y)
    ck2, cl2, cm2 = (1 + DELTA * e for e in pattern)
    product = 1
    for sigma in (1, -1):
        cross = 2 * sigma * S_L * S_M * P_L * P_M
        product *= (cl2 * cm2 * P_L**2 * P_M**2 + ck2 * W * (cm2 * P_M**2 + cl2 * P_L**2 + cross)
                    - cl2 * cm2 * (cl2 * P_M**2 + cm2 * P_L**2 + cross))
    in_w = 0
    for (a, b, c, d), coeff in sp.Poly(sp.expand(product), S_L, S_M, P_L, P_M).terms():
        assert a % 2 == b % 2 == c % 2 == d % 2 == 0
        in_w += coeff * cl2 ** (a // 2) * cm2 ** (b // 2) * (cl2 - W) ** (c // 2) * (cm2 - W) ** (d // 2)
    in_w = sp.Poly(sp.expand(in_w), W)
    assert in_w.degree() == 4
    in_y = sum(coeff * (1 + DELTA * Y) ** (4 - j) for (j,), coeff in in_w.terms())
    assert sp.expand(in_y - DELTA**4 * quartic(pattern).as_expr()) == 0


@pytest.mark.parametrize("pattern", PATTERNS)
def test_quartic_factorization(pattern):
    assert sp.expand(quartic(pattern).as_expr() - FACTORED[pattern]) == 0


@pytest.mark.parametrize("c", [0.05, 0.5, 0.9999, 1.0001, 1.6, 5.0, 11.0, 1e4])
def test_oracle_solves_this_quartic(c):
    speeds = SpeedPair(c)
    delta = (c - 1.0) * (c + 1.0) if c > 1.0 else (1.0 - c) * (1.0 + c) / (c * c)
    for pattern in PATTERNS:
        tags = ["c" if (e == 1) == (c > 1.0) else "1" for e in pattern]
        coefficients, _ = resonance_quartic(speeds, PhaseIndex(*tags, 1, -1, -1))
        exact = [float(x.subs(DELTA, delta)) for x in quartic(pattern).all_coeffs()]
        exact = [0.0] * (len(coefficients) - len(exact)) + exact
        scale = max(abs(x) for x in exact)
        assert np.allclose(coefficients, exact, rtol=1e-12, atol=1e-12 * scale), (c, pattern)


def _sign_choices(coefficient):
    """The signs a polynomial in delta can take for delta > 0: one sign when
    its coefficients agree, and all three otherwise."""
    poly = sp.Poly(coefficient, DELTA)
    if poly.is_zero:
        return [0]
    coeffs = poly.coeffs()
    if all(x > 0 for x in coeffs) or all(x < 0 for x in coeffs):
        return [1 if coeffs[0] > 0 else -1]
    return [1, 0, -1]


def _sign_changes(signs) -> int:
    signs = [s for s in signs if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _positive_roots(factor, floor) -> int:
    """Roots of ``factor`` above ``floor`` for every delta > 0, by Descartes' rule.

    Fails unless the count is 0 or 1 for every sign the coefficients of
    factor(floor + t) can take; Descartes' bound is exact for those counts.
    """
    degree = sp.Poly(factor, Y).degree()
    shifted = sp.Poly(sp.expand(sp.cancel(factor.subs(Y, floor + T) * (DELTA + 1) ** degree)), T)
    counts = {_sign_changes(signs)
              for signs in itertools.product(*map(_sign_choices, shifted.all_coeffs()))}
    assert counts <= {0, 1} and len(counts) == 1, (factor, counts)
    return counts.pop()


@pytest.mark.parametrize("pattern", PATTERNS)
def test_in_domain_roots_are_the_two_closed_forms(pattern):
    # each in-domain root has multiplicity 1: it is the one positive root of
    # one factor, which occurs once
    floor = domain_floor(pattern)
    _, factors = sp.factor_list(FACTORED[pattern], Y)
    found = [(factor, power) for factor, power in factors
             if sp.Poly(factor, Y).degree() > 0 and _positive_roots(factor, floor)]
    if pattern in ROOT_FACTOR:
        assert len(found) == 1
        factor, power = found[0]
        assert power == 1
        assert sp.expand(factor - ROOT_FACTOR[pattern]) == 0
    else:
        assert found == []


def _sturm_positive_roots(poly: sp.Poly) -> int:
    """Number of distinct roots in (0, inf): sign changes of the Sturm sequence
    at 0 minus those at inf, where each member has the sign of its leading term."""
    sequence = sp.sturm(poly)
    at_zero = _sign_changes([sp.sign(p.eval(0)) for p in sequence])
    at_inf = _sign_changes([sp.sign(p.LC()) for p in sequence])
    return at_zero - at_inf


@pytest.mark.parametrize("pattern, cubic, double_root", [
    ((1, 1, 0), DELTA**3 + 6 * DELTA**2 - 15 * DELTA - 19, -0.484454397937118),
    ((0, 1, 0), DELTA**3 - 21 * DELTA**2 - 42 * DELTA - 19, -0.0476344883008378),
])
def test_double_roots_lie_off_the_domain(pattern, cubic, double_root):
    # the square-free part of q has a double root only where its discriminant
    # vanishes; for delta > 0 that is the one positive root of a cubic, and the
    # double root there lies below the domain (the swapped patterns are alike)
    q = quartic(pattern)
    square_free = sp.Poly(sp.quo(q, sp.gcd(q, q.diff(Y))), Y)
    _, factors = sp.factor_list(sp.discriminant(square_free, Y), DELTA)
    vanishing = [f for f, _ in factors if _sign_choices(f) == [1, 0, -1]]
    assert len(vanishing) == 1 and sp.expand(vanishing[0] - cubic) == 0
    assert _sturm_positive_roots(sp.Poly(cubic, DELTA)) == 1
    (root,) = [r for r in sp.Poly(cubic, DELTA).nroots(n=30) if r.is_real and r > 0]
    # at a double root the first subresultant of q and q' is linear, A y + B
    (first,) = [s for s in sp.subresultants(square_free, square_free.diff(Y)) if s.degree() == 1]
    A, B = first.all_coeffs()
    assert A.subs(DELTA, root) != 0
    at_root = float((-B / A).subs(DELTA, root))
    assert at_root == pytest.approx(double_root, rel=1e-12)
    assert at_root < float(domain_floor(pattern).subs(DELTA, root))


@pytest.mark.parametrize("c", [0.01, 0.3, 0.52732, 0.9999, 1.0001, 1.89638, 4.88596, 5.0, 300.0])
def test_gap_vanishes_for_two_sign_patterns(c):
    # at each closed-form root, the 50-digit Z is zero for the signs +-- and
    # -++ and far from zero, or outside the space-resonant set, for the rest;
    # the solver builds a component for exactly the former
    speeds = SpeedPair(c)
    fast, slow = ("c", "1") if c > 1.0 else ("1", "c")
    for pattern in ROOT_FACTOR:
        tags = [fast if e else slow for e in pattern]
        for signs in itertools.product((1, -1), repeat=3):
            idx = PhaseIndex(*tags, *signs)
            z = _gap_mp(c, idx, _radius_mp(c, idx))
            resonant = signs in ((1, -1, -1), (-1, 1, 1))
            if resonant:
                assert abs(z) < mpmath.mpf(10) ** -40, idx.serialize()
            else:
                assert z is None or abs(z) > 1e-3, idx.serialize()
            assert len(find_resonant_components(speeds, idx, r_max=1e3)) == resonant
