import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import grad_eta_phase, grad_xi_phase, theta

from kgpair import cutoffs, dispersion, resonance
from kgpair.cutoffs import (
    COMPARISON_GAIN,
    GRAD_FLOOR,
    PROBE_RHOS,
    TRUST_RADIUS,
    CutoffFamily,
    _near_component_points,
    bound_probe,
    bump,
    chi_R_rho,
    sample_interaction_points,
    smooth_step,
    theta_radial,
)
from kgpair.dispersion import SpeedPair, all_phase_indices, sum_of_squares
from kgpair.reporting import to_canonical_json
from kgpair.resonance import scan_all


@pytest.fixture(scope="module")
def report5():
    return scan_all(5.0)


@pytest.fixture(scope="module")
def family(report5):
    return CutoffFamily.build(report5, idx="c11+--")


def test_bump_profile():
    assert bump(0.0) == 1.0
    assert bump(1.0) == 0.0 and bump(-1.2) == 0.0
    x = np.linspace(-0.999, 0.999, 501)
    v = bump(x)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)
    assert np.all(np.diff(v[x >= 0.0]) <= 0.0)


def where_bump(x):
    """``bump`` as written with exp over every point and a masked square:
    the oracle of the bits of the inside-only evaluation."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    x2 = np.where(inside, x, 0.0)
    x2 *= x2
    with np.errstate(under="ignore"):
        vals = np.exp(1.0 - 1.0 / (1.0 - x2))
    return np.where(inside, vals, 0.0)


@pytest.mark.parametrize("shape", [(), (7,), (4096,), (3, 5, 64)])
@pytest.mark.parametrize("scale", [0.5, 1.2, 40.0, 1e300])
def test_bump_is_the_masked_exp_bit_for_bit(shape, scale):
    rng = np.random.default_rng(len(shape))
    x = scale * rng.uniform(-1.0, 1.0, size=shape)
    if x.size > 8:
        x.flat[:8] = [1.0, -1.0, np.nextafter(1.0, 0.0), 0.0, -0.0, np.nan, np.inf, 1e-160]
    got = bump(x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert got.tobytes() == where_bump(x).tobytes()


def test_smooth_step_endpoints_and_monotone():
    assert smooth_step(-1.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(-5.0) == 0.0 and smooth_step(7.0) == 1.0
    x = np.linspace(-1.0, 1.0, 401)
    v = smooth_step(x)
    assert np.all(np.diff(v) >= 0.0)


def test_theta_plateau_and_decay():
    M = 2.0
    origin = np.zeros(6)
    assert theta(origin, M) == 1.0
    far = np.full(6, (M + 2.0) / math.sqrt(6.0))
    assert theta(far, M) == 0.0
    mid = theta_radial(M + 0.5, M)
    assert 0.0 < mid < 1.0
    r = np.linspace(M - 0.5, M + 1.5, 200)
    assert np.all(np.diff(theta_radial(r, M)) <= 0.0)


def test_family_defaults_and_radii_inside_half_ball(family):
    assert family.M >= 2.0
    for comp in family.report.components:
        assert comp.R * math.sqrt(1.0 + comp.lam**2) <= family.M / 2.0
    assert family.delta0 == pytest.approx(family.report.delta0)


def test_family_rejects_non_separated(report5):
    tight = scan_all(5.0, tau_sep=0.01)
    assert not tight.separated
    with pytest.raises(ValueError):
        CutoffFamily.build(tight)


@pytest.mark.parametrize("make", [CutoffFamily.build, lambda report: CutoffFamily(report, None)])
def test_family_rejects_report_without_components(make):
    empty = scan_all(5.0, r_max=1e-4)
    assert empty.separated and not empty.components
    with pytest.raises(ValueError, match="report has no resonant components to adapt to"):
        make(empty)


def test_chi_o_on_golden_radii(family):
    outcome = np.array([0.3535533906, 0.0, 0.0])
    assert family.chi_O(outcome) == 1.0
    source = np.array([0.1767766953, 0.0, 0.0])
    assert family.chi_O(source) == 0.0
    rng = np.random.default_rng(0)
    xi = rng.uniform(-1.0, 1.0, (1000, 3))
    total = family.chi_O(xi) + family.chi_O_tilde(xi)
    assert np.abs(total - 1.0).max() < 1e-14


def test_chi_r_peak_and_support(family):
    comp = family.components[0]
    omega = np.array([0.0, 0.0, 1.0])
    eta = comp.R * omega
    xi = comp.lam * eta
    for rho in (1.0, 0.1, 0.003):
        assert chi_R_rho(xi, eta, comp, rho, family.support_radius) == 1.0
    # vanishes beyond the support radius estimate
    rng = np.random.default_rng(3)
    rho = 0.5
    cap = family.support_radius * rho * (1.0 + abs(comp.lam) + comp.R)
    pts = rng.normal(size=(20000, 6))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    radii = rng.uniform(1.0, 4.0, 20000) * cap
    base = np.concatenate([xi, eta])
    probe = base + pts * radii[:, None]
    from kgpair.resonance import dist_to_component

    d = dist_to_component(probe[:, :3], probe[:, 3:], comp)
    outside = d > cap
    vals = chi_R_rho(probe[outside, :3], probe[outside, 3:], comp, rho, family.support_radius)
    assert np.all(vals == 0.0)


def test_chi_r_support_volume_scaling(family):
    # halving rho shrinks the support measure by about 2^-4 (one radial eta
    # direction plus three xi directions)
    comp = family.components[0]
    rng = np.random.default_rng(7)
    rho0 = 1.0
    a = family.support_radius * rho0
    n = 200_000
    omega = rng.normal(size=(n, 3))
    omega /= np.linalg.norm(omega, axis=1)[:, None]
    u = rng.uniform(-a, a, n)
    eta = (comp.R + u)[:, None] * omega
    v = rng.uniform(-a, a, (n, 3))
    xi = comp.lam * eta + v
    frac = []
    for rho in (rho0, rho0 / 2.0):
        vals = chi_R_rho(xi, eta, comp, rho, family.support_radius)
        frac.append(np.mean(vals > 0.0))
    ratio = frac[1] / frac[0]
    assert ratio == pytest.approx(2.0**-4, rel=0.25)


def test_partition_of_unity_and_range(family):
    rng = np.random.default_rng(11)
    xi, eta = sample_interaction_points(family, rng, 20_000)
    for rho in (1.0, 0.1, 0.01):
        cr = family.chi_R(xi, eta, rho)
        cs = family.chi_S(xi, eta, rho)
        ct = family.chi_T(xi, eta, rho)
        assert np.abs(cr + cs + ct - 1.0).max() < 1e-12
        for arr in (cr, cs, ct):
            assert arr.min() >= -1e-12 and arr.max() <= 1.0 + 1e-12
        assert cr.max() == 1.0


def test_deep_inside_chi_r_kills_others(family):
    comp = family.components[0]
    omega = np.array([1.0, 0.0, 0.0])
    eta = comp.R * omega
    xi = comp.lam * eta
    assert family.chi_S(xi, eta, 0.5) == 0.0
    assert family.chi_T(xi, eta, 0.5) == 0.0


def test_time_resonant_point_goes_to_chi_t(family):
    # anti-parallel configuration: phi = 0, eta-gradient large, far from the
    # resonant component, so the comparison sign sends it to chi_T
    sp = family.speeds
    idx = family.idx
    a = 0.6
    eta = np.array([-a, 0.0, 0.0])

    def phi_of(b):
        return float(sp.phase(idx, np.array([b - a, 0.0, 0.0]), eta))

    lo, hi = 0.7, 1.4
    assert phi_of(lo) * phi_of(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi_of(lo) * phi_of(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    xi = np.array([0.5 * (lo + hi) - a, 0.0, 0.0])
    assert abs(sp.phase(idx, xi, eta)) < 1e-10
    assert np.linalg.norm(grad_eta_phase(sp, idx, xi, eta)) > 1.0
    assert family.dist_to_resonant_set(xi, eta) > 0.3
    for rho in (1.0, 0.1):
        assert family.chi_S(xi, eta, rho) == 0.0
        assert family.chi_T(xi, eta, rho) == 1.0


def test_rho_independence_outside_neighbourhood(family):
    rng = np.random.default_rng(23)
    xi, eta = sample_interaction_points(family, rng, 30_000)
    far = family.dist_to_resonant_set(xi, eta) > 2.0 * family.delta0
    assert far.sum() > 10_000
    xs, es = xi[far], eta[far]
    ref_s = family.chi_S(xs, es, 1.0)
    ref_t = family.chi_T(xs, es, 1.0)
    for rho in (1e-1, 1e-2, 1e-3):
        assert np.abs(family.chi_S(xs, es, rho) - ref_s).max() < 1e-14
        assert np.abs(family.chi_T(xs, es, rho) - ref_t).max() < 1e-14


def test_outcome_neighbourhood_never_meets_chi_r(family):
    rng = np.random.default_rng(29)
    xi, eta = sample_interaction_points(family, rng, 50_000)
    for rho in (1.0, 0.1, 0.01):
        product = family.chi_O_tilde(xi) * family.chi_R(xi, eta, rho)
        assert np.all(product == 0.0)


def test_bounded_symbol_where_phase_large(family):
    rng = np.random.default_rng(31)
    xi, eta = sample_interaction_points(family, rng, 20_000)
    phi = np.abs(family.speeds.phase(family.idx, xi, eta))
    big = phi >= 1.0
    assert big.sum() > 100
    ratio = family.chi_S(xi[big], eta[big], 0.1) / phi[big]
    assert ratio.max() <= 1.0


def test_bound_probe_structure_and_stability(family):
    small = bound_probe(family, sample_count=5_000, seed=2)
    large = bound_probe(family, sample_count=20_000, seed=2)
    assert small["n"] == family.n
    assert len(small["low_frequency"]) == 3
    # the fitted exponent is finite and stable under more samples
    e1 = small["growth_exponent_in_inv_rho"]
    e2 = large["growth_exponent_in_inv_rho"]
    assert np.isfinite(e1) and np.isfinite(e2)
    assert abs(e1 - e2) < 0.5
    # high-frequency branch: polynomially normalized ratios stay bounded
    for row in large["high_frequency"]:
        assert row["poly_normalized"] < 10.0


def test_family_for_resonance_free_phase(report5):
    fam = CutoffFamily.build(report5, idx="111+--")
    assert fam.components == ()
    rng = np.random.default_rng(5)
    xi = rng.uniform(-1, 1, (500, 3))
    eta = rng.uniform(-1, 1, (500, 3))
    cr = fam.chi_R(xi, eta, 0.1)
    assert np.all(cr == 0.0)
    total = cr + fam.chi_S(xi, eta, 0.1) + fam.chi_T(xi, eta, 0.1)
    assert np.abs(total - 1.0).max() < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_scales_must_be_finite_and_positive(report5, family, bad):
    # a NaN rho used to give all zeros and an infinite one all ones; a NaN M
    # gave NaN with a RuntimeWarning
    xi, eta = np.zeros((4, 3)), np.full((4, 3), 0.1)
    free = CutoffFamily.build(report5, idx="111+--")  # no component to check rho
    for evaluate in (lambda rho: chi_R_rho(xi, eta, family.components[0], rho),
                     lambda rho: family.chi_T(xi, eta, rho),
                     lambda rho: free.chi_T(xi, eta, rho)):
        with pytest.raises(ValueError, match="rho must be finite and positive"):
            evaluate(bad)
    with pytest.raises(ValueError, match="M must be finite and positive"):
        theta(np.ones((4, 6)), bad)


def test_partition_evaluates_chi_r_once(family, monkeypatch):
    calls = []
    chi_R = CutoffFamily.chi_R

    def counted(self, xi, eta, rho):
        calls.append(rho)
        return chi_R(self, xi, eta, rho)

    monkeypatch.setattr(CutoffFamily, "chi_R", counted)
    rng = np.random.default_rng(37)
    xi, eta = sample_interaction_points(family, rng, 1_000)
    family.chi_T(xi, eta, 0.1)
    assert calls == [0.1]
    calls.clear()
    probe = bound_probe(family, sample_count=1_000, seed=4)
    # once per rho on the low-frequency points, once for all six
    # high-frequency shells together
    assert len(probe["high_frequency"]) == 6
    assert calls == list(PROBE_RHOS) + [PROBE_RHOS[0]]


def test_partition_takes_its_geometry_once(family, monkeypatch):
    calls = []
    points = {"phase_radial": 0}

    def counted_squares(*vectors):
        calls.append(len(vectors))
        return sum_of_squares(*vectors)

    def counted_radial(self, idx, r_xi, r_eta, r_diff):
        points["phase_radial"] += np.broadcast(r_xi, r_eta, r_diff).size
        return phase_radial(self, idx, r_xi, r_eta, r_diff)

    def forbidden(*args):
        raise AssertionError("the partition takes the phase from its moduli")

    phase_radial = SpeedPair.phase_radial
    for module in (dispersion, cutoffs, resonance):
        monkeypatch.setattr(module, "sum_of_squares", counted_squares)
    monkeypatch.setattr(SpeedPair, "phase_radial", counted_radial)
    monkeypatch.setattr(SpeedPair, "phase", forbidden)
    xi, eta = sample_interaction_points(family, np.random.default_rng(47), 4096)
    calls.clear()
    family.chi_T(xi, eta, 0.1)
    # |xi|^2, |eta|^2, |xi - eta|^2, the two gradients and theta's 6-vector,
    # then chi_R's two moduli and dist_to_component's three for the one
    # component: 18 calls when every helper took its own moduli
    assert len(family.components) == 1
    assert len(calls) == 11
    points["phase_radial"] = 0
    probe = bound_probe(family, sample_count=1_000, seed=4)
    # each point once: the 1000 base points for every rho together, 500
    # extra points per rho, 2000 per high-frequency shell
    expected = 1_000 + len(PROBE_RHOS) * 500 + len(probe["high_frequency"]) * 2_000
    assert expected == 14_500
    assert points == {"phase_radial": expected}


def test_partition_moduli_are_phase_and_eta_gradient(family):
    rng = np.random.default_rng(43)
    xi, eta = sample_interaction_points(family, rng, 2_000)
    away, phi, ge = family._away_and_moduli(xi, eta)
    for got, want in zip(family._partition_at(xi, eta, 0.1, away), family.partition(xi, eta, 0.1)):
        assert np.array_equal(got, want)
    assert np.array_equal(phi, np.abs(family.speeds.phase(family.idx, xi, eta)))
    grad = grad_eta_phase(family.speeds, family.idx, xi, eta)
    assert np.array_equal(ge, np.linalg.norm(grad, axis=-1))


def test_near_component_points_match_per_point_loop(report5):
    # reference: the per-point loop over picked components, same draws
    family = SimpleNamespace(components=report5.components)
    spreads = [1e-2, 0.0]
    got = _near_component_points(family, np.random.default_rng(41), 500, spreads)
    rng = np.random.default_rng(41)
    picks = rng.integers(0, len(family.components), 500)
    omega = rng.normal(size=(500, 3))
    omega /= np.linalg.norm(omega, axis=1)[:, None]
    base = np.empty((500, 6))
    for i, k in enumerate(picks):
        comp = family.components[k]
        base[i, :3] = comp.lam * comp.R * omega[i]
        base[i, 3:] = comp.R * omega[i]
    spread = rng.choice(np.asarray(spreads), 500)
    assert len(set(picks)) == 2
    assert np.array_equal(got, base + rng.normal(size=(500, 6)) * spread[:, None])


# -- property tests on random points -------------------------------------------


@functools.lru_cache(maxsize=None)
def family_at(c):
    return CutoffFamily.build(scan_all(c))


@st.composite
def partition_point(draw):
    """(family, xi, eta, rho): a random point, centred at the origin or on a
    random point of a resonant component, at a random spread."""
    family = family_at(draw(st.sampled_from([5.0, 0.5, 11.0])))
    rho = draw(st.sampled_from([1.0, 0.1, 0.01]))
    center = np.zeros(6)
    if draw(st.booleans()):
        comp = draw(st.sampled_from(family.components))
        polar, azimuth = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
        omega = np.array([math.sin(polar) * math.cos(azimuth),
                          math.sin(polar) * math.sin(azimuth), math.cos(polar)])
        center = np.concatenate([comp.lam * comp.R * omega, comp.R * omega])
    spread = draw(st.sampled_from([family.support_radius * rho, 0.1, family.M]))
    unit = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)))
    point = center + spread * unit
    return family, point[:3], point[3:], rho


# lam**2 (C pow) and lam * lam differ by 1 ulp for one lambda at this c,
# and M by 1 ulp with them
@example(0.43849705592849003)
@given(st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 90.0)))
def test_family_is_derived_from_its_report(c):
    report = scan_all(c)
    for index in report.resonant_indices:
        family = CutoffFamily.build(report, idx=index)
        # squared as the constructor squares it
        radii6 = [comp.R * math.sqrt(1.0 + comp.lam * comp.lam) for comp in report.components]
        assert max(radii6) <= family.M / 2.0
        lam_max = max(abs(comp.lam) for comp in family.components)
        assert family.support_radius * (1.0 + lam_max) == pytest.approx(
            report.delta0 / 4.0, rel=4 * np.finfo(float).eps)
        # the formulas of the constructor fields that the family now derives
        expected = {
            "M": float(max(2.0, 2.5 * max(radii6))),
            "delta0": float(report.delta0),
            "n": int(max(comp.order for comp in report.components)),
            "support_radius": float(report.delta0 / (4.0 * (1.0 + lam_max))),
        }
        params = family.parameters()
        assert {key: params[key] for key in expected} == expected
        assert params["index"] == index
        assert params["components"] == [comp.to_dict() for comp in family.components]
    with pytest.raises(TypeError):
        CutoffFamily(report=report, idx=family.idx, M=family.M)


@given(partition_point())
def test_partition_matches_named_cutoffs(case):
    family, xi, eta, rho = case
    parts = family.partition(xi, eta, rho)
    named = (family.chi_R(xi, eta, rho), family.chi_S(xi, eta, rho), family.chi_T(xi, eta, rho))
    for part, value in zip(parts, named):
        assert np.array_equal(part, value)


@given(partition_point())
def test_partition_of_unity_property(case):
    family, xi, eta, rho = case
    parts = family.partition(xi, eta, rho)
    assert abs(sum(parts) - 1.0) <= 1e-12
    for part in parts:
        assert -1e-12 <= part <= 1.0 + 1e-12


def vector_frobenius_term(speeds, tag, w):
    """The curvature term of the eta gradient taken from the vectors w."""
    ca = speeds.speed_of(tag)
    t = sum_of_squares(w)
    b2 = 1.0 + ca * ca * t
    alpha = ca * ca / b2
    frob2 = (ca**4 / b2) * (3.0 - 2.0 * alpha * t + alpha * alpha * t * t)
    return np.sqrt(frob2)


def composed_partition_and_moduli(family, xi, eta, rho):
    """(chi_R, chi_S, chi_T, |phi|, |d_eta phi|) composed from ``phase``,
    both phase gradients, the vector Frobenius term and a separate high
    branch, each taking its own moduli: the oracle of the one-pass bits."""
    sp, idx = family.speeds, family.idx
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    phi = np.abs(sp.phase(idx, xi, eta))
    gx2 = sum_of_squares(grad_xi_phase(sp, idx, xi, eta))
    ge2 = sum_of_squares(grad_eta_phase(sp, idx, xi, eta))
    d_time = np.minimum(phi / np.maximum(np.sqrt(gx2 + ge2), GRAD_FLOOR), TRUST_RADIUS)
    ge = np.sqrt(ge2)
    hess = (vector_frobenius_term(sp, idx.l, eta)
            + 2.0 * vector_frobenius_term(sp, idx.m, xi - eta))
    d_space = np.minimum(ge / np.maximum(hess, GRAD_FLOOR), TRUST_RADIUS)
    d_res = np.minimum(family.dist_to_resonant_set(xi, eta), TRUST_RADIUS)
    denom = np.maximum(d_res ** (family.n + 1), 1e-300)
    with np.errstate(over="ignore"):
        arg = COMPARISON_GAIN * (d_time - d_space) / denom
    low = smooth_step(arg)
    gap = np.sqrt(sum_of_squares(xi - eta))
    high = bump((gap - family.high_freq_offset) / (0.5 * family.high_freq_offset))
    blend = theta_radial(np.sqrt(sum_of_squares(xi, eta)), family.M)
    away = blend * low + (1.0 - blend) * high
    chi_r = family.chi_R(xi, eta, rho)
    chi_s = (1.0 - chi_r) * away
    return chi_r, chi_s, 1.0 - chi_r - chi_s, phi, ge


@st.composite
def geometry_case(draw):
    """(family, xi, eta, rho) for c off the equal speeds and any of the 64
    indices, resonance-free ones included: eight points around the origin or
    a component point, then rows with xi = eta, with xi = 0, and on the
    high-frequency ridge |xi - eta| = high_freq_offset."""
    c = draw(st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 20.0)))
    family = CutoffFamily.build(scan_all(c), idx=draw(st.sampled_from(all_phase_indices())))
    rho = draw(st.sampled_from([1.0, 0.1, 0.01]))
    polar, azimuth = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
    omega = np.array([math.sin(polar) * math.cos(azimuth),
                      math.sin(polar) * math.sin(azimuth), math.cos(polar)])
    center = np.zeros(6)
    if family.components and draw(st.booleans()):
        comp = draw(st.sampled_from(family.components))
        center = np.concatenate([comp.lam * comp.R * omega, comp.R * omega])
    spread = draw(st.sampled_from([family.support_radius * rho, 0.1, family.M, 3.0 * family.M]))
    unit = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=48, max_size=48)))
    points = center + spread * unit.reshape(8, 6)
    ridge_eta = (family.M + 2.0) * omega
    xi = np.vstack([points[:, :3], points[:1, 3:], np.zeros(3),
                    ridge_eta + family.high_freq_offset * unit[:3]])
    eta = np.vstack([points[:, 3:], points[:1, 3:], points[1:2, 3:], ridge_eta])
    return family, xi, eta, rho


@given(geometry_case())
def test_one_pass_partition_matches_the_composed_oracle(case):
    family, xi, eta, rho = case
    away, phi, ge = family._away_and_moduli(xi, eta)
    got = (*family._partition_at(xi, eta, rho, away), phi, ge)
    want = composed_partition_and_moduli(family, xi, eta, rho)
    assert [part.tobytes() for part in got] == [part.tobytes() for part in want]


def per_rho_bound_probe(family, sample_count, seed):
    """``bound_probe`` as it was: every rho evaluates the composed partition
    on all its base and extra points, and each high-frequency shell on its
    own 2000 points."""
    rng = np.random.default_rng(seed)
    xi, eta = sample_interaction_points(family, rng, sample_count)
    rows = []
    for rho in PROBE_RHOS:
        s = family.support_radius * rho
        extra = _near_component_points(family, rng, sample_count // 2, [10 * s, 3 * s, s, 0.3 * s])
        xs = np.concatenate([xi, extra[:, :3]], axis=0)
        es = np.concatenate([eta, extra[:, 3:]], axis=0)
        _, chi_s, chi_t, phi, ge = composed_partition_and_moduli(family, xs, es, rho)
        ok_phi, ok_ge = phi > 1e-12, ge > 1e-12
        rows.append({"rho": float(rho),
                     "sup_chi_s_over_phi": float(np.max(chi_s[ok_phi] / phi[ok_phi])),
                     "sup_chi_t_over_grad": float(np.max(chi_t[ok_ge] / ge[ok_ge]))})
    sup_vals = np.array([row["sup_chi_s_over_phi"] for row in rows])
    inv_rho = 1.0 / np.asarray(PROBE_RHOS, dtype=float)
    exponent = float(np.polyfit(np.log(inv_rho), np.log(np.maximum(sup_vals, 1e-300)), 1)[0])
    hf_rows = []
    for radius in np.geomspace(family.M + 1.0, 1e3, 6):
        direction = rng.normal(size=(1000, 6))
        direction /= np.sqrt(sum_of_squares(direction))[:, None]
        w = rng.normal(size=(1000, 3))
        w *= (rng.uniform(0.0, 2.0 * family.high_freq_offset, 1000) / np.sqrt(sum_of_squares(w)))[:, None]
        ez = rng.normal(size=(1000, 3))
        ez /= np.sqrt(sum_of_squares(ez))[:, None]
        heta = ez * radius / math.sqrt(2.0)
        pts = np.concatenate([direction * radius, np.concatenate([heta + w, heta], axis=1)], axis=0)
        _, chi_s, _, hphi, _ = composed_partition_and_moduli(family, pts[:, :3], pts[:, 3:], PROBE_RHOS[0])
        ok = hphi > 1e-12
        ratio = np.max(chi_s[ok] / hphi[ok]) if np.any(ok) else 0.0
        hf_rows.append({"radius": float(radius), "sup_chi_s_over_phi": float(ratio),
                        "poly_normalized": float(ratio / (1.0 + radius) ** family.n)})
    return {"schema": "cutoff-probe/1", "n": family.n, "sample_count": sample_count, "seed": seed,
            "low_frequency": rows, "growth_exponent_in_inv_rho": exponent, "high_frequency": hf_rows}


@pytest.mark.parametrize("c", [5.0, 1.6, 0.7, 0.3])
def test_bound_probe_matches_the_per_rho_loop(c):
    # the base points' rho-free pass is shared by every rho and the six shells
    # are one evaluation; the JSON keeps every byte of the per-rho loop
    family = CutoffFamily.build(scan_all(c))
    for seed in (0, 9, 2024):
        got = bound_probe(family, sample_count=10_000, seed=seed)
        assert to_canonical_json(got) == to_canonical_json(per_rho_bound_probe(family, 10_000, seed))
