import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from kgpair.dispersion import PhaseIndex, SpeedPair, all_phase_indices, canonical_phase_indices
from kgpair.resonance import (
    _polish,
    check_separation,
    dist_to_component,
    find_resonant_components,
    resonance_quartic,
    root_multiplicities,
    scan_all,
    space_resonance_lambda,
    sweep_speed,
    time_resonance_gap,
)

GOLDEN_OUTCOMES = [0.3535533906, 0.3603654667]
GOLDEN_SOURCES = [0.01314860997, 0.1767766953, 0.3472168567]


def lambda_domain_bound(speeds: SpeedPair, idx: PhaseIndex) -> float:
    """Largest r (possibly inf) below which the colinearity ratio exists."""
    cl = speeds.speed_of(idx.l)
    cm = speeds.speed_of(idx.m)
    if cl <= cm:
        return math.inf
    return cm / (cl * math.sqrt(cl * cl - cm * cm))


@pytest.fixture(scope="module")
def report5():
    return scan_all(5.0)


def test_lambda_matches_closed_form_c1c():
    # for the (c,1,c,+,-,-) family: lambda(r) = 1 + 1/sqrt((c^4-c^2) r^2 + c^4)
    c = 5.0
    sp = SpeedPair(c)
    idx = PhaseIndex.parse("c1c+--")
    r = np.linspace(1e-4, 50.0, 400)
    lam = space_resonance_lambda(sp, idx, r)
    expected = 1.0 + 1.0 / np.sqrt((c**4 - c**2) * r**2 + c**4)
    assert np.abs(lam - expected).max() < 1e-12
    # r -> 0 limit is 1 + 1/c^2
    assert float(space_resonance_lambda(sp, idx, 1e-12)) == pytest.approx(1.04, abs=1e-9)


def test_lambda_equal_speeds_is_two():
    sp = SpeedPair(5.0)
    idx = PhaseIndex.parse("c11+--")
    r = np.array([1e-3, 0.1, 1.0, 10.0])
    assert np.allclose(space_resonance_lambda(sp, idx, r), 2.0, atol=1e-14)


def test_lambda_absent_beyond_domain_bound():
    sp = SpeedPair(5.0)
    idx = PhaseIndex.parse("cc1+--")
    bound = lambda_domain_bound(sp, idx)
    assert bound == pytest.approx(1.0 / math.sqrt(5.0**4 - 5.0**2), abs=1e-15)
    assert np.isnan(space_resonance_lambda(sp, idx, bound * 1.01))
    assert np.isfinite(space_resonance_lambda(sp, idx, bound * 0.99))


def test_gap_closed_form_c11():
    c = 5.0
    sp = SpeedPair(c)
    idx = PhaseIndex.parse("c11+--")
    r = np.linspace(1e-3, 5.0, 200)
    z = time_resonance_gap(sp, idx, r)
    expected = np.sqrt(1.0 + 4.0 * c * c * r * r) - 2.0 * np.sqrt(1.0 + r * r)
    assert np.abs(z - expected).max() < 1e-12


def test_gap_negative_for_111():
    # <2r> - 2<r> < 0 for all r > 0
    sp = SpeedPair(5.0)
    idx = PhaseIndex.parse("111+--")
    r = np.linspace(1e-4, 100.0, 1000)
    assert np.all(time_resonance_gap(sp, idx, r) < 0.0)


def test_space_resonance_gradient_vanishes_on_parameterization():
    sp = SpeedPair(5.0)
    rng = np.random.default_rng(1)
    for name in ("c11+--", "c1c+--", "cc1+--", "1c1++-"):
        idx = PhaseIndex.parse(name)
        bound = lambda_domain_bound(sp, idx)
        r_hi = min(10.0, 0.9 * bound)
        for r in rng.uniform(0.05 * r_hi, r_hi, 10):
            lam = float(space_resonance_lambda(sp, idx, r))
            omega = rng.normal(size=3)
            omega /= np.linalg.norm(omega)
            eta = r * omega
            residual = np.linalg.norm(sp.grad_eta_phase(idx, lam * eta, eta))
            assert residual < 1e-10


def test_colinearity_necessary_for_space_resonance():
    sp = SpeedPair(5.0)
    rng = np.random.default_rng(2)
    n = 10_000
    eta = rng.normal(size=(n, 3))
    eta *= (rng.uniform(0.01, 10.0, n) / np.linalg.norm(eta, axis=1))[:, None]
    xi = rng.normal(size=(n, 3))
    xi *= (rng.uniform(0.01, 10.0, n) / np.linalg.norm(xi, axis=1))[:, None]
    # discard nearly colinear samples
    cross = np.linalg.norm(np.cross(xi, eta), axis=1)
    keep = cross > 1e-2 * np.linalg.norm(xi, axis=1) * np.linalg.norm(eta, axis=1)
    xi, eta = xi[keep], eta[keep]
    worst = math.inf
    for idx in all_phase_indices():
        g = np.linalg.norm(sp.grad_eta_phase(idx, xi, eta), axis=1)
        worst = min(worst, g.min())
    assert worst > 0.0


def test_component_residuals(report5):
    sp = SpeedPair(5.0)
    rng = np.random.default_rng(5)
    for comp in report5.components:
        for _ in range(10):
            omega = rng.normal(size=3)
            omega /= np.linalg.norm(omega)
            eta = comp.R * omega
            xi = comp.lam * eta
            assert abs(sp.phase(comp.idx, xi, eta)) < 1e-12
            assert np.linalg.norm(sp.grad_eta_phase(comp.idx, xi, eta)) < 1e-12


def test_c11_component_golden_value():
    comps = find_resonant_components(SpeedPair(5.0), PhaseIndex.parse("c11+--"))
    assert len(comps) == 1
    assert comps[0].R == pytest.approx(0.1767766953, abs=1e-9)
    assert comps[0].lam == pytest.approx(2.0, abs=1e-12)


def test_cc1_component_golden_value():
    comps = find_resonant_components(SpeedPair(5.0), PhaseIndex.parse("cc1+--"))
    assert len(comps) == 1
    assert comps[0].R == pytest.approx(0.01314860997, abs=1e-9)
    assert comps[0].outcome_radius == pytest.approx(0.3603654667, abs=1e-9)


def test_111_no_components():
    assert find_resonant_components(SpeedPair(5.0), PhaseIndex.parse("111+--")) == []


def _refine_minimum(objective, start, steps, rounds=60):
    # coordinate-wise parabolic shrink; independent of the scanner machinery
    point = np.asarray(start, dtype=float)
    widths = np.asarray(steps, dtype=float)
    for _ in range(rounds):
        for axis in range(point.size):
            grid = point[None, :].repeat(7, axis=0)
            grid[:, axis] += np.linspace(-widths[axis], widths[axis], 7)
            vals = objective(grid)
            point = grid[int(np.argmin(vals))]
        widths *= 0.55
    return point, float(objective(point[None, :])[0])


def test_full_slice_minimization_oracle(report5):
    # dense grid + refinement of phi^2 + |d_eta phi|^2 over the rotation-
    # reduced slice eta = r e1, xi = (x, y, 0); the only near-zeros must sit
    # at the component (r, x, y) = (R, lambda R, 0)
    sp = SpeedPair(5.0)
    windows = {
        "c11+--": (np.linspace(0.02, 0.5, 180), np.linspace(-0.6, 0.6, 120), np.linspace(0.0, 0.3, 40)),
        "cc1+--": (np.linspace(0.002, 0.04, 160), np.linspace(-0.45, 0.45, 120), np.linspace(0.0, 0.2, 40)),
    }
    for comp in report5.components:
        idx = comp.idx

        def objective(pts):
            r, x, y = pts[:, 0], pts[:, 1], pts[:, 2]
            eta = np.zeros(pts.shape[:-1] + (3,))
            eta[..., 0] = r
            xi = np.zeros_like(eta)
            xi[..., 0] = x
            xi[..., 1] = y
            phi = sp.phase(idx, xi, eta)
            grad = sp.grad_eta_phase(idx, xi, eta)
            return phi**2 + np.sum(grad * grad, axis=-1)

        rs, xs, ys = windows[idx.serialize()]
        rg, xg, yg = np.meshgrid(rs, xs, ys, indexing="ij")
        pts = np.stack([rg.ravel(), xg.ravel(), yg.ravel()], axis=1)
        vals = objective(pts)
        target = np.array([comp.R, comp.lam * comp.R, 0.0])
        low = pts[vals < 1e-3]
        assert low.size > 0
        # every near-zero of the objective sits in the valley at the component
        assert np.linalg.norm(low - target, axis=1).max() < 0.1
        best = pts[int(np.argmin(vals))]
        refined, residual = _refine_minimum(objective, best, [0.01, 0.01, 0.01])
        assert residual < 1e-16
        assert np.linalg.norm(refined - target) < 1e-5


def test_full_slice_minimum_positive_for_resonance_free_phase():
    # the all-slow phase only degenerates toward infinite frequency (its
    # quartic has no root in the domain); on a bounded window the combined
    # residual stays uniformly positive
    sp = SpeedPair(5.0)
    idx = PhaseIndex.parse("111+--")
    rng = np.random.default_rng(17)
    eta = np.zeros((50_000, 3))
    eta[:, 0] = rng.uniform(0.01, 2.0, 50_000)
    xi = np.zeros((50_000, 3))
    xi[:, 0] = rng.uniform(-2.0, 2.0, 50_000)
    xi[:, 1] = rng.uniform(0.0, 2.0, 50_000)
    phi = sp.phase(idx, xi, eta)
    grad = sp.grad_eta_phase(idx, xi, eta)
    objective = phi**2 + np.sum(grad * grad, axis=-1)
    assert objective.min() > 0.25


def test_full_index_scan_matches_canonical_merge(report5):
    # scanning all 64 indices directly yields the same outcome/source sets
    # as the canonical-representative scan plus symmetry merging
    sp = SpeedPair(5.0)
    outcomes, sources = set(), set()
    for idx in all_phase_indices():
        for comp in find_resonant_components(sp, idx):
            outcomes.add(round(comp.outcome_radius, 8))
            sources.update(round(r, 8) for r in comp.source_radii)
    assert sorted(outcomes) == [round(v, 8) for v in report5.outcome_radii]
    assert sorted(sources) == [round(v, 8) for v in report5.source_radii]


def test_scan_all_reproduces_golden_lists(report5):
    assert report5.resonant_indices == ["c11+--", "cc1+--"]
    assert len(report5.outcome_radii) == 2
    assert len(report5.source_radii) == 3
    for got, want in zip(report5.outcome_radii, GOLDEN_OUTCOMES):
        assert got == pytest.approx(want, abs=1e-8)
    for got, want in zip(report5.source_radii, GOLDEN_SOURCES):
        assert got == pytest.approx(want, abs=1e-8)


def test_scan_rejects_degenerate_speed():
    with pytest.raises(ValueError):
        scan_all(1.0)


def test_separation_verdict(report5):
    assert report5.separated
    assert report5.min_gap == pytest.approx(0.0063365339, abs=1e-6)
    assert report5.delta0 == pytest.approx(report5.min_gap / 10.0)
    separated, min_gap, _ = check_separation(report5, tau_sep=0.01)
    assert not separated
    assert min_gap == pytest.approx(report5.min_gap)


def test_separation_vacuous_case():
    report = scan_all(5.0, r_max=1e-4)  # below every root: no components
    assert report.components == ()
    assert report.separated
    assert math.isinf(report.min_gap)
    assert report.delta0 == 1.0


def test_symmetry_closure_of_components(report5):
    # the swap image of a component for the swapped index carries
    # (R', lam') = (|lam-1| R, lam/(lam-1)); the sign-flip image is identical
    sp = SpeedPair(5.0)
    for comp in report5.components:
        swapped = comp.idx.swap()
        images = find_resonant_components(sp, swapped)
        assert len(images) == 1
        expected_R = abs(comp.lam - 1.0) * comp.R
        expected_lam = comp.lam / (comp.lam - 1.0)
        assert images[0].R == pytest.approx(expected_R, abs=1e-10)
        assert images[0].lam == pytest.approx(expected_lam, abs=1e-8)
        flipped = find_resonant_components(sp, comp.idx.negate())
        assert len(flipped) == 1
        assert flipped[0].R == pytest.approx(comp.R, abs=1e-10)
        assert flipped[0].lam == pytest.approx(comp.lam, abs=1e-10)


def test_sweep_min_gap_continuous_between_steps():
    entries = sweep_speed(4.5, 5.5, 9, grid_step=2e-3)
    gaps = [e.min_gap for e in entries]
    assert all(math.isfinite(g) for g in gaps)
    jumps = [abs(b - a) for a, b in zip(gaps, gaps[1:])]
    assert max(jumps) < 0.25 * max(gaps)


def _omega(theta, phi):
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=-1,
    )


def _brute_force_distance(xi, eta, comp, samples=10_000, refine_rounds=3):
    # sample the sphere, then shrink a local grid around the best direction
    rng = np.random.default_rng(1234)
    theta = np.arccos(rng.uniform(-1.0, 1.0, samples))
    phi = rng.uniform(0.0, 2.0 * math.pi, samples)

    def dist_at(th, ph):
        w = _omega(th, ph)
        return np.sqrt(
            np.sum((comp.lam * comp.R * w - xi) ** 2, axis=-1)
            + np.sum((comp.R * w - eta) ** 2, axis=-1)
        )

    vals = dist_at(theta, phi)
    i = int(np.argmin(vals))
    best_t, best_p, window = theta[i], phi[i], 0.1
    for _ in range(refine_rounds):
        ts = np.linspace(best_t - window, best_t + window, 41)
        ps = np.linspace(best_p - window, best_p + window, 41)
        tg, pg = np.meshgrid(ts, ps)
        local = dist_at(tg, pg)
        j = np.unravel_index(np.argmin(local), local.shape)
        best_t, best_p = tg[j], pg[j]
        window /= 15.0
    return float(dist_at(best_t, best_p))


def test_dist_to_component_closed_form_against_sampled_omega(report5):
    comp = report5.components[-1]
    rng = np.random.default_rng(9)
    for _ in range(50):
        xi = rng.uniform(-1.0, 1.0, 3)
        eta = rng.uniform(-1.0, 1.0, 3)
        brute = _brute_force_distance(xi, eta, comp)
        closed = float(dist_to_component(xi, eta, comp))
        assert closed <= brute + 1e-12
        assert brute - closed < 1e-6


def test_dist_to_component_special_points(report5):
    comp = report5.components[-1]
    omega = np.array([0.0, 1.0, 0.0])
    on_set = dist_to_component(comp.lam * comp.R * omega, comp.R * omega, comp)
    assert on_set < 1e-12
    at_zero = dist_to_component(np.zeros(3), np.zeros(3), comp)
    assert at_zero == pytest.approx(comp.R * math.sqrt(comp.lam**2 + 1.0), abs=1e-12)


def test_c5_components_are_simple_roots(report5):
    assert [(comp.order, comp.tangent) for comp in report5.components] == [(1, False)] * 2


def test_polish_recovers_perturbed_root(report5):
    sp = SpeedPair(5.0)
    for comp in report5.components:
        R, confirmed = _polish(sp, comp.idx, comp.R * (1.0 + 1e-7), comp.order)
        assert confirmed
        assert R == pytest.approx(comp.R, rel=1e-14)
    # 111+-- has no zero (Z -> 0 only as r -> inf): Newton steps cannot confirm one
    _, confirmed = _polish(sp, PhaseIndex.parse("111+--"), 1.0, 1)
    assert not confirmed


def test_root_multiplicities_of_known_double_root():
    # (y - 1)^2 (y - 3) (y + 2): rounding splits the double root, which must
    # still come back as one root of multiplicity 2
    coefficients = np.convolve(np.convolve([1.0, -1.0], [1.0, -1.0]), [1.0, -1.0, -6.0])
    roots = root_multiplicities(coefficients)
    assert [order for _, order in roots] == [1, 2, 1]
    assert [y for y, _ in roots] == pytest.approx([-2.0, 1.0, 3.0], rel=1e-7)


def test_order_at_least_one(report5):
    assert all(comp.order >= 1 for comp in report5.components)


def test_sweep_single_step_matches_scan(report5):
    entries = sweep_speed(5.0, 5.0, 1)
    assert len(entries) == 1
    assert entries[0].separated == report5.separated
    assert entries[0].min_gap == pytest.approx(report5.min_gap, abs=1e-12)


def test_sweep_contains_c5_verdict():
    entries = sweep_speed(4.0, 6.0, 3, grid_step=2e-3)
    mid = entries[1]
    assert mid.c == pytest.approx(5.0)
    assert mid.separated
    assert mid.min_gap == pytest.approx(0.00634, abs=1e-4)


def test_sweep_below_unit_speed():
    # for c < 1 the species exchange roles; sweeps there are legal
    entries = sweep_speed(0.4, 0.6, 2, grid_step=2e-3)
    assert all(e.separated for e in entries)
    assert all(math.isfinite(e.min_gap) for e in entries)


def test_sweep_rejects_bad_ranges():
    with pytest.raises(ValueError):
        sweep_speed(0.5, 2.0, 4)
    with pytest.raises(ValueError):
        sweep_speed(2.0, 10.0, 0)


def test_report_serialization_round_trip(report5):
    doc = report5.to_dict()
    assert doc["schema"] == "resonance-report/1"
    assert doc["resonant_phases"] == ["c11+--", "cc1+--"]
    assert doc["separated"] is True
    assert len(doc["components"]) == 2


# --- independent oracle: sign changes of Z on a log grid, confirmed in mpmath

mpmath.mp.dps = 50


def _gap_mp(c, idx, r):
    """Z(r) at 50 digits, straight from the bracket definitions; None off the domain."""
    speed = {"c": mpmath.mpf(c), "1": mpmath.mpf(1)}
    ck, cl, cm = speed[idx.k], speed[idx.l], speed[idx.m]
    r = mpmath.mpf(r)
    v = idx.s1 * idx.s2 * cl**2 * r / mpmath.sqrt(1 + cl**2 * r**2)
    if abs(v) >= cm:
        return None
    s = v / (cm * mpmath.sqrt(cm**2 - v**2))
    bracket = lambda a, x: mpmath.sqrt(1 + a**2 * x**2)  # noqa: E731
    return idx.s0 * bracket(ck, r + s) + idx.s1 * bracket(cl, r) + idx.s2 * bracket(cm, s)


def _oracle_roots(speeds, idx, r_max=100.0, points=4000):
    hi = min(r_max, lambda_domain_bound(speeds, idx) * (1.0 - 1e-12))
    r = np.geomspace(1e-12, hi, points)
    z = time_resonance_gap(speeds, idx, r)
    roots = []
    for i in np.nonzero(np.sign(z[:-1]) * np.sign(z[1:]) < 0.0)[0]:
        lo, up = _gap_mp(speeds.c_fast, idx, r[i]), _gap_mp(speeds.c_fast, idx, r[i + 1])
        if lo is None or up is None or lo * up >= 0:
            continue  # a sign change of rounding noise only
        roots.append(brentq(lambda x: float(time_resonance_gap(speeds, idx, x)),
                            r[i], r[i + 1], xtol=1e-300, rtol=1e-15))
    return roots


ORACLE_SPEEDS = sorted(
    {float(c) for c in np.geomspace(0.05, 0.99, 8)}
    | {float(c) for c in np.geomspace(1.01, 2000.0, 10)}
    | {1.0 - 1e-3, 1.0 + 1e-3, 1.0 - 1e-4, 1.0 + 1e-4, 11.0}
)


@pytest.mark.parametrize("c", ORACLE_SPEEDS)
def test_solver_matches_sign_change_oracle(c):
    speeds = SpeedPair(c)
    for idx in canonical_phase_indices():
        expected = _oracle_roots(speeds, idx)
        got = find_resonant_components(speeds, idx)
        assert [comp.R for comp in got] == pytest.approx(expected, rel=1e-12), idx.serialize()
        lams = [float(space_resonance_lambda(speeds, idx, R)) for R in expected]
        assert [comp.lam for comp in got] == pytest.approx(lams, rel=1e-12), idx.serialize()
        # the quartic alone, before any Newton step, already has every root
        quartic, radius_of = resonance_quartic(speeds, idx)
        raw = [radius_of(y) for y, _ in root_multiplicities(quartic)]
        raw = [r for r in raw if not math.isnan(r)]
        for R in expected:
            assert min(abs(r - R) for r in raw) <= 1e-12 * R, idx.serialize()


@pytest.mark.parametrize("c", [800.0, 900.0, 2000.0])
def test_large_speeds_find_both_families(c):
    report = scan_all(c)
    assert report.resonant_indices == ["c11+--", "cc1+--"]
    assert len(report.components) == 2
    assert report.warnings == ()
    (c11,) = [comp for comp in report.components if comp.idx.serialize() == "c11+--"]
    assert c11.R == pytest.approx(math.sqrt(3.0 / (4.0 * (c * c - 1.0))), rel=1e-10)
