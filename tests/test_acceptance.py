"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one [ACCEPTANCE] verdict line (repeated in the terminal
summary) and fails if its criterion is not met.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest
from conftest import run_cli

from kgpair.bilinear import (
    SpectralField,
    bernstein_check,
    holder_bound_probe,
    lp_project,
    ridge_bound_probe,
    shell_weighted_ratio,
)
from kgpair.cutoffs import CutoffFamily, sample_interaction_points
from kgpair.dispersion import PhaseIndex, SpeedPair
from kgpair.resonance import (
    ConstantsBudget,
    check_separation,
    find_admissible_constants,
    find_resonant_components,
    scan_all,
    verify_budget,
)
from kgpair.simulator import (
    SIGNS,
    SPECIES,
    NonlinearityCoefficients,
    diagonalize,
    profile_of,
    run_resonant_amplification,
    step,
)

GOLDEN_PHASES = ["c11+--", "cc1+--"]
GOLDEN_OUTCOMES = [0.3535533906, 0.3603654667]
GOLDEN_SOURCES = [0.01314860997, 0.1767766953, 0.3472168567]


@pytest.fixture(scope="module")
def report5():
    return scan_all(5.0)


def test_criterion_1_c5_golden_values(acceptance_record, tmp_path):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    result = run_cli("resonances", "--c", "5", "--output", str(out))
    elapsed = time.perf_counter() - start
    doc = json.loads(out.read_text())
    checks = {
        "exit code": result.returncode == 0,
        "phases": doc["resonant_phases"] == GOLDEN_PHASES,
        "outcome count": len(doc["outcome_radii"]) == len(GOLDEN_OUTCOMES),
        "source count": len(doc["source_radii"]) == len(GOLDEN_SOURCES),
        "outcomes@1e-8": all(
            abs(a - b) < 1e-8 for a, b in zip(doc["outcome_radii"], GOLDEN_OUTCOMES)
        ),
        "sources@1e-8": all(
            abs(a - b) < 1e-8 for a, b in zip(doc["source_radii"], GOLDEN_SOURCES)
        ),
        "runtime<10s": elapsed < 10.0,
    }
    failing = [k for k, ok in checks.items() if not ok]
    acceptance_record(
        "C1 c=5 golden values",
        not failing,
        f"runtime {elapsed:.2f}s" + (f"; failing: {failing}" if failing else ""),
    )


def test_criterion_2_closed_form_family(acceptance_record):
    worst_r, worst_lam = 0.0, 0.0
    idx = PhaseIndex.parse("c11+--")
    for c in (2.0, 5.0, 10.0):
        comps = find_resonant_components(SpeedPair(c), idx)
        assert len(comps) == 1
        r_star = math.sqrt(3.0 / (4.0 * (c * c - 1.0)))
        worst_r = max(worst_r, abs(comps[0].R - r_star))
        worst_lam = max(worst_lam, abs(comps[0].lam - 2.0))
    ok = worst_r < 1e-10 and worst_lam < 1e-10
    acceptance_record(
        "C2 closed-form root oracle",
        ok,
        f"max |R - sqrt(3/(4(c^2-1)))| = {worst_r:.2e}, max |lambda - 2| = {worst_lam:.2e}",
    )


def test_criterion_3_separation_verdict(acceptance_record, report5):
    gap_ok = abs(report5.min_gap - 0.0063365) < 1e-6
    separated_ok = report5.separated
    flipped = run_cli("resonances", "--c", "5", "--tau-sep", "0.01")
    flip_ok = flipped.returncode == 2
    lib_sep, _, _ = check_separation(report5, tau_sep=0.01)
    acceptance_record(
        "C3 separation verdict",
        gap_ok and separated_ok and flip_ok and not lib_sep,
        f"min_gap = {report5.min_gap:.10f}, tau-sep 0.01 exit {flipped.returncode}",
    )


def test_criterion_4_constants_feasibility(acceptance_record):
    found = find_admissible_constants(10.0, 1)
    found_ok = isinstance(found, ConstantsBudget) and all(
        c.ok for c in verify_budget(found)
    )
    archived = ConstantsBudget(A=10.0, n=1, d1=5e-4, d2=0.04, d3=1e-4, N=13200)
    archived_checks = verify_budget(archived)
    archived_ok = len(archived_checks) == 12 and all(c.ok for c in archived_checks)
    detail = "search infeasible"
    if found_ok:
        detail = (
            f"found (d1={found.d1:.3g}, d2={found.d2:.3g}, d3={found.d3:.3g}, "
            f"N={found.N}); archived example min slack "
            f"{min(c.slack for c in archived_checks):.3g}"
        )
    acceptance_record("C4 constants feasibility", found_ok and archived_ok, detail)


def test_criterion_5_cutoff_partition(acceptance_record, report5):
    failing = []
    for index in GOLDEN_PHASES:
        family = CutoffFamily.build(report5, idx=index)
        rng = np.random.default_rng(42)
        xi, eta = sample_interaction_points(family, rng, 100_000)
        far = family.dist_to_resonant_set(xi, eta) > 2.0 * family.delta0
        ref_s = family.chi_S(xi[far], eta[far], 1.0)
        ref_t = family.chi_T(xi[far], eta[far], 1.0)
        for rho in (1.0, 0.1, 0.01):
            chi_r = family.chi_R(xi, eta, rho)
            chi_s = family.chi_S(xi, eta, rho)
            chi_t = family.chi_T(xi, eta, rho)
            if np.abs(chi_r + chi_s + chi_t - 1.0).max() >= 1e-12:
                failing.append(f"{index}: partition at rho={rho}")
            if np.abs(family.chi_S(xi[far], eta[far], rho) - ref_s).max() >= 1e-14:
                failing.append(f"{index}: chi_S rho-dependence at rho={rho}")
            if np.abs(family.chi_T(xi[far], eta[far], rho) - ref_t).max() >= 1e-14:
                failing.append(f"{index}: chi_T rho-dependence at rho={rho}")
            if np.any(family.chi_O_tilde(xi) * chi_r != 0.0):
                failing.append(f"{index}: chi_O_tilde * chi_R != 0 at rho={rho}")
    acceptance_record(
        "C5 cutoff partition",
        not failing,
        "10^5 points, rho in {1, 0.1, 0.01}, both resonant phases"
        + (f"; failing: {failing}" if failing else ""),
    )


def test_criterion_6_operator_bounds(acceptance_record):
    failing = []
    holder = holder_bound_probe(pairs=100, seed=0)
    worst = max(row["max_normalized_ratio"] for row in holder["rows"])
    if worst > 1.0 + 1e-6:
        failing.append(f"holder ratio {worst:.8f}")

    ridge = ridge_bound_probe(trials=8, seed=0)
    constants = [row["profile_constant"] for row in ridge["rows"]]
    adapted = [row["adapted_ratio"] for row in ridge["rows"]]
    if max(constants) / min(constants) >= 1.1:
        failing.append("ridge constant varies >= 10%")
    if max(adapted) / min(adapted) >= 1.1:
        failing.append("ridge measured ratio varies >= 10%")
    for row in ridge["rows"]:
        if row["adapted_ratio"] > row["grid_constant"] * (1.0 + 1e-6):
            failing.append(f"ridge bound violated at rho={row['rho']}")

    dxi = 2.0 * math.pi / 128.0
    for s in (0.5, 1.0):
        lo, hi = dxi, 10.0 * dxi
        c_lo, c_hi = shell_weighted_ratio(16 * dxi, [(lo, s), (hi, s)])
        measured = c_lo / c_hi
        predicted = (lo / hi) ** (s / 3.0)
        if not (1.0 / 3.0 < measured / predicted < 3.0):
            failing.append(f"shell scaling s={s}: factor {measured / predicted:.3f}")
    acceptance_record(
        "C6 operator bounds",
        not failing,
        f"holder max {worst:.6f} over 100 pairs; ridge constants "
        f"{min(constants):.4f}..{max(constants):.4f}"
        + (f"; failing: {failing}" if failing else ""),
    )


def test_criterion_7_bernstein_littlewood_paley(acceptance_record):
    failing = []
    grid = SpectralField.zeros(1, 2048, 64.0)
    rng = np.random.default_rng(1)
    f = grid.with_coef(rng.normal(size=2048) + 1j * rng.normal(size=2048))
    for j, jp in ((0, 2), (1, 3), (2, 5), (0, 5)):
        if np.abs(lp_project(lp_project(f, j), jp).coef).max() >= 1e-12:
            failing.append(f"P_{j} P_{jp} != 0")
    j_max = 4
    band = grid.with_coef(f.coef * (grid.frequency_norms() <= 0.75 * 2.0**j_max))
    total = lp_project(band, 0, mode="ball")
    for j in range(j_max + 1):
        total = total + lp_project(band, j)
    if np.abs(total.coef - band.coef).max() >= 1e-12:
        failing.append("telescoped identity")
    ratios = [bernstein_check(j, 6.0, 2.0, trials=50, seed=2) for j in range(6)]
    spread = max(ratios) / min(ratios)
    if spread >= 2.0:
        failing.append(f"Bernstein spread {spread:.2f}")
    acceptance_record(
        "C7 Bernstein and Littlewood-Paley",
        not failing,
        f"Bernstein (6,2) j-spread factor {spread:.3f}"
        + (f"; failing: {failing}" if failing else ""),
    )


def _smooth_real(grid, rng, scale):
    coef = np.zeros(grid.n, dtype=complex)
    coef[0] = rng.normal()
    for k in range(1, 8):
        a = rng.normal() + 1j * rng.normal()
        coef[k], coef[-k] = a, np.conj(a)
    f = grid.with_coef(coef * scale)
    return SpectralField.from_physical(f.to_physical().real, grid.box_length)


def test_criterion_8_simulator_integrity(acceptance_record):
    failing = []
    grid = SpectralField.zeros(1, 256, 64.0)
    rng = np.random.default_rng(3)
    sp = SpeedPair(5.0)
    mixed = NonlinearityCoefficients(
        alpha=0.3, beta=0.1, gamma=0.2, delta=0.25, eps=0.15, zeta=0.05
    )
    keys = [(s, sg) for s in SPECIES for sg in SIGNS]

    state = diagonalize(
        {s: _smooth_real(grid, rng, 0.1) for s in SPECIES},
        {s: _smooth_real(grid, rng, 0.1) for s in SPECIES},
        sp,
    )
    current = state
    for dt in (0.3, 0.7, 1.3):
        advanced = step(current, dt, NonlinearityCoefficients.zero())
        drift = max(
            np.abs(np.abs(advanced.field(*k).coef) - np.abs(current.field(*k).coef)).max()
            for k in keys
        )
        if drift >= 1e-14:
            failing.append(f"modulus drift {drift:.2e} at dt={dt}")
        current = advanced

    def advance(dt, scheme):
        s = state
        for _ in range(int(round(1.0 / dt))):
            s = step(s, dt, mixed, scheme=scheme)
        return s

    orders = {}
    for scheme, nominal in (("ifrk4", 4), ("ifrk2", 2)):
        ref = advance(0.0125, scheme)

        def err(s):
            return sum(
                np.abs(s.field(*k).coef - ref.field(*k).coef).max() for k in keys
            )

        observed = math.log2(err(advance(0.1, scheme)) / err(advance(0.05, scheme)))
        orders[scheme] = observed
        if abs(observed - nominal) > 0.3:
            failing.append(f"{scheme} order {observed:.2f} vs {nominal}")

    drifts = {}
    for eps in (1e-3, 1e-2):
        rng_eps = np.random.default_rng(4)
        s = diagonalize(
            {sp_: _smooth_real(grid, rng_eps, eps) for sp_ in SPECIES},
            {sp_: _smooth_real(grid, rng_eps, eps) for sp_ in SPECIES},
            sp,
        )
        p0 = profile_of(s)
        for _ in range(20):
            s = step(s, 0.1, mixed)
        p1 = profile_of(s)
        drifts[eps] = sum(
            np.linalg.norm(p1.field(*k).coef - p0.field(*k).coef) for k in keys
        )
    ratio = drifts[1e-2] / drifts[1e-3]
    if not (50.0 < ratio < 200.0):
        failing.append(f"amplitude scaling ratio {ratio:.1f}")
    acceptance_record(
        "C8 simulator integrity",
        not failing,
        f"orders ifrk4={orders['ifrk4']:.2f} ifrk2={orders['ifrk2']:.2f}, "
        f"eps^2 ratio {ratio:.1f}"
        + (f"; failing: {failing}" if failing else ""),
    )


def test_criterion_9_resonant_amplification(acceptance_record, report5, bundled_run):
    result, prefix = bundled_run
    record = json.loads(prefix.with_suffix(".json").read_text())
    archived = json.loads(
        resources.files("kgpair.configs")
        .joinpath("resonant_c5_calibration.json")
        .read_text("utf-8")
    )
    zero = run_resonant_amplification(
        report5, NonlinearityCoefficients.zero(), t_final=20.0, dt=0.25
    )
    checks = {
        "exit 0": result.returncode == 0,
        "conclusive": not record["inconclusive"],
        "ratio>=5": record.get("growth_ratio", 0.0) >= 5.0,
        "matches archive": abs(record["growth_ratio"] - archived["growth_ratio"])
        <= 1e-6 * archived["growth_ratio"],
        "zero-coeff ratio 1±1e-9": abs(zero["growth_ratio"] - 1.0) < 1e-9,
    }
    failing = [k for k, ok in checks.items() if not ok]
    acceptance_record(
        "C9 resonant amplification",
        not failing,
        f"growth ratio {record.get('growth_ratio', float('nan')):.1f} "
        f"(archived {archived['growth_ratio']:.1f})"
        + (f"; failing: {failing}" if failing else ""),
    )
