"""Space-time resonance toolkit for two-speed coupled Klein-Gordon systems."""

from kgpair.bilinear import (
    SpectralField,
    SymbolGrid,
    bernstein_check,
    holder_bound_probe,
    lp_project,
    pseudo_product,
    ridge_bound_probe,
    shell_weighted_ratio,
    snap_lambda,
    symbol_l1_norm,
)
from kgpair.cutoffs import CutoffFamily, bound_probe, bump, smooth_step, theta
from kgpair.dispersion import (
    IndexTransform,
    PhaseIndex,
    SpeedPair,
    all_phase_indices,
    canonical_phase_indices,
    symmetry_reduce,
)
from kgpair.resonance import (
    ConstantsBudget,
    InfeasibleBudget,
    ResonanceReport,
    ResonantComponent,
    check_separation,
    dist_to_component,
    find_admissible_constants,
    find_resonant_components,
    scan_all,
    space_resonance_lambda,
    sweep_speed,
    time_resonance_gap,
    verify_budget,
)
from kgpair.simulator import (
    BlowUpError,
    NonlinearityCoefficients,
    SystemState,
    band_energy,
    diagonalize,
    expand_quadratic,
    profile_of,
    reconstruct,
    run_resonant_amplification,
    step,
)

__version__ = "0.1.0"
