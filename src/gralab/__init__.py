"""Desk-scale laboratory for single-photon splitter statistics.

Closed-form and brute-force coincidence ratios for number, coherent, and
chaotic light on a lossless splitter; the semiclassical intensity bound;
a gated-cascade Monte Carlo with its analytic interpolation curve; causal
field-mode dynamics with local beables, quantum potential, and energy
bookkeeping; and the first-order photodetection amplitude with its
field-sector selection rule.
"""

from .fock import (
    BeamSplitter,
    ChaoticState,
    CoherentState,
    DegenerateState,
    NumberState,
    TruncationError,
    TwoModeFockSpace,
    TwoModeMixture,
    expect_coincidence,
    expect_reflected,
    expect_transmitted,
    g2,
    oracle_g2,
    oracle_output_state,
    split_photons,
)
from .classical import (
    GateIntensityEnsemble,
    ZeroMeanIntensity,
    classical_alpha,
    coincidence_probability,
    singles_probabilities,
)
from .cascade import (
    CascadeConfig,
    ConfigError,
    CountRecord,
    InsufficientCounts,
    SweepPoint,
    alpha_stderr,
    correlation_for_f,
    f_omega,
    g2_analytic,
    measured_alpha,
    simulate,
    sweep_curve,
)
from .beables import (
    BeableFrame,
    EmptyCurve,
    ModePair,
    ModeTrajectory,
    ModulusEvaluator,
    NodeError,
    SingularDenominator,
    StepTooLarge,
    VacuumModes,
    analytic_region1,
    average_intensity_region1,
    average_intensity_region2,
    beables_region1,
    beables_region2,
    beam_intensity_curves,
    beam_magnitudes_region2,
    fitted_frequency,
    frame_consistency_region1,
    frame_consistency_region2,
    integrate_region1,
    is_single_frequency,
    mode_frequencies,
    quantum_potential,
    region1_equations_of_motion,
    region1_modulus,
    region2_frequencies,
    single_frequency_solution,
    single_mode_ground_state,
    total_energy,
    visibility,
    wave_equation_residual,
)
from .photodetect import (
    AbsorptionReport,
    DetectorAtomConfig,
    absorption_matrix_element_check,
    energy_mismatch,
    eta,
    form_factor,
    mode_overlap_factor,
    resonance_factor,
    resonant_wavenumber,
    split_photon_state,
)

__version__ = "0.1.0"
