"""Shallow quantum-fingerprinting laboratory for the MOD_p language."""

from .zmod import PrimeModulus, is_prime, mod_inverse, primitive_root
from .coeffsets import (
    CoefficientSet,
    GapFingerprint,
    expand_subset_sums,
    explicit_set,
    gen_aikps,
    gen_cyclic,
    gen_gap,
    gen_random,
    is_proper_gap,
)
from .analysis import (
    AnalysisReport,
    additive_energy,
    analyze,
    check_bias_energy_chain,
    epsilon_of,
    error_prob,
    exp_sum,
    fourier_bias,
    gap_epsilon_bound,
    representation_counts,
    spectrum,
)
from .qfa import QfaState, accept_probability, initial_state, max_error_sweep, run_word, step
from .circuit import (
    Circuit,
    Gate,
    build_aikps,
    build_deep,
    build_shallow,
    cx_count_lnn,
    depth,
    emit_qasm,
    statevector,
)
from .optimize import ComparisonRecord, DescentConfig, DescentResult, compare_experiment, coordinate_descent

__all__ = [name for name in dir() if not name.startswith("_")]
