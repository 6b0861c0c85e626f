"""Double Bragg diffraction pulses and Mach-Zehnder interferometry.

Recoil units throughout: hbar = 1, k_L = 1, omega_rec = 1, so the atom
mass is 1/2, a plane wave |p> carries energy p^2 and the two-photon
resonance sits at 4 omega_rec.
"""

from .exceptions import (
    BoundViolation,
    ConfigError,
    IntegratorFailure,
    NoExtremaFound,
    OutOfZone,
    PoleProximity,
    ResolutionError,
    SpectralOverflow,
)
from .grid import (
    GridSpec,
    GridState,
    MomentumPortHistogram,
    free_propagate_analytic,
    momentum_histogram,
    node_wavepacket,
    prepare_wavepacket,
    split_step_pulse,
)
from .interferometer import (
    ContrastResult,
    FluctuationResult,
    FringeScan,
    MzConfig,
    default_t_grid,
    extract_contrast,
    fluctuation_robustness,
    ideal_bs_matrix,
    ideal_mirror_matrix,
    oracle_fringe,
    t_scan,
    total_s_matrix,
)
from .io import ResultTable, ScenarioConfig
from .multilevel import (
    bare_transform,
    build_hamiltonian,
    integrated_efficiency,
    propagate_unitaries,
)
from .strategies import (
    OptimizationProblem,
    OptimizationResult,
    StrategySpec,
    bs_cost,
    builtin_strategy,
    integrated_mirror_efficiency,
    load_knot_table,
    mirror_cost,
    oct_mirror_envelope,
    oct_mirror_problem,
    optimize,
    save_knot_table,
)
from .tls import (
    AcStarkCoefficients,
    TlsState,
    ac_stark_coefficients,
    differential_detuning,
    evolve_tls,
    pulse_area_probability,
    rwa_hamiltonian,
    rwa_probability,
    tls_hamiltonian,
)
from .units import (
    ConstantDetuning,
    GaussianWavePacket,
    KnotDetuning,
    LinearDetuning,
    PulseEnvelope,
    carrier_factor,
)

__version__ = "0.1.0"
