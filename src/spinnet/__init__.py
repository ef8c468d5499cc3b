"""Qubit state transfer through fully connected spin networks with edge noise.

The package follows one experiment end to end: build the network and
its single-excitation Hamiltonian (`network`), evolve unitarily or
under the noise-averaged master equation (`propagator`, `lindblad`),
cross-check against stochastic trajectories (`stochastic`), compare
with closed forms and limits (`analytics`, `perturbation`), and drive
everything reproducibly from the command line (`cli`).
"""

from __future__ import annotations

from .analytics import (
    ConsistencyCheck,
    ConsistencyReport,
    FourNodeClosedForm,
    ReportConfig,
    consistency_report,
    four_node_closed_form,
    network_reduction_check,
    zeno_effective_hamiltonian,
    zeno_limit_channel,
)
from .lindblad import (
    DenseStates,
    FidelityCurve,
    Liouvillian,
    LumpedLiouvillian,
    build_liouvillian,
    complete_network_liouvillian,
    evolve_at_times,
    fidelity_curve,
    initial_network_state,
    probe_vector,
)
from .network import (
    INPUT_VERTEX,
    OUTPUT_VERTEX,
    NoiseSpec,
    lindblad_edge_operators,
    single_excitation_hamiltonian,
    standard_noise_spec,
)
from .perturbation import (
    WeakNoiseChannel,
    WeakNoiseIntegrals,
    b_coefficients,
    baseline_max_fidelity,
    beta,
    beta_prime,
    delta_profile,
    first_order_numeric,
    longest_positive_run,
    printed_weak_noise_channel,
)
from .propagator import (
    BlochInput,
    ChannelParams,
    bloch_sphere_average,
    complete_graph_peak_fidelity,
    complete_graph_transfer_prob,
    optimal_avg_fidelity,
    propagator_matrix,
    transfer_amplitude,
)
from .stochastic import (
    EnsembleResult,
    TrajectoryPlan,
    ensemble_average,
    evolve_trajectory,
)

__all__ = [
    "INPUT_VERTEX",
    "OUTPUT_VERTEX",
    "BlochInput",
    "ChannelParams",
    "ConsistencyCheck",
    "ConsistencyReport",
    "DenseStates",
    "EnsembleResult",
    "FidelityCurve",
    "FourNodeClosedForm",
    "Liouvillian",
    "LumpedLiouvillian",
    "NoiseSpec",
    "ReportConfig",
    "TrajectoryPlan",
    "WeakNoiseChannel",
    "WeakNoiseIntegrals",
    "b_coefficients",
    "baseline_max_fidelity",
    "beta",
    "beta_prime",
    "bloch_sphere_average",
    "build_liouvillian",
    "complete_graph_peak_fidelity",
    "complete_graph_transfer_prob",
    "complete_network_liouvillian",
    "consistency_report",
    "delta_profile",
    "ensemble_average",
    "evolve_at_times",
    "evolve_trajectory",
    "fidelity_curve",
    "first_order_numeric",
    "four_node_closed_form",
    "initial_network_state",
    "lindblad_edge_operators",
    "longest_positive_run",
    "network_reduction_check",
    "optimal_avg_fidelity",
    "printed_weak_noise_channel",
    "probe_vector",
    "propagator_matrix",
    "single_excitation_hamiltonian",
    "standard_noise_spec",
    "transfer_amplitude",
    "zeno_effective_hamiltonian",
    "zeno_limit_channel",
]

__version__ = "0.1.0"
