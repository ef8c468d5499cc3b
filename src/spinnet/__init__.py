"""Qubit state transfer through fully connected spin networks with edge noise.

The package follows one experiment end to end: place the noise on the
complete graph (`network`), evolve under the noise-averaged master
equation (`lindblad`: `LumpedLiouvillian(n, m, eta)` for one rate,
`DenseLiouvillian(n, noise)` for any `NoiseSpec`), cross-check against
stochastic trajectories (`stochastic`), read the channel's average
fidelity (`propagator`), compare with closed forms and limits
(`analytics`, `perturbation`, whose `beta(n, t)` is the free transfer
amplitude), and drive everything reproducibly from the command line
(`cli`).
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
    zeno_limit_channel,
)
from .lindblad import (
    DenseLiouvillian,
    DenseStates,
    FidelityCurve,
    LumpedLiouvillian,
    fidelity_curve,
    probe_vector,
)
from .network import (
    INPUT_VERTEX,
    OUTPUT_VERTEX,
    NoiseSpec,
    single_excitation_hamiltonian,
    standard_noise_spec,
)
from .perturbation import (
    WeakNoiseChannel,
    WeakNoiseIntegrals,
    b_coefficients,
    beta,
    beta_prime,
    first_order_numeric,
    printed_weak_noise_channel,
)
from .propagator import (
    BlochInput,
    ChannelParams,
    bloch_sphere_average,
    complete_graph_peak_fidelity,
    optimal_avg_fidelity,
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
    "DenseLiouvillian",
    "DenseStates",
    "EnsembleResult",
    "FidelityCurve",
    "FourNodeClosedForm",
    "LumpedLiouvillian",
    "NoiseSpec",
    "ReportConfig",
    "TrajectoryPlan",
    "WeakNoiseChannel",
    "WeakNoiseIntegrals",
    "b_coefficients",
    "beta",
    "beta_prime",
    "bloch_sphere_average",
    "complete_graph_peak_fidelity",
    "consistency_report",
    "ensemble_average",
    "evolve_trajectory",
    "fidelity_curve",
    "first_order_numeric",
    "four_node_closed_form",
    "network_reduction_check",
    "optimal_avg_fidelity",
    "printed_weak_noise_channel",
    "probe_vector",
    "single_excitation_hamiltonian",
    "standard_noise_spec",
    "zeno_limit_channel",
]

__version__ = "0.1.0"
