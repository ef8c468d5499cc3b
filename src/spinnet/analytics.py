"""Closed-form results and the cross-oracle consistency reporter.

The explicit four-node noisy solution, the strong-noise (Zeno)
effective network, and the perfect-transfer extreme case are kept as
published-style claims and evaluated verbatim, hyperbolic functions
continued through complex square roots so no branch switching is
needed. The numeric engines are the ground truth: consistency_report
runs every pair of independent routes against each other and files the
outcome per check. A closed form that disagrees with the engines is
recorded as a documented discrepancy, never silently corrected; only a
disagreement between two engines counts as a mismatch.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import lindblad, perturbation, stochastic
from .network import (
    INPUT_VERTEX,
    OUTPUT_VERTEX,
    NoiseSpec,
    single_excitation_hamiltonian,
    standard_noise_spec,
)
from .propagator import (
    ChannelParams,
    bloch_sphere_average,
    complete_graph_peak_fidelity,
    optimal_avg_fidelity,
    transfer_amplitude,
)

__all__ = [
    "FourNodeClosedForm",
    "ConsistencyCheck",
    "ConsistencyReport",
    "ReportConfig",
    "four_node_closed_form",
    "zeno_effective_hamiltonian",
    "zeno_limit_channel",
    "network_reduction_check",
    "consistency_report",
]


@dataclass(frozen=True)
class FourNodeClosedForm:
    """Literal four-node channel values with the branch parameters that built them."""

    z_sq: float
    lambda_z: complex
    p: complex
    q: complex


def _bracket(eta: float, x: complex, t: float) -> complex:
    """cosh(xt/4) + (eta/x) sinh(xt/4), continued through x = 0."""
    s = t / 4.0
    y = x * s
    if abs(y) < 1e-4:
        # sinh(y)/y expanded so the x -> 0 limit (bracket -> 1 + eta t/4)
        # is exact instead of 0/0
        sinhc = 1.0 + y * y / 6.0 + y**4 / 120.0
        return cmath.cosh(y) + eta * s * sinhc
    return cmath.cosh(y) + eta / x * cmath.sinh(y)


def four_node_closed_form(eta: float, t: float) -> FourNodeClosedForm:
    """Evaluate the explicit four-node noisy-transfer expressions verbatim.

    |z|^2 = 2 e^{-eta t/4} { [cosh(pt/4) + (eta/p) sinh(pt/4)]
                             - 4 cos(2t) [cosh(qt/4) + (eta/q) sinh(qt/4)] } - 3/2
    lambda z = (e^{it - eta t/4}/2) [cosh(qt/4) + (eta/q) sinh(qt/4)] - e^{-it}/2

    with p = sqrt(eta^2 - 256), q = sqrt(eta^2 - 64) taken as complex
    roots, so below the thresholds the hyperbolics continue to
    trigonometric functions with no case split. These are claims under
    test, not engine output: the |z|^2 line evaluates to -7.5 at
    t = 0 under this literal reading, so the consistency report holds
    it against the master-equation engine and records the outcome.
    """
    if eta < 0:
        raise ValueError(f"need eta >= 0, got {eta}")
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    p = cmath.sqrt(complex(eta * eta - 256.0))
    q = cmath.sqrt(complex(eta * eta - 64.0))
    bracket_p = _bracket(eta, p, t)
    bracket_q = _bracket(eta, q, t)
    damp = math.exp(-eta * t / 4.0)
    z_sq = 2.0 * damp * (bracket_p - 4.0 * math.cos(2.0 * t) * bracket_q) - 1.5
    lam_z = cmath.exp((1j - eta / 4.0) * t) / 2.0 * bracket_q - cmath.exp(-1j * t) / 2.0
    return FourNodeClosedForm(z_sq=float(z_sq.real), lambda_z=lam_z, p=p, q=q)


def zeno_effective_hamiltonian(n: int, spec: NoiseSpec) -> np.ndarray:
    """Strong-noise effective Hamiltonian: the complete graph with noisy vertices cut out.

    Strong noise freezes every coherence into or out of the noisy set,
    so the surviving dynamics is the complete graph on the remaining
    vertices. Rows and columns of noisy vertices are zeroed in place
    in the full (n+1)-dimensional basis; dropping them leaves exactly
    single_excitation_hamiltonian(n - m).
    """
    for v in spec.noisy_vertices:
        if not 1 <= v <= n:
            raise ValueError(f"noisy vertex {v} outside 1..{n}")
    h = single_excitation_hamiltonian(n)
    for v in spec.noisy_vertices:
        h[v, :] = 0.0
        h[:, v] = 0.0
    return h


def zeno_limit_channel(n: int, m: int, t: float) -> ChannelParams:
    """Channel predicted in the extreme strong-noise case m = n - 2.

    Only the transfer pair survives, the effective network is a single
    bond, and the state oscillates as cos(t)|in> + i sin(t)|out>: the
    channel is z = i sin t, lambda = 1, reaching perfect transfer at
    t = pi/2 regardless of n. Only the modulus of z is observable in
    the average fidelity; the propagator route realizes the complex
    conjugate phase. Any other m is unsupported here; build
    zeno_effective_hamiltonian and use the propagator instead.
    """
    if m != n - 2:
        raise ValueError(f"unsupported: m = {m} is not the extreme case n - 2 = {n - 2}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return ChannelParams(1j * math.sin(t), 1.0)


@dataclass(frozen=True)
class ConsistencyCheck:
    """One cross-validation record: two routes to a number and the outcome.

    ``engine_grade`` distinguishes engine-vs-engine checks (a mismatch
    is a defect in this package) from checks against transcribed
    closed forms (a persistent disagreement is filed as
    documented-discrepancy and kept visible).
    """

    name: str
    oracle: str
    parameters: dict
    reference: str
    engine: str
    discrepancy: float
    tolerance: float
    engine_grade: bool
    verdict: str = field(init=False)

    def __post_init__(self) -> None:
        if self.discrepancy <= self.tolerance:
            verdict = "match"
        else:
            verdict = "mismatch" if self.engine_grade else "documented-discrepancy"
        object.__setattr__(self, "verdict", verdict)

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "oracle": self.oracle,
            "parameters": self.parameters,
            "reference": self.reference,
            "engine": self.engine,
            "discrepancy": self.discrepancy,
            "tolerance": self.tolerance,
            "engine_grade": self.engine_grade,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class ConsistencyReport:
    """Sorted collection of consistency checks with JSON and text renderings."""

    checks: tuple[ConsistencyCheck, ...]

    @property
    def has_engine_mismatch(self) -> bool:
        return any(c.verdict == "mismatch" for c in self.checks)

    def to_json(self) -> str:
        return json.dumps([c.to_record() for c in self.checks], indent=2)

    def to_text(self) -> str:
        # no timestamps or runtimes here: rendered output must be
        # byte-identical across repeated runs
        width = max(len(c.name) for c in self.checks)
        lines = [
            f"{'check'.ljust(width)}  {'verdict':<24} {'discrepancy':>13} {'tolerance':>10}",
            "-" * (width + 52),
        ]
        for c in self.checks:
            lines.append(
                f"{c.name.ljust(width)}  {c.verdict:<24} {c.discrepancy:>13.3e} {c.tolerance:>10.1e}"
            )
        lines.append("-" * (width + 52))
        lines.append(f"{len(self.checks)} checks")
        return "\n".join(lines)


@dataclass(frozen=True)
class ReportConfig:
    """Knobs for the consistency suite; defaults finish well inside five minutes."""

    n_traj: int = 2000
    dt: float = 1e-3
    seed: int = 20240817


def _fmt(value: complex | float) -> str:
    if isinstance(value, complex):
        return f"{value.real:.12e}{value.imag:+.12e}j"
    return f"{value:.12e}"


def _max_noisy_fidelity(n: int, m: int, eta: float, t_max: float = 2.0 * math.pi) -> float:
    engine = lindblad.LumpedLiouvillian(n, m, eta)

    def fidelity(t: float) -> float:
        return float(lindblad.fidelity_curve(engine, [t]).fidelity[0])

    # the step may not exceed pi/(8n), the bound baseline_max_fidelity
    # enforces, or the search misses the first peak near t = pi/(n - m)
    grid = np.linspace(0.0, t_max, max(801, math.ceil(8 * n * t_max / math.pi) + 1))
    values = lindblad.fidelity_curve(engine, grid).fidelity
    return perturbation.grid_maximum(fidelity, grid, values, xatol=1e-9)


def network_reduction_check(n: int, m: int, eta_large: float) -> ConsistencyCheck:
    """Strong noise on m vertices should act like deleting them.

    Compares the best achievable fidelity of the noisy n-vertex network
    against the noiseless complete graph on n - m vertices (closed
    form), within 0.02. The reduced-size reference is also checked to
    beat the full-size one, the monotonicity that makes the reduction
    an enhancement.
    """
    if eta_large < 100:
        raise ValueError(f"need eta_large >= 100, got {eta_large}")
    if not 0 <= m <= n - 2:
        raise ValueError(f"m must lie in 0..n-2 = {n - 2}, got {m}")
    noisy = _max_noisy_fidelity(n, m, eta_large)
    reduced = complete_graph_peak_fidelity(n - m)
    return ConsistencyCheck(
        name=f"network-reduction-n{n}-m{m}",
        oracle="closed-form peak fidelity of the reduced complete graph",
        parameters={
            "n": n,
            "m": m,
            "eta": eta_large,
            "peak_fidelity_full_size": complete_graph_peak_fidelity(n),
            "monotone_gain": reduced > complete_graph_peak_fidelity(n),
        },
        reference=_fmt(reduced),
        engine=_fmt(noisy),
        discrepancy=abs(noisy - reduced),
        tolerance=0.02,
        engine_grade=True,
    )


def _check_eta0_unitary_limit() -> ConsistencyCheck:
    n, t = 4, 1.3
    h = single_excitation_hamiltonian(n)
    z_unit = transfer_amplitude(h, t, INPUT_VERTEX, OUTPUT_VERTEX)
    params = _four_node_engine_channel(0.0, t)
    disc = abs(params.amplitude - z_unit) + abs(params.dephasing - 1.0)
    return ConsistencyCheck(
        name="eta0-lindblad-vs-unitary",
        oracle="propagator matrix element (independent unitary route)",
        parameters={"n": n, "t": t},
        reference=_fmt(z_unit),
        engine=_fmt(params.amplitude),
        discrepancy=disc,
        tolerance=1e-8,
        engine_grade=True,
    )


def _check_bloch_average() -> ConsistencyCheck:
    params = ChannelParams(0.3 + 0.4j, 0.8)
    closed, u = optimal_avg_fidelity(params)
    quadrature = bloch_sphere_average(params, u)
    return ConsistencyCheck(
        name="bloch-average-vs-closed-form",
        oracle="spherical quadrature (Gauss-Legendre x trapezoid)",
        parameters={"z": _fmt(params.amplitude), "lambda": params.dephasing},
        reference=_fmt(closed),
        engine=_fmt(quadrature),
        discrepancy=abs(quadrature - closed),
        tolerance=1e-9,
        engine_grade=True,
    )


def _check_trajectories(config: ReportConfig) -> ConsistencyCheck:
    n, m, eta, t = 4, 2, 1.0, 1.0
    liouville = lindblad.complete_network_liouvillian(n, m, eta)
    start = lindblad.initial_network_state(n, INPUT_VERTEX, lindblad.PROBE)
    target = lindblad.evolve_at_times(liouville, start, [t])[0]
    plan = stochastic.TrajectoryPlan(
        n_traj=config.n_traj,
        dt=config.dt,
        t_final=t,
        master_seed=config.seed,
        noise=standard_noise_spec(n, m, eta),
    )
    h = single_excitation_hamiltonian(n)
    a, b = lindblad.PROBE.amplitudes()
    psi = np.zeros(n + 1, dtype=complex)
    psi[0], psi[INPUT_VERTEX] = a, b
    result = stochastic.ensemble_average(plan, h, psi)
    excess = np.abs(result.rho_mean.rho - target.rho) - 3.0 * result.std_err
    disc = max(float(excess.max()), 0.0)
    return ConsistencyCheck(
        name="lindblad-vs-trajectories",
        oracle="trajectory ensemble mean (independent stochastic route)",
        parameters={"n": n, "m": m, "eta": eta, "t": t, "n_traj": config.n_traj, "dt": config.dt},
        reference=_fmt(target.rho[OUTPUT_VERTEX, OUTPUT_VERTEX].real),
        engine=_fmt(result.rho_mean.rho[OUTPUT_VERTEX, OUTPUT_VERTEX].real),
        discrepancy=disc,
        tolerance=1e-9,
        engine_grade=True,
    )


def _four_node_engine_channel(eta: float, t: float) -> ChannelParams:
    return lindblad.fidelity_curve(lindblad.LumpedLiouvillian(4, 2, eta), [t]).channels[0]


def _check_four_node_z_sq_t0() -> ConsistencyCheck:
    literal = four_node_closed_form(0.0, 0.0)
    return ConsistencyCheck(
        name="four-node-literal-z-sq-at-t0",
        oracle="exact value 0 (no transfer at t = 0)",
        parameters={"eta": 0.0, "t": 0.0},
        reference=_fmt(0.0),
        engine=_fmt(literal.z_sq),
        discrepancy=abs(literal.z_sq),
        tolerance=1e-8,
        engine_grade=False,
    )


def _check_four_node_z_sq(eta: float, t: float) -> ConsistencyCheck:
    literal = four_node_closed_form(eta, t)
    engine = _four_node_engine_channel(eta, t)
    engine_z_sq = abs(engine.amplitude) ** 2
    return ConsistencyCheck(
        name="four-node-literal-z-sq",
        oracle="master-equation engine",
        parameters={"eta": eta, "t": t},
        reference=_fmt(engine_z_sq),
        engine=_fmt(literal.z_sq),
        discrepancy=abs(literal.z_sq - engine_z_sq),
        tolerance=1e-6,
        engine_grade=False,
    )


def _check_four_node_lambda_z(eta: float, t: float) -> list[ConsistencyCheck]:
    engine = _four_node_engine_channel(eta, t)
    engine_lam_z = engine.dephasing * engine.amplitude
    literal_same = four_node_closed_form(eta, t).lambda_z
    literal_double = four_node_closed_form(2.0 * eta, t).lambda_z
    return [
        ConsistencyCheck(
            name="four-node-literal-lambda-z",
            oracle="master-equation engine",
            parameters={"eta": eta, "t": t},
            reference=_fmt(engine_lam_z),
            engine=_fmt(literal_same),
            discrepancy=abs(literal_same - engine_lam_z),
            tolerance=1e-8,
            engine_grade=False,
        ),
        ConsistencyCheck(
            name="four-node-lambda-z-rescaled",
            oracle="master-equation engine; literal form read at doubled eta, conjugated",
            parameters={"eta": eta, "t": t, "literal_eta": 2.0 * eta},
            reference=_fmt(engine_lam_z),
            engine=_fmt(literal_double.conjugate()),
            discrepancy=abs(literal_double.conjugate() - engine_lam_z),
            tolerance=1e-8,
            engine_grade=False,
        ),
    ]


def _check_four_node_continuity() -> list[ConsistencyCheck]:
    out = []
    for threshold in (8.0, 16.0):
        delta = 1e-9
        below = four_node_closed_form(threshold - delta, 1.7)
        above = four_node_closed_form(threshold + delta, 1.7)
        disc = abs(below.z_sq - above.z_sq) + abs(below.lambda_z - above.lambda_z)
        out.append(
            ConsistencyCheck(
                name=f"four-node-continuity-eta{int(threshold)}",
                oracle="one-sided limits across the trigonometric/hyperbolic threshold",
                parameters={"eta": threshold, "t": 1.7, "delta": delta},
                reference=_fmt(below.z_sq),
                engine=_fmt(above.z_sq),
                discrepancy=disc,
                tolerance=1e-8,
                engine_grade=True,
            )
        )
    return out


def _check_zeno_overlay() -> ConsistencyCheck:
    n, m, eta = 4, 2, 1e3
    times = np.linspace(0.0, 2.0 * math.pi, 161)
    noisy = lindblad.fidelity_curve(lindblad.LumpedLiouvillian(n, m, eta), times).fidelity
    h_eff = zeno_effective_hamiltonian(n, standard_noise_spec(n, m, eta))
    unitary = np.empty_like(noisy)
    for k, t in enumerate(times):
        z = transfer_amplitude(h_eff, float(t), INPUT_VERTEX, OUTPUT_VERTEX)
        unitary[k], _ = optimal_avg_fidelity(ChannelParams(z, 1.0))
    disc = float(np.abs(noisy - unitary).max())
    return ConsistencyCheck(
        name="zeno-effective-vs-lindblad",
        oracle="unitary evolution under the reduced-network Hamiltonian",
        parameters={"n": n, "m": m, "eta": eta, "t_max": float(times[-1])},
        reference=_fmt(float(unitary.max())),
        engine=_fmt(float(noisy.max())),
        discrepancy=disc,
        tolerance=0.01,
        engine_grade=True,
    )


def _check_zeno_limit() -> list[ConsistencyCheck]:
    n, m, t_probe = 4, 2, 0.7
    h_eff = zeno_effective_hamiltonian(n, standard_noise_spec(n, m, 1.0))
    z_eff = transfer_amplitude(h_eff, t_probe, INPUT_VERTEX, OUTPUT_VERTEX)
    predicted = zeno_limit_channel(n, m, t_probe).amplitude
    pst = zeno_limit_channel(n, m, math.pi / 2.0)
    fidelity_pst, _ = optimal_avg_fidelity(pst)
    return [
        ConsistencyCheck(
            name="zeno-limit-pst",
            oracle="exact value 1 (perfect transfer at t = pi/2)",
            parameters={"n": n, "m": m, "t": math.pi / 2.0},
            reference=_fmt(1.0),
            engine=_fmt(fidelity_pst),
            discrepancy=abs(fidelity_pst - 1.0),
            tolerance=1e-12,
            engine_grade=False,
        ),
        ConsistencyCheck(
            name="zeno-amplitude-modulus",
            oracle="effective-Hamiltonian propagator (time convention tau = t)",
            parameters={"n": n, "m": m, "t": t_probe},
            reference=_fmt(abs(z_eff)),
            engine=_fmt(abs(predicted)),
            discrepancy=abs(abs(predicted) - abs(z_eff)),
            tolerance=1e-12,
            engine_grade=False,
        ),
        ConsistencyCheck(
            name="zeno-amplitude-phase",
            oracle="effective-Hamiltonian propagator; phases are complex conjugates",
            parameters={"n": n, "m": m, "t": t_probe},
            reference=_fmt(z_eff),
            engine=_fmt(predicted),
            discrepancy=abs(predicted - z_eff),
            tolerance=1e-12,
            engine_grade=False,
        ),
    ]


def _check_weak_noise(config: ReportConfig) -> list[ConsistencyCheck]:
    n, m, eta = 10, 8, 0.01
    worst = 0.0
    worst_pair = (0.0, 0.0)
    for t in (0.5, 1.0, 2.0):
        printed = perturbation.printed_weak_noise_channel(n, m, eta, t)
        numeric = perturbation.first_order_numeric(n, m, eta, t)
        pair = [
            optimal_avg_fidelity(ChannelParams(ch.abs_z, ch.dephasing))[0] for ch in (printed, numeric)
        ]
        gap = abs(pair[0] - pair[1])
        if gap > worst:
            worst, worst_pair = gap, pair
    checks = [
        ConsistencyCheck(
            name="weak-noise-printed-vs-numeric",
            oracle="exact eta-derivative of the lumped master equation (Van Loan block exponential)",
            parameters={"n": n, "m": m, "eta": eta, "times": [0.5, 1.0, 2.0]},
            reference=_fmt(worst_pair[1]),
            engine=_fmt(worst_pair[0]),
            discrepancy=worst,
            # first order only claims O(eta^2) accuracy; beyond this
            # budget the literal transcription is the suspect
            tolerance=50.0 * eta**2,
            engine_grade=False,
        )
    ]
    t = 1.0
    zeroth = perturbation.printed_weak_noise_channel(n, m, 0.0, t)
    h = single_excitation_hamiltonian(n)
    z_engine = transfer_amplitude(h, t, INPUT_VERTEX, OUTPUT_VERTEX)
    checks.append(
        ConsistencyCheck(
            name="weak-noise-zeroth-order-amplitude",
            oracle="propagator matrix element",
            parameters={"n": n, "t": t},
            reference=_fmt(abs(z_engine) ** 2),
            engine=_fmt(zeroth.z_sq),
            discrepancy=abs(zeroth.z_sq - abs(z_engine) ** 2),
            tolerance=1e-9,
            engine_grade=False,
        )
    )
    beta_gap = max(
        abs(perturbation.beta(n, s) - transfer_amplitude(h, s, INPUT_VERTEX, OUTPUT_VERTEX))
        for s in np.linspace(0.1, 3.0, 7)
    )
    checks.append(
        ConsistencyCheck(
            name="weak-noise-beta-vs-engine-amplitude",
            oracle="propagator matrix element over a time grid",
            parameters={"n": n, "t_grid": "0.1..3.0 (7 points)"},
            reference=_fmt(0.0),
            engine=_fmt(beta_gap),
            discrepancy=float(beta_gap),
            tolerance=1e-9,
            engine_grade=False,
        )
    )
    single = perturbation.printed_weak_noise_channel(10, 1, eta, t)
    checks.append(
        ConsistencyCheck(
            name="weak-noise-xi2-single-vertex",
            oracle="edge counting: one noisy vertex spans no edge, so xi2 must vanish",
            parameters={"n": 10, "m": 1, "eta": eta, "t": t},
            reference=_fmt(0.0),
            engine=_fmt(single.xi2),
            discrepancy=abs(single.xi2),
            tolerance=1e-10,
            engine_grade=False,
        )
    )
    lin_base = perturbation.first_order_numeric(4, 2, 1e-3, 1.0)
    lin_double = perturbation.first_order_numeric(4, 2, 2e-3, 1.0)
    ratio = (lin_double.z_sq - lin_double.z_sq_0) / (lin_base.z_sq - lin_base.z_sq_0)
    checks.append(
        ConsistencyCheck(
            name="weak-noise-linearity-in-eta",
            oracle="doubling eta must exactly double the first-order correction",
            parameters={"n": 4, "m": 2, "eta": 1e-3, "t": 1.0},
            reference=_fmt(2.0),
            engine=_fmt(ratio),
            discrepancy=abs(ratio - 2.0),
            tolerance=1e-10,
            engine_grade=True,
        )
    )
    return checks


def _check_peak_fidelity_monotone() -> ConsistencyCheck:
    worst = 0.0
    monotone = True
    for n in range(2, 13):
        h = single_excitation_hamiltonian(n)
        peak_t = math.pi / n
        z = transfer_amplitude(h, peak_t, INPUT_VERTEX, OUTPUT_VERTEX)
        engine_peak, _ = optimal_avg_fidelity(ChannelParams(z, 1.0))
        worst = max(worst, abs(engine_peak - complete_graph_peak_fidelity(n)))
        if n > 2 and complete_graph_peak_fidelity(n) >= complete_graph_peak_fidelity(n - 1):
            monotone = False
    return ConsistencyCheck(
        name="peak-fidelity-closed-form-monotone",
        oracle="propagator at the first transfer peak t = pi/n",
        parameters={"n_range": "2..12", "strictly_decreasing": monotone},
        reference=_fmt(complete_graph_peak_fidelity(4)),
        engine=_fmt(worst),
        discrepancy=worst if monotone else 1.0,
        tolerance=1e-8,
        engine_grade=True,
    )


def consistency_report(config: ReportConfig | None = None) -> ConsistencyReport:
    """Run the full cross-oracle suite and collect the per-check records.

    Engine-vs-engine checks must all match; closed-form transcriptions
    are allowed to disagree and are then filed as documented
    discrepancies with both values recorded. Rows are sorted by check
    name so two runs produce identical documents.
    """
    config = config or ReportConfig()
    checks: list[ConsistencyCheck] = [
        _check_eta0_unitary_limit(),
        _check_bloch_average(),
        _check_trajectories(config),
        _check_four_node_z_sq_t0(),
        _check_four_node_z_sq(0.5, 1.5 * math.pi),
        *_check_four_node_lambda_z(0.5, 1.5 * math.pi),
        *_check_four_node_continuity(),
        _check_zeno_overlay(),
        *_check_zeno_limit(),
        network_reduction_check(6, 2, 1e3),
        *_check_weak_noise(config),
        _check_peak_fidelity_monotone(),
    ]
    checks.sort(key=lambda c: c.name)
    return ConsistencyReport(tuple(checks))
