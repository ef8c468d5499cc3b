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
from .network import INPUT_VERTEX, OUTPUT_VERTEX, standard_noise_spec
from .propagator import (
    ChannelParams,
    bloch_sphere_average,
    complete_graph_peak_fidelity,
    optimal_avg_fidelity,
)

__all__ = [
    "FourNodeClosedForm",
    "ConsistencyCheck",
    "ConsistencyReport",
    "ReportConfig",
    "four_node_closed_form",
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


def zeno_limit_channel(n: int, m: int, t: float) -> ChannelParams:
    """Channel predicted in the extreme strong-noise case m = n - 2.

    Only the transfer pair survives, the effective network is a single
    bond, and the state oscillates as cos(t)|in> + i sin(t)|out>: the
    channel is z = i sin t, lambda = 1, reaching perfect transfer at
    t = pi/2 regardless of n. Only the modulus of z is observable in
    the average fidelity; free evolution on the surviving pair gives
    the complex conjugate phase, beta(2, t) = -i sin t. Any other m is
    unsupported here; the surviving network is then the complete graph
    on n - m vertices, whose amplitude is perturbation.beta(n - m, t).
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


# network, noisy-set size, noise strength and time of the trajectory check
_TRAJECTORY_CASE = (4, 2, 1.0, 1.0)


@dataclass(frozen=True)
class ReportConfig:
    """Knobs for the consistency suite; defaults finish well inside five minutes.

    ``n_traj`` must be at least 2, since one trajectory has no standard
    error to compare the engines against, and ``dt`` must pass
    ``stochastic.check_step`` on the network of the trajectory check;
    both are checked when the config is made.
    """

    n_traj: int = 2000
    dt: float = 1e-3
    seed: int = 20240817

    def __post_init__(self) -> None:
        if self.n_traj < 2:
            raise ValueError(f"n_traj must be at least 2, got {self.n_traj}")
        n, m, eta, _ = _TRAJECTORY_CASE
        stochastic.check_step(standard_noise_spec(n, m, eta), n, self.dt)


def _fmt(value: complex | float) -> str:
    if isinstance(value, complex):
        return f"{value.real:.12e}{value.imag:+.12e}j"
    return f"{value:.12e}"


def _windowed_maximum(curve, grid: np.ndarray) -> float:
    """Largest value seen of the vectorised `curve` on `grid` and four refining windows."""
    values = curve(grid)
    best = float(values.max())
    for _ in range(4):
        # 81 points on the two cells beside the best sample: 40 times finer
        peak = int(np.argmax(values))
        grid = np.linspace(grid[max(peak - 1, 0)], grid[min(peak + 1, grid.size - 1)], 81)
        values = curve(grid)
        best = max(best, float(values.max()))
    return best


def _max_noisy_fidelity(n: int, m: int, eta: float) -> float:
    engine = lindblad.LumpedLiouvillian(n, m, eta)
    # the step may not exceed pi/(8n), or the scan misses the first peak
    # near t = pi/(n - m)
    times = np.linspace(0.0, 2.0 * math.pi, max(801, 16 * n + 1))
    return _windowed_maximum(lambda t: lindblad.fidelity_curve(engine, t).fidelity, times)


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
    z_unit = perturbation.beta(n, t)
    params = _four_node_engine_channel(0.0, t)
    disc = abs(params.amplitude - z_unit) + abs(params.dephasing - 1.0)
    return ConsistencyCheck(
        name="eta0-lindblad-vs-unitary",
        oracle="closed-form free amplitude beta(n, t) (independent unitary route)",
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
    n, m, eta, t = _TRAJECTORY_CASE
    spec = standard_noise_spec(n, m, eta)
    psi = lindblad.probe_vector(n, INPUT_VERTEX)
    target = lindblad.DenseLiouvillian(n, spec).evolve(psi, [t]).rho[0]
    plan = stochastic.TrajectoryPlan(
        n_traj=config.n_traj,
        dt=config.dt,
        t_final=t,
        master_seed=config.seed,
        noise=spec,
    )
    result = stochastic.ensemble_average(plan, psi)
    mean = result.rho_mean.rho[0]
    excess = np.abs(mean - target) - 3.0 * result.std_err[0]
    disc = max(float(excess.max()), 0.0)
    return ConsistencyCheck(
        name="lindblad-vs-trajectories",
        oracle="trajectory ensemble mean (independent stochastic route)",
        parameters={"n": n, "m": m, "eta": eta, "t": t, "n_traj": config.n_traj, "dt": config.dt},
        reference=_fmt(target[OUTPUT_VERTEX, OUTPUT_VERTEX].real),
        engine=_fmt(mean[OUTPUT_VERTEX, OUTPUT_VERTEX].real),
        discrepancy=disc,
        tolerance=1e-9,
        engine_grade=True,
    )


def _four_node_engine_channel(eta: float, t: float) -> ChannelParams:
    curve = lindblad.fidelity_curve(lindblad.LumpedLiouvillian(4, 2, eta), [t])
    return ChannelParams(complex(curve.amplitude[0]), float(curve.dephasing[0]))


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
    # cutting the noisy vertices out of K_n leaves K_{n-m}
    reduced = [perturbation.beta(n - m, float(t)) for t in times]
    unitary = lindblad.FidelityCurve.of(reduced, np.ones(times.size)).fidelity
    disc = float(np.abs(noisy - unitary).max())
    return ConsistencyCheck(
        name="zeno-effective-vs-lindblad",
        oracle="free evolution on the reduced network K_{n-m}: beta(n - m, t)",
        parameters={"n": n, "m": m, "eta": eta, "t_max": float(times[-1])},
        reference=_fmt(float(unitary.max())),
        engine=_fmt(float(noisy.max())),
        discrepancy=disc,
        tolerance=0.01,
        engine_grade=True,
    )


def _check_zeno_limit() -> list[ConsistencyCheck]:
    n, m, t_probe = 4, 2, 0.7
    z_eff = perturbation.beta(n - m, t_probe)
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
            oracle="free amplitude beta(n - m, t) of the reduced network (time convention tau = t)",
            parameters={"n": n, "m": m, "t": t_probe},
            reference=_fmt(abs(z_eff)),
            engine=_fmt(abs(predicted)),
            discrepancy=abs(abs(predicted) - abs(z_eff)),
            tolerance=1e-12,
            engine_grade=False,
        ),
        ConsistencyCheck(
            name="zeno-amplitude-phase",
            oracle="free amplitude beta(n - m, t) of the reduced network; phases are complex conjugates",
            parameters={"n": n, "m": m, "t": t_probe},
            reference=_fmt(z_eff),
            engine=_fmt(predicted),
            discrepancy=abs(predicted - z_eff),
            tolerance=1e-12,
            engine_grade=False,
        ),
    ]


def _check_weak_noise() -> list[ConsistencyCheck]:
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
    grid = np.linspace(0.1, 3.0, 7)
    clean = lindblad.fidelity_curve(lindblad.LumpedLiouvillian(n, 0, 0.0), [t, *grid]).amplitude.tolist()
    z_engine = clean[0]
    checks.append(
        ConsistencyCheck(
            name="weak-noise-zeroth-order-amplitude",
            oracle="lumped master equation at eta = 0",
            parameters={"n": n, "t": t},
            reference=_fmt(abs(z_engine) ** 2),
            engine=_fmt(zeroth.z_sq),
            discrepancy=abs(zeroth.z_sq - abs(z_engine) ** 2),
            tolerance=1e-9,
            engine_grade=False,
        )
    )
    beta_gap = max(abs(perturbation.beta(n, s) - z) for s, z in zip(grid, clean[1:]))
    checks.append(
        ConsistencyCheck(
            name="weak-noise-beta-vs-engine-amplitude",
            oracle="lumped master equation at eta = 0 over a time grid",
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
        clean = lindblad.LumpedLiouvillian(n, 0, 0.0)
        engine_peak = float(lindblad.fidelity_curve(clean, [math.pi / n]).fidelity[0])
        worst = max(worst, abs(engine_peak - complete_graph_peak_fidelity(n)))
        if n > 2 and complete_graph_peak_fidelity(n) >= complete_graph_peak_fidelity(n - 1):
            monotone = False
    return ConsistencyCheck(
        name="peak-fidelity-closed-form-monotone",
        oracle="lumped master equation at eta = 0 at the first transfer peak t = pi/n",
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
        *_check_weak_noise(),
        _check_peak_fidelity_monotone(),
    ]
    checks.sort(key=lambda c: c.name)
    return ConsistencyReport(tuple(checks))
