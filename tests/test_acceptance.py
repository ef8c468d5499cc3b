"""Acceptance gate: eight release criteria, one scoreboard line each.

Every test registers its measured numbers with the scoreboard before
asserting, so the terminal summary shows the values even for a red
criterion.

Rates: eta here is the package noise strength, whose edge dissipator
has coefficient 2 eta. The eta of ``four_node_closed_form`` equals that
coefficient, so the closed form at 2 eta describes the engine at eta.

Criterion 3 asserts the noise benefit the four-node dynamics delivers.
3a: at the resonance time every noisy rate beats the clean network,
and the fidelity is non-decreasing on every rung from the exceptional
point eta = 4 on (below it the fidelity wobbles by about 1e-3, and the
scoreboard reports that dip). 3b: strong noise drives the best
fidelity to one as 1 - F_best = 2 pi / (3 eta) + O(1/eta^2): the
scaled shortfall stays below 2 pi / 3, its gap to 2 pi / 3 halves per
doubling of eta, and F_best clears 0.99 wherever the law does.
"""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest
from oracle import cut_hamiltonian, eigh_propagator

import spinnet as sn
from spinnet import analytics
from spinnet.cli import run_scan_fig2, run_scan_fig3

SEED = 20240817


def _dense(n: int, m: int, eta: float) -> sn.DenseLiouvillian:
    return sn.DenseLiouvillian(n, sn.standard_noise_spec(n, m, eta))


def longest_positive_run(values) -> int:
    """Length in grid cells of the longest consecutive strictly-positive run."""
    best = current = 0
    for positive in np.asarray(values) > 0.0:
        current = current + 1 if positive else 0
        best = max(best, current)
    return best


@pytest.mark.parametrize(
    "values,want",
    [([], 0), ([0.0, 0.0], 0), ([1.0, 2.0, 0.0, 1.0], 2), ([0.0, 1e-9, 1e-9, 1e-9, 0.0, 1.0], 3)],
)
def test_longest_positive_run(values, want):
    assert longest_positive_run(values) == want


def _lindblad_fidelity(n: int, m: int, eta: float, times) -> list[float]:
    # the dense engine, the oracle of the lumped one
    return list(sn.fidelity_curve(_dense(n, m, eta), times).fidelity)


class TestCriterion1NoPerfectTransfer:
    def test_peak_fidelity_matches_closed_form(self, criterion_log):
        worst = 0.0
        for n in range(2, 13):
            # the clean lumped engine's peak over t in [0, 2 pi]
            engine = analytics._max_noisy_fidelity(n, 0, 0.0)
            formula = 0.5 + (2.0 / n) / 3.0 + (4.0 / n**2) / 6.0
            worst = max(worst, abs(engine - formula))
            if n == 2:
                worst = max(worst, abs(engine - 1.0))
        passed = worst < 1e-6
        criterion_log(
            "1 peak-fidelity closed form (n=2..12)",
            passed,
            f"worst |engine - formula| = {worst:.3e} (tol 1e-6)",
        )
        assert passed


class TestCriterion2OracleTriple:
    # 9 noisy cells: each eta is one trajectory pass read at the three
    # times, bit-identical to a separate ensemble per cell
    ETAS = (0.25, 1.0, 4.0)
    TIMES = (0.5, 1.0, 1.5 * math.pi)

    @pytest.mark.slow
    def test_three_engines_agree(self, criterion_log):
        h = sn.single_excitation_hamiltonian(4)
        psi = sn.probe_vector(4, 1)

        worst_sigma = 0.0
        for eta in self.ETAS:
            spec = sn.standard_noise_spec(4, 2, eta)
            plan = sn.TrajectoryPlan(
                n_traj=20000, dt=1e-3, t_final=self.TIMES[-1], master_seed=SEED, noise=spec
            )
            ensembles = sn.ensemble_average(plan, psi, times=self.TIMES)
            engine = sn.DenseLiouvillian(4, spec)
            for t, mean, std_err in zip(self.TIMES, ensembles.rho_mean.rho, ensembles.std_err):
                exact = engine.evolve(psi, [t]).rho[0]
                sigma = np.maximum(std_err, 1e-30)
                worst_sigma = max(worst_sigma, float((np.abs(mean - exact) / sigma).max()))

        # noiseless master equation is the unitary engine
        worst_unitary = 0.0
        clean = _dense(4, 2, 0.0)
        for t in (0.5, 1.0, 1.5 * math.pi):
            z_master = sn.fidelity_curve(clean, [t]).amplitude[0]
            z_unitary = eigh_propagator(h, t)[2, 1]
            worst_unitary = max(worst_unitary, abs(z_master - z_unitary))

        # halving the master-equation step must not move the state: the
        # endpoint of a uniform grid of step ~1e-3, then ~5e-4, is reached
        # by repeated powers of expm(G * step)
        engine = _dense(4, 2, 1.0)
        coarse = engine.evolve(psi, np.linspace(0.0, 1.5 * math.pi, 4713)).rho[-1]
        fine = engine.evolve(psi, np.linspace(0.0, 1.5 * math.pi, 9425)).rho[-1]
        drift = float(np.max(np.abs(coarse - fine)))

        passed = worst_sigma <= 3.0 and worst_unitary < 1e-8 and drift <= 1e-8
        criterion_log(
            "2 oracle triple agreement (9 noisy cells)",
            passed,
            f"max |diff|/std_err = {worst_sigma:.2f} (<= 3), unitary limit "
            f"{worst_unitary:.1e}, dt-halving drift {drift:.1e} (<= 1e-8)",
        )
        assert passed


class TestCriterion3NoiseBenefit:
    RESONANCE = 1.5 * math.pi

    def test_3a_fidelity_nondecreasing_in_rate(self, criterion_log):
        # The clean network transfers nothing at the resonance time (z = 0,
        # F = 1/2). Below the exceptional point of the four-node generator,
        # where the closed form's q = sqrt((2 eta)^2 - 64) is imaginary, the
        # coherence sector still oscillates and F wobbles by about 1e-3
        # (maximum near eta = 2.26, minimum near eta = 3.51). From the
        # exceptional point on, F climbs monotonically.
        etas = list(range(0, 65, 2))
        fids = [
            _lindblad_fidelity(4, 2, float(eta), [self.RESONANCE])[0] for eta in etas
        ]
        ep = next(
            i
            for i, eta in enumerate(etas)
            if sn.four_node_closed_form(2.0 * eta, 0.0).q.imag == 0.0
        )
        diffs = np.diff(fids)
        dip = float(diffs[:ep].min())
        dip_at = etas[int(diffs[:ep].argmin())]
        worst = float(diffs[ep:].min())
        where = etas[ep + int(diffs[ep:].argmin())]
        noisy_floor = min(fids[1:])
        benefit = noisy_floor > fids[0]
        monotone = worst >= -1e-12
        passed = benefit and monotone
        criterion_log(
            "3a resonance fidelity beats clean, non-decreasing past eta = 4",
            passed,
            f"below eta = {etas[ep]}: min gain {dip:.3e} at eta = {dip_at} -> {dip_at + 2}; "
            f"from eta = {etas[ep]}: min gain {worst:.3e} at eta = {where} -> {where + 2} "
            f"(>= -1e-12); noisy F >= {noisy_floor:.6f} > F(0) = {fids[0]:.6f}",
        )
        assert benefit, (
            f"noise gives no benefit at the resonance time: min noisy F = {noisy_floor:.8f} "
            f"against clean F = {fids[0]:.8f}"
        )
        assert monotone, (
            "fidelity at the resonance time is not monotone past the exceptional point: "
            f"F(eta={where}) = {fids[etas.index(where)]:.8f} exceeds "
            f"F(eta={where + 2}) = {fids[etas.index(where) + 1]:.8f}"
        )

    @staticmethod
    def _best_fidelity(eta: float) -> float:
        coarse = np.linspace(0.0, 2 * math.pi, 2001)
        fids = _lindblad_fidelity(4, 2, eta, coarse)
        k = int(np.argmax(fids))
        window = np.linspace(coarse[max(k - 1, 0)], coarse[min(k + 1, len(coarse) - 1)], 81)
        return max(_lindblad_fidelity(4, 2, eta, window))

    def test_3b_strong_noise_beats_099(self, criterion_log):
        # Zeno regime: in the basis a = (|1> + |2>)/sqrt2, s = (|3> + |4>)/sqrt2
        # the Hamiltonian couples a and s with strength 2, and the edge
        # dissipator damps the coherence of s at rate eta. Eliminating s
        # leaves a losing amplitude at rate 4/eta, so near t = pi/2 the
        # coherence is 1 - pi/eta, the population 1 - 2 pi/eta, and
        # 1 - F_best = 2 pi / (3 eta) + O(1/eta^2), approached from below.
        law = 2 * math.pi / 3
        rates = (200.0, 400.0, 800.0)
        best = [self._best_fidelity(eta) for eta in rates]
        scaled = [eta * (1.0 - f) for eta, f in zip(rates, best)]
        gaps = [law - s for s in scaled]
        ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
        # the bar applies where the leading law itself clears it
        bar = [(eta, f) for eta, f in zip(rates, best) if 1.0 - law / eta > 0.99]
        below_law = all(s < law for s in scaled)
        halving = all(1.6 <= r <= 2.4 for r in ratios)
        clears = all(f > 0.99 for _, f in bar)
        passed = below_law and halving and clears
        criterion_log(
            "3b strong-noise shortfall follows 2pi/(3 eta), F > 0.99 where the law clears it",
            passed,
            "eta(1 - F_best) = "
            + ", ".join(f"{s:.4f} (eta={eta:g})" for eta, s in zip(rates, scaled))
            + f" (< 2pi/3 = {law:.4f}); gap ratios "
            + ", ".join(f"{r:.3f}" for r in ratios)
            + " (window [1.6, 2.4], target 2); "
            + ", ".join(f"F_best(eta={eta:g}) = {f:.6f}" for eta, f in bar)
            + " (need > 0.99)",
        )
        assert below_law, f"strong-noise shortfall exceeds 2pi/(3 eta): eta(1 - F_best) = {scaled}"
        assert halving, f"gap to 2pi/3 does not halve per doubling of eta: ratios {ratios}"
        assert clears, f"best strong-noise fidelity below 0.99: {bar}"


class TestCriterion4NetworkReduction:
    @pytest.mark.parametrize("n,m", [(4, 2), (6, 2), (6, 4)])
    def test_strong_noise_removes_noisy_vertices(self, n, m, criterion_log):
        times = np.linspace(0.0, 2 * math.pi, 129)
        lind = _lindblad_fidelity(n, m, 1000.0, times)
        spec = sn.standard_noise_spec(n, m, 1.0)
        h_eff = cut_hamiltonian(n, spec.noisy_vertices)
        eff = []
        for t in times:
            z = eigh_propagator(h_eff, float(t))[2, 1]
            f, _ = sn.optimal_avg_fidelity(sn.ChannelParams(z, 1.0))
            eff.append(f)
        dev = float(np.max(np.abs(np.array(lind) - np.array(eff))))
        passed = dev <= 0.02
        criterion_log(
            f"4 strong-noise reduction (n={n}, m={m})",
            passed,
            f"max |F_master - F_reduced| = {dev:.5f} (tol 0.02)",
        )
        assert passed


class TestCriterion5FirstOrderScaling:
    def test_residual_scales_quadratically(self, criterion_log):
        def residual(eta: float) -> float:
            full = _lindblad_fidelity(4, 2, eta, [1.0])[0]
            ch = sn.first_order_numeric(4, 2, eta, 1.0)
            first, _ = sn.optimal_avg_fidelity(sn.ChannelParams(ch.abs_z, ch.dephasing))
            return abs(full - first)

        cache = {eta: residual(eta) for eta in (1e-2, 5e-3, 2.5e-3, 1.25e-3)}
        ratios = [cache[eta] / cache[eta / 2] for eta in (1e-2, 5e-3, 2.5e-3)]
        passed = all(2.6 <= r <= 5.4 for r in ratios)
        criterion_log(
            "5 first-order residual halving ratio",
            passed,
            "ratios " + ", ".join(f"{r:.3f}" for r in ratios) + " (window [2.6, 5.4], target 4)",
        )
        assert passed


class TestCriterion6EnhancementWindows:
    def test_windows_exist_across_sizes(self, criterion_log):
        # the fig2 scan: n = 4..12 at m = n - 2, eta = 0.01, t = k 4 pi / 2000
        scan = run_scan_fig2({"t_steps": 2000})
        missing = [n for n in range(4, 13) if not any(np.any(s.delta > 0) for s in scan if s.n == n)]
        passed = missing == []
        criterion_log(
            "6a enhancement window exists for n=4..12 (m=n-2)",
            passed,
            "all sizes show a gain window" if passed else f"no window at n in {missing}",
        )
        assert passed

    def test_window_width_grows_with_noisy_set(self, criterion_log):
        # the fig3 scan: n = 10, m = 2..8, eta = 0.01, t = k 4 pi / steps
        steps = 16000
        dt = 4 * math.pi / steps
        scan = run_scan_fig3({"t_steps": steps})
        widths = []
        for m in range(2, 9):
            prof = np.concatenate([s.delta for s in scan if s.m == m])
            assert np.any(prof > 0), f"no enhancement window at n=10, m={m}"
            widths.append(longest_positive_run(prof) * dt)
        gaps = np.diff(widths)
        passed = bool(np.all(gaps >= -1e-12))
        criterion_log(
            "6b widest window non-decreasing in m (n=10, m=2..8)",
            passed,
            "widths " + ", ".join(f"{w:.4f}" for w in widths),
        )
        assert passed


class TestCriterion7Conservation:
    def test_randomized_invariant_sweep(self, criterion_log):
        rng = np.random.default_rng(SEED)
        worst = {"trace": 0.0, "herm": 0.0, "vacuum": 0.0}
        min_eig = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(0, n - 1))
            eta = float(rng.choice([0.0, 0.05, 0.5, 5.0, 40.0]))
            theta = float(rng.uniform(0.2, math.pi - 0.2))
            phi = float(rng.uniform(0.0, 2 * math.pi))
            probe = sn.BlochInput(theta, phi)
            psi = sn.probe_vector(n, 1, probe)
            vac0 = abs(psi[0]) ** 2
            times = rng.uniform(0.1, 6.0, size=6)
            for rho in _dense(n, m, eta).evolve(psi, np.sort(times)).rho:
                worst["trace"] = max(worst["trace"], abs(np.trace(rho).real - 1.0))
                worst["herm"] = max(worst["herm"], float(np.max(np.abs(rho - rho.conj().T))))
                worst["vacuum"] = max(worst["vacuum"], abs(rho[0, 0].real - vac0))
                min_eig = min(min_eig, float(np.linalg.eigvalsh(rho).min()))
        passed = all(v < 1e-9 for v in worst.values()) and min_eig >= -1e-8
        criterion_log(
            "7 conservation suite (100 randomized configs, n<=8)",
            passed,
            f"trace {worst['trace']:.1e}, herm {worst['herm']:.1e}, "
            f"vacuum {worst['vacuum']:.1e} (< 1e-9), min eig {min_eig:.1e} (>= -1e-8)",
        )
        assert passed


class TestCriterion8Determinism:
    @staticmethod
    def _run(args, config_text, tmp_path, tag="cfg", blas_threads=None):
        import os

        path = tmp_path / f"{tag}.json"
        path.write_text(config_text)
        cmd = [sys.executable, "-m", "spinnet.cli", *args, "--config", str(path)]
        env = dict(os.environ)
        if blas_threads is not None:
            for name in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env.pop(name, None)
            env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
        return subprocess.run(cmd, capture_output=True, env=env)

    def test_bytes_independent_of_blas_threads(self, criterion_log, tmp_path):
        # large n, where a dense engine's BLAS reductions round
        # differently per thread count, the four-node surface, and the
        # 52 x 52 Van Loan block of the first-order route
        cases = {
            "fig2 n=16..20": ("fig2", '{"n_min": 16, "n_max": 20, "t_steps": 100}'),
            "fig1 n=4": ("fig1", '{"eta_values": [0, 4, 8], "t_steps": 64}'),
            "simulate perturbation-numeric n=12 m=10": (
                "simulate",
                '{"n": 12, "m": 10, "eta": 0.05, "method": "perturbation-numeric"}',
            ),
        }
        verdicts = {}
        for label, (command, config) in cases.items():
            runs = [
                self._run([command], config, tmp_path, tag=command, blas_threads=k) for k in (1, 2)
            ]
            assert all(r.returncode == 0 for r in runs), runs[0].stderr
            verdicts[label] = runs[0].stdout == runs[1].stdout and len(runs[0].stdout) > 0
        passed = all(verdicts.values())
        criterion_log(
            "8 byte-identical CLI output at OPENBLAS_NUM_THREADS = 1 and 2",
            passed,
            ", ".join(f"{label} {'ok' if ok else 'DIFFERS'}" for label, ok in verdicts.items()),
        )
        assert passed

    def test_byte_identical_output(self, criterion_log, tmp_path):
        sim = (
            '{"n": 4, "m": 2, "eta": 1.0, "t_min": 0.4, "t_max": 0.8, "t_steps": 2, '
            '"method": "trajectories", "n_traj": 60, "master_seed": 7}'
        )
        runs = [self._run(["simulate"], sim, tmp_path, tag="sim") for _ in range(3)]
        sim_ok = (
            runs[0].stdout == runs[1].stdout == runs[2].stdout and runs[0].returncode == 0
        )

        fig = '{"eta_values": [0, 8], "t_steps": 16}'
        f1 = self._run(["fig1"], fig, tmp_path, tag="fig")
        f2 = self._run(["fig1"], fig, tmp_path, tag="fig")
        fig_ok = f1.stdout == f2.stdout and f1.returncode == 0

        rep = '{"n_traj": 200}'
        r1 = self._run(["report"], rep, tmp_path, tag="rep")
        r2 = self._run(["report"], rep, tmp_path, tag="rep")
        rep_ok = r1.stdout == r2.stdout and r1.returncode == 0

        passed = sim_ok and fig_ok and rep_ok
        criterion_log(
            "8 byte-identical CLI output over repeated runs",
            passed,
            f"simulate {'ok' if sim_ok else 'DIFFERS'}, fig1 {'ok' if fig_ok else 'DIFFERS'}, "
            f"report {'ok' if rep_ok else 'DIFFERS'}",
        )
        assert passed
