"""Closed forms, strong-noise limits, and the consistency suite."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from spinnet import analytics
from spinnet.analytics import (
    ConsistencyCheck,
    ReportConfig,
    consistency_report,
    four_node_closed_form,
    network_reduction_check,
    zeno_effective_hamiltonian,
    zeno_limit_channel,
)
from spinnet.lindblad import (
    LumpedLiouvillian,
    complete_network_liouvillian,
    evolve_at_times,
    extract_channel,
    fidelity_curve,
    initial_network_state,
)
from spinnet.network import single_excitation_hamiltonian, standard_noise_spec
from spinnet.propagator import (
    BlochInput,
    complete_graph_peak_fidelity,
    optimal_avg_fidelity,
    transfer_amplitude,
)

PROBE = BlochInput(math.pi / 2, 0.0)


class TestPeakFidelity:
    def test_known_values(self):
        assert complete_graph_peak_fidelity(2) == pytest.approx(1.0, abs=1e-15)
        assert complete_graph_peak_fidelity(4) == pytest.approx(17.0 / 24.0, abs=1e-15)

    def test_monotone_decreasing(self):
        values = [complete_graph_peak_fidelity(n) for n in range(2, 13)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_engine_maximum(self):
        # peak sits at t = pi/n where the transfer amplitude tops out
        for n in (3, 6, 11):
            h = single_excitation_hamiltonian(n)
            z = transfer_amplitude(h, math.pi / n, 1, 2)
            f, _ = optimal_avg_fidelity_from(z)
            assert f == pytest.approx(complete_graph_peak_fidelity(n), abs=1e-12)


def optimal_avg_fidelity_from(z):
    from spinnet.propagator import ChannelParams

    return optimal_avg_fidelity(ChannelParams(z, 1.0))


class TestFourNodeClosedForm:
    def test_coherence_matches_engine_after_rate_relabel(self):
        # the printed coherence solves the same dynamics written with a
        # half-rate convention and a conjugate time direction: engine
        # coherence at eta equals the conjugate closed form at 2 eta
        start = initial_network_state(4, 1, PROBE)
        b = math.sin(math.pi / 4)
        a = math.cos(math.pi / 4)
        for eta, t in [(0.25, 0.8), (1.0, 1.7), (4.0, 3.0), (30.0, 1.2)]:
            liou = complete_network_liouvillian(4, 2, eta)
            st = evolve_at_times(liou, start, [t])[0]
            engine = st.rho[2, 0] / (b * a)
            closed = np.conj(four_node_closed_form(2 * eta, t).lambda_z)
            assert engine == pytest.approx(closed, abs=1e-8)

    def test_zero_noise_coherence_is_transfer_amplitude(self):
        h = single_excitation_hamiltonian(4)
        for t in (0.5, 1.3, 2.9):
            closed = np.conj(four_node_closed_form(0.0, t).lambda_z)
            assert closed == pytest.approx(transfer_amplitude(h, t, 1, 2), abs=1e-12)

    def test_transfer_prob_t0_defect_preserved(self):
        # the transcribed probability expression does not vanish at
        # t = 0; the defect is kept as documented, not repaired
        assert four_node_closed_form(1.0, 0.0).z_sq == pytest.approx(-7.5, abs=1e-12)

    def test_continuous_at_branch_switch_points(self):
        # p and q change between real and imaginary branches at
        # eta = 16 and eta = 8; values must pass through smoothly
        for eta0 in (8.0, 16.0):
            mid = four_node_closed_form(eta0, 1.1)
            lo = four_node_closed_form(eta0 - 1e-9, 1.1)
            hi = four_node_closed_form(eta0 + 1e-9, 1.1)
            assert lo.lambda_z == pytest.approx(mid.lambda_z, abs=1e-7)
            assert hi.lambda_z == pytest.approx(mid.lambda_z, abs=1e-7)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            four_node_closed_form(-1.0, 1.0)


class TestZenoLimit:
    def test_effective_hamiltonian_zeroes_noisy_sector(self):
        hz = zeno_effective_hamiltonian(5, standard_noise_spec(5, 3, 1.0))
        assert np.all(hz[3:, :] == 0) and np.all(hz[:, 3:] == 0)
        assert hz[1, 2] == 1.0

    def test_two_level_limit_reaches_perfect_transfer(self):
        params = zeno_limit_channel(4, 2, math.pi / 2)
        f, _ = optimal_avg_fidelity(params)
        assert f == pytest.approx(1.0, abs=1e-12)
        assert abs(params.amplitude) == pytest.approx(1.0, abs=1e-12)

    def test_limit_requires_extreme_noisy_set(self):
        with pytest.raises(ValueError, match="unsupported"):
            zeno_limit_channel(6, 2, 1.0)

    def test_strong_noise_engine_approaches_limit(self):
        liou = complete_network_liouvillian(4, 2, 1000.0)
        start = initial_network_state(4, 1, PROBE)
        worst = 0.0
        for t in np.linspace(0.0, 2 * math.pi, 33):
            st = evolve_at_times(liou, start, [float(t)])[0]
            f_engine, _ = optimal_avg_fidelity(extract_channel(st, PROBE, 1, 2))
            f_limit, _ = optimal_avg_fidelity(zeno_limit_channel(4, 2, float(t)))
            worst = max(worst, abs(f_engine - f_limit))
        assert worst < 0.01

    def test_reduction_check_matches_smaller_clean_network(self):
        check = network_reduction_check(6, 2, 1000.0)
        assert check.verdict == "match"

    def test_peak_search_finds_first_peak_at_large_n(self):
        # the first peak sits near t = pi/(n - m), narrower than a fixed
        # 801-point grid on [0, 2 pi] resolves at n = 252
        n, m, eta = 252, 2, 400.0
        at_peak = fidelity_curve(LumpedLiouvillian(n, m, eta), [math.pi / (n - m)]).fidelity[0]
        assert analytics._max_noisy_fidelity(n, m, eta) >= at_peak

    def test_reduction_check_requires_strong_noise(self):
        with pytest.raises(ValueError):
            network_reduction_check(6, 2, 10.0)


class TestConsistencyCheckVerdicts:
    def _mk(self, disc, tol, engine_grade):
        return ConsistencyCheck(
            name="probe",
            oracle="unit test",
            parameters={},
            reference="0",
            engine="0",
            discrepancy=disc,
            tolerance=tol,
            engine_grade=engine_grade,
        )

    def test_within_tolerance_is_match(self):
        assert self._mk(1e-10, 1e-9, True).verdict == "match"

    def test_engine_grade_breach_is_mismatch(self):
        assert self._mk(1e-3, 1e-9, True).verdict == "mismatch"

    def test_source_grade_breach_is_documented(self):
        assert self._mk(1e-3, 1e-9, False).verdict == "documented-discrepancy"


@pytest.fixture(scope="module")
def report():
    return consistency_report(ReportConfig(n_traj=400, dt=1e-3, seed=20240817))


class TestConsistencyReport:
    def test_no_engine_mismatch(self, report):
        bad = [c.name for c in report.checks if c.verdict == "mismatch"]
        assert bad == []
        assert not report.has_engine_mismatch

    def test_known_source_defects_are_documented(self, report):
        documented = {c.name for c in report.checks if c.verdict == "documented-discrepancy"}
        assert "four-node-literal-z-sq-at-t0" in documented
        assert "weak-noise-xi2-single-vertex" in documented
        assert "zeno-amplitude-phase" in documented

    def test_json_round_trips(self, report):
        payload = json.loads(report.to_json())
        assert len(payload) == len(report.checks)
        assert all("verdict" in entry for entry in payload)

    def test_text_table_lists_every_check(self, report):
        text = report.to_text()
        for check in report.checks:
            assert check.name in text

    def test_checks_sorted_by_name(self, report):
        names = [c.name for c in report.checks]
        assert names == sorted(names)
