"""The noiseless transfer amplitude, channel parameters, and average fidelity."""

from __future__ import annotations

import math

import numpy as np
import pytest
from oracle import eigh_propagator

from spinnet.network import single_excitation_hamiltonian
from spinnet.perturbation import beta
from spinnet.propagator import (
    BlochInput,
    ChannelParams,
    _decode_matrix,
    avg_fidelity_given_decode,
    bloch_sphere_average,
    complete_graph_peak_fidelity,
    optimal_avg_fidelity,
)


@pytest.fixture(scope="module")
def h4():
    return single_excitation_hamiltonian(4)


class TestPropagatorMatrix:
    """The eigensolver oracle that criteria 2 and 4 read is a true propagator."""

    def test_unitarity(self, h4):
        u = eigh_propagator(h4, 1.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(5))) < 1e-12

    def test_identity_at_t_zero(self, h4):
        assert np.allclose(eigh_propagator(h4, 0.0), np.eye(5))

    def test_vacuum_decoupled(self, h4):
        u = eigh_propagator(h4, 2.3)
        assert u[0, 0] == pytest.approx(1.0)
        assert np.max(np.abs(u[0, 1:])) < 1e-14

    def test_group_property(self, h4):
        u1 = eigh_propagator(h4, 0.9)
        u2 = eigh_propagator(h4, 1.4)
        u3 = eigh_propagator(h4, 2.3)
        assert np.max(np.abs(u2 @ u1 - u3)) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eigh_propagator(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)


class TestTransferAmplitude:
    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    @pytest.mark.parametrize("t", [0.0, 0.4, 2.9])
    def test_probability_matches_closed_form(self, n, t):
        # the spectrum {n - 1, -1} gives |z|^2 = (2/n^2)(1 - cos(n t)), on
        # the eigensolver oracle and on beta, which unitary rows read
        want = (2.0 / n**2) * (1.0 - math.cos(n * t))
        for z in (eigh_propagator(single_excitation_hamiltonian(n), t)[2, 1], beta(n, t)):
            assert abs(z) ** 2 == pytest.approx(want, abs=1e-12)

    def test_closed_form_guards(self):
        with pytest.raises(ValueError):
            complete_graph_peak_fidelity(1)

    def test_peak_probability_scaling(self):
        # best transfer probability on the complete graph is (2/n)^2,
        # first reached at t = pi/n
        for n in (2, 4, 10):
            z = eigh_propagator(single_excitation_hamiltonian(n), math.pi / n)[2, 1]
            assert abs(z) ** 2 == pytest.approx((2.0 / n) ** 2, abs=1e-12)
            assert abs(beta(n, math.pi / n)) ** 2 == pytest.approx((2.0 / n) ** 2, abs=1e-12)

    def test_probability_periodic(self):
        n = 5
        t = 0.8
        h = single_excitation_hamiltonian(n)
        assert abs(eigh_propagator(h, t)[2, 1]) ** 2 == pytest.approx(
            abs(eigh_propagator(h, t + 2 * math.pi / n)[2, 1]) ** 2, abs=1e-12
        )


class TestChannelParams:
    def test_transfer_prob(self):
        assert ChannelParams(0.6 + 0.8j, 0.5).transfer_prob == pytest.approx(1.0)


class TestBlochInput:
    def test_amplitudes_normalized(self):
        a, b = BlochInput(1.1, 2.5).amplitudes()
        assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0)

    def test_poles(self):
        a, b = BlochInput(0.0).amplitudes()
        assert (a, b) == (1.0, 0.0)
        a, b = BlochInput(math.pi).amplitudes()
        assert abs(a) < 1e-15 and abs(b) == pytest.approx(1.0)

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            BlochInput(-0.1)
        with pytest.raises(ValueError):
            BlochInput(3.2)


class TestAverageFidelity:
    def test_perfect_channel(self):
        f, u = optimal_avg_fidelity(ChannelParams(1.0, 1.0))
        assert f == pytest.approx(1.0)

    def test_dead_channel_is_coin_toss_plus_vacuum(self):
        # no excitation arrives: output qubit stays in its ground
        # state, giving 1/2 from the overlap average
        f, u = optimal_avg_fidelity(ChannelParams(0.0, 1.0))
        assert f == pytest.approx(0.5)
        assert u == 1.0

    def test_optimal_decode_cancels_amplitude_phase(self):
        z = 0.7 * np.exp(0.93j)
        f_opt, u = optimal_avg_fidelity(ChannelParams(z, 0.8))
        f_raw = avg_fidelity_given_decode(ChannelParams(z, 0.8), 1.0)
        assert f_opt >= f_raw
        assert f_opt == pytest.approx(0.5 + 0.8 * 0.7 / 3 + 0.49 / 6, abs=1e-12)

    def test_optimal_never_below_half(self):
        f, _ = optimal_avg_fidelity(ChannelParams(-0.3, 0.2))
        assert f >= 0.5

    @pytest.mark.parametrize("z,lam", [(0.3 + 0.4j, 0.8), (0.96, 1.0), (0.0, 0.5)])
    def test_quadrature_matches_closed_form(self, z, lam):
        params = ChannelParams(z, lam)
        for u in (1.0, np.exp(-0.31j)):
            closed = avg_fidelity_given_decode(params, u)
            quad = bloch_sphere_average(params, u)
            assert quad == pytest.approx(closed, abs=1e-9)

    def test_quadrature_equals_pointwise_loop(self):
        # the grid evaluated node by node from BlochInput's amplitudes
        params, u = ChannelParams(0.5 + 0.2j, 0.7), np.exp(-0.31j)
        decode = _decode_matrix(u)
        nodes, weights = np.polynomial.legendre.leggauss(8)
        total = 0.0
        for mu, w in zip(nodes, weights):
            for phi in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
                a, b = BlochInput(math.acos(mu), phi).amplitudes()
                p = abs(b) ** 2 * params.transfer_prob
                coh = params.dephasing * params.amplitude * b * a.conjugate()
                rho = np.array([[1.0 - p, coh.conjugate()], [coh, p]])
                psi = np.array([a, b])
                total += w * (psi.conj() @ decode @ rho @ decode.conj().T @ psi).real / 16
        quad = bloch_sphere_average(params, u, n_polar=8, n_azimuth=16)
        assert quad == pytest.approx(total / 2.0, abs=1e-15)

    def test_quadrature_converged_in_resolution(self):
        params = ChannelParams(0.5 + 0.2j, 0.7)
        coarse = bloch_sphere_average(params, 1.0, n_polar=16, n_azimuth=32)
        fine = bloch_sphere_average(params, 1.0, n_polar=48, n_azimuth=96)
        assert coarse == pytest.approx(fine, abs=1e-8)
