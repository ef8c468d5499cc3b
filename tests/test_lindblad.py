"""Master-equation engine: generator structure, evolution, extraction.

The dissipator rate convention is pinned by two independently derived
decay laws for a single noisy edge (k, l) of strength eta, with the
Hamiltonian switched off:

  * a coherence between an untouched vertex and k decays as e^{-eta t}
  * the coherence between the symmetric and antisymmetric combinations
    of k and l decays as e^{-4 eta t}, while their populations are
    stationary

Both follow by hand from the jump operator |k><l| + |l><k| acting at
rate 2 eta.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg

from spinnet import lindblad
from spinnet.lindblad import (
    Liouvillian,
    LumpedLiouvillian,
    NetworkState,
    build_liouvillian,
    complete_network_liouvillian,
    evolve_at_times,
    extract_channel,
    fidelity_curve,
    initial_network_state,
)
from spinnet.network import (
    lindblad_edge_operators,
    single_excitation_hamiltonian,
    standard_noise_spec,
)
from spinnet.propagator import BlochInput, transfer_amplitude

PROBE = BlochInput(math.pi / 2, 0.0)


def _single_edge_dissipator(n: int, eta: float) -> Liouvillian:
    ops = lindblad_edge_operators(n, standard_noise_spec(n, 2, eta), 1, 2)
    return build_liouvillian(np.zeros((n + 1, n + 1)), ops)


class TestNetworkState:
    def test_accepts_valid_state(self):
        st = initial_network_state(4, 1, PROBE)
        assert st.rho.shape == (5, 5)
        assert np.trace(st.rho).real == pytest.approx(1.0)

    def test_rejects_nonhermitian(self):
        rho = np.eye(3, dtype=complex) / 3
        rho[0, 1] = 0.5
        with pytest.raises(ValueError):
            NetworkState(rho)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            NetworkState(np.eye(3, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.2, -0.2, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            NetworkState(rho)

    def test_initial_state_populations(self):
        st = initial_network_state(4, 2, BlochInput(1.0, 0.5))
        a, b = BlochInput(1.0, 0.5).amplitudes()
        assert st.rho[0, 0].real == pytest.approx(abs(a) ** 2)
        assert st.rho[2, 2].real == pytest.approx(abs(b) ** 2)
        assert st.rho[1, 1].real == 0.0


class TestGeneratorStructure:
    def test_pure_hamiltonian_part_matches_commutator(self):
        h = single_excitation_hamiltonian(4)
        liou = build_liouvillian(h, [])
        st = initial_network_state(4, 1, PROBE)
        rho = st.rho
        lhs = liou.generator @ rho.flatten(order="F")
        rhs = (-1j * (h @ rho - rho @ h)).flatten(order="F")
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dissipator_traceless(self):
        liou = complete_network_liouvillian(5, 3, 1.3)
        st = initial_network_state(5, 1, PROBE)
        deriv = (liou.generator @ st.rho.flatten(order="F")).reshape((6, 6), order="F")
        assert abs(np.trace(deriv)) < 1e-12

    def test_generator_splits_into_parts(self):
        # the generator is the sum of its Hamiltonian-only and
        # dissipator-only builds
        liou = complete_network_liouvillian(4, 2, 0.8)
        h = single_excitation_hamiltonian(4)
        ham = build_liouvillian(h, []).generator
        dis = _single_edge_dissipator(4, 0.8).generator
        assert np.max(np.abs(liou.generator - ham - dis)) < 1e-14

    def test_untouched_coherence_decay_rate(self):
        # derived by hand: d/dt rho_{1,3} = -eta rho_{1,3}
        n, eta, t = 4, 0.9, 0.7
        liou = _single_edge_dissipator(n, eta)
        psi = np.zeros(n + 1, dtype=complex)
        psi[1] = psi[3] = 1 / math.sqrt(2)
        st = evolve_at_times(liou, NetworkState(np.outer(psi, psi.conj())), [t])[0]
        assert st.rho[1, 3].real == pytest.approx(0.5 * math.exp(-eta * t), abs=1e-12)

    def test_edge_parity_coherence_decay_rate(self):
        # symmetric and antisymmetric edge modes are jump eigenvectors
        # with eigenvalues +1 and -1: their cross coherence decays at
        # 4 eta and the populations do not move
        n, eta, t = 4, 0.9, 0.7
        liou = _single_edge_dissipator(n, eta)
        s = np.zeros(n + 1, dtype=complex)
        a = np.zeros(n + 1, dtype=complex)
        s[3] = s[4] = 1 / math.sqrt(2)
        a[3], a[4] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        rho0 = 0.5 * np.outer(s + a, (s + a).conj())
        st = evolve_at_times(liou, NetworkState(rho0), [t])[0]
        assert (s.conj() @ st.rho @ a).real == pytest.approx(
            0.5 * math.exp(-4 * eta * t), abs=1e-12
        )
        assert (s.conj() @ st.rho @ s).real == pytest.approx(0.5, abs=1e-12)


class TestEvolution:
    def test_exact_matches_direct_exponential(self):
        liou = complete_network_liouvillian(4, 2, 1.0)
        st = initial_network_state(4, 1, PROBE)
        t = 1.3
        direct = scipy.linalg.expm(liou.generator * t) @ st.rho.flatten(order="F")
        got = evolve_at_times(liou, st, [t])[0].rho.flatten(order="F")
        assert np.max(np.abs(direct - got)) < 1e-10

    def test_exact_at_generator_exceptional_point(self):
        # eta = 8 makes the four-node generator non-diagonalizable;
        # evolution must still return a valid state
        liou = complete_network_liouvillian(4, 2, 8.0)
        st = initial_network_state(4, 1, PROBE)
        out = evolve_at_times(liou, st, [1.2])[0]
        assert abs(np.trace(out.rho).real - 1.0) < 1e-10

    def test_stiff_strong_noise_regime(self):
        liou = complete_network_liouvillian(4, 2, 1000.0)
        st = initial_network_state(4, 1, PROBE)
        out = evolve_at_times(liou, st, [2.0])[0]
        assert abs(np.trace(out.rho).real - 1.0) < 1e-10

    def test_evolve_at_times_matches_single_calls(self):
        liou = complete_network_liouvillian(4, 2, 0.7)
        st = initial_network_state(4, 1, PROBE)
        times = [0.0, 0.4, 1.1]
        batch = evolve_at_times(liou, st, times)
        for t, got in zip(times, batch):
            solo = evolve_at_times(liou, st, [t])[0]
            assert np.max(np.abs(solo.rho - got.rho)) < 1e-12

    def test_vacuum_population_conserved(self):
        liou = complete_network_liouvillian(5, 3, 2.0)
        probe = BlochInput(1.1, 0.4)
        st = initial_network_state(5, 1, probe)
        vac0 = st.rho[0, 0].real
        for out in evolve_at_times(liou, st, [0.5, 2.0, 5.0]):
            assert out.rho[0, 0].real == pytest.approx(vac0, abs=1e-12)

    def test_noiseless_evolution_is_unitary(self):
        liou = complete_network_liouvillian(4, 2, 0.0)
        st = initial_network_state(4, 1, PROBE)
        out = evolve_at_times(liou, st, [1.3])[0]
        params = extract_channel(out, PROBE, 1, 2)
        h = single_excitation_hamiltonian(4)
        z = transfer_amplitude(h, 1.3, 1, 2)
        assert params.amplitude == pytest.approx(z, abs=1e-10)
        assert params.dephasing == pytest.approx(1.0, abs=1e-9)


class TestExtractChannel:
    def test_probe_poles_rejected(self):
        st = initial_network_state(4, 1, BlochInput(math.pi / 2))
        with pytest.raises(ValueError):
            extract_channel(st, BlochInput(0.0), 1, 2)
        with pytest.raises(ValueError):
            extract_channel(st, BlochInput(math.pi), 1, 2)

    def test_dephasing_bounded(self):
        liou = complete_network_liouvillian(4, 2, 3.0)
        st = initial_network_state(4, 1, PROBE)
        for out in evolve_at_times(liou, st, [0.3, 1.0, 4.0]):
            params = extract_channel(out, PROBE, 1, 2)
            assert 0.0 <= params.dephasing <= 1.0 + 1e-9
            assert abs(params.amplitude) <= 1.0 + 1e-9

    def test_accepts_raw_matrix(self):
        # perturbative constructions hand over matrices that are not
        # exactly positive; the raw-array path skips state validation
        st = initial_network_state(4, 1, PROBE)
        from_state = extract_channel(st, PROBE, 1, 2)
        from_raw = extract_channel(st.rho, PROBE, 1, 2)
        assert from_state.amplitude == from_raw.amplitude

    def test_zero_time_channel_is_empty(self):
        st = initial_network_state(4, 1, PROBE)
        params = extract_channel(st, PROBE, 1, 2)
        assert params.amplitude == 0.0
        assert params.dephasing == 1.0

    def test_rounding_population_reads_as_empty_channel(self):
        # the clean K_4 transfer amplitude vanishes at t = k pi / 2; on the
        # default fig1 grid, t = k pi / 32, the engine leaves rho_oo at
        # rounding there (|z| up to 1.4e-8 at t = pi, 3 pi / 2 and 2 pi)
        times = np.arange(1, 65) * (2.0 * math.pi / 64)
        channels = lindblad.fidelity_curve(LumpedLiouvillian(4, 2, 0.0), times).channels
        for k in (16, 32, 48, 64):
            assert channels[k - 1].amplitude == 0.0
            assert channels[k - 1].dephasing == 1.0
        # a population just above the floor is split as before
        a, b = PROBE.amplitudes()
        z = math.sqrt(10 * lindblad.POPULATION_FLOOR) / abs(b)
        params = lindblad._channel(abs(b) ** 2 * z**2, 0.5 * z * b * a.conjugate(), a, b)
        assert params.dephasing == pytest.approx(0.5)
        assert params.amplitude == pytest.approx(z)


def _dense_entries(n: int, m: int, eta: float, times) -> tuple[np.ndarray, np.ndarray]:
    start = initial_network_state(n, 1, PROBE)
    states = evolve_at_times(complete_network_liouvillian(n, m, eta), start, times)
    return np.array([s.rho[2, 2].real for s in states]), np.array([s.rho[2, 0] for s in states])


def _lumped_cases():
    # every n from 4 to 12, an extreme and a middle noisy set, a weak and
    # a strong rate, and the exceptional points eta = 4 and 8 at n = 4
    cases = {(4, 2, 4.0), (4, 2, 8.0), (5, 0, 1.0), (6, 1, 3.0)}
    for n in range(4, 13):
        for m in {2, n // 2, n - 2}:
            for eta in (0.05, 2.5):
                cases.add((n, m, eta))
    return sorted(cases)


class TestLumpedEngine:
    # a uniform grid (one exponential per step) and an unsorted,
    # non-uniform one with a repeat (one exponential per gap)
    GRIDS = (np.arange(1, 41) * (2 * math.pi / 40), np.array([2.9, 0.3, 1.7, 0.3, 5.0]))

    @pytest.mark.parametrize("n, m, eta", _lumped_cases())
    def test_matches_dense_engine(self, n, m, eta):
        lumped = LumpedLiouvillian(n, m, eta)
        dense = complete_network_liouvillian(n, m, eta)
        for times in self.GRIDS:
            states = lumped.evolve(times)
            rho_oo, rho_o0 = _dense_entries(n, m, eta, times)
            assert np.max(np.abs(states.rho_oo - rho_oo)) < 1e-12
            assert np.max(np.abs(states.rho_o0 - rho_o0)) < 1e-12
            f_lumped = fidelity_curve(lumped, times).fidelity
            f_dense = fidelity_curve(dense, times).fidelity
            assert np.max(np.abs(f_lumped - f_dense)) < 1e-12

    @pytest.mark.parametrize("n, m, eta", [(4, 2, 4.0), (5, 1, 0.7), (6, 0, 1.0), (7, 3, 2.0), (8, 5, 9.0)])
    def test_quotient_spectrum_is_dense_spectrum(self, n, m, eta):
        times = self.GRIDS[1]
        values, counts = LumpedLiouvillian(n, m, eta).evolve(times).spectrum()
        assert counts.sum() == n + 1
        start = initial_network_state(n, 1, PROBE)
        dense = evolve_at_times(complete_network_liouvillian(n, m, eta), start, times)
        for row, state in zip(values, dense):
            expanded = np.sort(np.repeat(row, counts))
            assert np.max(np.abs(expanded - np.linalg.eigvalsh(state.rho))) < 1e-12

    @pytest.mark.parametrize(
        "builder, row, col, change",
        [
            # a population leak breaks the trace
            ("_population_generator", "oo", "oo", -0.1),
            # a growing output coherence breaks positivity
            ("_coherence_generator", 1, 1, 0.5),
        ],
    )
    def test_corrupted_coefficient_raises(self, monkeypatch, builder, row, col, change):
        original = getattr(lindblad, builder)

        def corrupted(k, m, eta):
            g = original(k, m, eta)
            if isinstance(row, str):
                j = lindblad._ORBIT["o", "o", True]
                g[j, j] += change
            else:
                g[row, col] += change
            return g

        monkeypatch.setattr(lindblad, builder, corrupted)
        with pytest.raises(RuntimeError, match="numeric failure at t="):
            fidelity_curve(LumpedLiouvillian(6, 3, 1.0), np.linspace(0.0, 3.0, 7))

    def test_rejects_bad_geometry_and_rates(self):
        for n, m, eta in [(1, 0, 1.0), (4, 3, 1.0), (4, 2, -1.0), (4, 2, math.nan)]:
            with pytest.raises(ValueError):
                LumpedLiouvillian(n, m, eta)
