"""Master-equation engine: generator structure, evolution, extraction.

The dense generator is held to the Lindblad form written out in this
file, -i(I x H - H^T x I) + sum r (L x L - I x L^2 / 2 - L^2T x I / 2)
over one hopping operator L = |k><l| + |l><k| per noisy pair at rate
r = 2 eta_kl. The rate convention is pinned by two independently
derived decay laws for a single noisy edge (k, l) of strength eta, with
the Hamiltonian switched off:

  * a coherence between an untouched vertex and k decays as e^{-eta t}
  * the coherence between the symmetric and antisymmetric combinations
    of k and l decays as e^{-4 eta t}, while their populations are
    stationary

Both follow by hand from the jump operator |k><l| + |l><k| acting at
rate 2 eta.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from oracle import coherence_block, eigh_propagator, scalar_channel

from spinnet import lindblad
from spinnet.lindblad import (
    DenseLiouvillian,
    DenseStates,
    FidelityCurve,
    LumpedLiouvillian,
    LumpedStates,
    fidelity_curve,
    probe_vector,
)
from spinnet.network import NoiseSpec, single_excitation_hamiltonian, standard_noise_spec
from spinnet.propagator import BlochInput, ChannelParams

PROBE = BlochInput(math.pi / 2, 0.0)
PER_EDGE = NoiseSpec((3, 4, 5), {(3, 4): 0.5, (3, 5): 1.0, (4, 5): 2.0})


def _dense(n: int, m: int, eta: float) -> DenseLiouvillian:
    return DenseLiouvillian(n, standard_noise_spec(n, m, eta))


def _literal_generator(n: int, spec: NoiseSpec) -> np.ndarray:
    """The Lindblad form on column-stacked vec(rho), one operator per noisy pair."""
    h = single_excitation_hamiltonian(n)
    eye = np.eye(n + 1)
    out = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for (k, l), eta in spec.edge_strengths().items():
        op = np.zeros((n + 1, n + 1))
        op[k, l] = op[l, k] = 1.0
        sq = op @ op
        out = out + 2.0 * eta * (np.kron(op, op) - 0.5 * np.kron(eye, sq) - 0.5 * np.kron(sq.T, eye))
    return out


def _dissipator(n: int, spec: NoiseSpec) -> np.ndarray:
    """The dense generator less its noiseless part."""
    return DenseLiouvillian(n, spec).generator - DenseLiouvillian(n, NoiseSpec(())).generator


def _dissipate(n: int, eta: float, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho0 after time t under the dissipator of one noisy edge (n-1, n) alone."""
    vec = scipy.linalg.expm(_dissipator(n, standard_noise_spec(n, 2, eta)) * t) @ rho0.reshape(-1, order="F")
    return vec.reshape((n + 1, n + 1), order="F")


def _edge_rates(n: int, spec: NoiseSpec) -> dict[tuple[int, int], float]:
    """The rate at which the dissipator moves population from vertex l to k, k < l."""
    diagonal = np.arange(n + 1) * (n + 2)
    feed = _dissipator(n, spec)[np.ix_(diagonal, diagonal)]
    assert np.array_equal(feed.imag, np.zeros_like(feed.imag))
    return {(k, l): feed[k, l].real for k in range(n + 1) for l in range(k + 1, n + 1) if feed[k, l] != 0}


def _curve(states: DenseStates, output: int = 2) -> FidelityCurve:
    return FidelityCurve.read(states.times, states.rho[:, output, output].real, states.rho[:, output, 0])


# a state, and one state breaking each invariant, on three rows
_GOOD = np.diag([0.5, 0.5, 0.0]).astype(complex)
_BAD = {
    "Hermiticity defect": np.eye(3, dtype=complex) / 3 + 0.5 * np.eye(3, k=1),
    "trace defect": np.eye(3, dtype=complex),
    "negative eigenvalue": np.diag([1.2, -0.2, 0.0]).astype(complex),
}


def _edge(low: float) -> np.ndarray:
    # a unit-trace state whose output population, and smallest eigenvalue, is low
    return np.diag([0.5, 0.5 - low, low]).astype(complex)


def _lumped_edge(low: float) -> LumpedStates:
    """The lumped probe state of K_4 with two noisy vertices at t = 0, then again at
    t = 0.5 with output population ``low``, taken from the input vertex."""
    psi = np.array([*PROBE.amplitudes(), 0.0, 0.0, 0.0])
    rho0 = np.outer(psi, psi.conj())
    rho1 = rho0.copy()
    rho1[2, 2] = low
    rho1[1, 1] -= low
    return LumpedStates(m=2, times=np.array([0.0, 0.5]), rho=np.array([rho0, rho1]), rest=np.zeros(2))


def _record(monkeypatch, *names: str) -> dict[str, list[bool]]:
    """Patch numpy.linalg functions to record, per call, whether their input was finite."""
    seen = {}
    for name in names:
        original, calls = getattr(np.linalg, name), seen.setdefault(name, [])

        def recording(matrix, original=original, calls=calls):
            calls.append(bool(np.isfinite(matrix).all()))
            return original(matrix)

        monkeypatch.setattr(np.linalg, name, recording)
    return seen


class TestDenseStates:
    def test_accepts_valid_state(self):
        st = _dense(4, 2, 1.0).evolve(probe_vector(4, 1), [0.0])
        assert st.rho.shape == (1, 5, 5)
        assert st.times.tolist() == [0.0]
        assert np.trace(st.rho[0]).real == pytest.approx(1.0)

    @pytest.mark.parametrize("defect", list(_BAD))
    def test_rejects_each_defect_naming_t(self, defect):
        with pytest.raises(RuntimeError, match=f"^numeric failure at t=0.0: {defect} "):
            DenseStates([0.0], [_BAD[defect]])

    @pytest.mark.parametrize("first", list(_BAD))
    def test_names_first_bad_time(self, first):
        # the other two defects come later in the stack
        rest = [rho for defect, rho in _BAD.items() if defect != first]
        rho = [_GOOD, _GOOD, _BAD[first], *rest]
        with pytest.raises(RuntimeError, match=f"^numeric failure at t=1.0: {first} "):
            DenseStates([0.0, 0.5, 1.0, 1.5, 2.0], rho)

    def test_non_finite_state_reaches_no_eigensolver(self, monkeypatch):
        # the certificate passes _GOOD, so only _EDGE reaches eigvalsh;
        # the non-finite state reaches neither
        seen = _record(monkeypatch, "cholesky", "eigvalsh")
        with pytest.raises(RuntimeError, match="^numeric failure at t=1.0: Hermiticity defect nan$"):
            DenseStates([0.0, 1.0, 2.0], [_GOOD, np.full((3, 3), np.nan), _edge(-0.5e-8)])
        assert seen == {"cholesky": [True, True], "eigvalsh": [True]}

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="one square matrix per time"):
            DenseStates([0.0, 1.0], [_GOOD])
        with pytest.raises(ValueError, match="one square matrix per time"):
            DenseStates([0.0], [np.eye(3, 2)])

    def test_initial_state_populations(self):
        st = _dense(4, 2, 1.0).evolve(probe_vector(4, 2, BlochInput(1.0, 0.5)), [0.0])
        a, b = BlochInput(1.0, 0.5).amplitudes()
        assert st.rho[0, 0, 0].real == pytest.approx(abs(a) ** 2)
        assert st.rho[0, 2, 2].real == pytest.approx(abs(b) ** 2)
        assert st.rho[0, 1, 1].real == 0.0

    def test_probe_vector(self):
        a, b = PROBE.amplitudes()
        assert probe_vector(4, 3).tolist() == [a, 0, 0, b, 0]
        assert np.array_equal(probe_vector(4, 1, BlochInput(1.0, 0.5)), [*BlochInput(1.0, 0.5).amplitudes(), 0, 0, 0])
        for vertex in (0, 5):
            with pytest.raises(ValueError, match=f"input vertex {vertex} outside 1..4"):
                probe_vector(4, vertex)


def _literal_cases():
    # standard placements at every n from 4 to 12, a per-edge map and a
    # noisy set with gaps
    cases = [(n, standard_noise_spec(n, m, 0.7)) for n in range(4, 13) for m in sorted({2, n // 2, n - 2})]
    return [*cases, (5, PER_EDGE), (8, NoiseSpec((3, 5, 7), 1.3))]


class TestGeneratorStructure:
    @pytest.mark.parametrize("n, spec", _literal_cases())
    def test_matches_literal_lindblad_form(self, n, spec):
        generator = DenseLiouvillian(n, spec).generator
        assert np.max(np.abs(generator - _literal_generator(n, spec))) < 1e-14

    @pytest.mark.parametrize("n, m", [(4, 0), (4, 1), (7, 0), (7, 1)])
    def test_fewer_than_two_noisy_vertices_leave_no_dissipator(self, n, m):
        generator = _dense(n, m, 2.0).generator
        assert np.array_equal(generator, _literal_generator(n, NoiseSpec(())))

    def test_pure_hamiltonian_part_matches_commutator(self):
        h = single_excitation_hamiltonian(4)
        generator = _dense(4, 0, 0.0).generator
        rho = np.outer(probe_vector(4, 1), probe_vector(4, 1).conj())
        lhs = generator @ rho.flatten(order="F")
        rhs = (-1j * (h @ rho - rho @ h)).flatten(order="F")
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dissipator_traceless(self):
        psi = probe_vector(5, 1)
        deriv = (_dense(5, 3, 1.3).generator @ np.outer(psi, psi.conj()).flatten(order="F")).reshape((6, 6), order="F")
        assert abs(np.trace(deriv)) < 1e-12

    def test_untouched_coherence_decay_rate(self):
        # derived by hand: d/dt rho_{1,3} = -eta rho_{1,3}
        n, eta, t = 4, 0.9, 0.7
        psi = np.zeros(n + 1, dtype=complex)
        psi[1] = psi[3] = 1 / math.sqrt(2)
        rho = _dissipate(n, eta, np.outer(psi, psi.conj()), t)
        assert rho[1, 3].real == pytest.approx(0.5 * math.exp(-eta * t), abs=1e-12)

    def test_edge_parity_coherence_decay_rate(self):
        # symmetric and antisymmetric edge modes are jump eigenvectors
        # with eigenvalues +1 and -1: their cross coherence decays at
        # 4 eta and the populations do not move
        n, eta, t = 4, 0.9, 0.7
        s = np.zeros(n + 1, dtype=complex)
        a = np.zeros(n + 1, dtype=complex)
        s[3] = s[4] = 1 / math.sqrt(2)
        a[3], a[4] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        rho = _dissipate(n, eta, 0.5 * np.outer(s + a, (s + a).conj()), t)
        assert (s.conj() @ rho @ a).real == pytest.approx(0.5 * math.exp(-4 * eta * t), abs=1e-12)
        assert (s.conj() @ rho @ s).real == pytest.approx(0.5, abs=1e-12)


class TestEdgeRates:
    def test_one_rate_per_noisy_pair(self):
        assert set(_edge_rates(5, standard_noise_spec(5, 3, 1.0))) == {(3, 4), (3, 5), (4, 5)}

    def test_rates_symmetric(self):
        diagonal = np.arange(6) * 7
        feed = _dissipator(5, PER_EDGE)[np.ix_(diagonal, diagonal)]
        assert np.array_equal(feed, feed.T)

    def test_rate_doubles_the_strength(self):
        # white-noise averaging of a fluctuating coupling of strength
        # eta lands on a dissipator rate of exactly 2 eta
        assert _edge_rates(4, standard_noise_spec(4, 2, 1.5)) == {(3, 4): 3.0}

    def test_per_edge_strengths_carried_through(self):
        assert _edge_rates(5, PER_EDGE) == {(3, 4): 1.0, (3, 5): 2.0, (4, 5): 4.0}

    def test_empty_noise_gives_no_dissipator(self):
        assert not _dissipator(4, standard_noise_spec(4, 0, 1.0)).any()

    @pytest.mark.parametrize(
        "n, spec, message",
        [
            (1, NoiseSpec(()), "need n >= 2, got 1"),
            (4, NoiseSpec((3, 5), 1.0), "noisy vertex 5 outside 1..4"),
            (5, NoiseSpec((0, 3), 1.0), "noisy vertex 0 outside 1..5"),
            (41, NoiseSpec((40, 41), 1.0), "the dense engine takes n <= 40, got 41"),
        ],
    )
    def test_rejects_bad_network(self, n, spec, message):
        with pytest.raises(ValueError, match=message):
            DenseLiouvillian(n, spec)


class TestEvolution:
    def test_exact_matches_direct_exponential(self):
        engine = _dense(4, 2, 1.0)
        psi = probe_vector(4, 1)
        t = 1.3
        direct = scipy.linalg.expm(engine.generator * t) @ np.outer(psi, psi.conj()).flatten(order="F")
        got = engine.evolve(psi, [t]).rho[0].flatten(order="F")
        assert np.max(np.abs(direct - got)) < 1e-10

    def test_exact_at_generator_exceptional_point(self):
        # eta = 8 makes the four-node generator non-diagonalizable;
        # evolution must still return a valid state
        out = _dense(4, 2, 8.0).evolve(probe_vector(4, 1), [1.2]).rho[0]
        assert abs(np.trace(out).real - 1.0) < 1e-10

    def test_stiff_strong_noise_regime(self):
        out = _dense(4, 2, 1000.0).evolve(probe_vector(4, 1), [2.0]).rho[0]
        assert abs(np.trace(out).real - 1.0) < 1e-10

    def test_evolve_matches_single_calls(self):
        engine = _dense(4, 2, 0.7)
        psi = probe_vector(4, 1)
        times = [0.0, 0.4, 1.1]
        batch = engine.evolve(psi, times)
        assert batch.times.tolist() == times
        for t, got in zip(times, batch.rho):
            solo = engine.evolve(psi, [t]).rho[0]
            assert np.max(np.abs(solo - got)) < 1e-12

    def test_vacuum_population_conserved(self):
        psi = probe_vector(5, 1, BlochInput(1.1, 0.4))
        vac0 = abs(psi[0]) ** 2
        for out in _dense(5, 3, 2.0).evolve(psi, [0.5, 2.0, 5.0]).rho:
            assert out[0, 0].real == pytest.approx(vac0, abs=1e-12)

    def test_noiseless_evolution_is_unitary(self):
        curve = _curve(_dense(4, 2, 0.0).evolve(probe_vector(4, 1), [1.3]))
        h = single_excitation_hamiltonian(4)
        z = eigh_propagator(h, 1.3)[2, 1]
        assert curve.amplitude[0] == pytest.approx(z, abs=1e-10)
        assert curve.dephasing[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "psi0, times, message",
        [
            (np.ones(4) / 2, [1.0], r"start state of shape \(4,\) is not a vector of n \+ 1 = 5 entries"),
            (np.eye(5)[:2], [1.0], r"start state of shape \(2, 5\)"),
            (probe_vector(4, 1), [1.0, -0.5], "times must be nonnegative"),
            (probe_vector(4, 1), [math.nan], "times must be nonnegative"),
            (probe_vector(4, 1), [0.5, math.nan, 1.0], "times must be nonnegative"),
        ],
    )
    def test_rejects_bad_start_and_times(self, psi0, times, message):
        with pytest.raises(ValueError, match=message):
            _dense(4, 2, 1.0).evolve(psi0, times)


class TestReadout:
    @pytest.mark.parametrize(
        "pair, message",
        [
            ((1, 0), "vertex 0 outside 1..4"),  # the vacuum row
            ((1, 1), "input and output vertex are both 1"),
            ((1, -3), "vertex -3 outside 1..4"),  # would wrap round to vertex 2
            ((5, 2), "vertex 5 outside 1..4"),
        ],
    )
    def test_pair_checked(self, pair, message):
        for engine in (_dense(4, 2, 1.0), LumpedLiouvillian(4, 2, 1.0)):
            with pytest.raises(ValueError, match=message):
                fidelity_curve(engine, [1.0], pair)

    @pytest.mark.parametrize("pair", [(4, 1), (1, 5), (3, 4)])
    def test_dense_pair_must_avoid_noisy_set(self, pair):
        with pytest.raises(ValueError, match=r"^noisy vertices \[\d(, \d)?\] overlap the transfer pair$"):
            fidelity_curve(_dense(5, 2, 1.0), [1.0], pair)
        # the same pair away from the noise reads a channel
        assert fidelity_curve(DenseLiouvillian(5, NoiseSpec((2, 3), 1.0)), [1.0], (4, 5)).fidelity.shape == (1,)

    def test_dephasing_bounded(self):
        curve = fidelity_curve(_dense(4, 2, 3.0), [0.3, 1.0, 4.0])
        assert np.all((0.0 <= curve.dephasing) & (curve.dephasing <= 1.0 + 1e-9))
        assert np.all(np.abs(curve.amplitude) <= 1.0 + 1e-9)

    def test_zero_time_channel_is_empty(self):
        curve = fidelity_curve(_dense(4, 2, 1.0), [0.0])
        assert curve.amplitude[0] == 0.0
        assert curve.dephasing[0] == 1.0

    def test_rounding_population_reads_as_empty_channel(self):
        # the clean K_4 transfer amplitude vanishes at t = k pi / 2; on the
        # default fig1 grid, t = k pi / 32, the engine leaves rho_oo at
        # rounding there (|z| up to 1.4e-8 at t = pi, 3 pi / 2 and 2 pi)
        times = np.arange(1, 65) * (2.0 * math.pi / 64)
        curve = lindblad.fidelity_curve(LumpedLiouvillian(4, 2, 0.0), times)
        for k in (16, 32, 48, 64):
            assert curve.amplitude[k - 1] == 0.0
            assert curve.dephasing[k - 1] == 1.0
        # a population just above the floor is split as before
        a, b = PROBE.amplitudes()
        z = math.sqrt(10 * lindblad.POPULATION_FLOOR) / abs(b)
        curve = FidelityCurve.read([1.0], [abs(b) ** 2 * z**2], [0.5 * z * b * a.conjugate()])
        assert curve.dephasing[0] == pytest.approx(0.5)
        assert curve.amplitude[0] == pytest.approx(z)

    @pytest.mark.parametrize("lumped", [False, True], ids=["dense", "lumped"])
    def test_negative_population_raises_naming_t(self, lumped):
        # rho_oo = -5e-9 passes the eigenvalue floor, and reads -1e-8 once divided by |b|^2 = 1/2
        if lumped:
            states = _lumped_edge(-5e-9)
            rho_oo, rho_o0 = states.rho_oo, states.rho_o0
        else:
            states = DenseStates([0.0, 0.5], [_GOOD, _edge(-5e-9)])
            rho_oo, rho_o0 = states.rho[:, 2, 2].real, states.rho[:, 2, 0]
        with pytest.raises(RuntimeError, match=r"^numeric failure at t=0.5: output population -1.000e-08 below zero$"):
            FidelityCurve.read(states.times, rho_oo, rho_o0)

    @staticmethod
    def _assert_matches_oracle(rho_oo, rho_o0, atol):
        curve = FidelityCurve.read(np.arange(len(rho_oo)), rho_oo, rho_o0)
        for j, (oo, o0) in enumerate(zip(rho_oo, rho_o0)):
            params, fidelity = scalar_channel(float(oo), complex(o0))
            assert abs(curve.fidelity[j] - fidelity) <= atol
            assert abs(abs(curve.amplitude[j]) - abs(params.amplitude)) <= atol
            assert abs(curve.dephasing[j] - params.dephasing) <= atol
            assert abs(curve.amplitude[j] - params.amplitude) <= 4 * atol

    def test_random_channels_match_scalar_oracle(self):
        # physical cells: |rho_o0|^2 <= rho_oo rho_00 with rho_00 = 1/2
        rng = np.random.default_rng(11)
        rho_oo = 0.5 * rng.random(2000)
        rho_o0 = np.sqrt(0.5 * rho_oo) * rng.random(2000) * np.exp(2j * math.pi * rng.random(2000))
        self._assert_matches_oracle(rho_oo, rho_o0, 1e-15)

    def test_floor_zero_coherence_and_zero_time_match_scalar_oracle(self):
        floor = lindblad.POPULATION_FLOOR
        near = [floor, np.nextafter(floor, 0.0), np.nextafter(floor, 1.0), 2 * floor, 0.5 * floor, 0.0, -1e-11]
        rho_oo = np.array([*near, *near, 0.3])
        rho_o0 = np.array([0.0] * len(near) + [np.sqrt(0.5 * x) if x > 0 else 0.0 for x in near] + [0.0])
        self._assert_matches_oracle(rho_oo, rho_o0, 1e-15)
        curve = FidelityCurve.read(np.arange(rho_oo.size), rho_oo, rho_o0)
        # at or below the floor the convention z = 0, lambda = 1; above it with
        # no coherence lambda = 0 and z = |z|
        assert curve.amplitude[[0, 1, 4, 5, 6]].tolist() == [0.0] * 5
        assert curve.dephasing[[0, 1, 4, 5, 6]].tolist() == [1.0] * 5
        assert curve.dephasing[[2, 3, -1]].tolist() == [0.0] * 3
        assert np.all(curve.amplitude[[2, 3, -1]].imag == 0.0) and np.all(curve.amplitude[[2, 3, -1]].real > 0.0)
        # t = 0 on both engines
        for engine in (_dense(4, 2, 1.0), LumpedLiouvillian(4, 2, 1.0)):
            curve = fidelity_curve(engine, [0.0])
            params, fidelity = scalar_channel(0.0, 0.5 + 0j)
            assert (curve.amplitude[0], curve.dephasing[0], curve.fidelity[0]) == (0.0, 1.0, fidelity)
            assert params == ChannelParams(0j, 1.0)


class TestCertificate:
    """A Cholesky factor of rho + 5e-9 I passes a state; any other goes to eigvalsh."""

    @pytest.mark.parametrize("lumped", [False, True], ids=["dense", "lumped"])
    def test_state_just_above_floor_fails_certificate_and_passes(self, lumped, monkeypatch):
        # lambda_min = -0.5e-8 leaves a zero pivot in rho + 5e-9 I
        seen = _record(monkeypatch, "eigvalsh")
        if lumped:
            _lumped_edge(-0.5e-8)
        else:
            DenseStates([0.0, 0.5], [_GOOD, _edge(-0.5e-8)])
        assert seen["eigvalsh"] == [True]
        if not lumped:
            assert lindblad._factors(_GOOD) and not lindblad._factors(_edge(-0.5e-8))

    @pytest.mark.parametrize("lumped", [False, True], ids=["dense", "lumped"])
    def test_state_below_floor_raises_naming_t(self, lumped):
        with pytest.raises(RuntimeError, match=r"^numeric failure at t=0.5: negative eigenvalue -2.000e-08$"):
            if lumped:
                _lumped_edge(-2e-8)
            else:
                DenseStates([0.0, 0.5], [_GOOD, _edge(-2e-8)])

    def test_large_rank_one_state_needs_no_eigensolver(self, monkeypatch):
        # four trajectory-sized means at n = 1,002, checked one at a time
        # within three matrices of memory beyond the stack
        def refuse(matrix):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(1003) + 1j * rng.standard_normal(1003)
        psi /= np.linalg.norm(psi)
        rho = np.repeat(np.outer(psi, psi.conj())[None], 4, axis=0)
        tracemalloc.start()
        try:
            DenseStates([0.25, 0.5, 0.75, 1.0], rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 1003**2 * 16


def _dense_entries(n: int, m: int, eta: float, times) -> tuple[np.ndarray, np.ndarray]:
    rho = _dense(n, m, eta).evolve(probe_vector(n, 1), times).rho
    return rho[:, 2, 2].real, rho[:, 2, 0]


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
        dense = _dense(n, m, eta)
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
        # eigvalsh of rho on the basis vectors present, rest m - 1 times, and
        # 0 on the k - 1 clean vectors orthogonal to u_C
        times = self.GRIDS[1]
        k = n - 2 - m
        present = [0, 1, 2] + [3] * (k > 0) + [4] * (m > 0)
        states = LumpedLiouvillian(n, m, eta).evolve(times)
        dense = _dense(n, m, eta).evolve(probe_vector(n, 1), times)
        for rho, rest, full in zip(states.rho, states.rest, dense.rho):
            parts = [np.linalg.eigvalsh(rho[np.ix_(present, present)]), [rest] * (m - 1), [0.0] * (k - 1)]
            expanded = np.sort(np.concatenate(parts))
            assert expanded.size == n + 1
            assert np.max(np.abs(expanded - np.linalg.eigvalsh(full))) < 1e-12

    @pytest.mark.parametrize(
        "entry, change",
        [
            # a drained output population; the exact trace row hands what
            # drains to rho_in,in, so positivity breaks, not the trace
            ((2, 2), -0.1),
            # a growing output coherence, in rho_o0 and rho_0o alike
            ((2, 0), 0.5),
        ],
    )
    def test_corrupted_coefficient_raises(self, entry, change):
        engine = LumpedLiouvillian(6, 3, 1.0)
        for i, j in {entry, entry[::-1]}:
            engine.generator[i + 5 * j, i + 5 * j] += change  # the row of rho_ij in vec(rho)
        with pytest.raises(RuntimeError, match="^numeric failure at t=0.5: negative eigenvalue "):
            fidelity_curve(engine, np.linspace(0.0, 3.0, 7))

    @pytest.mark.parametrize(
        "n, m, eta",
        [(4, 2, 4.0), (12, 10, 50.0), (102, 50, 200.0), (1002, 500, 800.0), (1002, 2, 1.0), (10002, 5000, 200.0)],
    )
    def test_coherence_matches_two_by_two_block(self, n, m, eta):
        # beyond the dense engine's n <= 40: rho_o0 / (b a*) against the block
        a, b = PROBE.amplitudes()
        times = np.linspace(0.0, 2 * math.pi, 41)
        lam_z = LumpedLiouvillian(n, m, eta).evolve(times).rho_o0 / (b * a.conjugate())
        assert np.max(np.abs(lam_z - coherence_block(n, m, eta, times))) < 1e-12

    def test_rejects_bad_geometry_and_rates(self):
        for n, m, eta in [(1, 0, 1.0), (4, 3, 1.0), (4, 2, -1.0), (4, 2, math.nan)]:
            with pytest.raises(ValueError):
                LumpedLiouvillian(n, m, eta)
