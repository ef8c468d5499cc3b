"""Trajectory sampling: streams, norms, replay, ensemble convergence."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from spinnet import stochastic
from spinnet.lindblad import complete_network_liouvillian, evolve_at_times, initial_network_state
from spinnet.network import (
    NoiseSpec,
    complete_graph,
    single_excitation_hamiltonian,
    standard_noise_spec,
)
from spinnet.propagator import BlochInput
from spinnet.stochastic import TrajectoryPlan, ensemble_average, evolve_trajectory

PROBE = BlochInput(math.pi / 2, 0.0)


def _setup(n=4, m=2, eta=1.0):
    h = single_excitation_hamiltonian(complete_graph(n))
    spec = standard_noise_spec(n, m, eta)
    a, b = PROBE.amplitudes()
    psi = np.zeros(n + 1, dtype=complex)
    psi[0], psi[1] = a, b
    return h, spec, psi


class TestTrajectoryPlan:
    def test_validation(self):
        _, spec, _ = _setup()
        with pytest.raises(ValueError):
            TrajectoryPlan(0, 1e-3, 1.0, 0, spec)
        with pytest.raises(ValueError):
            TrajectoryPlan(10, -1e-3, 1.0, 0, spec)
        with pytest.raises(ValueError):
            TrajectoryPlan(10, 1e-3, -1.0, 0, spec)
        with pytest.raises(ValueError):
            TrajectoryPlan(10, 1e-3, 1.0, 2**64, spec)

    def test_valid_plan_accepted(self):
        _, spec, _ = _setup()
        plan = TrajectoryPlan(10, 1e-3, 1.0, 7, spec)
        assert plan.n_traj == 10

    @pytest.mark.parametrize(
        "field, run",
        [
            ("dt", lambda h, spec, psi: TrajectoryPlan(10, math.nan, 1.0, 0, spec)),
            ("t_final", lambda h, spec, psi: TrajectoryPlan(10, 1e-3, math.inf, 0, spec)),
            ("t_final", lambda h, spec, psi: TrajectoryPlan(10, 1e-3, math.nan, 0, spec)),
            ("t", lambda h, spec, psi: evolve_trajectory(h, spec, psi, math.nan, 1e-3, 0)),
            ("t", lambda h, spec, psi: evolve_trajectory(h, spec, psi, math.inf, 1e-3, 0)),
            ("dt", lambda h, spec, psi: evolve_trajectory(h, spec, psi, 0.1, math.nan, 0)),
        ],
    )
    def test_non_finite_input_rejected_naming_field(self, field, run):
        # a NaN passes every comparison check, and an infinite horizon
        # would overflow the step count
        h, spec, psi = _setup()
        with pytest.raises(ValueError, match=f"^{field} must be"):
            run(h, spec, psi)


class TestStepSampling:
    """The engine's own noise draws, seen through one step of a trajectory.

    Under a zero Hamiltonian with a single noisy edge (k, l), one step
    of length dt started on k leaves sin^2(g dt) on l, where g is the
    sampled coupling; for g ~ N(0, 2 eta / dt) that has mean
    (1 - exp(-4 eta dt)) / 2 = 2 eta dt (1 - O(eta dt)).
    """

    def test_noise_moves_population_only_along_noisy_edge(self):
        h = np.zeros((6, 6))
        spec = NoiseSpec((4, 5), 1.0)
        psi = np.zeros(6, dtype=complex)
        psi[4] = 1.0
        for j in range(20):
            out = evolve_trajectory(h, spec, psi, 0.05, 1e-3, 3, stream_index=j)
            assert np.all(out[[0, 1, 2, 3]] == 0.0)
            assert abs(out[5]) > 0.0
            assert abs(np.vdot(out, out).real - 1.0) < 1e-12

    def test_step_population_matches_coupling_variance(self):
        eta = 2.0
        h = np.zeros((5, 5))
        spec = NoiseSpec((3, 4), eta)
        psi = np.zeros(5, dtype=complex)
        psi[3] = 1.0
        for dt in (1e-3, 1e-4):
            moved = [
                abs(evolve_trajectory(h, spec, psi, dt, dt, 5, stream_index=j)[4]) ** 2
                for j in range(4000)
            ]
            # relative standard error of the mean is sqrt(2 / 4000) = 2.2%
            assert np.mean(moved) == pytest.approx(2 * eta * dt, rel=0.1)


class TestStreams:
    """Trajectory j of master seed s draws from Philox keyed (s, j)."""

    @pytest.mark.parametrize("seed", [0, 42, 2**63 - 1])
    def test_draws_equal_philox_keyed_by_seed_and_index(self, seed):
        for j in (0, 1, 2047, 10**9):
            got = stochastic._stream(seed, j).standard_normal(300)
            want = np.random.Generator(np.random.Philox(key=[seed, j])).standard_normal(300)
            assert np.array_equal(got, want)

    def test_seeds_past_63_bits_keep_their_own_key(self):
        # numpy turns key=[2**63 + 1, 0] into float64, which rounds
        # 2**63 + 1 to 2**63 and 2**64 - 1 to 0
        for seed in (2**63, 2**63 + 1, 2**64 - 1):
            key = stochastic._stream(seed, 3).bit_generator.state["state"]["key"]
            assert key.tolist() == [seed, 3]

    def test_key_refuses_any_other_request(self):
        # numpy asks for two uint64 words; any other request would give
        # a truncated or widened key, so it fails instead
        key = stochastic._PhiloxKey(2**40, 3)
        assert key.generate_state(2, np.uint64).tolist() == [2**40, 3]
        with pytest.raises(ValueError, match="2 uint64 words"):
            key.generate_state(4, np.uint64)
        with pytest.raises(ValueError, match="2 uint64 words"):
            key.generate_state(2, np.uint32)

    def test_no_os_entropy_read(self, monkeypatch):
        import random

        calls = []
        read = random._urandom
        monkeypatch.setattr(random, "_urandom", lambda n: calls.append(n) or read(n))
        assert len(np.random.SeedSequence().entropy.to_bytes(16, "little")) == 16
        assert calls, "the spy does not see numpy's entropy reads"
        calls.clear()
        h, spec, psi = _setup()
        ensemble_average(TrajectoryPlan(20, 1e-3, 0.01, 5, spec), h, psi)
        evolve_trajectory(h, spec, psi, 0.01, 1e-3, 5, stream_index=3)
        assert calls == []


class TestSingleTrajectory:
    def test_norm_preserved(self):
        h, spec, psi = _setup()
        out = evolve_trajectory(h, spec, psi, 1.0, 1e-3, 42)
        assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_replay(self):
        h, spec, psi = _setup()
        a = evolve_trajectory(h, spec, psi, 0.8, 1e-3, 42, stream_index=3)
        b = evolve_trajectory(h, spec, psi, 0.8, 1e-3, 42, stream_index=3)
        assert np.array_equal(a, b)

    def test_streams_differ_by_index(self):
        h, spec, psi = _setup()
        a = evolve_trajectory(h, spec, psi, 0.8, 1e-3, 42, stream_index=0)
        b = evolve_trajectory(h, spec, psi, 0.8, 1e-3, 42, stream_index=1)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_zero_time_is_identity(self):
        h, spec, psi = _setup()
        out = evolve_trajectory(h, spec, psi, 0.0, 1e-3, 0)
        assert np.array_equal(out, psi)

    def test_zero_noise_matches_unitary(self):
        h, spec, psi = _setup(4, 2, 0.0)
        out = evolve_trajectory(h, spec, psi, 1.0, 1e-4, 0)
        from spinnet.propagator import propagator_matrix

        want = propagator_matrix(h, 1.0) @ psi
        assert np.max(np.abs(out - want)) < 1e-8

    def test_complex_hamiltonian_rejected(self):
        # Hermitian but not real: the kernel applies H as a real matrix
        _, spec, psi = _setup()
        h = np.zeros((5, 5), dtype=complex)
        h[1, 2], h[2, 1] = 1j, -1j
        with pytest.raises(ValueError, match="hamiltonian"):
            evolve_trajectory(h, spec, psi, 0.1, 1e-3, 0)
        with pytest.raises(ValueError, match="hamiltonian"):
            ensemble_average(TrajectoryPlan(4, 1e-3, 0.1, 0, spec), h, psi)
        # a complex array holding a real matrix is accepted
        real = single_excitation_hamiltonian(complete_graph(4))
        out = evolve_trajectory(real.astype(complex), spec, psi, 0.1, 1e-3, 0)
        assert np.array_equal(out, evolve_trajectory(real, spec, psi, 0.1, 1e-3, 0))

    def test_unnormalized_start_rejected(self):
        h, spec, psi = _setup()
        with pytest.raises(ValueError):
            evolve_trajectory(h, spec, 2.0 * psi, 1.0, 1e-3, 0)

    def test_step_load_guard(self):
        # eta dt and ||H|| dt are both capped; a huge rate at the
        # default step must be rejected, not silently integrated
        h, spec, psi = _setup(4, 2, 1000.0)
        with pytest.raises(ValueError):
            evolve_trajectory(h, spec, psi, 1.0, 1e-3, 0)


class TestEnsemble:
    def test_moment_memory_does_not_grow_with_ensemble(self, monkeypatch):
        # batches of 16 at n = 10 on a grid of 400 times: one batch's
        # moments take about 1 MiB, so keeping every batch's until the
        # end would hold 16 MiB at 16 batches. Each of 20 step times is
        # asked for 20 times over, so the grid is long but the run takes
        # only 19 steps.
        monkeypatch.setattr(stochastic, "_BATCH", 16)
        h, spec, psi = _setup(10, 2)
        times = np.repeat(np.arange(20) * 1e-3, 20)
        peaks = []
        for batches in (2, 16):
            plan = TrajectoryPlan(16 * batches, 1e-3, times[-1], 7, spec)
            tracemalloc.start()
            try:
                ensemble_average(plan, h, psi, times=times)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_mean_is_valid_state(self):
        h, spec, psi = _setup()
        plan = TrajectoryPlan(50, 1e-3, 0.5, 9, spec)
        r = ensemble_average(plan, h, psi)
        rho = r.rho_mean.rho
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_ensemble_contains_replayable_trajectories(self):
        # trajectory j of a run is exactly evolve_trajectory with
        # stream index j; averaging the replays reproduces the mean
        h, spec, psi = _setup()
        plan = TrajectoryPlan(5, 1e-3, 0.4, 77, spec)
        r = ensemble_average(plan, h, psi)
        acc = np.zeros((len(psi), len(psi)), dtype=complex)
        for j in range(plan.n_traj):
            v = evolve_trajectory(h, spec, psi, plan.t_final, plan.dt, 77, stream_index=j)
            acc += np.outer(v, v.conj())
        assert np.max(np.abs(acc / plan.n_traj - r.rho_mean.rho)) < 1e-12

    def test_converges_to_master_equation(self):
        h, spec, psi = _setup(4, 2, 1.0)
        plan = TrajectoryPlan(800, 1e-3, 1.0, 1234, spec)
        r = ensemble_average(plan, h, psi)
        liou = complete_network_liouvillian(4, 2, 1.0)
        want = evolve_at_times(liou, initial_network_state(4, 1, PROBE), [1.0])[0].rho
        diff = np.abs(r.rho_mean.rho - want)
        assert np.all(diff <= 4.0 * np.maximum(r.std_err, 1e-12))

    def test_std_err_shrinks_with_ensemble_size(self):
        h, spec, psi = _setup()
        small = ensemble_average(TrajectoryPlan(100, 1e-3, 0.5, 5, spec), h, psi)
        large = ensemble_average(TrajectoryPlan(900, 1e-3, 0.5, 5, spec), h, psi)
        # 9x the samples cuts the error about 3x on the big entries
        ratio = small.std_err[1, 1] / large.std_err[1, 1]
        assert 2.0 < ratio < 4.5

    def test_fractional_final_step(self):
        # horizon not divisible by dt lands exactly on t_final with a
        # shortened last step at matching variance
        h, spec, psi = _setup()
        plan = TrajectoryPlan(20, 1e-3, 0.5005, 3, spec)
        r = ensemble_average(plan, h, psi)
        assert abs(np.trace(r.rho_mean.rho).real - 1.0) < 1e-9


def _row_kernel(states, h, pairs, couplings, tau):
    """Reference step in row layout: one trajectory per row of ``states``,
    one edge per column of ``couplings``, -i tau applied to every term,
    and the series stopped once its largest entry falls below 1e-17."""
    out = states.copy()
    term = states
    for k in range(1, stochastic._MAX_TAYLOR_TERMS + 1):
        kicked = term @ h
        for e, (a, b) in enumerate(pairs):
            g = couplings[:, e]
            kicked[:, a] += g * term[:, b]
            kicked[:, b] += g * term[:, a]
        term = (-1j * tau / k) * kicked
        out += term
        if np.abs(term).max() < 1e-17:
            return out
    raise RuntimeError("numeric failure: step exponential did not converge")


def _planes(rows):
    """(batch, dim) complex rows as the kernel's (2, dim, batch) real planes."""
    return np.stack((rows.real.T, rows.imag.T))


def _kernel_step(columns, h, spec, normals, tau):
    """One step of the column kernel, driven by normals of shape (edges, batch)."""
    edges = stochastic._EdgeBlock.of(spec, h.shape[0])
    block = np.zeros((*edges.rates.shape, columns.shape[2]))
    norm = np.abs(np.linalg.eigvalsh(h)).max() + edges.fill(block, normals, tau)
    return stochastic._taylor_step(columns, h, edges.rows, block, tau, norm)


def _unit_rows(rng, batch, dim):
    rows = rng.standard_normal((batch, dim)) + 1j * rng.standard_normal((batch, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestStepKernel:
    """The column kernel against the row-layout reference.

    The two sum the same series in another order, so they agree to
    rounding, not bit for bit: 1e-14 after 50 steps and a tail step.
    """

    @pytest.mark.parametrize("batch", [1, 7, 2049])
    @pytest.mark.parametrize(
        "n, spec",
        [
            (4, standard_noise_spec(4, 2, 1.0)),
            (6, standard_noise_spec(6, 4, 1.0)),
            (8, standard_noise_spec(8, 6, 1.0)),
            (12, standard_noise_spec(12, 10, 1.0)),
            # each pair of {3, 4, 5} shares a vertex with the other two,
            # and each has its own rate
            (5, NoiseSpec((3, 4, 5), {(3, 4): 0.5, (3, 5): 2.0, (4, 5): 1.0})),
            # vertex 4 between the noisy pair is noiseless
            (6, NoiseSpec((3, 5), 1.0)),
            # two gaps, and the block starts at the sender
            (6, NoiseSpec((1, 3, 6), 1.0)),
        ],
        ids=["4-2", "6-4", "8-6", "12-10", "per-edge", "gapped", "spread"],
    )
    def test_matches_row_kernel(self, n, spec, batch):
        h = single_excitation_hamiltonian(complete_graph(n))
        edges = spec.edge_strengths()
        pairs, strengths = list(edges), np.array(list(edges.values()))
        rng = np.random.default_rng(batch + 100 * n)
        rows = _unit_rows(rng, batch, n + 1)
        columns = _planes(rows)
        dt = 1e-3
        for tau in [dt] * 50 + [0.4 * dt]:
            normals = rng.standard_normal((batch, len(pairs)))
            couplings = normals * np.sqrt(2.0 * strengths / tau)
            rows = _row_kernel(rows, h.astype(complex), pairs, couplings, tau)
            columns = _kernel_step(columns, h, spec, normals.T, tau)
        assert columns.shape == (2, n + 1, batch)
        assert np.max(np.abs(stochastic._complex_rows(columns) - rows)) < 1e-14
        assert np.max(np.abs(np.linalg.norm(columns, axis=(0, 1)) - 1.0)) < 1e-12

    def test_step_at_precondition_limits(self):
        # eta dt = 0.05 and ||H|| dt = 0.05, the largest step the engine
        # accepts: the longest series, still unitary and still exp(-iAt)
        from scipy.linalg import expm

        n, dt, batch = 6, 1e-3, 2049
        h = single_excitation_hamiltonian(complete_graph(n))
        h *= 0.05 / (dt * np.abs(np.linalg.eigvalsh(h)).max())
        spec = standard_noise_spec(n, n - 2, 0.05 / dt)
        edges = spec.edge_strengths()
        rng = np.random.default_rng(11)
        rows = _unit_rows(rng, batch, n + 1)
        normals = rng.standard_normal((len(edges), batch))
        out = stochastic._complex_rows(_kernel_step(_planes(rows), h, spec, normals, dt))
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12
        sigma = np.sqrt(2.0 * np.array(list(edges.values())) / dt)
        for b in range(5):
            a = h.copy()
            for (k, l), g in zip(edges, sigma * normals[:, b]):
                a[k, l] += g
                a[l, k] += g
            assert np.max(np.abs(out[b] - expm(-1j * dt * a) @ rows[b])) < 1e-13

    def test_dense_noisy_set_at_step_limits(self):
        # n = 70, m = 68: 2,278 edges, eta dt = 0.049 and ||H|| dt = 0.048.
        # The norm bound of a step is about 21, past what one series of
        # _MAX_TAYLOR_TERMS sums, so the step is taken in substeps.
        from scipy.linalg import expm

        n, dt, eta, seed = 70, 7e-4, 70.0, 5
        h = single_excitation_hamiltonian(complete_graph(n))
        spec = standard_noise_spec(n, n - 2, eta)
        edges = spec.edge_strengths()
        psi = np.zeros(n + 1, dtype=complex)
        psi[1] = 1.0
        sigma = np.sqrt(2.0 * eta / dt)
        for j in range(2):
            out = evolve_trajectory(h, spec, psi, dt, dt, seed, stream_index=j)
            rng = np.random.Generator(np.random.Philox(key=[seed, j]))
            normals = rng.standard_normal(len(edges))
            a = h.astype(complex)
            for (k, l), g in zip(edges, sigma * normals):
                a[k, l] += g
                a[l, k] += g
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12
            assert np.max(np.abs(out - expm(-1j * dt * a) @ psi)) < 1e-12
        r = ensemble_average(TrajectoryPlan(8, dt, 2.5 * dt, seed, spec), h, psi)
        assert abs(np.trace(r.rho_mean.rho).real - 1.0) < 1e-12

    def test_term_count_bounds_the_tail(self):
        for rho in np.linspace(0.0, stochastic._SUBSTEP_RHO, 361):
            k = stochastic._term_count(rho)
            tail = sum(rho**j / math.factorial(j) for j in range(k + 1, k + 60))
            assert tail < 1e-17
        with pytest.raises(RuntimeError, match="did not converge"):
            stochastic._term_count(40.0)
        with pytest.raises(RuntimeError, match="did not converge"):
            stochastic._term_count(math.nan)


def _restart_reference(h, spec, psi, t, dt, seed, index):
    """One trajectory by the restart schedule: from t = 0, the whole
    horizon's noise in one draw, the full steps, then a tail step on
    the next normals at the variance of the tail's length."""
    rng = stochastic._stream(seed, index)
    n_edges = len(spec.edge_strengths())
    n_full, remainder = stochastic._split_horizon(t, dt)
    state = _planes(psi[np.newaxis, :].astype(complex))
    for row in rng.standard_normal((n_full, n_edges)):
        state = _kernel_step(state, h, spec, row[:, np.newaxis], dt)
    if remainder:
        row = rng.standard_normal((1, n_edges))
        state = _kernel_step(state, h, spec, row.T, remainder)
    return stochastic._complex_rows(state)[0]


class TestTimeGrid:
    """One pass over a time grid gives the bytes of separate single-time runs.

    Three noisy edges, so a draw laid out by edge rather than by step
    would change the numbers.
    """

    # t = 0, times on and off the dt grid, two times inside the step
    # [0.1, 0.101), and a horizon of 300 steps, several noise chunks
    TIMES = [0.0, 0.0005, 0.1, 0.1002, 0.1007, 0.2, 0.3, 0.3004]

    @staticmethod
    def _assert_same(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a.rho_mean.rho, b.rho_mean.rho)
            assert np.array_equal(a.std_err, b.std_err)

    def test_trajectory_matches_restart_schedule(self, monkeypatch):
        h, spec, psi = _setup(5, 3)
        for chunk in (1, 7, stochastic._CHUNK):
            monkeypatch.setattr(stochastic, "_CHUNK", chunk)
            for t in self.TIMES:
                got = evolve_trajectory(h, spec, psi, t, 1e-3, 42, stream_index=5)
                assert np.array_equal(got, _restart_reference(h, spec, psi, t, 1e-3, 42, 5))

    def _separate(self, h, spec, psi, n_traj):
        return [
            ensemble_average(TrajectoryPlan(n_traj, 1e-3, t, 42, spec), h, psi)
            for t in self.TIMES
        ]

    def test_multi_time_equals_single_time_calls(self, monkeypatch):
        # batches of 128 make 300 trajectories three batches, the last
        # partial, so the batch-order sums are exercised
        monkeypatch.setattr(stochastic, "_BATCH", 128)
        h, spec, psi = _setup(5, 3)
        plan = TrajectoryPlan(300, 1e-3, self.TIMES[-1], 42, spec)
        multi = ensemble_average(plan, h, psi, times=self.TIMES)
        self._assert_same(multi, self._separate(h, spec, psi, 300))
        # the order of the requested times is the order of the results
        backwards = ensemble_average(plan, h, psi, times=self.TIMES[::-1])
        self._assert_same(backwards[::-1], multi)

    def test_chunk_length_does_not_change_bytes(self, monkeypatch):
        h, spec, psi = _setup(5, 3)
        plan = TrajectoryPlan(40, 1e-3, self.TIMES[-1], 42, spec)
        want = ensemble_average(plan, h, psi, times=self.TIMES)
        for chunk in (1, 7):
            monkeypatch.setattr(stochastic, "_CHUNK", chunk)
            self._assert_same(ensemble_average(plan, h, psi, times=self.TIMES), want)

    def test_times_outside_horizon_rejected(self):
        h, spec, psi = _setup()
        plan = TrajectoryPlan(4, 1e-3, 0.2, 42, spec)
        with pytest.raises(ValueError, match="times"):
            ensemble_average(plan, h, psi, times=[0.1, 0.3])
        with pytest.raises(ValueError, match="times"):
            ensemble_average(plan, h, psi, times=[])

    def test_noise_memory_does_not_grow_with_horizon(self, monkeypatch):
        # one batch of 256 trajectories on three noisy edges; a draw of
        # the whole horizon would hold 256 x steps x 3 normals at once,
        # a chunk of 32 steps holds 256 x 32 x 3
        monkeypatch.setattr(stochastic, "_CHUNK", 32)
        h, spec, psi = _setup(5, 3, 1.0)
        edges = len(spec.edge_strengths())
        peaks = []
        for t_final in (0.2, 0.8):
            plan = TrajectoryPlan(256, 1e-3, t_final, 7, spec)
            tracemalloc.start()
            try:
                ensemble_average(plan, h, psi)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        whole_horizon = 256 * 800 * edges * 8
        assert peaks[1] < whole_horizon / 2
        assert peaks[1] < 1.1 * peaks[0]

    def test_step_memory_bounded_by_noisy_edges(self):
        # n = 40, m = 38: 703 edges, one batch of 2,048 trajectories, two
        # steps. The noise of one step is 2,048 x 703 normals; the run
        # holds at most four times that, the coupling block included.
        n, batch = 40, 2048
        h = single_excitation_hamiltonian(complete_graph(n))
        spec = standard_noise_spec(n, n - 2, 1.0)
        psi = np.zeros(n + 1, dtype=complex)
        psi[1] = 1.0
        plan = TrajectoryPlan(batch, 1e-3, 2e-3, 7, spec)
        tracemalloc.start()
        try:
            ensemble_average(plan, h, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * batch * len(spec.edge_strengths()) * 8

    @pytest.mark.parametrize("n", [20, 40])
    def test_noise_memory_does_not_grow_with_noisy_set(self, n):
        # m = n - 2: 153 edges at n = 20, 703 at n = 40. The first draw
        # holds at most the normals budget, or one step of the batch
        # where that alone is larger, never a chunk of whole steps.
        edges = len(standard_noise_spec(n, n - 2, 1.0).edge_strengths())
        rngs = [stochastic._stream(7, j) for j in range(256)]
        tracemalloc.start()
        try:
            next(stochastic._noise_rows(rngs, 1000, edges))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * max(stochastic._NOISE_BUDGET, 256 * edges)
        assert peak < bound + 64 * 1024
