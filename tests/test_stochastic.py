"""Trajectory sampling: streams, norms, replay, ensemble convergence."""

from __future__ import annotations

import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from oracle import eigh_propagator

from spinnet import stochastic
from spinnet.lindblad import DenseLiouvillian, LumpedLiouvillian
from spinnet.network import (
    NoiseSpec,
    single_excitation_hamiltonian,
    standard_noise_spec,
)
from spinnet.propagator import BlochInput
from spinnet.stochastic import TrajectoryPlan, ensemble_average, evolve_trajectory

PROBE = BlochInput(math.pi / 2, 0.0)


def _setup(n=4, m=2, eta=1.0):
    spec = standard_noise_spec(n, m, eta)
    a, b = PROBE.amplitudes()
    psi = np.zeros(n + 1, dtype=complex)
    psi[0], psi[1] = a, b
    return spec, psi


class TestTrajectoryPlan:
    def test_validation(self):
        spec, _ = _setup()
        with pytest.raises(ValueError):
            TrajectoryPlan(0, 1e-3, 1.0, 0, spec)
        with pytest.raises(ValueError):
            TrajectoryPlan(10, -1e-3, 1.0, 0, spec)
        with pytest.raises(ValueError):
            TrajectoryPlan(10, 1e-3, -1.0, 0, spec)
        with pytest.raises(ValueError):
            TrajectoryPlan(10, 1e-3, 1.0, 2**64, spec)

    def test_valid_plan_accepted(self):
        spec, _ = _setup()
        plan = TrajectoryPlan(10, 1e-3, 1.0, 7, spec)
        assert plan.n_traj == 10

    @pytest.mark.parametrize(
        "field, run",
        [
            # 1.5 would run seed 1's streams, 2.5 two trajectories
            ("master_seed", lambda spec, psi: TrajectoryPlan(10, 1e-3, 1.0, 1.5, spec)),
            ("master_seed", lambda spec, psi: TrajectoryPlan(10, 1e-3, 1.0, True, spec)),
            ("master_seed", lambda spec, psi: TrajectoryPlan(10, 1e-3, 1.0, -1, spec)),
            ("master_seed", lambda spec, psi: TrajectoryPlan(10, 1e-3, 1.0, 2**64, spec)),
            ("n_traj", lambda spec, psi: TrajectoryPlan(2.5, 1e-3, 1.0, 0, spec)),
            ("n_traj", lambda spec, psi: TrajectoryPlan(True, 1e-3, 1.0, 0, spec)),
            ("n_traj", lambda spec, psi: TrajectoryPlan(np.float64(10), 1e-3, 1.0, 0, spec)),
            ("seed", lambda spec, psi: evolve_trajectory(spec, psi, 0.1, 1e-3, 2**64)),
            ("seed", lambda spec, psi: evolve_trajectory(spec, psi, 0.1, 1e-3, -1)),
            ("seed", lambda spec, psi: evolve_trajectory(spec, psi, 0.1, 1e-3, 1.0)),
            ("stream_index", lambda spec, psi: evolve_trajectory(spec, psi, 0.1, 1e-3, 0, 2**64)),
            ("stream_index", lambda spec, psi: evolve_trajectory(spec, psi, 0.1, 1e-3, 0, -3)),
            ("stream_index", lambda spec, psi: evolve_trajectory(spec, psi, 0.1, 1e-3, 0, False)),
        ],
    )
    def test_bad_seed_or_count_rejected_naming_field(self, field, run):
        spec, psi = _setup()
        with pytest.raises(ValueError, match=f"^{field} must"):
            run(spec, psi)

    def test_numpy_integers_accepted(self):
        spec, psi = _setup()
        plan = TrajectoryPlan(np.int64(3), 1e-3, 0.01, np.uint64(2**63 + 5), spec)
        assert type(plan.n_traj) is int and plan.master_seed == 2**63 + 5
        want = ensemble_average(TrajectoryPlan(3, 1e-3, 0.01, 2**63 + 5, spec), psi)
        assert np.array_equal(ensemble_average(plan, psi).rho_mean.rho, want.rho_mean.rho)
        got = evolve_trajectory(spec, psi, 0.01, 1e-3, np.uint64(2**64 - 1), np.int32(2))
        assert np.array_equal(got, evolve_trajectory(spec, psi, 0.01, 1e-3, 2**64 - 1, 2))

    @pytest.mark.parametrize(
        "field, run",
        [
            ("dt", lambda spec, psi: TrajectoryPlan(10, math.nan, 1.0, 0, spec)),
            ("t_final", lambda spec, psi: TrajectoryPlan(10, 1e-3, math.inf, 0, spec)),
            ("t_final", lambda spec, psi: TrajectoryPlan(10, 1e-3, math.nan, 0, spec)),
            ("t", lambda spec, psi: evolve_trajectory(spec, psi, math.nan, 1e-3, 0)),
            ("t", lambda spec, psi: evolve_trajectory(spec, psi, math.inf, 1e-3, 0)),
            ("dt", lambda spec, psi: evolve_trajectory(spec, psi, 0.1, math.nan, 0)),
        ],
    )
    def test_non_finite_input_rejected_naming_field(self, field, run):
        # a NaN passes every comparison check, and an infinite horizon
        # would overflow the step count
        spec, psi = _setup()
        with pytest.raises(ValueError, match=f"^{field} must be"):
            run(spec, psi)


class TestStepSampling:
    """The engine's own noise draws, as one step's couplings.

    Each edge's normal lands at the edge's two mirrored places in the
    coupling block, times sqrt(2 eta / tau), so the coupling has
    variance 2 eta / tau; nothing else in the block is written.
    """

    # every pair of {3, 4, 6} at its own rate, vertex 5 noiseless
    SPEC = NoiseSpec((3, 4, 6), {(3, 4): 0.5, (3, 6): 2.0, (4, 6): 1.0})

    def _couplings(self, tau, batch):
        edges = stochastic._EdgeBlock.of(self.SPEC, 6)
        rngs = [stochastic._stream(5, j) for j in range(batch)]
        run = next(stochastic._noise_rows(rngs, 1, len(edges.first))).copy()
        normals = run[:, 0].T.copy()
        [bound] = edges.couple(run, tau)
        block = np.full((3, 3, batch), np.nan)
        block[[0, 1, 2], [0, 1, 2]] = 0.0
        edges.place(block, run[:, 0].T)
        return edges, normals, block, bound

    def test_couplings_land_only_on_their_edge(self):
        tau = 1e-3
        edges, normals, block, bound = self._couplings(tau, 64)
        # the block covers exactly the noisy vertices, in sorted order
        assert edges.vertices.tolist() == [3, 4, 6]
        assert np.all(block[[0, 1, 2], [0, 1, 2]] == 0.0)
        for e, ((k, l), eta) in enumerate(self.SPEC.edge_strengths().items()):
            j, i = [3, 4, 6].index(k), [3, 4, 6].index(l)
            assert (edges.first[e], edges.second[e]) == (j, i)
            want = normals[e] * np.sqrt(2.0 * eta / tau)
            assert np.array_equal(block[j, i], want)
            assert np.array_equal(block[i, j], want)
        # the returned bound holds for every column's coupling matrix
        largest = np.abs(np.linalg.eigvalsh(block.transpose(2, 0, 1))).max()
        assert largest <= bound

    @pytest.mark.parametrize("tau", [1e-3, 1e-4])
    def test_coupling_variance_is_two_eta_over_tau(self, tau):
        # 4,000 trajectories: the relative standard error of a sample
        # variance is sqrt(2 / 4000) = 2.2%
        _, _, block, _ = self._couplings(tau, 4000)
        for (k, l), eta in self.SPEC.edge_strengths().items():
            j, i = [3, 4, 6].index(k), [3, 4, 6].index(l)
            assert np.mean(block[j, i] ** 2) == pytest.approx(2 * eta / tau, rel=0.1)

    @pytest.mark.parametrize("budget", [2**15, 40])
    def test_run_bounds_equal_per_step_sums(self, budget, monkeypatch):
        # a run of 9 steps at once, its columns summed in parts or whole,
        # gives each step the bound of that step's couplings alone, bit
        # for bit: sum_e c_e^2 in draw order per column
        monkeypatch.setattr(stochastic, "_SQUARES_BUDGET", budget)
        edges = stochastic._EdgeBlock.of(self.SPEC, 6)
        rngs = [stochastic._stream(9, j) for j in range(64)]
        run = next(stochastic._noise_rows(rngs, 9, len(edges.first))).copy()
        bounds = edges.couple(run, 1e-3)
        for step, bound in enumerate(bounds.tolist()):
            couplings = run[:, step].T.copy()
            squares = np.einsum("eb,eb->b", couplings, couplings)
            assert bound == math.sqrt(2.0 * float(squares.max()) * 2 / 3)


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
        spec, psi = _setup()
        ensemble_average(TrajectoryPlan(20, 1e-3, 0.01, 5, spec), psi)
        evolve_trajectory(spec, psi, 0.01, 1e-3, 5, stream_index=3)
        assert calls == []


class TestSingleTrajectory:
    def test_norm_preserved(self):
        spec, psi = _setup()
        out = evolve_trajectory(spec, psi, 1.0, 1e-3, 42)
        assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_replay(self):
        spec, psi = _setup()
        a = evolve_trajectory(spec, psi, 0.8, 1e-3, 42, stream_index=3)
        b = evolve_trajectory(spec, psi, 0.8, 1e-3, 42, stream_index=3)
        assert np.array_equal(a, b)

    def test_streams_differ_by_index(self):
        spec, psi = _setup()
        a = evolve_trajectory(spec, psi, 0.8, 1e-3, 42, stream_index=0)
        b = evolve_trajectory(spec, psi, 0.8, 1e-3, 42, stream_index=1)
        assert np.max(np.abs(a - b)) > 1e-6

    def test_zero_time_is_identity(self):
        spec, psi = _setup()
        out = evolve_trajectory(spec, psi, 0.0, 1e-3, 0)
        assert np.array_equal(out, psi)

    def test_zero_noise_matches_unitary(self):
        spec, psi = _setup(4, 2, 0.0)
        out = evolve_trajectory(spec, psi, 1.0, 1e-4, 0)
        want = eigh_propagator(single_excitation_hamiltonian(4), 1.0) @ psi
        assert np.max(np.abs(out - want)) < 1e-8

    def test_unnormalized_start_rejected(self):
        spec, psi = _setup()
        with pytest.raises(ValueError):
            evolve_trajectory(spec, 2.0 * psi, 1.0, 1e-3, 0)

    @pytest.mark.parametrize("psi", [np.ones(1), np.eye(5) / math.sqrt(5)])
    def test_state_without_a_vertex_rejected(self, psi):
        spec = NoiseSpec((), 0.0)
        with pytest.raises(ValueError, match="state shape"):
            evolve_trajectory(spec, psi, 0.1, 1e-3, 0)

    @pytest.mark.parametrize("vertices, bad", [((3, 5), 5), ((0, 3), 0)])
    def test_noisy_vertex_outside_network_rejected(self, vertices, bad):
        # n = 4: vertex 5 is not in the network, and 0 is the vacuum
        _, psi = _setup()
        with pytest.raises(ValueError, match=f"noisy vertex {bad} outside 1..4"):
            evolve_trajectory(NoiseSpec(vertices, 1.0), psi, 0.1, 1e-3, 0)

    def test_step_load_guard(self):
        # eta dt and ||H|| dt are both capped; a huge rate at the
        # default step must be rejected, not silently integrated
        spec, psi = _setup(4, 2, 1000.0)
        with pytest.raises(ValueError, match="eta"):
            evolve_trajectory(spec, psi, 1.0, 1e-3, 0)
        # ||H|| = n - 1 on the complete graph, so ||H|| dt = 0.059 at n = 60
        spec, psi = _setup(60, 2, 1.0)
        with pytest.raises(ValueError, match=r"\|\|H\|\| \* dt = 0.059"):
            evolve_trajectory(spec, psi, 1.0, 1e-3, 0)


class TestEnsemble:
    def test_moment_memory_does_not_grow_with_ensemble(self, monkeypatch):
        # batches of 16 at n = 10 on a grid of 400 times: one batch's
        # moments take about 1 MiB, so keeping every batch's until the
        # end would hold 16 MiB at 16 batches. Each of 20 step times is
        # asked for 20 times over, so the grid is long but the run takes
        # only 19 steps.
        monkeypatch.setattr(stochastic, "_BATCH", 16)
        spec, psi = _setup(10, 2)
        times = np.repeat(np.arange(20) * 1e-3, 20)
        peaks = []
        for batches in (2, 16):
            plan = TrajectoryPlan(16 * batches, 1e-3, times[-1], 7, spec)
            tracemalloc.start()
            try:
                ensemble_average(plan, psi, times=times)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_finalizing_holds_no_second_copy_of_the_sums(self):
        # n = 20, one trajectory read at each of 2,000 steps: the running
        # sums take 2,000 x 21^2 x 24 bytes, 20.2 MiB, and the means and
        # standard errors are made from them in place
        spec, psi = _setup(20, 2)
        dt = 2e-3
        times = np.arange(1, 2001) * dt
        plan = TrajectoryPlan(1, dt, times[-1], 3, spec)
        tracemalloc.start()
        try:
            ensemble_average(plan, psi, times=times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sums = len(times) * len(psi) ** 2 * (16 + 8)
        assert peak < 1.3 * sums

    def test_mean_is_valid_state(self):
        spec, psi = _setup()
        plan = TrajectoryPlan(50, 1e-3, 0.5, 9, spec)
        r = ensemble_average(plan, psi)
        assert r.rho_mean.times.tolist() == [0.5] and r.std_err.shape == (1, 5, 5)
        rho = r.rho_mean.rho[0]
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_ensemble_contains_replayable_trajectories(self):
        # trajectory j of a run is exactly evolve_trajectory with
        # stream index j; averaging the replays reproduces the mean
        spec, psi = _setup()
        plan = TrajectoryPlan(5, 1e-3, 0.4, 77, spec)
        r = ensemble_average(plan, psi)
        acc = np.zeros((len(psi), len(psi)), dtype=complex)
        for j in range(plan.n_traj):
            v = evolve_trajectory(spec, psi, plan.t_final, plan.dt, 77, stream_index=j)
            acc += np.outer(v, v.conj())
        assert np.max(np.abs(acc / plan.n_traj - r.rho_mean.rho[0])) < 1e-12

    def test_moments_match_einsum_form(self):
        # the running sums are BLAS products; the einsum sums over the
        # replayed trajectories give the same means and standard errors
        spec, psi = _setup(6, 4)
        times = [0.05, 0.1]
        plan = TrajectoryPlan(64, 1e-3, times[-1], 21, spec)
        result = ensemble_average(plan, psi, times=times)
        for t, rho, std_err in zip(times, result.rho_mean.rho, result.std_err):
            states = np.array(
                [evolve_trajectory(spec, psi, t, plan.dt, 21, stream_index=j) for j in range(64)]
            )
            pops = np.abs(states) ** 2
            mean = np.einsum("bi,bj->ij", states, states.conj()) / 64
            second = np.einsum("bi,bj->ij", pops, pops) / 64
            # squared standard errors: the square root would magnify the
            # rounding of a near-zero variance
            variance = np.maximum(second - np.abs(mean) ** 2, 0.0) / 64
            assert np.max(np.abs(rho - mean)) < 1e-15
            assert np.max(np.abs(std_err**2 - variance)) < 1e-15

    def test_converges_to_master_equation(self):
        spec, psi = _setup(4, 2, 1.0)
        plan = TrajectoryPlan(800, 1e-3, 1.0, 1234, spec)
        r = ensemble_average(plan, psi)
        want = DenseLiouvillian(4, spec).evolve(psi, [1.0]).rho
        diff = np.abs(r.rho_mean.rho - want)
        assert np.all(diff <= 4.0 * np.maximum(r.std_err, 1e-12))

    def test_std_err_shrinks_with_ensemble_size(self):
        spec, psi = _setup()
        small = ensemble_average(TrajectoryPlan(100, 1e-3, 0.5, 5, spec), psi)
        large = ensemble_average(TrajectoryPlan(900, 1e-3, 0.5, 5, spec), psi)
        # 9x the samples cuts the error about 3x on the big entries
        ratio = small.std_err[0, 1, 1] / large.std_err[0, 1, 1]
        assert 2.0 < ratio < 4.5

    def test_fractional_final_step(self):
        # horizon not divisible by dt lands exactly on t_final with a
        # shortened last step at matching variance
        spec, psi = _setup()
        plan = TrajectoryPlan(20, 1e-3, 0.5005, 3, spec)
        r = ensemble_average(plan, psi)
        assert abs(np.trace(r.rho_mean.rho[0]).real - 1.0) < 1e-9


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


def _term_count(rho):
    """The scalar form of stochastic._term_counts, term by term: the least
    K whose Taylor tail past K is below 1e-17."""
    term = 1.0
    for k in range(stochastic._MAX_TAYLOR_TERMS + 1):
        term *= rho / (k + 1)
        if rho < k + 2 and term < 1e-17 * (1.0 - rho / (k + 2)):
            return k
    raise RuntimeError("numeric failure: step exponential did not converge")


def _full_space(h, spec):
    """The kernel's layout over the whole space: the noisy edges, the row
    order, noisy rows first, and the term operator of H in that order."""
    edges = stochastic._EdgeBlock.of(spec, len(h) - 1)
    order = np.r_[edges.vertices, np.delete(np.arange(len(h)), edges.vertices)]
    operator = stochastic._term_operator(h[np.ix_(order, order)], len(edges.vertices))
    return edges, order, operator


def _buffer(rows, order, operator):
    """(batch, dim) complex rows as the kernel's buffer in the row order ``order``."""
    states = np.zeros((operator.shape[1], rows.shape[0]))
    states[: len(order)] = rows.real.T[order]
    states[len(order) : 2 * len(order)] = rows.imag.T[order]
    return states


def _unbuffer(states, order):
    """The (batch, dim) complex rows of a full-space buffer."""
    rows = np.empty((len(order), states.shape[1]), dtype=complex)
    rows[order] = states[: len(order)] + 1j * states[len(order) : 2 * len(order)]
    return rows.T


def _kernel_step(states, operator, h_norm, edges, normals, tau):
    """One step of the kernel on a buffer, driven by normals of shape (edges, batch)."""
    kernel = stochastic._Kernel.of(edges, operator, h_norm, states.shape[1])
    return kernel.advance(states, kernel.prepare(normals.T[:, np.newaxis].copy(), tau), 1)


def _norm(h):
    return float(np.abs(np.linalg.eigvalsh(h)).max())


def _unit_rows(rng, batch, dim):
    rows = rng.standard_normal((batch, dim)) + 1j * rng.standard_normal((batch, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


SPECS = [
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
]
SPEC_IDS = ["4-2", "6-4", "8-6", "12-10", "per-edge", "gapped", "spread"]


class TestStepKernel:
    """The column kernel over the whole space, noisy rows first, against
    the row-layout reference.

    The two sum the same series in another order, so they agree to
    rounding, not bit for bit: 1e-14 after 50 steps and a tail step.
    """

    @pytest.mark.parametrize("batch", [1, 7, 2049])
    @pytest.mark.parametrize("n, spec", SPECS, ids=SPEC_IDS)
    def test_matches_row_kernel(self, n, spec, batch):
        h = single_excitation_hamiltonian(n)
        edges = spec.edge_strengths()
        pairs, strengths = list(edges), np.array(list(edges.values()))
        rng = np.random.default_rng(batch + 100 * n)
        rows = _unit_rows(rng, batch, n + 1)
        edges, order, operator = _full_space(h, spec)
        states = _buffer(rows, order, operator)
        dt = 1e-3
        for tau in [dt] * 50 + [0.4 * dt]:
            normals = rng.standard_normal((batch, len(pairs)))
            couplings = normals * np.sqrt(2.0 * strengths / tau)
            rows = _row_kernel(rows, h.astype(complex), pairs, couplings, tau)
            states = _kernel_step(states, operator, _norm(h), edges, normals.T, tau)
        out = _unbuffer(states, order)
        assert out.shape == (batch, n + 1)
        assert np.max(np.abs(out - rows)) < 1e-14
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12

    def test_step_at_precondition_limits(self):
        # eta dt = 0.05 and ||H|| dt = 0.05, the largest step the engine
        # accepts: the longest series, still unitary and still exp(-iAt)
        from scipy.linalg import expm

        n, dt, batch = 6, 1e-3, 2049
        h = single_excitation_hamiltonian(n)
        h *= 0.05 / (dt * _norm(h))
        spec = standard_noise_spec(n, n - 2, 0.05 / dt)
        strengths = spec.edge_strengths()
        rng = np.random.default_rng(11)
        rows = _unit_rows(rng, batch, n + 1)
        normals = rng.standard_normal((len(strengths), batch))
        edges, order, operator = _full_space(h, spec)
        states = _buffer(rows, order, operator)
        out = _unbuffer(_kernel_step(states, operator, _norm(h), edges, normals, dt), order)
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12
        sigma = np.sqrt(2.0 * np.array(list(strengths.values())) / dt)
        for b in range(5):
            a = h.copy()
            for (k, l), g in zip(strengths, sigma * normals[:, b]):
                a[k, l] += g
                a[l, k] += g
            assert np.max(np.abs(out[b] - expm(-1j * dt * a) @ rows[b])) < 1e-13

    def test_dense_noisy_set_at_step_limits(self):
        # n = 70, m = 68: 2,278 edges, eta dt = 0.049 and ||H|| dt = 0.048.
        # The norm bound of a step is about 21, past what one series of
        # _MAX_TAYLOR_TERMS sums, so the step is taken in substeps.
        from scipy.linalg import expm

        n, dt, eta, seed = 70, 7e-4, 70.0, 5
        h = single_excitation_hamiltonian(n)
        spec = standard_noise_spec(n, n - 2, eta)
        edges = spec.edge_strengths()
        psi = np.zeros(n + 1, dtype=complex)
        psi[1] = 1.0
        sigma = np.sqrt(2.0 * eta / dt)
        for j in range(2):
            out = evolve_trajectory(spec, psi, dt, dt, seed, stream_index=j)
            rng = np.random.Generator(np.random.Philox(key=[seed, j]))
            normals = rng.standard_normal(len(edges))
            a = h.astype(complex)
            for (k, l), g in zip(edges, sigma * normals):
                a[k, l] += g
                a[l, k] += g
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12
            assert np.max(np.abs(out - expm(-1j * dt * a) @ psi)) < 1e-12
        r = ensemble_average(TrajectoryPlan(8, dt, 2.5 * dt, seed, spec), psi)
        assert abs(np.trace(r.rho_mean.rho[0]).real - 1.0) < 1e-12

    def test_term_count_bounds_the_tail(self):
        grid = np.linspace(0.0, stochastic._SUBSTEP_RHO, 361)
        counts = stochastic._term_counts(grid)
        assert counts.tolist() == [_term_count(rho) for rho in grid]
        for rho, k in zip(grid, counts.tolist()):
            tail = sum(rho**j / math.factorial(j) for j in range(k + 1, k + 60))
            assert tail < 1e-17
        for bad in (40.0, math.nan):
            with pytest.raises(RuntimeError, match="did not converge"):
                _term_count(bad)
            with pytest.raises(RuntimeError, match="did not converge"):
                stochastic._term_counts(np.array([1.0, bad, 2.0]))


def _full_space_trajectory(spec, psi, t, dt, seed, index):
    """One trajectory stepped by the row kernel over every row of the
    complete graph, on the noise the engine draws: the whole horizon's
    normals, then a tail row."""
    h = single_excitation_hamiltonian(len(psi) - 1)
    edges = spec.edge_strengths()
    pairs, strengths = list(edges), np.array(list(edges.values()))
    rng = stochastic._stream(seed, index)
    n_full, remainder = stochastic._split_horizon(t, dt)
    steps = [(row, dt) for row in rng.standard_normal((n_full, len(pairs)))]
    if remainder:
        steps.append((rng.standard_normal(len(pairs)), remainder))
    rows = psi[np.newaxis, :].astype(complex)
    for normals, tau in steps:
        couplings = normals[np.newaxis, :] * np.sqrt(2.0 * strengths / tau)
        rows = _row_kernel(rows, h.astype(complex), pairs, couplings, tau)
    return rows[0]


class TestReduction:
    """Trajectories stepped in W, the noisy vertices plus the uniform rest,
    plus the exact phase of the rest of the start state, against the
    whole space."""

    @pytest.mark.parametrize("start", ["probe", "random"])
    @pytest.mark.parametrize("n, spec", SPECS, ids=SPEC_IDS)
    def test_matches_full_space_reference(self, n, spec, start):
        dim = n + 1
        if start == "probe":
            a, b = PROBE.amplitudes()
            psi = np.zeros(dim, dtype=complex)
            psi[0], psi[1] = a, b
        else:
            psi = _unit_rows(np.random.default_rng(dim), 1, dim)[0]
        t, dt, seed, n_traj = 0.0304, 1e-3, 11, 5
        want = np.zeros((dim, dim), dtype=complex)
        for j in range(n_traj):
            ref = _full_space_trajectory(spec, psi, t, dt, seed, j)
            got = evolve_trajectory(spec, psi, t, dt, seed, stream_index=j)
            assert np.max(np.abs(got - ref)) < 1e-13
            want += np.outer(ref, ref.conj()) / n_traj
        mean = ensemble_average(TrajectoryPlan(n_traj, dt, t, seed, spec), psi).rho_mean.rho[0]
        assert np.max(np.abs(mean - want)) < 1e-13

    @pytest.mark.parametrize(
        "n, spec",
        [*SPECS, (4, NoiseSpec((), 0.0)), (5, NoiseSpec((4,), 1.0)),
         (4, NoiseSpec((1, 2, 3, 4), 1.0))],
        ids=[*SPEC_IDS, "m0", "m1", "all-noisy"],
    )
    def test_closed_form_is_h_on_w(self, n, spec):
        h = single_excitation_hamiltonian(n)
        space = _space(n, spec, PROBE)
        q = space.basis
        r = q.shape[1]
        assert np.max(np.abs(q.T @ q - np.eye(r))) < 1e-15
        # W is H-invariant, and the closed form is Q^T H Q
        assert np.max(np.abs(h @ q - q @ (q.T @ h @ q))) < 1e-14
        assert np.max(np.abs(space.operator[:r, r : 2 * r] - q.T @ h @ q)) < 1e-14
        assert space.h_norm == pytest.approx(_norm(h), abs=1e-12)
        # the rest of the start state is an eigenvector of H at -1
        assert space.moving[0] == 0.0
        assert np.max(np.abs(q.T @ space.moving)) < 1e-15
        assert np.max(np.abs(h @ space.moving + space.moving)) < 1e-15

    @pytest.mark.parametrize("n, m", [(4, 2), (6, 2), (6, 4), (1002, 2)])
    def test_complete_graph_steps_v_plus_one_rows(self, n, m):
        space = _space(n, standard_noise_spec(n, m, 1.0), PROBE)
        assert space.basis.shape == (n + 1, m + 1)
        assert space.operator.shape == (2 * (m + 1), 2 * (m + 1) + 2 * m)
        # the rest of the probe: b (e_i - 1_rest / (n - m)) over the rest
        b = PROBE.amplitudes()[1]
        want = np.zeros(n + 1, dtype=complex)
        want[1 : n - m + 1] = -b / (n - m)
        want[1] += b
        assert np.max(np.abs(space.moving - want)) < 1e-15

    def test_gapped_set_steps_only_its_noisy_rows(self):
        # (3, 5) at n = 7: the block is 2 x 2, and vertex 4 is in u
        space = _space(7, NoiseSpec((3, 5), 1.0), PROBE)
        assert space.edges.vertices.tolist() == [3, 5]
        assert space.basis.shape == (8, 3)
        assert np.count_nonzero(space.basis[:, 2]) == 5

    def test_thousand_vertices_match_lumped_master_equation(self):
        # n = 1,002, m = 2: three stepped rows out of 1,003
        n, m, eta, t, dt = 1002, 2, 100.0, 0.01, 4e-5
        a, b = PROBE.amplitudes()
        psi = np.zeros(n + 1, dtype=complex)
        psi[0], psi[1] = a, b
        plan = TrajectoryPlan(256, dt, t, 5, standard_noise_spec(n, m, eta))
        r = ensemble_average(plan, psi)
        lumped = LumpedLiouvillian(n, m, eta).evolve([t])
        oo, o0 = lumped.rho_oo[0], lumped.rho_o0[0]
        assert abs(r.rho_mean.rho[0, 2, 2].real - oo) <= 4.0 * r.std_err[0, 2, 2]
        assert abs(r.rho_mean.rho[0, 2, 0] - o0) <= 4.0 * r.std_err[0, 2, 0]

    def test_trajectory_memory_bounded_at_any_n(self):
        # n = 2,002, m = 2: an (n+1) x (n+1) H alone would take 32 MB
        n, dt = 2002, 2e-5
        spec, psi = _setup(n, 2, 1.0)
        tracemalloc.start()
        try:
            out = evolve_trajectory(spec, psi, 5 * dt, dt, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        assert peak < 5 << 20


def _space(n, spec, state):
    a, b = state.amplitudes()
    psi = np.zeros(n + 1, dtype=complex)
    psi[0], psi[1] = a, b
    return stochastic._Subspace.of(spec, psi)


def _restart_reference(spec, psi, t, dt, seed, index):
    """One trajectory by the restart schedule: from t = 0, the whole
    horizon's noise in one draw, the full steps, then a tail step on
    the next normals at the variance of the tail's length, all in the
    reduced space the engine steps."""
    rng = stochastic._stream(seed, index)
    n_edges = len(spec.edge_strengths())
    n_full, remainder = stochastic._split_horizon(t, dt)
    space = stochastic._Subspace.of(spec, psi)
    states = space.buffer(1)
    kernel = stochastic._Kernel.of(space.edges, space.operator, space.h_norm, 1)
    for row in rng.standard_normal((n_full, 1, 1, n_edges)):
        kernel.advance(states, kernel.prepare(row, dt), 1)
    if remainder:
        kernel.advance(states, kernel.prepare(rng.standard_normal((1, 1, n_edges)), remainder), 1)
    return space.rows(states, n_full * dt + remainder)[0]


class TestTimeGrid:
    """One pass over a time grid gives the bytes of separate single-time runs.

    Three noisy edges, so a draw laid out by edge rather than by step
    would change the numbers.
    """

    # t = 0, times on and off the dt grid, two times inside the step
    # [0.1, 0.101), and a horizon of 300 steps, several noise chunks
    TIMES = [0.0, 0.0005, 0.1, 0.1002, 0.1007, 0.2, 0.3, 0.3004]

    @staticmethod
    def _per_time(result):
        return list(zip(result.rho_mean.rho, result.std_err))

    @staticmethod
    def _assert_same(got, want):
        assert len(got) == len(want)
        for (mean_a, err_a), (mean_b, err_b) in zip(got, want):
            assert np.array_equal(mean_a, mean_b)
            assert np.array_equal(err_a, err_b)

    def test_trajectory_matches_restart_schedule(self, monkeypatch):
        spec, psi = _setup(5, 3)
        for chunk in (1, 7, stochastic._CHUNK):
            monkeypatch.setattr(stochastic, "_CHUNK", chunk)
            for t in self.TIMES:
                got = evolve_trajectory(spec, psi, t, 1e-3, 42, stream_index=5)
                assert np.array_equal(got, _restart_reference(spec, psi, t, 1e-3, 42, 5))

    def _separate(self, spec, psi, n_traj):
        return [
            moments
            for t in self.TIMES
            for moments in self._per_time(ensemble_average(TrajectoryPlan(n_traj, 1e-3, t, 42, spec), psi))
        ]

    def test_multi_time_equals_single_time_calls(self, monkeypatch):
        # batches of 128 make 300 trajectories three batches, the last
        # partial, so the batch-order sums are exercised
        monkeypatch.setattr(stochastic, "_BATCH", 128)
        spec, psi = _setup(5, 3)
        plan = TrajectoryPlan(300, 1e-3, self.TIMES[-1], 42, spec)
        multi = self._per_time(ensemble_average(plan, psi, times=self.TIMES))
        self._assert_same(multi, self._separate(spec, psi, 300))
        # the order of the requested times is the order of the results
        backwards = self._per_time(ensemble_average(plan, psi, times=self.TIMES[::-1]))
        self._assert_same(backwards[::-1], multi)

    def test_chunk_length_does_not_change_bytes(self, monkeypatch):
        spec, psi = _setup(5, 3)
        plan = TrajectoryPlan(40, 1e-3, self.TIMES[-1], 42, spec)
        want = self._per_time(ensemble_average(plan, psi, times=self.TIMES))
        for chunk in (1, 7):
            monkeypatch.setattr(stochastic, "_CHUNK", chunk)
            self._assert_same(self._per_time(ensemble_average(plan, psi, times=self.TIMES)), want)
        # a budget below one step's normals draws one step at a time
        monkeypatch.setattr(stochastic, "_NOISE_BUDGET", 1)
        self._assert_same(self._per_time(ensemble_average(plan, psi, times=self.TIMES)), want)

    def test_times_outside_horizon_rejected(self):
        spec, psi = _setup()
        plan = TrajectoryPlan(4, 1e-3, 0.2, 42, spec)
        with pytest.raises(ValueError, match="times"):
            ensemble_average(plan, psi, times=[0.1, 0.3])
        with pytest.raises(ValueError, match="times"):
            ensemble_average(plan, psi, times=[])

    def test_noise_memory_does_not_grow_with_horizon(self, monkeypatch):
        # one batch of 256 trajectories on three noisy edges; a draw of
        # the whole horizon would hold 256 x steps x 3 normals at once,
        # a chunk of 32 steps holds 256 x 32 x 3
        monkeypatch.setattr(stochastic, "_CHUNK", 32)
        spec, psi = _setup(5, 3, 1.0)
        edges = len(spec.edge_strengths())
        peaks = []
        for t_final in (0.2, 0.8):
            plan = TrajectoryPlan(256, 1e-3, t_final, 7, spec)
            tracemalloc.start()
            try:
                ensemble_average(plan, psi)
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
        spec = standard_noise_spec(n, n - 2, 1.0)
        psi = np.zeros(n + 1, dtype=complex)
        psi[1] = 1.0
        plan = TrajectoryPlan(batch, 1e-3, 2e-3, 7, spec)
        tracemalloc.start()
        try:
            ensemble_average(plan, psi)
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


def _package_imports(source):
    """(module, name) for every import of a spinnet module in ``source``,
    at any depth; a whole-module import has the name "*"."""
    taken = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "spinnet":
                    taken.add((module or "*", "*"))
        elif isinstance(node, ast.ImportFrom):
            package, _, module = (node.module or "").partition(".")
            if node.level == 0 and package != "spinnet":
                continue
            if node.level:
                module = node.module or ""
            for alias in node.names:
                taken.add((module, alias.name) if module else (alias.name, "*"))
    return taken


class TestEngineIndependence:
    """The trajectory engine is the oracle of the master equation, so it
    shares the network model and the state type with it, and no stepping
    or propagation code."""

    ALLOWED = {"lindblad": {"DenseStates"}}

    def _foreign(self, source):
        return {
            (module, name)
            for module, name in _package_imports(source)
            if module != "network" and name not in self.ALLOWED.get(module, ())
        }

    def test_stochastic_imports_only_noise_spec_and_dense_states(self):
        # the engine models the complete graph itself: it takes no H
        source = inspect.getsource(stochastic)
        assert self._foreign(source) == set()
        assert _package_imports(source) == {("lindblad", "DenseStates"), ("network", "NoiseSpec")}

    @pytest.mark.parametrize(
        "line",
        [
            "from .propagator import propagator_matrix",
            "from .lindblad import DenseLiouvillian, DenseStates",
            "from . import lindblad",
            "from spinnet.lindblad import _propagate",
            "import spinnet.propagator as p",
            "def f():\n    from .perturbation import first_order_numeric",
        ],
    )
    def test_guard_sees_a_borrowed_route(self, line):
        assert self._foreign(line)
