"""Trajectory sampling: streams, norms, replay, ensemble convergence."""

from __future__ import annotations

import ast
import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from oracle import eigh_propagator, split_step_map

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
    """The engine's own noise draws, as one step's rotation angles.

    Edge e's normal xi_e becomes the angle xi_e sqrt(2 eta_e tau) of its
    own rotation, so the angle has variance 2 eta_e tau; the drawn
    normals are read, never scaled in place.
    """

    # every pair of {3, 4, 6} at its own rate, vertex 5 noiseless
    SPEC = NoiseSpec((3, 4, 6), {(3, 4): 0.5, (3, 6): 2.0, (4, 6): 1.0})

    def _angles(self, tau, batch):
        edges = stochastic._Edges.of(self.SPEC, 6)
        rngs = [stochastic._stream(5, j) for j in range(batch)]
        drawn = next(stochastic._noise_rows(rngs, 1, len(edges.order)))
        normals = drawn.copy()
        cos, sin = edges.angles(drawn, tau)
        assert np.array_equal(drawn, normals)
        return edges, normals[:, 0].T, cos[0], sin[0]

    def test_angles_land_only_on_their_edge(self):
        tau = 1e-3
        edges, normals, cos, sin = self._angles(tau, 64)
        # the rows are the noisy vertices, in sorted order
        assert edges.vertices.tolist() == [3, 4, 6]
        assert sorted(edges.order.tolist()) == [0, 1, 2]
        for slot, e in enumerate(edges.order.tolist()):
            (k, l), eta = list(self.SPEC.edge_strengths().items())[e]
            assert edges.rates[slot] == eta
            # the half-angle form, written out: t = tan(theta / 2)
            t = np.tan(normals[e] * (math.sqrt(2.0 * eta * tau) / 2))
            q = 2.0 / (1.0 + t * t)
            assert np.array_equal(sin[slot], t * q)
            assert np.array_equal(cos[slot], q - 1.0)
            theta = normals[e] * math.sqrt(2.0 * eta * tau)
            assert np.max(np.abs(cos[slot] - np.cos(theta))) <= 4.5e-16
            assert np.max(np.abs(sin[slot] - np.sin(theta))) <= 4.5e-16
            # the edge's matching holds its two rows, one in each half
            [(span, rows)] = [
                (span, rows) for span, rows in edges.matchings if span.start <= slot < span.stop
            ]
            natural = edges.layout[rows]
            quarter = len(natural) // 4
            at = slot - span.start
            assert {natural[at], natural[quarter + at]} == {[3, 4, 6].index(k), [3, 4, 6].index(l)}

    @pytest.mark.parametrize("rate, xi", [
        # theta = xi over [-pi, pi]
        (0.5, np.linspace(-math.pi, math.pi, 2**18 + 1)),
        # tail normals, |xi| up to 9 at the largest eta dt, 0.05
        (0.05, np.linspace(-9.0, 9.0, 2**18 + 1)),
    ], ids=["circle", "tail"])
    def test_half_angle_form_is_cos_and_sin(self, rate, xi):
        # at tau = 1 the angle is xi sqrt(2 rate), and the tangent's half
        # angle is exactly half of it. These grids, and 4,000,001 points,
        # read at most 3.3e-16 and 2.2e-16 off np.cos and np.sin, and
        # 6.66e-16 (three ulps of 1) off the circle, where np.cos and
        # np.sin read 2.2e-16: the rounding of 1 + t^2 enters the norm
        # with weight q^2, near 4 at small angles
        edges = stochastic._Edges.of(NoiseSpec((1, 2), rate), 2)
        cos, sin = edges.angles(xi[:, np.newaxis, np.newaxis], 1.0)
        cos, sin = cos[0, 0], sin[0, 0]
        theta = xi * math.sqrt(2.0 * rate)
        assert np.max(np.abs(cos - np.cos(theta))) <= 4.5e-16
        assert np.max(np.abs(sin - np.sin(theta))) <= 4.5e-16
        assert np.max(np.abs(cos**2 + sin**2 - 1.0)) <= 6.7e-16

    @pytest.mark.parametrize("tau", [1e-3, 1e-4])
    def test_angle_variance_is_two_eta_tau(self, tau):
        # 4,000 trajectories: the relative standard error of a sample
        # variance is sqrt(2 / 4000) = 2.2%
        edges, _, cos, sin = self._angles(tau, 4000)
        for slot, eta in enumerate(edges.rates.tolist()):
            theta = np.arctan2(sin[slot], cos[slot])
            assert np.mean(theta**2) == pytest.approx(2 * eta * tau, rel=0.1)


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


def _rotations(rows, pairs, thetas):
    """Reference rotations in row layout: one trajectory per row of
    ``rows``, one angle per column of ``thetas``, the pairs in the order
    given, each rotation written out: x_k <- cos x_k - i sin x_l and
    x_l <- cos x_l - i sin x_k."""
    rows = rows.copy()
    for (k, l), theta in zip(pairs, thetas.T):
        c, s = np.cos(theta), np.sin(theta)
        x_k, x_l = rows[:, k].copy(), rows[:, l].copy()
        rows[:, k] = c * x_k - 1j * s * x_l
        rows[:, l] = c * x_l - 1j * s * x_k
    return rows


def _row_kernel(rows, h, pairs, thetas, tau):
    """Reference split step in row layout: e^{-iH tau/2} from scipy's
    expm, the rotations, then e^{-iH tau/2} again."""
    from scipy.linalg import expm

    half = expm(-0.5j * tau * h)
    return _rotations(rows @ half.T, pairs, thetas) @ half.T


def _rotation_order(spec, n):
    """The spec's pairs and rates in the order the engine rotates them,
    matching by matching."""
    items = list(spec.edge_strengths().items())
    order = stochastic._Edges.of(spec, n).order.tolist()
    return [items[e][0] for e in order], np.array([items[e][1] for e in order])


def _reduced(n, spec):
    """The engine's subspace for ``spec`` on K_n, Q^T H Q from the full
    H, and the rotated pairs as reduced rows, in rotation order."""
    space = _space(n, spec, PROBE)
    q = space.basis
    row = {vertex: j for j, vertex in enumerate(space.edges.vertices.tolist())}
    pairs, _ = _rotation_order(spec, n)
    return space, q.T @ single_excitation_hamiltonian(n) @ q, [(row[k], row[l]) for k, l in pairs]


def _columns(space, rows):
    """Complex (batch, r) rows as a (2r, batch) buffer, in its row order."""
    return np.concatenate((rows.real.T, rows.imag.T))[space.edges.layout]


def _complex_rows(space, states):
    r = len(states) // 2
    natural = np.empty_like(states)
    natural[space.edges.layout] = states
    return (natural[:r] + 1j * natural[r:]).T


def _engine_step(space, states, normals, tau):
    """One whole step of the engine's pieces on a buffer: the two half
    steps and the rotations on ``normals``, shape (batch, edges)."""
    cos, sin = space.edges.angles(normals[:, np.newaxis], tau)
    states = space.propagator(tau / 2) @ states
    space.edges.rotate(states, cos[0], sin[0])
    return space.propagator(tau / 2) @ states


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
    """The engine's step, e^{-iH tau/2} R e^{-iH tau/2} on reduced buffers,
    against the row-layout reference, which takes H's factor from
    scipy's expm and writes each rotation out.

    The two compute the factor differently, so they agree to rounding,
    not bit for bit: at most 1.3e-14 apart after 50 steps and a tail
    step, held to 1e-13.
    """

    @pytest.mark.parametrize("batch", [1, 7, 2049])
    @pytest.mark.parametrize("n, spec", SPECS, ids=SPEC_IDS)
    def test_matches_row_kernel(self, n, spec, batch):
        space, h, pairs = _reduced(n, spec)
        rng = np.random.default_rng(batch + 100 * n)
        rows = _unit_rows(rng, batch, len(h))
        states = _columns(space, rows)
        dt = 1e-3
        for tau in [dt] * 50 + [0.4 * dt]:
            normals = rng.standard_normal((batch, len(pairs)))
            thetas = normals[:, space.edges.order] * np.sqrt(2.0 * space.edges.rates * tau)
            rows = _row_kernel(rows, h, pairs, thetas, tau)
            states = _engine_step(space, states, normals, tau)
        out = _complex_rows(space, states)
        assert out.shape == (batch, len(h))
        assert np.max(np.abs(out - rows)) < 1e-13
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("n, spec", SPECS, ids=SPEC_IDS)
    def test_buffer_holds_first_matching_first(self, n, spec):
        space, h, pairs = _reduced(n, spec)
        edges, r = space.edges, len(h)
        # the first matching's (plane, half, edge) rows lead the buffer,
        # so its rotations update a view
        span, rows = edges.matchings[0]
        assert rows == slice(0, 4 * (span.stop - span.start))
        dt, batch, steps = 1e-3, 5, 1000
        states = space.buffer(batch)
        assert np.shares_memory(states[rows], states)
        # 1,000 steps, read back through rows, against the same steps on
        # complex rows in the natural order: the closed form of
        # e^{-iH dt/2} and each rotation written out, on the engine's angles
        ones = space.basis[1:].sum(axis=0)
        half = np.exp(0.5j * dt) * (np.eye(r) + np.expm1(-0.5j * n * dt) * np.outer(ones, ones) / n)
        want = np.repeat((space.basis.T @ space.psi0)[np.newaxis], batch, axis=0)
        step = space.propagator(dt / 2)
        rng = np.random.default_rng(n)
        for _ in range(steps):
            cos, sin = edges.angles(rng.standard_normal((batch, 1, len(pairs))), dt)
            states = step @ states
            edges.rotate(states, cos[0], sin[0])
            states = step @ states
            want = want @ half.T
            for (a, b), c, s in zip(pairs, cos[0], sin[0]):
                x_a, x_b = want[:, a].copy(), want[:, b].copy()
                want[:, a] = c * x_a - 1j * s * x_b
                want[:, b] = c * x_b - 1j * s * x_a
            want = want @ half.T
        # the part of psi0 outside W keeps its vacuum entry and turns its
        # vertex entries by e^{it}
        t = steps * dt
        phase = np.full(n + 1, np.exp(1j * t))
        phase[0] = 1.0
        full = want @ space.basis.T + phase * (space.psi0 - space.basis @ (space.basis.T @ space.psi0))
        assert np.max(np.abs(space.rows(states, t) - full)) < 1e-13

    @pytest.mark.parametrize(
        "n, spec", [(4, NoiseSpec((), 0.0)), (5, standard_noise_spec(5, 1, 2.0))], ids=["m0", "m1"]
    )
    def test_no_matching_is_the_unitary_route(self, n, spec):
        # no noisy pair, so no matching: the buffer keeps its natural
        # order and the run is e^{-iHt}, on and off the dt grid
        space = _space(n, spec, PROBE)
        assert space.edges.matchings == []
        assert space.edges.layout.tolist() == list(range(len(space.start)))
        h = single_excitation_hamiltonian(n)
        for t in (1.0, 1.0004):
            want = eigh_propagator(h, t) @ space.psi0
            assert np.max(np.abs(evolve_trajectory(spec, space.psi0, t, 1e-3, 3) - want)) < 1e-12
            rho = ensemble_average(TrajectoryPlan(3, 1e-3, t, 3, spec), space.psi0).rho_mean.rho[0]
            assert np.max(np.abs(rho - np.outer(want, want.conj()))) < 1e-12

    def test_one_edge_rotation_by_hand(self):
        # one noisy pair (3, 5) at n = 6: reduced rows 0 and 1. Angles far
        # past any step's, so cos and sin take every sign.
        from scipy.linalg import expm

        space = _space(6, NoiseSpec((3, 5), 1.0), PROBE)
        rng = np.random.default_rng(3)
        rows = _unit_rows(rng, 64, 3)
        theta = np.linspace(-4.0, 4.0, 64)
        states = _columns(space, rows)
        space.edges.rotate(states, np.cos(theta)[np.newaxis], np.sin(theta)[np.newaxis])
        out = _complex_rows(space, states)
        want = rows.copy()
        want[:, 0] = np.cos(theta) * rows[:, 0] - 1j * np.sin(theta) * rows[:, 1]
        want[:, 1] = np.cos(theta) * rows[:, 1] - 1j * np.sin(theta) * rows[:, 0]
        assert np.max(np.abs(out - want)) < 1e-15
        # and that is exp(-i theta V), V = |0><1| + |1><0|
        v = np.zeros((3, 3))
        v[0, 1] = v[1, 0] = 1.0
        for b in (0, 17, 40, 63):
            assert np.max(np.abs(out[b] - expm(-1j * theta[b] * v) @ rows[b])) < 1e-15

    @pytest.mark.parametrize("n", [6, 40])
    def test_step_at_precondition_limits(self, n):
        # eta dt = 0.05 and ||H|| dt = 0.05, the largest step the engine
        # accepts, on m = n - 2: 6 pairs in 3 matchings at n = 6, 703
        # pairs in 37 matchings at n = 40. Still unitary, still the step.
        dt = 0.05 / (n - 1)
        space, h, pairs = _reduced(n, standard_noise_spec(n, n - 2, 0.05 / dt))
        assert _norm(single_excitation_hamiltonian(n)) * dt == pytest.approx(0.05)
        rng = np.random.default_rng(11)
        rows = _unit_rows(rng, 2049, len(h))
        normals = rng.standard_normal((2049, len(pairs)))
        out = _complex_rows(space, _engine_step(space, _columns(space, rows), normals, dt))
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-12
        thetas = normals[:, space.edges.order] * np.sqrt(2.0 * space.edges.rates * dt)
        assert np.max(np.abs(out - _row_kernel(rows, h, pairs, thetas, dt))) < 1e-13

    def test_dense_noisy_set_at_step_limits(self):
        # n = 70, m = 68: 2,278 pairs, eta dt = 0.049 and ||H|| dt = 0.048,
        # one step of two trajectories against the full-space reference
        n, dt, eta, seed = 70, 7e-4, 70.0, 5
        h = single_excitation_hamiltonian(n)
        spec = standard_noise_spec(n, n - 2, eta)
        pairs, rates = _rotation_order(spec, n)
        order = stochastic._Edges.of(spec, n).order
        psi = np.zeros(n + 1, dtype=complex)
        psi[1] = 1.0
        for j in range(2):
            out = evolve_trajectory(spec, psi, dt, dt, seed, stream_index=j)
            normals = np.random.Generator(np.random.Philox(key=[seed, j])).standard_normal(len(pairs))
            thetas = (normals[order] * np.sqrt(2.0 * rates * dt))[np.newaxis]
            want = _row_kernel(psi[np.newaxis], h, pairs, thetas, dt)[0]
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12
            assert np.max(np.abs(out - want)) < 1e-12
        r = ensemble_average(TrajectoryPlan(8, dt, 2.5 * dt, seed, spec), psi)
        assert abs(np.trace(r.rho_mean.rho[0]).real - 1.0) < 1e-12


class TestMatchings:
    """The round-robin edge colouring that groups the rotations."""

    @staticmethod
    def _assert_proper(first, second, v):
        matchings = stochastic._matchings(np.array(first, dtype=np.intp), np.array(second, dtype=np.intp), v)
        # every edge in exactly one matching, and at most v of them
        taken = np.concatenate([np.zeros(0, dtype=np.intp), *matchings])
        assert sorted(taken.tolist()) == list(range(len(first)))
        assert len(matchings) <= v
        for matching in matchings:
            assert len(matching) > 0
            ends = [first[e] for e in matching] + [second[e] for e in matching]
            assert len(set(ends)) == len(ends), "two edges of a matching share a vertex"

    def test_complete_graphs(self):
        # v - 1 matchings at even v (a 1-factorization), v at odd v
        for v in range(2, 42):
            pairs = list(itertools.combinations(range(v), 2))
            first, second = zip(*pairs)
            self._assert_proper(first, second, v)
            matchings = stochastic._matchings(np.array(first), np.array(second), v)
            assert len(matchings) == (v - 1 if v % 2 == 0 else v)

    def test_some_pairs_of_each_size(self):
        # about a third of the pairs, either end first
        rng = np.random.default_rng(4)
        for v in range(2, 42):
            pairs = [p for p in itertools.combinations(range(v), 2) if rng.random() < 0.35]
            pairs = [(l, k) if rng.random() < 0.5 else (k, l) for k, l in pairs]
            if pairs:
                first, second = zip(*pairs)
                self._assert_proper(first, second, v)
        assert stochastic._matchings(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), 0) == []

    @pytest.mark.parametrize("n, spec", SPECS, ids=SPEC_IDS)
    def test_engine_rows_are_its_matchings(self, n, spec):
        # each matching's rows are its first vertices then its second
        # ones, in the real plane, then again r rows on, in the natural
        # order that the buffer's layout maps them to
        edges = stochastic._Edges.of(spec, n)
        r = _space(n, spec, PROBE).basis.shape[1]
        row = {vertex: j for j, vertex in enumerate(edges.vertices.tolist())}
        pairs = list(spec.edge_strengths())
        assert sorted(edges.layout.tolist()) == list(range(2 * r))
        spans = []
        for span, rows in edges.matchings:
            real, imag = np.split(edges.layout[rows], 2)
            assert np.array_equal(imag, real + r)
            got = list(zip(*np.split(real, 2)))
            assert got == [(row[pairs[e][0]], row[pairs[e][1]]) for e in edges.order[span].tolist()]
            spans.append((span.start, span.stop))
        assert [s for s, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
        assert spans[-1][1] == len(pairs)


class TestExactMean:
    """The engine's ensemble mean is the exact mean map of its step,
    Phi_dt = ``oracle.split_step_map``, computed with no sampling.

    Phi_dt^N rho0 against the master equation measures the time-step
    error alone, and the ensemble against Phi_dt^N the sampling alone.
    """

    @staticmethod
    def _exact_mean(n, rates, dt, steps, psi):
        phi = split_step_map(n, rates, dt)
        rho = np.outer(psi, psi.conj()).reshape(-1)
        return (np.linalg.matrix_power(phi, steps) @ rho).reshape(n + 1, n + 1)

    def _error(self, n, spec, psi, dt, steps):
        want = DenseLiouvillian(n, spec).evolve(psi, [steps * dt]).rho[0]
        return float(np.abs(self._exact_mean(n, spec.edge_strengths(), dt, steps, psi) - want).max())

    @pytest.mark.parametrize("n, m, eta", [(4, 2, 4.0), (5, 3, 4.0), (6, 4, 2.0)])
    def test_error_falls_fourfold_per_halving(self, n, m, eta):
        # max |rho - rho_Lindblad| at t = 1 from the probe, dt = 0.01,
        # 0.005 and 0.0025: 1.05e-5, 2.63e-6, 6.58e-7 at (4, 2, 4);
        # 4.42e-5, 1.10e-5, 2.76e-6 at (5, 3, 4); 2.84e-5, 7.09e-6,
        # 1.77e-6 at (6, 4, 2). Second order: each ratio is 4.00.
        spec, psi = _setup(n, m, eta)
        errors = [self._error(n, spec, psi, 0.01 / 2**k, 100 * 2**k) for k in range(3)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5
        # the engine rotates the pairs matching by matching, the oracle in
        # the spec's order; from the probe the order moves nothing
        rates = spec.edge_strengths()
        backwards = dict(reversed(list(rates.items())))
        forwards = self._exact_mean(n, rates, 0.01, 100, psi)
        assert np.abs(self._exact_mean(n, backwards, 0.01, 100, psi) - forwards).max() < 1e-12

    @pytest.mark.parametrize(
        "n, m, eta, dt, bound",
        [(4, 2, 3.0, 1 / 60, 2e-5), (6, 4, 5.0, 0.01, 2e-4), (11, 9, 10.0, 0.005, 1e-3)],
        ids=["4-2", "6-4", "11-9"],
    )
    def test_error_at_step_limits(self, n, m, eta, dt, bound):
        # eta dt = 0.05 and (n - 1) dt = 0.05, the coarsest step
        # check_step takes; at t = 1 the error is 1.54e-5, 1.39e-4 and
        # 7.24e-4: it grows with the number of noisy pairs
        spec, psi = _setup(n, m, eta)
        stochastic.check_step(spec, n, dt)
        assert self._error(n, spec, psi, dt, round(1 / dt)) < bound

    @pytest.mark.parametrize(
        "n, spec",
        [(5, standard_noise_spec(5, 3, 4.0)), SPECS[4]],
        ids=["5-3", "per-edge"],
    )
    def test_ensemble_within_four_sigma_of_exact_mean(self, n, spec):
        # entries every trajectory shares exactly (the vacuum row) have no
        # spread; they must agree to rounding
        a, b = PROBE.amplitudes()
        psi = np.zeros(n + 1, dtype=complex)
        psi[0], psi[1] = a, b
        dt, times = 0.01, [0.25, 0.5, 1.0]
        result = ensemble_average(TrajectoryPlan(4000, dt, 1.0, 31, spec), psi, times=times)
        for t, mean, std_err in zip(times, result.rho_mean.rho, result.std_err):
            exact = self._exact_mean(n, spec.edge_strengths(), dt, round(t / dt), psi)
            assert np.all(np.abs(mean - exact) <= 4.0 * std_err + 1e-12)


def _full_space_trajectory(spec, psi, t, dt, seed, index):
    """One trajectory stepped by the row kernel over every row of the
    complete graph, on the noise the engine draws: the whole horizon's
    normals, then a tail row."""
    n = len(psi) - 1
    h = single_excitation_hamiltonian(n)
    pairs, rates = _rotation_order(spec, n)
    order = stochastic._Edges.of(spec, n).order
    rng = stochastic._stream(seed, index)
    n_full, remainder = stochastic._split_horizon(t, dt)
    steps = [(row, dt) for row in rng.standard_normal((n_full, len(pairs)))]
    if remainder:
        steps.append((rng.standard_normal(len(pairs)), remainder))
    rows = psi[np.newaxis, :].astype(complex)
    for normals, tau in steps:
        thetas = (normals[order] * np.sqrt(2.0 * rates * tau))[np.newaxis]
        rows = _row_kernel(rows, h, pairs, thetas, tau)
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
        perm = np.zeros((2 * r, 2 * r))
        perm[np.arange(2 * r), space.edges.layout] = 1.0
        # W is H-invariant, and the closed form is exp(-i Q^T H Q tau)
        assert np.max(np.abs(h @ q - q @ (q.T @ h @ q))) < 1e-14
        for tau in (5e-4, 1e-3, 0.7):
            u = eigh_propagator(q.T @ h @ q, tau)
            want = np.block([[u.real, -u.imag], [u.imag, u.real]])
            # in the buffer's row order: P U P^T, P the permutation
            assert np.max(np.abs(space.propagator(tau) - perm @ want @ perm.T)) < 1e-14
        # the rest of the start state is an eigenvector of H at -1
        assert space.moving[0] == 0.0
        assert np.max(np.abs(q.T @ space.moving)) < 1e-15
        assert np.max(np.abs(h @ space.moving + space.moving)) < 1e-15

    @pytest.mark.parametrize("n, m", [(4, 2), (6, 2), (6, 4), (1002, 2)])
    def test_complete_graph_steps_v_plus_one_rows(self, n, m):
        space = _space(n, standard_noise_spec(n, m, 1.0), PROBE)
        assert space.basis.shape == (n + 1, m + 1)
        assert space.propagator(1e-3).shape == (2 * (m + 1), 2 * (m + 1))
        assert space.buffer(3).shape == (2 * (m + 1), 3)
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
    horizon's noise in one draw and its angles in one pass, the full
    steps with their half-steps merged, then a tail step on the next
    normals at the variance of the tail's length, all in the reduced
    space the engine steps."""
    rng = stochastic._stream(seed, index)
    n_full, remainder = stochastic._split_horizon(t, dt)
    space = stochastic._Subspace.of(spec, psi)
    normals = rng.standard_normal((1, n_full + (remainder > 0), len(space.edges.order)))
    states = space.buffer(1)
    cos, sin = space.edges.angles(normals[:, :n_full], dt)
    for step in range(n_full):
        states = space.propagator(dt if step else dt / 2) @ states
        space.edges.rotate(states, cos[step], sin[step])
    pending = dt / 2 if n_full else 0.0
    if remainder:
        cos, sin = space.edges.angles(normals[:, n_full:], remainder)
        states = space.propagator(pending + remainder / 2) @ states
        space.edges.rotate(states, cos[0], sin[0])
        pending = remainder / 2
    if pending:
        states = space.propagator(pending) @ states
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
        # holds three times that (the drawn step, its cosines and its
        # sines) and its states and readout, within four times.
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

    def test_tail_holds_no_more_than_the_main_path(self):
        # n = 40, m = 38: one step of noise is 2,048 x 703 normals, 11 MiB.
        # A time between step boundaries before the last takes its tail in
        # the spare buffer once the main path's angles are dropped, and its
        # rows are dropped before the sweep steps on, so the run peaks no
        # higher than the run to the last time alone.
        n = 40
        spec = standard_noise_spec(n, n - 2, 1.0)
        psi = np.zeros(n + 1, dtype=complex)
        psi[1] = 1.0
        plan = TrajectoryPlan(2048, 1e-3, 4e-3, 7, spec)
        peaks = []
        for times in ([4e-3], [2.5e-3, 4e-3]):
            tracemalloc.start()
            try:
                ensemble_average(plan, psi, times=times)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024

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
