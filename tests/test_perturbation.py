"""First-order weak-noise machinery: the printed closed forms and the numeric route.

The quadrature oracle: for n = 4 the window integrands reduce to short
trigonometric polynomials whose antiderivatives fit on one line, so
two of the coefficient integrals are pinned against values computed by
hand from those antiderivatives rather than by the package's own
quadrature.

  b2(4, t) = int_0^t |beta|^2 = (t - sin(4t)/4) / 8
  b1(4, t) = int_0^t beta beta'* = (-2t + (1 - e^{-4it}) 3/(4i)
                                    - (e^{4it} - 1)/(4i)) / 16
"""

from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from oracle import eigh_propagator

from spinnet.analytics import _max_noisy_fidelity, _windowed_maximum
from spinnet import perturbation
from spinnet.lindblad import DenseLiouvillian, FidelityCurve, LumpedLiouvillian, fidelity_curve
from spinnet.network import single_excitation_hamiltonian, standard_noise_spec
from spinnet.perturbation import (
    WeakNoiseChannel,
    b_coefficient_grid,
    b_coefficients,
    beta,
    beta_prime,
    first_order_numeric,
    printed_weak_noise_channel,
    printed_weak_noise_curve,
)
from spinnet.propagator import (
    BlochInput,
    ChannelParams,
    complete_graph_peak_fidelity,
    optimal_avg_fidelity,
)

PROBE = BlochInput(math.pi / 2, 0.0)
NON_FINITE_INPUTS = [("eta", math.nan, 1.0), ("eta", math.inf, 1.0), ("t", 0.01, math.inf), ("t", 0.01, math.nan)]


def per_node_first_order(n, m, eta, t, step=1e-3):
    """Dense first-order oracle: interaction-picture Simpson quadrature.

    Integrates the unit dissipator conjugated into the interaction
    picture and applied to the frozen zeroth-order state, one Simpson
    node at a time on the full (n+1) x (n+1) density matrix: each node
    builds its own propagator and applies every edge dissipator to
    U rho0 U^dag. It shares neither the lumped state nor the block
    exponential with the production route, and its error falls as
    step^4 towards that route's exact derivative.
    """
    w, vecs = np.linalg.eigh(single_excitation_hamiltonian(n))

    def propagator(s):
        return (vecs * np.exp(-1j * w * s)) @ vecs.conj().T

    a, b = PROBE.amplitudes()
    psi = np.zeros(n + 1, dtype=complex)
    psi[0] = a
    psi[1] = b
    rho0 = np.outer(psi, psi.conj())
    u_final = propagator(t)
    z_sq_0 = abs(u_final[2, 1]) ** 2
    if eta == 0.0 or m < 2 or t == 0.0:
        return WeakNoiseChannel(z_sq_0=z_sq_0, xi1=0.0, xi2=0j, eta=0.0)
    ops = []
    for k, l in standard_noise_spec(n, m, 1.0).edge_strengths():
        op = np.zeros((n + 1, n + 1))
        op[k, l] = op[l, k] = 1.0
        ops.append(op)

    def unit_dissipator(x):
        out = np.zeros_like(x)
        for op in ops:
            opsq = op @ op
            out += 2.0 * (op @ x @ op - 0.5 * (opsq @ x + x @ opsq))
        return out

    num = max(int(math.ceil(t / step)), 2)
    if num % 2:
        num += 1
    h_step = t / num
    acc = np.zeros_like(rho0)
    for k in range(num + 1):
        u = propagator(k * h_step)
        inner = u.conj().T @ unit_dissipator(u @ rho0 @ u.conj().T) @ u
        acc += (1.0 if k in (0, num) else (4.0 if k % 2 else 2.0)) * inner
    acc *= h_step / 3.0
    # positive only to first order in eta, so read unchecked
    rho = u_final @ (rho0 + eta * acc) @ u_final.conj().T
    curve = FidelityCurve.read([t], [rho[2, 2].real], [rho[2, 0]])
    z_sq = abs(curve.amplitude[0]) ** 2
    return WeakNoiseChannel(
        z_sq_0=z_sq_0,
        xi1=(z_sq - z_sq_0) / eta,
        xi2=complex((curve.dephasing[0] * z_sq - z_sq_0) / eta),
        eta=eta,
    )


class TestWindowAmplitudes:
    @pytest.mark.parametrize("n", [2, 4, 9])
    @pytest.mark.parametrize("t", [0.0, 0.7, 2.9])
    def test_beta_is_transfer_amplitude(self, n, t):
        h = single_excitation_hamiltonian(n)
        assert beta(n, t) == pytest.approx(eigh_propagator(h, t)[2, 1], abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 9])
    @pytest.mark.parametrize("t", [0.0, 0.7, 2.9])
    def test_beta_prime_is_return_amplitude(self, n, t):
        h = single_excitation_hamiltonian(n)
        assert beta_prime(n, t) == pytest.approx(eigh_propagator(h, t)[1, 1], abs=1e-12)

    def test_small_networks_rejected(self):
        with pytest.raises(ValueError):
            beta(1, 1.0)
        with pytest.raises(ValueError):
            beta_prime(0, 1.0)

    def test_unitarity_budget(self):
        # transfer, return, and the n-2 bystander amplitudes exhaust
        # the norm: |beta'|^2 + (n-1)|beta|^2 = 1
        for n, t in [(4, 0.9), (7, 2.2)]:
            total = abs(beta_prime(n, t)) ** 2 + (n - 1) * abs(beta(n, t)) ** 2
            assert total == pytest.approx(1.0, abs=1e-12)


class TestCoefficientIntegrals:
    def test_b2_matches_hand_antiderivative(self):
        t = 1.0
        want = (t - math.sin(4 * t) / 4) / 8
        got = b_coefficients(4, t).b2
        assert got == pytest.approx(want, abs=1e-9)
        assert abs(got.imag) < 1e-12

    def test_b1_matches_hand_antiderivative(self):
        t = 1.0
        want = (
            -2.0 * t
            + 3.0 * (1.0 - cmath.exp(-4j * t)) / 4j
            - (cmath.exp(4j * t) - 1.0) / 4j
        ) / 16.0
        assert b_coefficients(4, t).b1 == pytest.approx(want, abs=1e-9)

    def test_zero_window_gives_zero(self):
        co = b_coefficients(4, 0.0)
        assert co.b1 == 0.0 and co.b8 == 0.0

    def test_prefactor_vanishes_at_n3(self):
        co = b_coefficients(3, 2.0)
        assert co.b2 == 0.0

    def test_step_guard(self):
        with pytest.raises(ValueError):
            b_coefficients(4, 1.0, step=0.1)
        with pytest.raises(ValueError):
            b_coefficients(4, 1.0, step=0.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
    def test_rejects_bad_t(self, t):
        with pytest.raises(ValueError, match="^t must be finite and >= 0"):
            b_coefficients(4, t)


class TestCoefficientGrid:
    """b1..b8 over a time grid, carried from one grid time to the next."""

    @staticmethod
    def _values(co):
        return np.array([co.b1, co.b2, co.b3, co.b4, co.b5, co.b6, co.b7, co.b8])

    @pytest.mark.parametrize(
        "n, times",
        [
            (4, np.linspace(0.0, 2.0 * math.pi, 64)),
            (10, np.linspace(0.0, 100.0, 64)),
            (7, [2.5, 0.0, 1.0, 2.5, 0.3, 0.3004]),
            (40, np.linspace(0.1, 3.0, 17)),
            (3, [0.0, 1.0, 2.0]),
        ],
        ids=["n4-default-grid", "n10-long-horizon", "unsorted-repeats", "n40", "n3-zeros"],
    )
    def test_grid_equals_per_time_quadrature(self, n, times):
        # within the one part in 1e8 that halving the step may move a value
        grid = b_coefficient_grid(n, times)
        assert len(grid) == len(times)
        for t, co in zip(times, grid):
            got, want = self._values(co), self._values(b_coefficients(n, float(t)))
            assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want))

    def test_single_time_is_b_coefficients(self):
        for n, t in [(4, 1.0), (10, 6.3), (40, 1.9)]:
            assert b_coefficient_grid(n, [t]) == [b_coefficients(n, t)]

    def test_nodes_linear_in_horizon(self, monkeypatch):
        # each gap between grid times is integrated once, at most
        # gap / step + 3 nodes (an even panel count of at least 2, plus
        # the last node); the sum over per-time rules would be 32 times that
        integrands = perturbation._integrands
        nodes = []

        def counted(n, tau):
            nodes.append(tau.size)
            return integrands(n, tau)

        monkeypatch.setattr(perturbation, "_integrands", counted)
        horizon, step, times = 1000.0, 1e-3, np.linspace(0.0, 1000.0, 64)
        b_coefficient_grid(10, times)
        assert horizon / step <= sum(nodes) <= horizon / step + 3 * (len(times) - 1)

    def test_rejects_bad_time_in_grid(self):
        with pytest.raises(ValueError, match="^t must be finite and >= 0"):
            b_coefficient_grid(4, [1.0, math.nan])

    def test_printed_curve_at_each_time(self):
        times = np.linspace(0.0, 20.0, 9)
        curve = printed_weak_noise_curve(10, 8, 0.01, times)
        for t, channel in zip(times, curve):
            alone = printed_weak_noise_channel(10, 8, 0.01, float(t))
            assert channel.z_sq_0 == alone.z_sq_0
            assert channel.xi1 == pytest.approx(alone.xi1, rel=1e-8, abs=1e-14)
            assert channel.xi2 == pytest.approx(alone.xi2, rel=1e-8, abs=1e-14)
        assert printed_weak_noise_curve(10, 8, 0.01, [2.0]) == [printed_weak_noise_channel(10, 8, 0.01, 2.0)]


class TestWeakNoiseChannel:
    def test_zero_noise_reduces_to_unitary_channel(self):
        z0 = abs(beta(4, 1.0)) ** 2
        ch = WeakNoiseChannel(z_sq_0=z0, xi1=0.0, xi2=0.0, eta=0.0)
        assert ch.dephasing == pytest.approx(1.0)
        assert ch.abs_z == pytest.approx(math.sqrt(z0))
        f, _ = optimal_avg_fidelity(ChannelParams(ch.abs_z, ch.dephasing))
        assert f == pytest.approx(0.5 + math.sqrt(z0) / 3 + z0 / 6, abs=1e-12)

    def test_printed_geometry_guards(self):
        with pytest.raises(ValueError):
            printed_weak_noise_channel(4, 3, 0.01, 1.0)
        with pytest.raises(ValueError):
            printed_weak_noise_channel(4, 2, -0.01, 1.0)

    def test_printed_single_vertex_defect_preserved(self):
        # one noisy vertex spans no edge, yet the transcribed first
        # order responds; kept as documented, the numeric route is
        # the arbiter
        ch = printed_weak_noise_channel(5, 1, 0.01, 1.0)
        assert abs(ch.xi2) > 1e-3

    @pytest.mark.parametrize("field,eta,t", NON_FINITE_INPUTS)
    def test_printed_rejects_non_finite_input(self, field, eta, t):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            printed_weak_noise_channel(10, 8, eta, t)

    def test_printed_no_noise_matches_zeroth_order(self):
        ch = printed_weak_noise_channel(6, 3, 0.0, 0.9)
        assert ch.z_sq == pytest.approx(abs(beta(6, 0.9)) ** 2, abs=1e-12)


class TestFirstOrderNumeric:
    def test_zero_noise_short_circuit(self):
        ch = first_order_numeric(6, 3, 0.0, 1.1)
        assert ch.xi1 == 0.0 and ch.xi2 == 0.0
        assert ch.z_sq == pytest.approx(abs(beta(6, 1.1)) ** 2, abs=1e-12)

    def test_correction_linear_in_eta(self):
        hi = first_order_numeric(6, 4, 1e-2, 1.0)
        lo = first_order_numeric(6, 4, 5e-3, 1.0)
        assert hi.xi1 == pytest.approx(lo.xi1, rel=1e-6)

    def test_matches_master_equation_to_first_order(self):
        eta, t = 0.01, 1.0
        ch = first_order_numeric(4, 2, eta, t)
        f_full = fidelity_curve(DenseLiouvillian(4, standard_noise_spec(4, 2, eta)), [t]).fidelity[0]
        f_first, _ = optimal_avg_fidelity(ChannelParams(ch.abs_z, ch.dephasing))
        assert abs(f_first - f_full) < 50 * eta**2

    @pytest.mark.parametrize(
        "n,m,eta,t",
        [
            (6, 4, 0.05, 1.5e-3),  # t < 2 steps: a 2-interval rule
            (6, 4, 0.05, 0.2005),  # 200.5 steps, bumped to 202 intervals
            (10, 8, 0.01, 0.5),
            (4, 2, 1e-3, 1.0),
            (12, 5, 0.1, 3.1),
            (3, 1, 0.01, 1.0),  # n = 3 spans at most one noisy vertex
            (7, 1, 0.01, 1.0),  # m < 2 short-circuits
            (7, 5, 0.0, 1.0),  # eta = 0 short-circuits
        ],
    )
    def test_quadrature_oracle_converges_to_exact_derivative(self, n, m, eta, t):
        # Simpson's error falls 16-fold per halved step; the eta division
        # leaves a rounding floor of a few 1e-14 at eta = 1e-3
        got = first_order_numeric(n, m, eta, t)

        def gap(step):
            want = per_node_first_order(n, m, eta, t, step)
            assert got.z_sq_0 == pytest.approx(want.z_sq_0, rel=1e-12, abs=1e-15)
            assert got.eta == want.eta
            return max(abs(got.xi1 - want.xi1), abs(got.xi2 - want.xi2))

        coarse, fine = gap(1e-3), gap(5e-4)
        assert coarse <= 5e-12
        assert fine <= coarse / 4.0 or fine < 5e-14, f"gap {coarse:.3e} -> {fine:.3e}"

    @pytest.mark.parametrize("n,m", [(1002, 1000), (10_000, 9_998)])
    def test_xi1_matches_richardson_difference_at_large_n(self, n, m):
        # at the transfer peak t = pi/n; differences run forward in eta,
        # which may not be negative
        t, h = math.pi / n, 1e-4
        _, b = PROBE.amplitudes()

        def z_sq(eta):
            return LumpedLiouvillian(n, m, eta).evolve([t]).rho_oo[0] / abs(b) ** 2

        base = z_sq(0.0)

        def richardson(step):
            # 2 D(step/2) - D(step) of forward differences D: error O(step^2)
            return (4.0 * z_sq(step / 2) - 3.0 * base - z_sq(step)) / step

        fine, coarse = richardson(h), richardson(2 * h)
        # coarse carries 4 times fine's O(h^2) error, so their gap bounds it
        tol = abs(coarse - fine)
        xi1 = first_order_numeric(n, m, 1e-3, t).xi1
        assert tol <= 1e-3 * abs(xi1)
        assert abs(xi1 - fine) <= tol, f"xi1 {xi1!r} against {fine!r}, tolerance {tol:.3e}"

    def test_memory_bounded_by_block_not_horizon(self):
        def peak(t):
            first_order_numeric(10, 8, 0.01, t)
            tracemalloc.start()
            try:
                first_order_numeric(10, 8, 0.01, t)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(1.0), peak(8.0)
        assert long <= 1.1 * short, f"peak {long} B at t = 8 against {short} B at t = 1"

    def test_memory_bounded_at_large_n(self):
        # a dense (n+1)^2 x (n+1)^2 superoperator would grow 16-fold from
        # n = 40 to n = 80, and blocks of a fixed node count 4-fold
        def peak(n):
            first_order_numeric(n, 2, 0.01, 0.1)
            tracemalloc.start()
            try:
                first_order_numeric(n, 2, 0.01, 0.1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(40), peak(80)
        assert large <= 1.25 * small, f"peak {large} B at n = 80 against {small} B at n = 40"

    def test_memory_flat_up_to_n_10000(self):
        # the lumped state has the same size at any n
        def peak(n):
            first_order_numeric(n, 2, 0.01, 0.1)
            tracemalloc.start()
            try:
                first_order_numeric(n, 2, 0.01, 0.1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(40), peak(10_000)
        assert large <= 1.25 * small, f"peak {large} B at n = 10^4 against {small} B at n = 40"

    @pytest.mark.parametrize("field,eta,t", NON_FINITE_INPUTS)
    def test_rejects_non_finite_input(self, field, eta, t):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            first_order_numeric(10, 8, eta, t)

    @pytest.mark.parametrize("n,m", [(4, 2), (1002, 1000), (10_000, 5_000)])
    def test_zeroth_order_is_free_transfer(self, n, m):
        t = math.pi / (2 * n)
        ch = first_order_numeric(n, m, 0.01, t)
        assert ch.z_sq_0 == pytest.approx(abs(beta(n, t)) ** 2, rel=1e-10)

    def test_dephasing_reproduced_exactly(self):
        # the stored coefficients are chosen so the shared extraction
        # rule returns the numerically measured dephasing
        eta, t = 0.05, 1.3
        ch = first_order_numeric(4, 2, eta, t)
        assert 0.0 <= ch.dephasing <= 1.0 + 1e-9


class TestBaseline:
    """Delta's noiseless baseline: the closed-form peak of the complete graph."""

    def test_analytic_route(self):
        for n in (2, 4, 9):
            want = 0.5 + (2.0 / n) / 3.0 + (2.0 / n) ** 2 / 6.0
            assert complete_graph_peak_fidelity(n) == pytest.approx(want, abs=1e-12)

    def test_grid_route_matches_analytic(self):
        # the windowed peak search on the clean lumped engine
        assert _max_noisy_fidelity(5, 0, 0.0) == pytest.approx(complete_graph_peak_fidelity(5), abs=1e-9)


class TestScipyEquivalence:
    """The in-repo Simpson rule and windowed peak search agree with scipy's."""

    SMOOTH = {
        "quadratic": lambda s: (s - 0.7312) ** 2,
        "cosine": lambda s: -math.cos(3.0 * s - 1.1),
        "gaussian": lambda s: 1.0 - math.exp(-((s - 0.25) ** 2) / 0.3),
        "quartic": lambda s: (s - 1.3) ** 4 + 0.01 * s,
        "transfer": lambda s: -abs(beta(5, s)),
    }

    @staticmethod
    def _windowed_minimum(func, lo, hi):
        grid = np.linspace(lo, hi, 801)
        return -_windowed_maximum(lambda s: -np.array([func(x) for x in s]), grid)

    @pytest.mark.parametrize("xatol", [1e-9, 1e-10])
    @pytest.mark.parametrize("bounds", [(0.0, 2.0), (0.5, 0.9), (1.2, 3.1)])
    @pytest.mark.parametrize("name", sorted(SMOOTH))
    def test_bounded_minimum_matches_scipy(self, name, bounds, xatol):
        func = self.SMOOTH[name]
        got = self._windowed_minimum(func, *bounds)
        want = scipy.optimize.minimize_scalar(func, bounds=bounds, method="bounded", options={"xatol": xatol})
        # got is a value of func on the bracket, so it cannot undercut the
        # true minimum; at an interior minimum scipy sits on it to rounding,
        # while at an end it stops short and the windows, which include the
        # ends, may do better
        assert got <= want.fun + 1e-12

    def test_evaluation_cap_matches_scipy(self):
        # with xatol = 0 scipy only stops at its cap of 500 evaluations;
        # the windowed search has a fixed budget of 801 + 4 x 81 and gets
        # within its last step, 3/800/40^4 < 1.5e-9, of the kink of |s|
        sizes = []

        def curve(s):
            sizes.append(s.size)
            return -np.abs(s)

        got = -_windowed_maximum(curve, np.linspace(-1.0, 2.0, 801))
        want = scipy.optimize.minimize_scalar(abs, bounds=(-1.0, 2.0), method="bounded", options={"xatol": 0.0})
        assert want.status == 1 and want.nfev == 500
        assert sum(sizes) == 801 + 4 * 81
        assert 0.0 <= got - want.fun < 1.5e-9

    @pytest.mark.parametrize("xatol", [1e-9, 1e-10])
    @pytest.mark.parametrize("centre", [-0.2, 0.0, 0.43, 1.0, 1.3])
    def test_grid_maximum_matches_scipy_refinement(self, centre, xatol):
        # centres at or beyond an end put the best sample on the first or last grid point
        def func(s):
            return np.cos(2.0 * (s - centre))

        grid = np.linspace(0.0, 1.0, 41)
        values = func(grid)
        best = int(np.argmax(values))
        bounds = (grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)])
        refined = scipy.optimize.minimize_scalar(
            lambda s: -func(s), bounds=bounds, method="bounded", options={"xatol": xatol}
        )
        want = max(float(values[best]), float(-refined.fun))
        assert abs(_windowed_maximum(func, grid) - want) <= 1e-12

    @staticmethod
    def _one_piece(n, t, step):
        """The nodes of one Simpson rule over [0, t], and its eight integrands, made one at a time."""
        num = max(math.ceil(t / step), 2)
        num += num % 2
        tau = np.linspace(0.0, t, num + 1)

        def integrands():
            b = np.exp(1j * tau) / n * (np.exp(-1j * n * tau) - 1.0)
            bp = np.exp(1j * tau) / n * (np.exp(-1j * n * tau) + n - 1.0)
            ab2, abp2 = np.abs(b) ** 2, np.abs(bp) ** 2
            yield b * bp.conj()
            yield ab2
            yield b * bp.conj() * abp2
            yield b**2 * bp.conj() ** 2 + abp2 * ab2
            yield ab2 * abp2
            yield 2.0 * (b * bp.conj()).real * ab2
            yield b * ab2 * bp.conj()
            yield ab2**2

        return tau, integrands()

    @pytest.mark.parametrize(
        "n, t, step",
        [(2, 0.3, 1e-3), (4, 1.0, 1e-3), (5, 2.7, 7e-4), (7, 0.0015, 1e-3), (10, 6.3, 3e-4), (40, 1.9, 1e-3)],
    )
    def test_b_coefficients_match_scipy_simpson(self, n, t, step):
        tau, integrands = self._one_piece(n, t, step)
        want = [complex((n - 3) ** 2 * scipy.integrate.simpson(y, x=tau)) for y in integrands]
        co = b_coefficients(n, t, step)
        got = [co.b1, co.b2, co.b3, co.b4, co.b5, co.b6, co.b7, co.b8]
        scale = max(abs(w) for w in want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14 * scale

    def test_b_coefficients_memory_bounded_in_horizon(self):
        # a million nodes, summed in blocks, against the same rule summed in one piece
        n, t = 10, 1000.0
        tracemalloc.start()
        try:
            co = b_coefficients(n, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        tau, integrands = self._one_piece(n, t, 1e-3)
        weights = np.full(tau.size, 2.0)
        weights[1::2] = 4.0
        weights[[0, -1]] = 1.0
        weights *= (n - 3) ** 2 * t / (3.0 * (tau.size - 1))
        got = [co.b1, co.b2, co.b3, co.b4, co.b5, co.b6, co.b7, co.b8]
        for g, y in zip(got, integrands):
            want = complex(weights @ y)
            assert abs(g - want) <= 1e-12 * abs(want)
