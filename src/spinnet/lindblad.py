"""Noise-averaged master equation: dense and lumped engines, one channel readout.

Averaging the white-noise edge couplings gives a Lindblad equation
d rho/dt = -i[H, rho] + sum_edges r (L rho L - {L^2, rho}/2) with one
Hermitian hopping operator L = |k><l| + |l><k| per noisy pair {k, l}
at generator rate r = 2 eta_kl.

``LumpedLiouvillian`` serves every scalar-eta run (``fig1``-``fig3``,
``simulate --method lindblad`` with one rate, the curve helpers of
``analytics`` and ``perturbation``) and supplies the generator that
``perturbation.first_order_numeric`` differentiates in eta: by the
symmetry of the complete graph it evolves a 5 x 5 density matrix and
one repeated eigenvalue at any n.
``DenseLiouvillian(n, noise)`` holds the generator on the column-stacked
vec(rho), a fixed (n+1)^2 x (n+1)^2 matrix written entrywise from the
symmetric matrix of edge rates, and evolves any pure start; it serves
per-edge rate maps, the full-state comparison with trajectories, and
the tests, where it is the lumped engine's oracle. Both step exactly by
matrix exponentials, and each returns its states at every time as one
stack, checked whole when it is made: ``LumpedStates`` and
``DenseStates``, which also holds the trajectory ensemble's means.
``FidelityCurve.read`` turns rho_oo and rho_o0 into the channel of
``PROBE`` for every engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .network import INPUT_VERTEX, OUTPUT_VERTEX, NoiseSpec, single_excitation_hamiltonian
from .propagator import BlochInput

__all__ = [
    "PROBE",
    "DENSE_MAX_N",
    "DenseLiouvillian",
    "DenseStates",
    "LumpedLiouvillian",
    "LumpedStates",
    "FidelityCurve",
    "probe_vector",
    "fidelity_curve",
]

# Input state of every channel readout: the equator of the Bloch sphere,
# which carries both a vacuum and an excitation amplitude.
PROBE = BlochInput(math.pi / 2.0, 0.0)

# Largest network the dense engine takes. Its generator holds (n+1)^4
# complex numbers, and the exponentials of one evolve peak at about
# 433 MiB at n = 40 under tracemalloc; the peak grows as n^4.
DENSE_MAX_N = 40

# Tolerances of the state invariants, checked on every returned state.
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-8

# Shift of the Cholesky certificate, half the floor's margin: a factor of
# rho + CERTIFICATE_SHIFT I, with its O(d eps) rounding, proves every
# eigenvalue of rho above EIGENVALUE_FLOOR.
CERTIFICATE_SHIFT = -EIGENVALUE_FLOOR / 2.0

# Rounding level of the output population of a unit-trace state, a few
# dozen ulps of 1. A population below it reads |z| under about 1e-7,
# which rounding alone can produce, so lambda * z is not split there.
POPULATION_FLOOR = 1e-14


def _factors(rho: np.ndarray) -> bool:
    """Whether rho + CERTIFICATE_SHIFT I has a Cholesky factor, for one matrix or all of a stack.

    Like eigvalsh, the factorization reads only the lower triangle.
    Success certifies the state; failure decides nothing.
    """
    shifted = rho.copy()
    diagonal = np.arange(rho.shape[-1])
    shifted[..., diagonal, diagonal] += CERTIFICATE_SHIFT
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_states(
    times: np.ndarray,
    herm: np.ndarray,
    trace_err: np.ndarray,
    certified: Callable[[np.ndarray], np.ndarray],
    lowest: Callable[[np.ndarray], Sequence[float]],
) -> None:
    """Raise RuntimeError naming the first t whose state breaks an invariant.

    ``herm`` and ``trace_err`` hold each state's Hermiticity and trace
    defects. ``certified`` and ``lowest`` map the indices of some states
    to whether ``_factors`` certifies them and to their smallest
    eigenvalues. Only states that pass the other two checks are
    certified, and only those left uncertified reach ``lowest``, so a
    non-finite state is named by its defect before either sees it.
    """
    # negated tests, so that a non-finite entry fails too
    sound = (herm <= HERMITICITY_ATOL) & (trace_err <= TRACE_ATOL)
    low = np.zeros(times.size)
    rows = np.flatnonzero(sound)
    rows = rows[~certified(rows)]
    if rows.size:
        low[rows] = lowest(rows)
    bad = np.flatnonzero(~(sound & (low >= EIGENVALUE_FLOOR)))
    if bad.size == 0:
        return
    j = bad[0]
    if not herm[j] <= HERMITICITY_ATOL:
        problem = f"Hermiticity defect {herm[j]:.3e}"
    elif not trace_err[j] <= TRACE_ATOL:
        problem = f"trace defect {trace_err[j]:.3e}"
    else:
        problem = f"negative eigenvalue {low[j]:.3e}"
    raise RuntimeError(f"numeric failure at t={times[j]}: {problem}")


@dataclass(frozen=True, eq=False)
class DenseStates:
    """Density matrices of the network at a list of times, checked when made.

    ``rho`` stacks one matrix in the vacuum + single-excitation basis per
    entry of ``times``. Each must be Hermitian and of unit trace to 1e-10
    and have no eigenvalue below -1e-8 (rounding may leave the smallest
    slightly negative); RuntimeError names the first t that fails. A
    Cholesky factor of rho + 5e-9 I certifies the eigenvalue floor, and
    only a state it does not certify goes to eigvalsh. The matrices are
    checked one at a time, so that the check holds no second copy of the
    stack.
    """

    times: np.ndarray
    rho: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float).reshape(-1)
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 3 or rho.shape[1] != rho.shape[2] or len(rho) != times.size:
            raise ValueError(f"states of shape {rho.shape} are not one square matrix per time")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "rho", rho)
        herm = np.array([np.abs(r - r.conj().T).max() for r in rho])
        trace_err = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
        _check_states(
            times,
            herm,
            trace_err,
            lambda rows: np.array([_factors(rho[j]) for j in rows], dtype=bool),
            lambda rows: [np.linalg.eigvalsh(rho[j]).min() for j in rows],
        )


def probe_vector(n: int, input_vertex: int, state: BlochInput = PROBE) -> np.ndarray:
    """The start a|vacuum> + b|input vertex> of a transfer, as a vector of n + 1 entries."""
    if not 1 <= input_vertex <= n:
        raise ValueError(f"input vertex {input_vertex} outside 1..{n}")
    psi = np.zeros(n + 1, dtype=complex)
    psi[0], psi[input_vertex] = state.amplitudes()
    return psi


def _propagate(generator: np.ndarray, start: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States exp(G t) start at each time, one row per time.

    On a uniform grid, exp(G t_first) and exp(G Delta) are taken once and
    applied step by step; any other grid takes one exponential per gap
    between sorted times. No eigenbasis is used, so exceptional points
    of the generator need no special care.
    """
    out = np.empty((times.size, start.size), dtype=complex)
    if times.size == 0:
        return out
    order = np.argsort(times, kind="stable")
    ordered = times[order]
    step = (ordered[-1] - ordered[0]) / max(times.size - 1, 1)
    grid = ordered[0] + step * np.arange(times.size)
    uniform = times.size > 2 and step > 0.0 and bool(
        np.all(np.abs(ordered - grid) <= 16 * np.finfo(float).eps * ordered[-1])
    )
    if uniform:
        state = start if ordered[0] == 0.0 else scipy.linalg.expm(generator * ordered[0]) @ start
        power = scipy.linalg.expm(generator * step)
        out[order[0]] = state
        for j in range(1, times.size):
            state = power @ state
            out[order[j]] = state
        return out
    state, previous = start, 0.0
    for j, t in zip(order, ordered):
        if t > previous:
            state = scipy.linalg.expm(generator * (t - previous)) @ state
            previous = t
        out[j] = state
    return out


def _vec_commutator(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-i[h, rho] on the column-stacked vec(rho), and row[i, j], the row of rho_ij in vec(rho)."""
    dim = len(h)
    eye = np.eye(dim)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye)), np.arange(dim)[:, None] + dim * np.arange(dim)


def _matrices(flat: np.ndarray, dim: int) -> np.ndarray:
    """The dim x dim matrices rho whose vec(rho) starts each row of ``flat``."""
    # vec(rho) stacks the columns of rho, so each row reshapes to rho^T
    return flat[:, : dim * dim].reshape(-1, dim, dim).transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class DenseLiouvillian:
    """Master equation of the complete graph on the column-stacked vec(rho).

    ``generator`` is the (n+1)^2-square matrix of -i[H, rho] + D[rho],
    H = J - I. Each noisy pair {k, l} of ``noise`` has the Hermitian
    hopping operator L = |k><l| + |l><k| at generator rate
    R_kl = R_lk = 2 eta_kl, and since L^2 = |k><k| + |l><l| the sum of
    the edge dissipators r (L rho L - {L^2, rho}/2) reads entrywise

        D[rho]_ij = delta_ij sum_l R_il rho_ll + (1 - delta_ij) R_ij rho_ji
                    - (d_i + d_j) rho_ij / 2,    d = R 1,

    so one symmetric rate matrix fixes it. n must lie in 2..DENSE_MAX_N
    (40), checked before anything is allocated, and the noisy vertices
    in 1..n. Immutable; reuse one instance across times and start states.
    """

    n: int
    noise: NoiseSpec
    generator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.n > DENSE_MAX_N:
            raise ValueError(f"the dense engine takes n <= {DENSE_MAX_N}, got {self.n}")
        for vertex in self.noise.noisy_vertices:
            if not 1 <= vertex <= self.n:
                raise ValueError(f"noisy vertex {vertex} outside 1..{self.n}")
        dim = self.n + 1
        rates = np.zeros((dim, dim))
        for (k, l), eta in self.noise.edge_strengths().items():
            rates[k, l] = rates[l, k] = 2.0 * eta
        generator, row = _vec_commutator(single_excitation_hamiltonian(self.n))
        populations = row.diagonal()
        generator[np.ix_(populations, populations)] += rates
        # rho_ji feeds rho_ij; R_ii = 0, so the diagonal gets nothing here
        generator[row, row.T] += rates
        decay = rates.sum(axis=1)
        generator[row, row] -= 0.5 * (decay[:, None] + decay)
        object.__setattr__(self, "generator", generator)

    def evolve(self, psi0: np.ndarray, times: Sequence[float]) -> DenseStates:
        """Checked states from the pure start ``psi0`` at each time.

        The time grid need not be sorted or uniform; each entry must be
        nonnegative. A uniform grid costs two matrix exponentials in
        all. The states come back in the order of ``times``, checked as
        one stack; a violated invariant raises RuntimeError naming its
        time.
        """
        dim = self.n + 1
        psi0 = np.asarray(psi0, dtype=complex)
        if psi0.shape != (dim,):
            raise ValueError(f"start state of shape {psi0.shape} is not a vector of n + 1 = {dim} entries")
        times = np.asarray(times, dtype=float).reshape(-1)
        if not np.all(times >= 0):
            raise ValueError("times must be nonnegative")
        flat = _propagate(self.generator, np.outer(psi0, psi0.conj()).reshape(-1, order="F"), times)
        rho = _matrices(flat, dim)
        # the exponential keeps Hermiticity only to rounding
        return DenseStates(times, 0.5 * (rho + rho.conj().transpose(0, 2, 1)))


def _lumped_start() -> np.ndarray:
    """(vec rho, q) of PROBE = a|0> + b|in> on the lumped basis (vacuum, in, out, u_C, u_N)."""
    psi = np.zeros(5, dtype=complex)
    psi[:2] = PROBE.amplitudes()
    return np.append(np.outer(psi, psi.conj()).reshape(-1, order="F"), 0.0)


def _lumped_channel(times: Sequence[float], flat: np.ndarray) -> FidelityCurve:
    """The channel read off rows of (vec rho, q) without checking them, which need not be states."""
    rho = _matrices(flat, 5)
    return FidelityCurve.read(times, rho[:, 2, 2].real, rho[:, 2, 0])


@dataclass(frozen=True, eq=False)
class LumpedStates:
    """Lumped density matrices at a list of times, checked when made.

    ``rho`` stacks one 5 x 5 matrix per time on the orthonormal basis
    (vacuum, in, out, u_C, u_N), and ``rest`` holds q, the eigenvalue
    rho takes m - 1 times over on the noisy vectors orthogonal to u_N
    (see ``LumpedLiouvillian``). The invariants are those of
    ``DenseStates``, on the whole state: Hermiticity is that of rho, the
    trace is tr rho + (m - 1) q, and the eigenvalue floor holds for q
    and for rho. The Cholesky certificate factors rho as one stack, so
    if one state fails it, every state goes to eigvalsh.
    """

    m: int
    times: np.ndarray
    rho: np.ndarray
    rest: np.ndarray

    def __post_init__(self) -> None:
        rho, rest = self.rho, self.rest
        herm = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        trace = np.trace(rho, axis1=1, axis2=2) + (self.m - 1) * rest
        _check_states(
            self.times,
            herm,
            np.abs(trace - 1.0),
            lambda rows: (rest[rows] >= EIGENVALUE_FLOOR) & _factors(rho[rows]),
            lambda rows: np.minimum(np.linalg.eigvalsh(rho[rows]).min(axis=1), rest[rows]),
        )

    @property
    def rho_oo(self) -> np.ndarray:
        return self.rho[:, 2, 2].real

    @property
    def rho_o0(self) -> np.ndarray:
        return self.rho[:, 2, 0]


@dataclass(frozen=True, eq=False)
class LumpedLiouvillian:
    """Master equation of the complete graph with scalar noise, lumped by symmetry.

    With the transfer pair (in, out), k = n - 2 - m clean vertices and m
    noisy ones, relabelling clean vertices among themselves, or noisy
    ones, maps the generator and the start a|0> + b|in> to themselves,
    so rho commutes with every such relabelling (Buca and Prosen, New J.
    Phys. 14, 073007, 2012). On the clean vertices rho is then a
    multiple of the identity plus one of J, and the same on the noisy
    ones, and rho maps every vector with zero sum over the clean (or
    noisy) vertices to a multiple of itself. So the state is rho on the
    orthonormal basis (vacuum, in, out, u_C, u_N), u_C and u_N the
    uniform vectors over the clean and the noisy vertices, plus the
    scalar q that rho takes on the m - 1 noisy vectors orthogonal to
    u_N. Its clean counterpart is 0 from the probe start on, since H
    maps the zero-sum clean vectors to themselves and no jump reaches
    them. ``generator`` is the 26 x 26 matrix on (vec rho, q), with vec
    column-stacked as in ``DenseLiouvillian``.

    Hamiltonian. H = J - I with J = |1><1| and 1 = |in> + |out> +
    sqrt(k) u_C + sqrt(m) u_N, so on the basis H = pad(s s^T - I),
    s = (1, 1, sqrt(k), sqrt(m)), with a zero vacuum row; H is -1 on
    the noisy vectors orthogonal to u_N and leaves q alone.

    Dissipator. Each noisy pair {k, l} has L = |k><l| + |l><k| at rate
    r = 2 eta, and sum L^2 = (m - 1) P_N, so every entry rho_ij decays
    at (d_i + d_j) / 2 with d = r (m - 1) on u_N and 0 elsewhere, and q
    at r (m - 1). The sum of L rho L over noisy pairs lives on the noisy
    block, where rho = y |u_N><u_N| + q P_perp, y = rho[u_N, u_N]: it is
    (m - 1) d_N on the noisy diagonal and o_N = (y - q) / m off it, with
    d_N = (y + (m - 1) q) / m. Its eigenvalues are (m - 1)(d_N + o_N)
    on u_N and (m - 1) d_N - o_N on P_perp, so each x in {y, q} is fed
    r ((m - 2) d_N + x). Fewer than two noisy vertices span no edge and
    leave no dissipator. The generator keeps the trace
    tr rho + (m - 1) q exactly.
    """

    n: int
    m: int
    eta: float
    generator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not 0 <= self.m <= self.n - 2:
            raise ValueError(f"m must lie in 0..n-2 = {self.n - 2}, got {self.m}")
        if not math.isfinite(self.eta) or self.eta < 0:
            raise ValueError(f"noise strength must be finite and nonnegative, got {self.eta}")
        m = self.m
        s = np.sqrt([1.0, 1.0, self.n - 2 - m, m])
        h = np.zeros((5, 5))
        h[1:, 1:] = np.outer(s, s) - np.eye(4)
        commutator, row = _vec_commutator(h)
        generator = np.zeros((26, 26), dtype=complex)
        generator[:25, :25] = commutator
        if m >= 2:
            rate = 2.0 * self.eta
            decay = np.array([0.0, 0.0, 0.0, 0.0, rate * (m - 1)])
            generator[row, row] -= 0.5 * (decay[:, None] + decay)
            generator[25, 25] -= rate * (m - 1)
            # the feed r ((m - 2) d_N + x) of x in (y, q), d_N = (y + (m - 1) q) / m
            noisy = [row[4, 4], 25]
            generator[np.ix_(noisy, noisy)] += rate * ((m - 2) * np.array([1.0, m - 1.0]) / m + np.eye(2))
        object.__setattr__(self, "generator", generator)

    def evolve(self, times: Sequence[float]) -> LumpedStates:
        """Checked lumped states from PROBE = a|0> + b|input> at each time (any order)."""
        times = np.asarray(times, dtype=float).reshape(-1)
        if times.size == 0 or not np.all(times >= 0):
            raise ValueError("times must be a nonempty list of nonnegative numbers")
        # The state is stepped as y = T v, T the identity with its rho_in,in
        # row replaced by w = (vec I, m - 1), so y carries the trace in that
        # entry. w^T G = 0, so that row of T G T^-1 is set to exactly 0 and
        # no exponential changes the trace; expm(G dt) itself keeps w^T only
        # to about 1e-9 once ||G dt|| is near 1e4.
        w = np.append(np.eye(5).reshape(-1), self.m - 1.0)
        trace_row = 6  # rho_in,in, entry 1 + 5 * 1 of vec(rho)
        to_y, to_v = np.eye(26), np.eye(26)
        to_y[trace_row], to_v[trace_row] = w, -w
        to_v[trace_row, trace_row] = 1.0
        generator = to_y @ self.generator @ to_v
        generator[trace_row] = 0.0
        flat = _propagate(generator, to_y @ _lumped_start(), times) @ to_v.T
        return LumpedStates(self.m, times, _matrices(flat, 5), flat[:, -1].real)


@dataclass(frozen=True, eq=False)
class FidelityCurve:
    """Channel (z, lambda) and best Bloch-averaged fidelity at each time of a grid, as arrays."""

    amplitude: np.ndarray
    dephasing: np.ndarray
    fidelity: np.ndarray

    @classmethod
    def of(cls, amplitude: Sequence[complex], dephasing: Sequence[float]) -> FidelityCurve:
        """The channels (z, lambda) with F = 1/2 + lambda |z|/3 + |z|^2/6, ``optimal_avg_fidelity``'s form."""
        z = np.asarray(amplitude, dtype=complex)
        lam = np.asarray(dephasing, dtype=float)
        mod = np.abs(z)
        return cls(z, lam, 0.5 + lam * mod / 3.0 + mod * mod / 6.0)

    @classmethod
    def read(
        cls, times: Sequence[float], rho_oo: Sequence[float], rho_o0: Sequence[complex]
    ) -> FidelityCurve:
        """The channel of ``PROBE`` = a|0> + b|input> at each time, from rho_oo and rho_o0.

        The evolved state stores |z|^2 in the output population
        rho_oo / |b|^2 and the product lambda*z in the coherence
        rho_o0 / (b a*). Splitting the product needs the population above
        its rounding level, POPULATION_FLOOR; at or below it the channel
        carries no amplitude information and the convention z = 0,
        lambda = 1 applies. At lambda = 0, z = |z|. A population below
        -1e-10 raises RuntimeError naming its t.
        """
        a, b = PROBE.amplitudes()
        rho_oo = np.asarray(rho_oo, dtype=float)
        prob = rho_oo / abs(b) ** 2
        negative = np.flatnonzero(prob < -1e-10)
        if negative.size:
            j = negative[0]
            raise RuntimeError(f"numeric failure at t={times[j]}: output population {prob[j]:.3e} below zero")
        mod = np.sqrt(np.maximum(prob, 0.0))
        lam_z = np.asarray(rho_o0, dtype=complex) / (b * a.conjugate())
        split = rho_oo > POPULATION_FLOOR
        # the unsplit entries divide by zero and are then replaced
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = np.where(split, np.abs(lam_z) / mod, 1.0)
            z = np.where(split, np.where(lam > 0.0, lam_z / lam, mod), 0.0)
        return cls.of(z, lam)


def fidelity_curve(
    engine: LumpedLiouvillian | DenseLiouvillian,
    times: Sequence[float],
    pair: tuple[int, int] = (INPUT_VERTEX, OUTPUT_VERTEX),
) -> FidelityCurve:
    """Evolve ``PROBE`` and read the channel off rho_oo and rho_o0 at each time.

    A lumped engine needs only those two entries. A dense engine starts
    at the input vertex of ``pair``, is read at its output vertex, and
    its noisy set must leave both alone; the lumped engine is the same
    for every pair. The two vertices must differ and lie in 1..n.
    """
    n = engine.n
    source, target = pair
    if source == target:
        raise ValueError(f"input and output vertex are both {source}")
    for vertex in pair:
        if not 1 <= vertex <= n:
            raise ValueError(f"vertex {vertex} outside 1..{n}")
    if isinstance(engine, LumpedLiouvillian):
        states = engine.evolve(times)
        return FidelityCurve.read(states.times, states.rho_oo, states.rho_o0)
    engine.noise.validate_for(n, source, target)
    states = engine.evolve(probe_vector(n, source), times)
    return FidelityCurve.read(states.times, states.rho[:, target, target].real, states.rho[:, target, 0])
