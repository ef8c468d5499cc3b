"""Monte Carlo unraveling of the white-noise couplings.

Each trajectory integrates the Schrodinger equation under the network
Hamiltonian plus piecewise-constant random edge couplings, one
independent Gaussian per noisy pair per step with variance 2 eta / dt.
That variance makes the integrated coupling over a step match the
delta-correlation of the continuous noise, and stepping with the exact
exponential of the full sampled Hamiltonian (the Stratonovich reading;
an Euler scheme on the state would lose trace in the average) drives
the ensemble mean to the Lindblad engine's output. The module exists
as an independent oracle for :mod:`spinnet.lindblad`, so it shares no
integration code with it.

Determinism contract: trajectory j draws from its own counter-based
stream keyed by (master_seed, j), trajectories are processed in fixed
batches of 2,048, and partial sums are reduced in batch order after all
workers finish. Results are therefore bit-identical for any thread
count.

Layout: a batch is stepped as columns, shape (dim, batch), so the
Hamiltonian acts on the whole batch in one matrix product and each
noisy edge updates two contiguous rows.

Time grids: an ensemble read at many times steps each batch once, up
to the latest time, and takes the moments at every time on the way.
Each time gets the bytes of an independent single-time ensemble, on
any grid: a time between step boundaries is reached by a tail step on
a copy of the states, from the noise row a single-time run would draw
there. Noise is drawn a bounded number of steps at a time: at most 256,
and at most 2**17 normals over the batch (one step where that alone is
more), so the noise held per batch grows with neither the horizon nor
the number of noisy edges.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lindblad import NetworkState
from .network import NoiseSpec, require_hermitian

__all__ = [
    "TrajectoryPlan",
    "EnsembleResult",
    "evolve_trajectory",
    "ensemble_average",
]

# Trajectories per kernel invocation. Fixed (not tied to thread count)
# so the reduction order never depends on parallelism. At n = 4, m = 2 a
# trajectory step costs about half as much at 2,048 as at 256; wider
# batches gain nothing more.
_BATCH = 2048

# Steps of noise each trajectory draws at once, at most. At 256 the
# per-call cost of a draw is a few per cent of the stepping.
_CHUNK = 256

# Standard normals (8 bytes each) a batch holds at once: the chunk is
# shortened so that chunk x batch x edges stays within this, down to one
# step, whatever the horizon or the number of noisy edges.
_NOISE_BUDGET = 2**17

# Per-step couplings stay modest under the eta*dt and ||H||*dt bounds,
# so the series converges in a few dozen terms at most.
_MAX_TAYLOR_TERMS = 80


@dataclass(frozen=True)
class TrajectoryPlan:
    """Ensemble description: size, step, horizon, seed, and the noise spec."""

    n_traj: int
    dt: float
    t_final: float
    master_seed: int
    noise: NoiseSpec

    def __post_init__(self) -> None:
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be at least 1, got {self.n_traj}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final < 0:
            raise ValueError(f"t_final must be nonnegative, got {self.t_final}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Trajectory-averaged density matrix with per-entry standard errors."""

    rho_mean: NetworkState
    std_err: np.ndarray
    n_traj: int


def _edge_arrays(spec: NoiseSpec, dim: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    pairs: list[tuple[int, int]] = []
    strengths: list[float] = []
    for (k, l), eta in spec.edge_strengths().items():
        if l >= dim:
            raise ValueError(f"noisy vertex {l} outside the {dim - 1}-vertex network")
        pairs.append((k, l))
        strengths.append(eta)
    return pairs, np.asarray(strengths)


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _taylor_step(
    states: np.ndarray,
    h: np.ndarray,
    pairs: list[tuple[int, int]],
    couplings: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Apply exp(-i (H + noise) tau) to each batch column by a machine-precision series.

    ``states`` holds one trajectory per column, shape (dim, batch), and
    ``couplings`` one edge per row, shape (edges, batch). Each column has
    its own couplings, so the matrix exponential cannot be shared;
    instead the series acts on the states directly: H is one product for
    the whole batch, and each edge operator only swaps two rows, a
    contiguous update across the batch. -i tau is folded into H and the
    couplings once per step. Terms are summed until their squared norm
    over the batch falls below 1e-34, so every entry is below 1e-17,
    which keeps the step unitary to well under 1e-12.
    """
    h = (-1j * tau) * h
    kicks = np.multiply(couplings, -1j * tau, order="C")
    out = states.copy()
    term = states
    for k in range(1, _MAX_TAYLOR_TERMS + 1):
        kicked = h @ term
        for g, (a, b) in zip(kicks, pairs):
            kicked[a] += g * term[b]
            kicked[b] += g * term[a]
        kicked *= 1.0 / k
        term = kicked
        out += term
        if np.vdot(term, term).real < 1e-34:
            return out
    raise RuntimeError("numeric failure: step exponential did not converge")


def _split_horizon(t: float, dt: float) -> tuple[int, float]:
    n_full = int(math.floor(t / dt + 1e-12))
    remainder = t - n_full * dt
    if remainder < 1e-12 * max(t, dt):
        remainder = 0.0
    return n_full, remainder


def _noise_rows(
    rngs: list[np.random.Generator], n_rows: int, n_edges: int
) -> Iterator[np.ndarray]:
    """Yield the batch's standard normals one step at a time, shape (edges, batch).

    Each trajectory draws a chunk of steps per call into one reused
    buffer, so a yielded step is valid only until the next is requested.
    The chunk is at most _CHUNK steps and at most _NOISE_BUDGET normals
    over the batch, but never less than one step. Philox normals come in
    sequence, so the steps equal those of a single whole-horizon draw:
    the chunk length sets the memory held, never the numbers.
    """
    chunk = max(1, min(_CHUNK, n_rows, _NOISE_BUDGET // max(1, len(rngs) * n_edges)))
    buffer = np.empty((len(rngs), chunk, n_edges))
    for start in range(0, n_rows, chunk):
        rows = min(chunk, n_rows - start)
        for rng, block in zip(rngs, buffer):
            rng.standard_normal(out=block[:rows])
        yield from buffer[:, :rows].transpose(1, 2, 0)


def _sweep(
    h: np.ndarray,
    pairs: list[tuple[int, int]],
    strengths: np.ndarray,
    states: np.ndarray,
    times: Sequence[float],
    dt: float,
    rngs: list[np.random.Generator],
) -> Iterator[tuple[int, np.ndarray]]:
    """Step the batch once up to the latest time, yielding (index, states) at each time.

    ``states`` comes in and goes out one trajectory per row, shape
    (batch, dim); it is transposed once to the kernel's columns, and each
    yield is a transposed view. A time that is a whole number n of steps
    yields the states as they stand. Any other time applies a tail step
    to a copy of the states, driven by noise row n at the variance of
    the tail's own length; the main path then takes row n at the
    full-step variance. A trajectory run to that time alone draws the
    same row as its tail, so every time gets the bytes of an independent
    single-time run.
    """
    marks = sorted((*_split_horizon(t, dt), i) for i, t in enumerate(times))
    n_rows = max(n_full + (remainder > 0) for n_full, remainder, _ in marks)
    rows = _noise_rows(rngs, n_rows, len(pairs))
    sigma = np.sqrt(2.0 * strengths / dt)[:, np.newaxis]
    columns = states.T.copy()
    step, row = 0, next(rows, None)
    for n_full, remainder, i in marks:
        while step < n_full:
            columns = _taylor_step(columns, h, pairs, sigma * row, dt)
            step, row = step + 1, next(rows, None)
        if remainder:
            sigma_tail = np.sqrt(2.0 * strengths / remainder)[:, np.newaxis]
            yield i, _taylor_step(columns, h, pairs, sigma_tail * row, remainder).T
        else:
            yield i, columns.T


def _check_preconditions(h: np.ndarray, spec: NoiseSpec, dt: float) -> None:
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    strengths = list(spec.edge_strengths().values())
    eta_max = max(strengths, default=0.0)
    if eta_max * dt > 0.05:
        raise ValueError(f"eta * dt = {eta_max * dt:.3g} exceeds 0.05; shrink dt")
    h_norm = float(np.abs(np.linalg.eigvalsh(h)).max())
    if h_norm * dt > 0.05:
        raise ValueError(f"||H|| * dt = {h_norm * dt:.3g} exceeds 0.05; shrink dt")


def evolve_trajectory(
    hamiltonian: np.ndarray,
    spec: NoiseSpec,
    psi0: np.ndarray,
    t: float,
    dt: float,
    seed: int,
    stream_index: int = 0,
) -> np.ndarray:
    """Integrate one noise realization, returning the endpoint state vector.

    The final partial step (when t is not a multiple of dt) uses the
    variance matched to its own length. Passing the master seed of an
    ensemble together with a trajectory index reproduces that member's
    noise stream.
    """
    h = require_hermitian(hamiltonian).astype(complex)
    _check_preconditions(h, spec, dt)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.shape[0],):
        raise ValueError(f"state shape {psi0.shape} does not match dimension {h.shape[0]}")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    pairs, strengths = _edge_arrays(spec, h.shape[0])
    states = psi0[np.newaxis, :].copy()
    [(_, states)] = _sweep(h, pairs, strengths, states, [t], dt, [_stream(seed, stream_index)])
    return states[0]


def ensemble_average(
    plan: TrajectoryPlan,
    hamiltonian: np.ndarray,
    psi0: np.ndarray,
    threads: int = 1,
    times: Sequence[float] | None = None,
) -> EnsembleResult | list[EnsembleResult]:
    """Average |psi><psi| over the planned trajectory ensemble.

    Without ``times`` the ensemble is read at ``plan.t_final`` and one
    result is returned. With ``times`` (each in [0, plan.t_final]) every
    batch is stepped once, up to the latest of them, and one result per
    time is returned in their order; each is bit-identical to the
    single-time ensemble at that time.

    Workers process disjoint fixed-size batches; the per-batch partial
    sums are combined in batch order once all of them exist, so the
    result does not depend on scheduling. Standard errors come from the
    per-entry second moments accumulated alongside the mean.
    """
    h = require_hermitian(hamiltonian).astype(complex)
    _check_preconditions(h, plan.noise, plan.dt)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.shape[0],):
        raise ValueError(f"state shape {psi0.shape} does not match dimension {h.shape[0]}")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    grid = [plan.t_final] if times is None else [float(t) for t in times]
    if not grid or not all(0.0 <= t <= plan.t_final for t in grid):
        raise ValueError(f"times must be a nonempty list within [0, t_final = {plan.t_final}]")
    pairs, strengths = _edge_arrays(plan.noise, h.shape[0])
    dim = h.shape[0]

    def run_batch(start: int) -> tuple[np.ndarray, np.ndarray]:
        stop = min(start + _BATCH, plan.n_traj)
        rngs = [_stream(plan.master_seed, j) for j in range(start, stop)]
        states = np.broadcast_to(psi0, (stop - start, dim)).copy()
        first = np.empty((len(grid), dim, dim), dtype=complex)
        second = np.empty((len(grid), dim, dim))
        for i, states in _sweep(h, pairs, strengths, states, grid, plan.dt, rngs):
            first[i] = np.einsum("bi,bj->ij", states, states.conj())
            pops = np.abs(states) ** 2
            second[i] = np.einsum("bi,bj->ij", pops, pops)
        return first, second

    starts = range(0, plan.n_traj, _BATCH)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run_batch, starts))
    else:
        partials = [run_batch(s) for s in starts]

    first = np.zeros((len(grid), dim, dim), dtype=complex)
    second = np.zeros((len(grid), dim, dim))
    for part_first, part_second in partials:
        first += part_first
        second += part_second
    mean = first / plan.n_traj
    variance = np.maximum(second / plan.n_traj - np.abs(mean) ** 2, 0.0)
    std_err = np.sqrt(variance / plan.n_traj)
    results = [EnsembleResult(NetworkState(m), e, plan.n_traj) for m, e in zip(mean, std_err)]
    return results[0] if times is None else results
