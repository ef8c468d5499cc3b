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
stream keyed by (master_seed, j), and trajectories are stepped in fixed
batches of 2,048 whose moments are added to running sums in batch
order. The bytes of a result therefore depend on the plan alone, and an
ensemble holds one batch's moments at a time, whatever its size.

Kernel: H must be real, as the XY couplings of every network here are.
A batch is stepped as a real and an imaginary plane of columns, shape
(2, dim, batch), so H acts on the whole batch in one real product (the
block contraction below also runs faster over contiguous planes than
over the interleaved view of complex states), and each step's
couplings fill one symmetric block over the noisy vertices,
shape (v, v, batch), so the noise of a Taylor term is one contraction
whatever the number of noisy edges. The series is summed by Horner's
rule with a term count fixed beforehand from a bound on ||H + noise||,
so that every entry of the dropped tail is below 1e-17; a step whose
bound would need more than 80 terms (a dense noisy set near the step
limits) is taken in equal substeps. The block spans the noisy vertices
from the lowest to the highest; without gaps in the noisy set it holds
about twice one step's normals, and where one step's noise alone is
over the draw budget (n = 40, m = 38 at 2,048 trajectories), a batch
stays within four steps' worth of normals.

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
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .lindblad import NetworkState
from .network import NoiseSpec, require_hermitian

__all__ = [
    "TrajectoryPlan",
    "EnsembleResult",
    "evolve_trajectory",
    "ensemble_average",
]

# Trajectories per kernel invocation; fixed, so the batch sums, and
# with them the bytes, depend on the plan alone. At n = 4, m = 2 a
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

# Terms of one Taylor series, at most.
_MAX_TAYLOR_TERMS = 80

# Largest norm bound rho = ||H + noise|| * tau that one series sums:
# _term_count(18.0) is 77. A step with a larger bound, as a dense noisy
# set gives (rho is about 21 at n = 70, m = 68 at the step limits), is
# split into the fewest equal substeps within it.
_SUBSTEP_RHO = 18.0


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
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_final < math.inf:
            raise ValueError(f"t_final must be nonnegative and finite, got {self.t_final}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Trajectory-averaged density matrix with per-entry standard errors."""

    rho_mean: NetworkState
    std_err: np.ndarray
    n_traj: int


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_PhiloxKey(seed, index)))


class _PhiloxKey(ISeedSequence):
    """Hands Philox the key (seed, index) as it stands.

    ``Philox(key=...)`` first builds a SeedSequence from OS entropy that
    the key then overrides, and it converts a seed of 2**63 or more
    through float64, so neighbouring seeds there share a key. Passed as
    the seed sequence, this object gives the key word for word, with no
    entropy read: below 2**63 the draws equal those of
    ``Philox(key=[seed, index])``.
    """

    def __init__(self, seed: int, index: int) -> None:
        self.words = (seed, index)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} {np.dtype(dtype)}")
        return np.array(self.words, dtype=np.uint64)


@dataclass(frozen=True, eq=False)
class _EdgeBlock:
    """The noisy edges as one symmetric block over the span of the noisy vertices.

    The block covers the state's rows from the lowest noisy vertex to
    the highest, so a noiseless vertex inside that span (vertex 4 of the
    noisy pair (3, 5)) has zero couplings; a gapped set thus costs what
    a set without gaps over the same span costs. A step's couplings
    fill a real (v, v, batch) block, each edge at its two mirrored
    places, so the noise of a Taylor term is one contraction over the
    block whatever the number of edges.
    """

    rows: slice  # the rows of a state that the block spans
    first: np.ndarray  # block row of each edge's first vertex, in draw order
    second: np.ndarray  # and of its second
    rates: np.ndarray  # (v, v) edge rates, symmetric, zero on the diagonal

    @classmethod
    def of(cls, spec: NoiseSpec, dim: int) -> _EdgeBlock:
        edges = spec.edge_strengths()
        vertices = {v for edge in edges for v in edge}
        low, high = min(vertices, default=0), max(vertices, default=-1)
        if high >= dim:
            raise ValueError(f"noisy vertex {high} outside the {dim - 1}-vertex network")
        first = np.array([k - low for k, _ in edges], dtype=np.intp)
        second = np.array([l - low for _, l in edges], dtype=np.intp)
        rates = np.zeros((high + 1 - low, high + 1 - low))
        rates[first, second] = rates[second, first] = list(edges.values())
        return cls(slice(low, high + 1), first, second, rates)

    def fill(self, block: np.ndarray, normals: np.ndarray, tau: float) -> float:
        """Write one step's couplings into ``block``; return a bound on their norm.

        ``normals`` holds one edge per row, shape (edges, batch), and each
        coupling is a normal times sqrt(2 eta / tau). The bound holds for
        every column's noise matrix N: N is symmetric with zero trace, so
        ||N||^2 <= (1 - 1/v) ||N||_F^2, which is exact for a single edge.
        """
        block[self.first, self.second] = normals
        block[self.second, self.first] = normals
        block *= np.sqrt(2.0 * self.rates / tau)[:, :, np.newaxis]
        v = len(self.rates)
        frobenius2 = float(np.einsum("ijb,ijb->b", block, block).max())
        return math.sqrt(frobenius2 * max(v - 1, 0) / max(v, 1))


def _term_count(rho: float) -> int:
    """Least K for which the Taylor tail sum_{k > K} rho^k / k! is below 1e-17."""
    term = 1.0
    for k in range(_MAX_TAYLOR_TERMS + 1):
        term *= rho / (k + 1)
        # the tail is at most its first term over 1 - rho / (k + 2)
        if rho < k + 2 and term < 1e-17 * (1.0 - rho / (k + 2)):
            return k
    raise RuntimeError("numeric failure: step exponential did not converge")


def _taylor_step(
    states: np.ndarray,
    h: np.ndarray,
    rows: slice,
    block: np.ndarray,
    tau: float,
    norm: float,
) -> np.ndarray:
    """Apply exp(-i (H + noise) tau) to each batch column by a machine-precision series.

    ``states`` holds one trajectory per column in a real and an
    imaginary plane, shape (2, dim, batch); ``block`` holds each column's
    noise couplings over the noisy ``rows``, shape (v, v, batch); ``norm``
    bounds ||H + noise|| over the columns. The step is taken in the
    fewest equal substeps whose bound rho = norm * tau / s is within
    _SUBSTEP_RHO, each summed to the K terms that _term_count takes for
    rho. The columns are unit vectors, so every entry of each dropped
    tail is below 1e-17, which keeps the step unitary to well under
    1e-12.

    Horner's rule sums a substep as p <- v - i (tau / k) A p for
    k = K..1. H is real, so A p is one real product over both planes
    plus one contraction of the block with the noisy rows, and -i swaps
    the planes and negates one: (re, im) -> (im, -re).
    """
    rho = norm * tau
    substeps = math.ceil(rho / _SUBSTEP_RHO) if _SUBSTEP_RHO < rho < math.inf else 1
    tau /= substeps
    k_max = _term_count(rho / substeps)
    for _ in range(substeps):
        p = start = states
        for k in range(k_max, 0, -1):
            scale = tau / k
            y = np.matmul(h * scale, p)
            noise = np.einsum("ijb,cjb->cib", block, p[:, rows])
            noise *= scale
            y[:, rows] += noise
            p = y[::-1]
            p[1] *= -1
            p += start
        states = p
    return states


def _complex_rows(columns: np.ndarray) -> np.ndarray:
    """The (batch, dim) complex states of (2, dim, batch) real and imaginary planes."""
    return (columns[0] + 1j * columns[1]).T


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
    h_norm: float,
    edges: _EdgeBlock,
    psi0: np.ndarray,
    times: Sequence[float],
    dt: float,
    rngs: list[np.random.Generator],
) -> Iterator[tuple[int, np.ndarray]]:
    """Step a batch from psi0 once up to the latest time, yielding (index, states) at each time.

    The batch has one trajectory per stream of ``rngs`` and is stepped
    as real and imaginary column planes; each yield is the batch as
    complex rows, shape (batch, dim). A time that is a whole number n of
    steps yields the states as they stand. Any other time applies a tail
    step to the states, driven by noise row n at the variance of the
    tail's own length; the main path then takes row n at the full-step
    variance. A trajectory run to that time alone draws the same row as
    its tail, so every time gets the bytes of an independent single-time
    run.
    """
    marks = sorted((*_split_horizon(t, dt), i) for i, t in enumerate(times))
    n_rows = max(n_full + (remainder > 0) for n_full, remainder, _ in marks)
    noise = _noise_rows(rngs, n_rows, len(edges.first))
    block = np.zeros((*edges.rates.shape, len(rngs)))
    planes = np.stack((psi0.real, psi0.imag))[:, :, np.newaxis]
    columns = np.repeat(planes, len(rngs), axis=2)

    def advance(states: np.ndarray, normals: np.ndarray, tau: float) -> np.ndarray:
        norm = h_norm + edges.fill(block, normals, tau)
        return _taylor_step(states, h, edges.rows, block, tau, norm)

    step, row = 0, next(noise, None)
    for n_full, remainder, i in marks:
        while step < n_full:
            columns = advance(columns, row, dt)
            step, row = step + 1, next(noise, None)
        yield i, _complex_rows(advance(columns, row, remainder) if remainder else columns)


def _validated(
    hamiltonian: np.ndarray, spec: NoiseSpec, dt: float, psi0: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """Check the inputs of a run; return the real H, its norm, and psi0 as complex.

    The step bounds eta * dt <= 0.05 and ||H|| * dt <= 0.05 keep the
    Taylor series of every step short.
    """
    h = require_hermitian(hamiltonian)
    if np.iscomplexobj(h) and np.any(h.imag):
        raise ValueError("hamiltonian must be real: the kernel applies it as a real matrix")
    h = np.ascontiguousarray(h.real, dtype=float)
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    eta_max = max(spec.edge_strengths().values(), default=0.0)
    if eta_max * dt > 0.05:
        raise ValueError(f"eta * dt = {eta_max * dt:.3g} exceeds 0.05; shrink dt")
    h_norm = float(np.abs(np.linalg.eigvalsh(h)).max())
    if h_norm * dt > 0.05:
        raise ValueError(f"||H|| * dt = {h_norm * dt:.3g} exceeds 0.05; shrink dt")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (h.shape[0],):
        raise ValueError(f"state shape {psi0.shape} does not match dimension {h.shape[0]}")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    return h, h_norm, psi0


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

    The Hamiltonian must be real. The final partial step (when t is not
    a multiple of dt) uses the variance matched to its own length.
    Passing the master seed of an ensemble together with a trajectory
    index reproduces that member's noise stream.
    """
    h, h_norm, psi0 = _validated(hamiltonian, spec, dt, psi0)
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    edges = _EdgeBlock.of(spec, h.shape[0])
    [(_, states)] = _sweep(h, h_norm, edges, psi0, [t], dt, [_stream(seed, stream_index)])
    return states[0]


def ensemble_average(
    plan: TrajectoryPlan,
    hamiltonian: np.ndarray,
    psi0: np.ndarray,
    times: Sequence[float] | None = None,
) -> EnsembleResult | list[EnsembleResult]:
    """Average |psi><psi| over the planned trajectory ensemble under a real Hamiltonian.

    Without ``times`` the ensemble is read at ``plan.t_final`` and one
    result is returned. With ``times`` (each in [0, plan.t_final]) every
    batch is stepped once, up to the latest of them, and one result per
    time is returned in their order; each is bit-identical to the
    single-time ensemble at that time.

    Each batch's first moments and per-entry second moments are added to
    running sums, in batch order, as soon as the batch is done, so the
    memory held does not grow with ``plan.n_traj``. Standard errors come
    from the second moments.
    """
    h, h_norm, psi0 = _validated(hamiltonian, plan.noise, plan.dt, psi0)
    grid = [plan.t_final] if times is None else [float(t) for t in times]
    if not grid or not all(0.0 <= t <= plan.t_final for t in grid):
        raise ValueError(f"times must be a nonempty list within [0, t_final = {plan.t_final}]")
    edges = _EdgeBlock.of(plan.noise, h.shape[0])
    dim = h.shape[0]
    first = np.zeros((len(grid), dim, dim), dtype=complex)
    second = np.zeros((len(grid), dim, dim))
    for start in range(0, plan.n_traj, _BATCH):
        stop = min(start + _BATCH, plan.n_traj)
        rngs = [_stream(plan.master_seed, j) for j in range(start, stop)]
        for i, states in _sweep(h, h_norm, edges, psi0, grid, plan.dt, rngs):
            first[i] += np.einsum("bi,bj->ij", states, states.conj())
            pops = np.abs(states) ** 2
            second[i] += np.einsum("bi,bj->ij", pops, pops)
    mean = first / plan.n_traj
    variance = np.maximum(second / plan.n_traj - np.abs(mean) ** 2, 0.0)
    std_err = np.sqrt(variance / plan.n_traj)
    results = [EnsembleResult(NetworkState(m), e, plan.n_traj) for m, e in zip(mean, std_err)]
    return results[0] if times is None else results
