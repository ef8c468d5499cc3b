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

Reduction: the noise couples only the noisy vertices, so it maps every
state into the span E of their rows and annihilates the complement of
E. Let W be the smallest H-invariant subspace that contains E. The
noise maps into W and annihilates its complement, and H (real
symmetric) keeps both, so every trajectory is Q psi_W(t) + psi_perp(t):
psi_W is stepped in a real orthonormal basis Q of W under Q^T H Q plus
the noise, and psi_perp, the part of psi0 outside W, moves under H
alone, the same for every trajectory. It is added exactly at each
readout from the eigenvectors of H on its own H-closure. On a complete
graph W is the noisy vertices plus the uniform clean vector, so a step
costs the same at any n: v + 1 stepped rows for v noisy rows.

Kernel: H must be real, as the XY couplings of every network here are.
A batch is held as one real buffer of columns: the real and the
imaginary plane of the reduced states, r rows each with the noisy rows
first, then 2v spare rows. Each step's couplings fill one symmetric
block over the noisy vertices, shape (v, v, batch), whatever the number
of noisy edges. A Taylor term is three numpy calls: one contraction
writes the block times the noisy rows into the spare rows, one real
product applies tau H, the noise rows, 1/k and -i together, and one add
puts back the start. The series is summed by Horner's rule with a term
count fixed beforehand from a bound on ||H + noise||, so that every
entry of the dropped tail is below 1e-17; a step whose bound would need
more than 80 terms (a dense noisy set near the step limits) is taken in
equal substeps. The block spans the noisy vertices from the lowest to
the highest; without gaps in the noisy set it holds about twice one
step's normals, and where one step's noise alone is over the draw
budget (n = 40, m = 38 at 2,048 trajectories), a batch stays within
four steps' worth of normals.

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

# Floats of scaled term operators made at once. At a few noisy rows a
# step's operators fit in one go; at n = 40, m = 38 (2r + 2v = 154
# columns) five are made at a time, so they never cost what the batch
# buffers cost.
_OPERATOR_BUDGET = 2**16

# A direction is part of an H-closure when its component outside the
# basis so far exceeds this fraction of its scale (1 for a start vector,
# ||H|| for an image under H). Rounding leaves about 1e-16 of it.
_DEFLATION = 1e-12


@dataclass(frozen=True)
class TrajectoryPlan:
    """Ensemble description: size, step, horizon, seed, and the noise spec."""

    n_traj: int
    dt: float
    t_final: float
    master_seed: int
    noise: NoiseSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_traj", _require_integer(self.n_traj, "n_traj"))
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be at least 1, got {self.n_traj}")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_final < math.inf:
            raise ValueError(f"t_final must be nonnegative and finite, got {self.t_final}")
        object.__setattr__(self, "master_seed", _require_key(self.master_seed, "master_seed"))


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Trajectory-averaged density matrix with per-entry standard errors."""

    rho_mean: NetworkState
    std_err: np.ndarray
    n_traj: int


def _require_integer(value: object, name: str) -> int:
    """``value`` as an int; a bool, a float or any other non-integer is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_key(value: object, name: str) -> int:
    """A seed or a stream index: one 64-bit word of a Philox key."""
    value = _require_integer(value, name)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must lie in 0..2**64 - 1, got {value}")
    return value


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
    states: np.ndarray, operator: np.ndarray, block: np.ndarray, tau: float, norm: float
) -> np.ndarray:
    """Apply exp(-i (H + noise) tau) in place to each batch column by a machine-precision series.

    ``states`` is the batch buffer, shape (2r + 2v, batch): the real and
    the imaginary plane of the reduced states, r rows each with the v
    noisy rows first, then 2v spare rows. ``block`` holds each column's
    noise couplings over the noisy rows, shape (v, v, batch); ``norm``
    bounds ||H + noise|| over the columns. The step is taken in the
    fewest equal substeps whose bound rho = norm * tau / s is within
    _SUBSTEP_RHO, each summed to the K terms that _term_count takes for
    rho. The columns are unit vectors, so every entry of each dropped
    tail is below 1e-17, which keeps the step unitary to well under
    1e-12.

    Horner's rule sums a substep as p <- start - i (tau / k) A p for
    k = K..1. ``operator`` is [[0, H, 0, E], [-H, 0, -E, 0]] over the
    buffer's rows, with H the reduced Hamiltonian and E the (r, v)
    inclusion of the noisy rows: once the block has written N p into
    the spare rows, (tau / k) times it maps the buffer to -i (tau / k) A p,
    since -i swaps the planes and negates one, (re, im) -> (im, -re).
    The scaled operators are made _OPERATOR_BUDGET floats at a time.
    """
    rho = norm * tau
    substeps = math.ceil(rho / _SUBSTEP_RHO) if _SUBSTEP_RHO < rho < math.inf else 1
    tau /= substeps
    k_max = _term_count(rho / substeps)
    r2, v, batch = len(operator), len(block), states.shape[1]
    top = states[:r2]
    noisy = top.reshape(2, r2 // 2, batch)[:, :v]
    spare = states[r2:].reshape(2, v, batch)
    group = max(1, _OPERATOR_BUDGET // max(1, operator.size))
    start, kicked = np.empty_like(top), np.empty_like(top)
    for _ in range(substeps):
        np.copyto(start, top)
        for high in range(k_max, 0, -group):
            scales = tau / np.arange(high, max(high - group, 0), -1)
            for term in operator * scales[:, np.newaxis, np.newaxis]:
                np.einsum("ijb,cjb->cib", block, noisy, out=spare)
                np.matmul(term, states, out=kicked)
                np.add(start, kicked, out=top)
    return states


def _term_operator(h: np.ndarray, v: int) -> np.ndarray:
    """[[0, H, 0, E], [-H, 0, -E, 0]] for a real (r, r) H whose first v rows are the noisy ones.

    H is symmetrized, so the step it drives is unitary to rounding.
    """
    r = len(h)
    operator = np.zeros((2 * r, 2 * r + 2 * v))
    operator[:r, r : 2 * r] = 0.5 * (h + h.T)
    operator[r:, :r] = -operator[:r, r : 2 * r]
    operator[:v, 2 * r + v :] = np.eye(v)
    operator[r : r + v, 2 * r : 2 * r + v] = -np.eye(v)
    return operator


def _closure(h: np.ndarray, h_norm: float, basis: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Extend the orthonormal columns of ``basis`` to the smallest H-invariant space holding ``seed``.

    The seed's columns are at most unit length. Each round takes the
    images under H of the directions the last round added, removes the
    basis from them twice (classical Gram-Schmidt), and keeps what is
    left above _DEFLATION of its scale, one column at a time; it stops
    when a round adds nothing. A basis column that is a unit vector
    e_j leaves row j of every added direction exactly zero.
    """
    block, scale = seed, 1.0
    while block.shape[1]:
        for _ in range(2):
            block = block - basis @ (basis.T @ block)
        fresh: list[np.ndarray] = []
        for vec in block.T:
            for _ in range(2):
                for q in fresh:
                    vec = vec - (q @ vec) * q
            size = np.linalg.norm(vec)
            if size > _DEFLATION * scale:
                fresh.append(vec / size)
        added = np.array(fresh).reshape(len(fresh), len(h)).T
        basis = np.hstack((basis, added))
        block, scale = h @ added, h_norm
    return basis


@dataclass(frozen=True, eq=False)
class _Subspace:
    """The start state split over W, the H-closure of the noisy rows, and its complement.

    ``edges`` and ``h_norm`` give each step's noise and norm bound.
    ``basis`` is a real orthonormal basis Q of W, shape (dim, r), whose
    first v columns are the unit vectors of the noisy rows, so the
    noise block acts on the first v reduced rows; ``operator`` is the
    (2r, 2r + 2v) term operator of _taylor_step for Q^T H Q, and
    ``start`` the buffer rows of Q^T psi0. The part of psi0 outside W
    evolves as psi_perp(t) = psi_perp + U (exp(-i E t) - 1) U^T psi_perp,
    with U the eigenvectors and E the eigenvalues of H on the
    H-closure of psi_perp (``modes``, ``energies`` and, for U^T psi_perp,
    ``weights``). A state is read as psi0 + Q (x - x0) + that shift, so
    a time of zero steps returns psi0 as given.
    """

    edges: _EdgeBlock
    h_norm: float
    psi0: np.ndarray
    basis: np.ndarray
    operator: np.ndarray
    start: np.ndarray
    modes: np.ndarray
    energies: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, h: np.ndarray, h_norm: float, spec: NoiseSpec, psi0: np.ndarray) -> _Subspace:
        edges = _EdgeBlock.of(spec, len(h))
        dim, v = len(h), len(edges.rates)
        noisy_rows = np.eye(dim, v, -edges.rows.start)
        basis = _closure(h, h_norm, np.empty((dim, 0)), noisy_rows)
        r = basis.shape[1]
        operator = _term_operator(basis.T @ h @ basis, v)
        x0 = basis.T @ psi0
        perp = psi0 - basis @ x0
        closure = _closure(h, h_norm, basis, np.stack((perp.real, perp.imag), axis=1))[:, r:]
        energies, vectors = np.linalg.eigh(closure.T @ h @ closure)
        modes = closure @ vectors
        start = np.concatenate((x0.real, x0.imag))[:, np.newaxis]
        weights = modes.T @ perp
        return cls(edges, h_norm, psi0, basis, operator, start, modes, energies, weights)

    def buffer(self, batch: int) -> np.ndarray:
        """The batch buffer of _taylor_step with every column at psi0."""
        states = np.zeros((self.operator.shape[1], batch))
        states[: len(self.start)] = self.start
        return states

    def rows(self, states: np.ndarray, t: float) -> np.ndarray:
        """The (batch, dim) complex states of a buffer stepped to time t."""
        r, batch = self.basis.shape[1], states.shape[1]
        delta = states[: 2 * r] - self.start
        re, im = self.basis @ delta.reshape(2, r, batch)
        shift = self.modes @ (np.expm1(-1j * self.energies * t) * self.weights)
        return (re + 1j * im).T + (self.psi0 + shift)


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
    space: _Subspace,
    times: Sequence[float],
    dt: float,
    rngs: list[np.random.Generator],
) -> Iterator[tuple[int, np.ndarray]]:
    """Step a batch from psi0 once up to the latest time, yielding (index, states) at each time.

    The batch has one trajectory per stream of ``rngs`` and is stepped
    in the reduced buffer of ``space``; each yield is the batch as
    complex rows, shape (batch, dim). A time that is a whole number n of
    steps yields the states as they stand. Any other time applies a tail
    step to a copy of the states, driven by noise row n at the variance
    of the tail's own length; the main path then takes row n at the
    full-step variance. A trajectory run to that time alone draws the
    same row as its tail, so every time gets the bytes of an independent
    single-time run.
    """
    marks = sorted((*_split_horizon(t, dt), i) for i, t in enumerate(times))
    n_rows = max(n_full + (remainder > 0) for n_full, remainder, _ in marks)
    noise = _noise_rows(rngs, n_rows, len(space.edges.first))
    block = np.zeros((*space.edges.rates.shape, len(rngs)))
    states = space.buffer(len(rngs))

    def advance(states: np.ndarray, normals: np.ndarray, tau: float) -> np.ndarray:
        norm = space.h_norm + space.edges.fill(block, normals, tau)
        return _taylor_step(states, space.operator, block, tau, norm)

    step, row = 0, next(noise, None)
    for n_full, remainder, i in marks:
        while step < n_full:
            advance(states, row, dt)
            step, row = step + 1, next(noise, None)
        stepped = advance(states.copy(), row, remainder) if remainder else states
        yield i, space.rows(stepped, n_full * dt + remainder)


def _validated(hamiltonian: np.ndarray, spec: NoiseSpec, dt: float, psi0: np.ndarray) -> _Subspace:
    """Check the inputs of a run; return psi0 split over the subspace the noise reaches.

    The step bounds eta * dt <= 0.05 and ||H|| * dt <= 0.05 keep the
    Taylor series of every step short.
    """
    h = require_hermitian(hamiltonian)
    if np.iscomplexobj(h) and np.any(h.imag):
        raise ValueError("hamiltonian must be real: the kernel applies it as a real matrix")
    h = np.ascontiguousarray(h.real, dtype=float)
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    eta_max = spec.max_strength()
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
    return _Subspace.of(h, h_norm, spec, psi0)


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
    space = _validated(hamiltonian, spec, dt, psi0)
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    rng = _stream(_require_key(seed, "seed"), _require_key(stream_index, "stream_index"))
    [(_, states)] = _sweep(space, [t], dt, [rng])
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
    space = _validated(hamiltonian, plan.noise, plan.dt, psi0)
    grid = [plan.t_final] if times is None else [float(t) for t in times]
    if not grid or not all(0.0 <= t <= plan.t_final for t in grid):
        raise ValueError(f"times must be a nonempty list within [0, t_final = {plan.t_final}]")
    dim = len(space.psi0)
    first = np.zeros((len(grid), dim, dim), dtype=complex)
    second = np.zeros((len(grid), dim, dim))
    for start in range(0, plan.n_traj, _BATCH):
        stop = min(start + _BATCH, plan.n_traj)
        rngs = [_stream(plan.master_seed, j) for j in range(start, stop)]
        for i, states in _sweep(space, grid, plan.dt, rngs):
            first[i] += states.T @ states.conj()
            pops = np.abs(states) ** 2
            second[i] += pops.T @ pops
    # the sums become the means and the standard errors in place
    first /= plan.n_traj
    second /= plan.n_traj
    for mean, variance in zip(first, second):
        variance -= np.abs(mean) ** 2
    np.maximum(second, 0.0, out=second)
    second /= plan.n_traj
    np.sqrt(second, out=second)
    results = [EnsembleResult(NetworkState(m), e, plan.n_traj) for m, e in zip(first, second)]
    return results[0] if times is None else results
