"""Monte Carlo unraveling of the white-noise couplings.

Each trajectory integrates the Schrodinger equation under the complete
graph's Hamiltonian plus piecewise-constant random edge couplings, one
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

Reduction: the network is the complete graph on n = len(psi0) - 1
vertices, H = J - I on the vertices, with the vacuum row zero. The
noise couples only the v noisy vertices, so it maps every state into
the span of their rows and annihilates the rest. W adds to those rows
the uniform vector over the other vertices; H keeps W and its
complement, so every trajectory is Q psi_W(t) + psi_perp(t). psi_W is
stepped in a real orthonormal basis Q of W under Q^T H Q plus the
noise, v + 1 rows at any n; psi_perp, the part of psi0 outside W, is
its constant vacuum entry plus an eigenvector of H at energy -1, so it
moves by a phase, the same in every trajectory, added exactly at each
readout (see _Subspace).

Kernel: the reduced H is real, so a batch is held as one real buffer
of columns: the real and the imaginary plane of the reduced states, r
rows each with the noisy rows first, then 2v spare rows. Each step's
couplings fill one symmetric block over the noisy vertices, shape
(v, v, batch), whatever the number of noisy edges. A Taylor term is
three numpy calls: one contraction writes the block times the noisy
rows into the spare rows, one real product applies tau H, the noise
rows, 1/k and -i together, and one add puts back the start. The
series is summed by Horner's rule with a term count fixed beforehand
from a bound on ||H + noise||, so that every entry of the dropped tail
is below 1e-17; a step whose bound would need more than 80 terms (a
dense noisy set near the step limits) is taken in equal substeps. As
in Al-Mohy and Higham's action of the exponential (SIAM J. Sci.
Comput. 33, 488, 2011), the degree comes from norm bounds before any
stepping: the couplings, bounds, term and substep counts of a whole
drawn chunk of steps are made in a few array passes, and its scaled
operators once, so a step's own work is placing its couplings and its
Taylor terms. The block covers exactly the noisy vertices, so it holds
about twice one step's normals, and where one step's noise alone is
over the draw budget (n = 40, m = 38 at 2,048 trajectories), a batch
stays within four steps' worth of normals, and one step more while a
row waits for the tail step of a time between step boundaries.

Time grids: an ensemble read at many times steps each batch once, up
to the latest time, and takes the moments at every time on the way. Its
one result carries a leading time axis: the means at every time, checked
as one lindblad.DenseStates, and their standard errors.
Each time gets the bytes of an independent single-time ensemble, on
any grid: a time between step boundaries is reached by a tail step, a
run of one step at the tail's own length, on a copy of the states and
on the noise row a single-time run would draw there, kept aside as
drawn. Noise is drawn a bounded number of steps at a time: at most 256,
and at most 2**18 normals over the batch (one step where that alone is
more), so the noise held per batch grows with neither the horizon nor
the number of noisy edges; it is scaled to couplings where it was drawn.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .lindblad import DenseStates
from .network import NoiseSpec

__all__ = [
    "TrajectoryPlan",
    "EnsembleResult",
    "evolve_trajectory",
    "ensemble_average",
    "check_step",
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
# step, whatever the horizon or the number of noisy edges. At 2,000
# trajectories on one edge a draw call fills 131 steps.
_NOISE_BUDGET = 2**18

# Terms of one Taylor series, at most.
_MAX_TAYLOR_TERMS = 80

# Largest norm bound rho = ||H + noise|| * tau that one series sums:
# _term_counts gives 77 at 18.0. A step with a larger bound, as a dense
# noisy set gives (rho is about 21 at n = 70, m = 68 at the step
# limits), is split into the fewest equal substeps within it.
_SUBSTEP_RHO = 18.0

# Sums of squared couplings held at once while the norm bounds of a run
# of steps are found: a few columns of the batch at a time (one at the
# least), never a second copy of the run's noise.
_SQUARES_BUDGET = 2**15


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
    """Trajectory-averaged density matrices with per-entry standard errors, one per time.

    ``rho_mean`` holds the means at every time as one checked stack;
    ``std_err`` has the same (times, n + 1, n + 1) shape.
    """

    rho_mean: DenseStates
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
    through float64, so adjacent seeds there share a key. Passed as
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
    """The noisy edges as one symmetric block over the noisy vertices.

    Row j of the block is the j-th noisy vertex in sorted order, the
    vertices being those on the spec's edges. A step's couplings fill a
    real (v, v, batch) block, each edge at its two mirrored places, so
    the noise of a Taylor term is one contraction over the block
    whatever the number of edges.
    """

    vertices: np.ndarray  # the noisy vertices, sorted
    first: np.ndarray  # block row of each edge's first vertex, in draw order
    second: np.ndarray  # and of its second
    rates: np.ndarray  # each edge's rate, in draw order

    @classmethod
    def of(cls, spec: NoiseSpec, n: int) -> _EdgeBlock:
        edges = spec.edge_strengths()
        vertices = sorted({v for edge in edges for v in edge})
        for vertex in vertices:
            if not 1 <= vertex <= n:
                raise ValueError(f"noisy vertex {vertex} outside 1..{n}")
        row = {vertex: j for j, vertex in enumerate(vertices)}
        first = np.array([row[k] for k, _ in edges], dtype=np.intp)
        second = np.array([row[l] for _, l in edges], dtype=np.intp)
        rates = np.array(list(edges.values()), dtype=float)
        return cls(np.array(vertices, dtype=np.intp), first, second, rates)

    def couple(self, normals: np.ndarray, tau: float) -> np.ndarray:
        """Scale a run of steps' normals in place to couplings; return each step's norm bound.

        ``normals`` holds the run, shape (batch, steps, edges), and each
        coupling is a normal times sqrt(2 eta / tau). A step's bound holds
        for every column's noise matrix N: N is symmetric with zero trace,
        so ||N||^2 <= (1 - 1/v) ||N||_F^2, which is exact for a single
        edge; ||N||_F^2 is twice the sum of the column's squared
        couplings. The squares are summed over the edges in draw order,
        on _SQUARES_BUDGET sums of columns at a time, so they hold no
        second copy of the run.
        """
        normals *= np.sqrt(2.0 * self.rates / tau)
        batch, steps, n_edges = normals.shape
        largest = np.zeros(steps)
        columns = max(1, _SQUARES_BUDGET // max(1, steps))
        for low in range(0, batch, columns):
            part = normals[low : low + columns]
            squares = np.zeros(part.shape[:2])
            for e in range(n_edges):
                squares += part[:, :, e] * part[:, :, e]
            np.maximum(largest, squares.max(axis=0), out=largest)
        v = len(self.vertices)
        return np.sqrt(2.0 * largest * max(v - 1, 0) / max(v, 1))

    def place(self, block: np.ndarray, couplings: np.ndarray) -> None:
        """Write one step's couplings, shape (edges, batch), at their two places in ``block``."""
        block[self.first, self.second] = couplings
        block[self.second, self.first] = couplings


def _term_counts(rho: np.ndarray) -> np.ndarray:
    """Least K, for each entry of a 1-d ``rho``, with the Taylor tail sum_{k > K} rho^k / k! below 1e-17.

    Column k of the table is the tail's first term rho^(k+1) / (k+1)!,
    a running product over k, for k up to _MAX_TAYLOR_TERMS.
    """
    rho = rho[:, np.newaxis]
    k = np.arange(_MAX_TAYLOR_TERMS + 1)
    terms = np.multiply.accumulate(rho / (k + 1), axis=1)
    # the tail is at most its first term over 1 - rho / (k + 2)
    done = (rho < k + 2) & (terms < 1e-17 * (1.0 - rho / (k + 2)))
    if not done.any(axis=1).all():
        raise RuntimeError("numeric failure: step exponential did not converge")
    return done.argmax(axis=1)


@dataclass(eq=False)
class _Run:
    """Steps of one length tau prepared at once, the next one first.

    Each step is its couplings, shape (edges, batch), its substep count
    and its term count. ``stacks`` keeps the scaled operators made for
    the run, one stack over k per substep count.
    """

    tau: float
    steps: list[tuple[np.ndarray, int, int]]
    stacks: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class _Kernel:
    """Applies exp(-i (H + noise) tau) in place to each batch column by a machine-precision series.

    A batch buffer has shape (2r + 2v, batch): the real and the
    imaginary plane of the reduced states, r rows each with the v noisy
    rows first, then 2v spare rows. ``operator`` is [[0, H, 0, E],
    [-H, 0, -E, 0]] over the buffer's rows, with H the reduced
    Hamiltonian, ||H|| = ``h_norm``, and E the (r, v) inclusion of the
    noisy rows. ``block`` holds the couplings of the step being taken.

    A run of drawn steps is prepared at once (``prepare``); a step then
    only places its couplings and sums its series (``advance``). Horner's
    rule sums a substep as p <- start - i (tau / k) A p for k = K..1:
    once the block has written N p into the spare rows, (tau / k) times
    ``operator`` maps the buffer to -i (tau / k) A p, since -i swaps the
    planes and negates one, (re, im) -> (im, -re).
    """

    edges: _EdgeBlock
    operator: np.ndarray
    h_norm: float
    block: np.ndarray

    @classmethod
    def of(cls, edges: _EdgeBlock, operator: np.ndarray, h_norm: float, batch: int) -> _Kernel:
        v = len(edges.vertices)
        return cls(edges, operator, h_norm, np.zeros((v, v, batch)))

    def prepare(self, normals: np.ndarray, tau: float) -> _Run:
        """The run of one step of length tau per noise row of ``normals``, shape (batch, steps, edges).

        The normals are scaled in place to couplings. Each step is taken
        in the fewest equal substeps whose bound rho = ||H + noise|| tau / s
        is within _SUBSTEP_RHO, each summed to the K terms that
        _term_counts takes for rho. The columns are unit vectors, so
        every entry of each dropped tail is below 1e-17, which keeps the
        step unitary to well under 1e-12.
        """
        rho = (self.h_norm + self.edges.couple(normals, tau)) * tau
        substeps = np.maximum(np.ceil(rho / _SUBSTEP_RHO), 1.0)
        counts = _term_counts(rho / substeps)
        steps = zip(normals.transpose(1, 2, 0), substeps.astype(int).tolist(), counts.tolist())
        return _Run(tau, list(steps))

    def advance(self, states: np.ndarray, run: _Run, count: int) -> np.ndarray:
        """Take the next ``count`` steps of ``run`` in place on ``states``, and drop them from it."""
        steps, run.steps = run.steps[:count], run.steps[count:]
        r2, v, batch = len(self.operator), len(self.block), states.shape[1]
        start, kicked = np.empty((2, r2, batch))
        top = states[:r2]
        noisy = top.reshape(2, r2 // 2, batch)[:, :v]
        spare = states[r2:].reshape(2, v, batch)
        for couplings, s, k_max in steps:
            self.edges.place(self.block, couplings)
            terms = self._terms(run, s, k_max)
            for _ in range(s):
                np.copyto(start, top)
                for term in terms:
                    np.einsum("ijb,cjb->cib", self.block, noisy, out=spare)
                    np.matmul(term, states, out=kicked)
                    np.add(start, kicked, out=top)
        return states

    def _terms(self, run: _Run, substeps: int, k_max: int) -> np.ndarray:
        """(tau / substeps / k) ``operator`` for k = k_max..1, from the stack kept for ``substeps``."""
        stack = run.stacks.get(substeps)
        if stack is None or len(stack) < k_max:
            scales = (run.tau / substeps) / np.arange(1, k_max + 1)
            stack = run.stacks[substeps] = self.operator * scales[:, np.newaxis, np.newaxis]
        return stack[:k_max][::-1]


def _term_operator(h: np.ndarray, v: int) -> np.ndarray:
    """[[0, H, 0, E], [-H, 0, -E, 0]] for a real symmetric (r, r) H, noisy rows first."""
    r = len(h)
    operator = np.zeros((2 * r, 2 * r + 2 * v))
    operator[:r, r : 2 * r] = h
    operator[r:, :r] = -h
    operator[:v, 2 * r + v :] = np.eye(v)
    operator[r : r + v, 2 * r : 2 * r + v] = -np.eye(v)
    return operator


@dataclass(frozen=True, eq=False)
class _Subspace:
    """The start state split over W, the noisy vertices plus the uniform rest, and its complement.

    On the complete graph on n vertices, H = 1 1^T - I over the vertex
    rows, and the vacuum row is zero. Let the v noisy vertices be those
    on the spec's edges, sorted, and the c = n - v others the rest. The
    real orthonormal basis Q of W, shape (n + 1, r), holds the unit
    vectors e_j of the noisy vertices, then u = 1_rest / sqrt(c), left
    out when c = 0. With s = Q^T 1 = (1, ..., 1, sqrt(c)) and Q^T Q = I,

        Q^T H Q = s s^T - I = [[J_v - I_v, sqrt(c) 1], [sqrt(c) 1^T, c - 1]],

    and ||H|| = n - 1 (the spectrum is n - 1 once and -1 n - 1 times),
    which enters the norm bound of each step.
    H 1_rest = c 1 - 1_rest lies in W, so H keeps W, and the noise acts
    inside it. The rest of the start state, psi_perp = psi0 - Q Q^T psi0,
    keeps its vacuum entry, and its vertex entries sit on the rest and
    sum to zero there, so they are an eigenvector of H at -1:

        psi_perp(t) = psi_perp[0] |0> + e^{it} (psi_perp - psi_perp[0] |0>),

    the same for every trajectory; ``moving`` is that vertex part.
    ``operator`` is the (2r, 2r + 2v) term operator of _Kernel for
    Q^T H Q, so the noise block acts on the first v reduced rows, and
    ``start`` the buffer rows of Q^T psi0. A state is read as
    psi0 + Q (x - x0) + (e^{it} - 1) ``moving``, so a time of zero steps
    returns psi0 as given.
    """

    edges: _EdgeBlock
    h_norm: float
    psi0: np.ndarray
    basis: np.ndarray
    operator: np.ndarray
    start: np.ndarray
    moving: np.ndarray

    @classmethod
    def of(cls, spec: NoiseSpec, psi0: np.ndarray) -> _Subspace:
        n = len(psi0) - 1
        edges = _EdgeBlock.of(spec, n)
        v = len(edges.vertices)
        rest = np.setdiff1d(np.arange(1, n + 1), edges.vertices)
        # s = Q^T 1: one per noisy vertex, then sqrt(c) for u, left out at c = 0
        s = np.sqrt([1.0] * v + [len(rest)] * (len(rest) > 0))
        basis = np.zeros((n + 1, len(s)))
        basis[edges.vertices, np.arange(v)] = 1.0
        basis[rest, v:] = 1.0 / s[v:]
        operator = _term_operator(np.outer(s, s) - np.eye(len(s)), v)
        x0 = basis.T @ psi0
        moving = psi0 - basis @ x0
        moving[0] = 0.0
        start = np.concatenate((x0.real, x0.imag))[:, np.newaxis]
        return cls(edges, float(n - 1), psi0, basis, operator, start, moving)

    def buffer(self, batch: int) -> np.ndarray:
        """The batch buffer of _Kernel with every column at psi0."""
        states = np.zeros((self.operator.shape[1], batch))
        states[: len(self.start)] = self.start
        return states

    def rows(self, states: np.ndarray, t: float) -> np.ndarray:
        """The (batch, n + 1) complex states of a buffer stepped to time t."""
        r, batch = self.basis.shape[1], states.shape[1]
        delta = states[: 2 * r] - self.start
        re, im = self.basis @ delta.reshape(2, r, batch)
        return (re + 1j * im).T + (self.psi0 + np.expm1(1j * t) * self.moving)


def _split_horizon(t: float, dt: float) -> tuple[int, float]:
    n_full = int(math.floor(t / dt + 1e-12))
    remainder = t - n_full * dt
    if remainder < 1e-12 * max(t, dt):
        remainder = 0.0
    return n_full, remainder


def _noise_rows(
    rngs: list[np.random.Generator], n_rows: int, n_edges: int
) -> Iterator[np.ndarray]:
    """Yield the batch's standard normals a chunk of steps at a time, shape (batch, steps, edges).

    Each trajectory draws a chunk of steps per call into one reused
    buffer, so a yielded chunk is valid only until the next is requested.
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
        yield buffer[:, :rows]


def _sweep(
    space: _Subspace,
    times: Sequence[float],
    dt: float,
    rngs: list[np.random.Generator],
) -> Iterator[tuple[int, np.ndarray]]:
    """Step a batch from psi0 once up to the latest time, yielding (index, states) at each time.

    The batch has one trajectory per stream of ``rngs`` and is stepped
    in the reduced buffer of ``space``; each yield is the batch as
    complex rows, shape (batch, dim). Each drawn chunk of noise is
    prepared as one run of steps (see _Kernel.prepare). A time that is a
    whole number n of steps yields the states as they stand. Any other
    time applies a tail step to a copy of the states: a run of one step
    on noise row n as drawn, kept aside before its chunk was prepared,
    at the variance of the tail's own length; the main path takes row n
    at the full-step variance. A trajectory run to that time alone draws
    the same row as its tail, so every time gets the bytes of an
    independent single-time run.
    """
    marks = sorted((*_split_horizon(t, dt), i) for i, t in enumerate(times))
    n_rows = max(n_full + (remainder > 0) for n_full, remainder, _ in marks)
    # the main path steps rows 0..n_main - 1; tail steps read rows as drawn
    n_main = marks[-1][0]
    tail_rows = Counter(n_full for n_full, remainder, _ in marks if remainder)
    noise = _noise_rows(rngs, n_rows, len(space.edges.first))
    kernel = _Kernel.of(space.edges, space.operator, space.h_norm, len(rngs))
    states = space.buffer(len(rngs))
    # `run` holds the prepared steps of the latest chunk not yet taken, from
    # row `step` on, and `kept` the drawn rows a tail still reads: a copy
    # where the main path scales the row in place, else the row itself,
    # which is the last one drawn. The next chunk is drawn as soon as a
    # run is used up, so once the rows run out the noise buffer is freed
    # before the states are read.
    step, run, kept, drawn = 0, None, {}, next(noise, None)
    for n_full, remainder, i in marks:
        while step < n_full or (remainder and n_full not in kept):
            if run is None:
                for row in range(step, step + drawn.shape[1]):
                    if row in tail_rows:
                        normals = drawn[:, row - step : row - step + 1]
                        kept[row] = normals.copy() if row < n_main else normals
                run = kernel.prepare(drawn[:, : n_main - step], dt)
            taken = min(n_full - step, len(run.steps))
            kernel.advance(states, run, taken)
            step += taken
            if not run.steps:
                run, drawn = None, next(noise, None)
        stepped = states
        if remainder:
            tail_rows[n_full] -= 1
            normals = kept[n_full].copy() if tail_rows[n_full] else kept.pop(n_full)
            stepped = kernel.advance(states.copy(), kernel.prepare(normals, remainder), 1)
        yield i, space.rows(stepped, n_full * dt + remainder)


def check_step(spec: NoiseSpec, n: int, dt: float) -> None:
    """Reject a step dt too coarse for the noise or for the complete graph on n vertices.

    The bounds eta * dt <= 0.05, eta the largest rate of ``spec``, and
    ||H|| * dt <= 0.05, with ||H|| = n - 1, keep the Taylor series of
    every step short.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    eta_max = spec.max_strength()
    if eta_max * dt > 0.05:
        raise ValueError(f"eta * dt = {eta_max * dt:.3g} exceeds 0.05; shrink dt")
    if (n - 1) * dt > 0.05:
        raise ValueError(f"||H|| * dt = {(n - 1) * dt:.3g} exceeds 0.05; shrink dt")


def _validated(spec: NoiseSpec, dt: float, psi0: np.ndarray) -> _Subspace:
    """Check the inputs of a run; return psi0 split over the subspace the noise reaches.

    The network is the complete graph on len(psi0) - 1 vertices, and dt
    must pass ``check_step`` on it.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim != 1 or len(psi0) < 2:
        raise ValueError(f"state shape {psi0.shape} is not the vacuum plus n >= 1 vertices")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    check_step(spec, len(psi0) - 1, dt)
    return _Subspace.of(spec, psi0)


def evolve_trajectory(
    spec: NoiseSpec,
    psi0: np.ndarray,
    t: float,
    dt: float,
    seed: int,
    stream_index: int = 0,
) -> np.ndarray:
    """Integrate one noise realization, returning the endpoint state vector.

    The network is the complete graph on len(psi0) - 1 vertices. The
    final partial step (when t is not a multiple of dt) uses the
    variance matched to its own length.
    Passing the master seed of an ensemble together with a trajectory
    index reproduces that member's noise stream.
    """
    space = _validated(spec, dt, psi0)
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    rng = _stream(_require_key(seed, "seed"), _require_key(stream_index, "stream_index"))
    [(_, states)] = _sweep(space, [t], dt, [rng])
    return states[0]


def ensemble_average(
    plan: TrajectoryPlan,
    psi0: np.ndarray,
    times: Sequence[float] | None = None,
) -> EnsembleResult:
    """Average |psi><psi| over the planned trajectory ensemble on the complete graph.

    The network has len(psi0) - 1 vertices. Without ``times`` the
    ensemble is read at ``plan.t_final`` alone. With ``times`` (each in
    [0, plan.t_final]) every batch is stepped once, up to the latest of
    them, and the result holds one mean per time, in their order; each
    is bit-identical to the single-time ensemble at that time.

    Each batch's first moments and per-entry second moments are added to
    running sums, in batch order, as soon as the batch is done, so the
    memory held does not grow with ``plan.n_traj``. Standard errors come
    from the second moments.
    """
    space = _validated(plan.noise, plan.dt, psi0)
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
    return EnsembleResult(DenseStates(grid, first), second, plan.n_traj)
