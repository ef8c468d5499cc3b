"""Monte Carlo unraveling of the white-noise couplings.

Each noisy pair e = (k, l) of the complete graph carries white noise of
strength eta_e on its hopping operator V_e = |k><l| + |l><k|. Over a step
dt its coupling integrates to an angle theta_e = xi_e sqrt(2 eta_e dt),
xi_e an independent standard normal, and a trajectory takes the step as
the Strang split

    e^{-iH dt/2} . prod_e exp(-i theta_e V_e) . e^{-iH dt/2},

every factor in closed form. A rotation by a Gaussian angle averages to
E[exp(-i theta ad_V)] = exp(-eta dt ad_V^2), exactly that pair's
dissipator over dt, and the factors read independent normals, so the
ensemble-mean map of a step is the product of the factors' means: a
Strang splitting of the Lindblad semigroup (Strang, SIAM J. Numer.
Anal. 5, 506, 1968), second order in dt. The tests compute that mean
exactly, with no sampling, and hold both the master equation and the
samples to it. The module exists as an independent oracle for
:mod:`spinnet.lindblad`, so it shares no integration code with it.

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
stepped in a real orthonormal basis Q of W, v + 1 rows at any n;
psi_perp, the part of psi0 outside W, is its constant vacuum entry plus
an eigenvector of H at energy -1, so it moves by a phase, the same in
every trajectory, added exactly at each readout (see _Subspace).

Step: in the reduced coordinates H = s s^T - I with |s|^2 = n, so
e^{-iH tau} = e^{i tau} (I + (e^{-i n tau} - 1) s s^T / n) is one fixed
r x r matrix, applied to a batch as one real product. The half-steps of
consecutive steps merge into one product with e^{-iH dt}; a readout
applies the last half-step to the states it reads. A rotation touches
only its pair's two rows: cos theta on both, and -i sin theta across.
Both come from t = tan(theta/2), as sin theta = 2t/(1 + t^2) and
cos theta = 2/(1 + t^2) - 1: numpy's float64 tan is SIMD where its cos
and sin are scalar (2, 11 and 16 ns an element on an AVX-512 Xeon), so
one tangent and four arithmetic passes cost less than the two.
The pairs are grouped into matchings by the round-robin edge colouring
of K_v, at most v of them (_matchings); the rotations of one matching
commute, so each matching is one vectorised update of its rows. A batch
is one real buffer of columns, the real and the imaginary plane of the
reduced states, r rows each, with the first matching's rows first, so
that it is updated in place on a view.

Time grids: an ensemble read at many times steps each batch once, up
to the latest time, and takes the moments at every time on the way. Its
one result carries a leading time axis: the means at every time, checked
as one lindblad.DenseStates, and their standard errors.
Each time gets the bytes of an independent single-time ensemble, on
any grid: a time n dt + tau between step boundaries is reached by a
tail step e^{-iH tau/2} R e^{-iH tau/2} on a copy of the states, its
rotations on noise row n as drawn, at the angle variance of tau, as a
single-time run to that time takes them. Noise is drawn a bounded
number of steps at a time: at most 256, and at most 2**18 normals over
the batch (one step where that alone is more). The drawn normals are
never written: the cosines and sines of at most 16 steps of them are
taken into two more buffers, and such a slab of steps ends at each
time, so a tail step or a readout holds only the chunk and the tail's
own row. So a batch holds at most three times a drawn chunk of noise,
which grows with neither the horizon nor the number of noisy edges;
where one step's noise alone is over the budget (n = 40, m = 38 at
2,048 trajectories), that is three steps' worth, and a tail step holds
no more.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

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

# Steps whose rotations' cosines and sines are taken at once, at most,
# within one drawn chunk. Numpy's per-call cost is then a few per cent
# of the transcendentals, and the two buffers hold at most twice the
# chunk's normals.
_SLAB = 16


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


def _matchings(first: np.ndarray, second: np.ndarray, v: int) -> list[np.ndarray]:
    """The edges {first[e], second[e]} of a graph on vertices 0..v-1, by index, in matchings.

    The matchings are the colour classes of the round-robin colouring of
    K_v, restricted to the edges given. With w = v at odd v and v - 1 at
    even v, edge {i, j} has colour (i + j) mod w, except that at even v an
    edge {i, w} to the last vertex has colour 2i mod w. At a vertex i below
    w, the colours (i + j) mod w of its edges differ for each j, and
    2i mod w is the one colour that j = i would have given; at the vertex
    w, 2i mod w differs for each i, since w is odd. So no two edges at a
    vertex share a colour, and there are at most v colours. Classes come
    in order of colour, each edge in its order in the input.
    """
    w = v if v % 2 else v - 1
    low, high = np.minimum(first, second), np.maximum(first, second)
    colours = np.where(high == w, 2 * low, low + high) % max(w, 1)
    return [np.flatnonzero(colours == c) for c in np.unique(colours)]


@dataclass(frozen=True, eq=False)
class _Edges:
    """The noisy edges, grouped into matchings for their rotations.

    Reduced row j is the j-th noisy vertex in sorted order, the vertices
    being those on the spec's edges; the r reduced rows are those v, then
    the uniform rest unless every vertex is noisy. In the natural order
    of a batch buffer's 2r rows, row p r + j is reduced row j in plane p,
    real then imaginary (see _Subspace). ``order`` lists the edges' draw
    indices matching by matching, and ``rates`` their rates in that
    order. A matching's rows are its edges' first vertices, then their
    second ones, in the real plane, then the same in the imaginary plane.
    Buffer row i is natural row ``layout[i]``: the first matching's rows,
    then the others in natural order. Each entry of ``matchings`` is a
    slice of ``order`` and its edges' buffer rows, a slice for the first.
    """

    vertices: np.ndarray  # the noisy vertices, sorted
    order: np.ndarray
    rates: np.ndarray
    layout: np.ndarray
    matchings: list[tuple[slice, slice | np.ndarray]]

    @classmethod
    def of(cls, spec: NoiseSpec, n: int) -> _Edges:
        edges = spec.edge_strengths()
        vertices = sorted({v for edge in edges for v in edge})
        for vertex in vertices:
            if not 1 <= vertex <= n:
                raise ValueError(f"noisy vertex {vertex} outside 1..{n}")
        row = {vertex: j for j, vertex in enumerate(vertices)}
        first = np.array([row[k] for k, _ in edges], dtype=np.intp)
        second = np.array([row[l] for _, l in edges], dtype=np.intp)
        groups = _matchings(first, second, len(vertices))
        order = np.concatenate([np.zeros(0, dtype=np.intp), *groups])
        r = len(vertices) + (len(vertices) < n)
        # each matching's rows in the natural order, plane p's row j at p r + j
        natural = [np.concatenate((first[g], second[g], first[g] + r, second[g] + r)) for g in groups]
        head = natural[0] if natural else np.zeros(0, dtype=np.intp)
        layout = np.concatenate((head, np.setdiff1d(np.arange(2 * r), head)))
        position = np.argsort(layout)
        # the first matching's rows lead the buffer, so they are a slice
        at = [slice(0, len(head))] + [position[rows] for rows in natural[1:]]
        bounds = np.cumsum([0] + [len(g) for g in groups]).tolist()
        matchings = list(zip(map(slice, bounds, bounds[1:]), at))
        rates = np.array(list(edges.values()), dtype=float)[order]
        return cls(np.array(vertices, dtype=np.intp), order, rates, layout, matchings)

    def angles(self, normals: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of every rotation angle of a run of steps of length tau.

        ``normals`` is drawn noise, shape (batch, steps, edges), edges in
        draw order; it is read, never written. The angle theta of edge e
        is its normal times sqrt(2 eta_e tau), the integral of its
        coupling over the step. Each edge's half angles are written into
        the sine buffer, edge by edge, in matching order, and replaced by
        t = tan(theta / 2); the cosine buffer takes q = 2 / (1 + t^2),
        then sin theta = t q and cos theta = q - 1. Both have shape
        (steps, edges, batch).
        """
        batch, steps, _ = normals.shape
        sin = np.empty((steps, len(self.order), batch))
        halves = (np.sqrt(2.0 * self.rates * tau) / 2).tolist()
        for slot, (edge, half) in enumerate(zip(self.order.tolist(), halves)):
            np.multiply(normals[:, :, edge].T, half, out=sin[:, slot])
        np.tan(sin, out=sin)
        cos = np.square(sin)
        cos += 1.0
        np.divide(2.0, cos, out=cos)
        sin *= cos
        cos -= 1.0
        return cos, sin

    def rotate(self, states: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
        """Apply exp(-i theta_e V_e) for every edge e, matching by matching, in place.

        ``states`` is a (2r, batch) buffer of _Subspace; ``cos`` and
        ``sin`` hold one step's (edges, batch) values in matching order.
        On an edge's rows (a, b), x_a <- cos x_a - i sin x_b and
        x_b <- cos x_b - i sin x_a; with x = re + i im that is
        re_a <- cos re_a + sin im_b and im_a <- cos im_a - sin re_b, and
        the same with a and b swapped. Gathered as (plane, half, edge,
        batch), a matching's rows reversed in both plane and half are the
        (im_b, im_a, re_b, re_a) that the sines take. The first matching's
        rows are a slice, so it is updated on a view, whose store onto
        itself numpy skips; the others are gathered and scattered back.
        """
        batch = states.shape[1]
        for span, rows in self.matchings:
            gathered = states[rows]
            planes = gathered.reshape(2, 2, -1, batch)
            crossed = planes[::-1, ::-1] * sin[span]
            planes *= cos[span]
            planes[0] += crossed[0]
            planes[1] -= crossed[1]
            states[rows] = gathered


@dataclass(frozen=True, eq=False)
class _Subspace:
    """The start state split over W, the noisy vertices plus the uniform rest, and its complement.

    On the complete graph on n vertices, H = 1 1^T - I over the vertex
    rows, and the vacuum row is zero. Let the v noisy vertices be those
    on the spec's edges, sorted, and the c = n - v others the rest. The
    real orthonormal basis Q of W, shape (n + 1, r), holds the unit
    vectors e_j of the noisy vertices, then u = 1_rest / sqrt(c), left
    out when c = 0. With s = Q^T 1 = (1, ..., 1, sqrt(c)) and Q^T Q = I,

        Q^T H Q = s s^T - I = [[J_v - I_v, sqrt(c) 1], [sqrt(c) 1^T, c - 1]].

    |s|^2 = n, so with the projector P = s s^T / n,

        exp(-i Q^T H Q tau) = e^{i tau} (I + (e^{-i n tau} - 1) P),

    which ``propagator`` gives for any tau.
    H 1_rest = c 1 - 1_rest lies in W, so H keeps W, and the noise acts
    inside it. The rest of the start state, psi_perp = psi0 - Q Q^T psi0,
    keeps its vacuum entry, and its vertex entries sit on the rest and
    sum to zero there, so they are an eigenvector of H at -1:

        psi_perp(t) = psi_perp[0] |0> + e^{it} (psi_perp - psi_perp[0] |0>),

    the same for every trajectory; ``moving`` is that vertex part.
    A batch is held as a real buffer of columns, shape (2r, batch): the
    real and the imaginary plane of the reduced states, with the rows of
    the first matching first (``edges.layout``), so that its rotations
    update a view. ``propagator``, ``start`` and ``rows`` take that order:
    the propagator is P U P^T for U in the natural order and P the
    permutation. ``start`` is the column of Q^T psi0. A state is read as
    psi0 + Q (x - x0) + (e^{it} - 1) ``moving``, so a time of zero steps
    returns psi0 as given.
    """

    edges: _Edges
    n: int
    projector: np.ndarray
    psi0: np.ndarray
    basis: np.ndarray
    start: np.ndarray
    moving: np.ndarray

    @classmethod
    def of(cls, spec: NoiseSpec, psi0: np.ndarray) -> _Subspace:
        n = len(psi0) - 1
        edges = _Edges.of(spec, n)
        v = len(edges.vertices)
        rest = np.setdiff1d(np.arange(1, n + 1), edges.vertices)
        # s = Q^T 1: one per noisy vertex, then sqrt(c) for u, left out at c = 0
        s = np.sqrt([1.0] * v + [len(rest)] * (len(rest) > 0))
        basis = np.zeros((n + 1, len(s)))
        basis[edges.vertices, np.arange(v)] = 1.0
        basis[rest, v:] = 1.0 / s[v:]
        x0 = basis.T @ psi0
        moving = psi0 - basis @ x0
        moving[0] = 0.0
        start = np.concatenate((x0.real, x0.imag))[edges.layout, np.newaxis]
        return cls(edges, n, np.outer(s, s) / n, psi0, basis, start, moving)

    def propagator(self, tau: float) -> np.ndarray:
        """exp(-i Q^T H Q tau) = A + iB, the real matrix [[A, -B], [B, A]] in the buffer's row order."""
        r = len(self.projector)
        u = np.exp(1j * tau) * (np.eye(r) + np.expm1(-1j * self.n * tau) * self.projector)
        real = np.empty((2 * r, 2 * r))
        real[:r, :r] = real[r:, r:] = u.real
        real[:r, r:] = -u.imag
        real[r:, :r] = u.imag
        return real[np.ix_(self.edges.layout, self.edges.layout)]

    def buffer(self, batch: int) -> np.ndarray:
        """A batch buffer with every column at psi0."""
        return np.repeat(self.start, batch, axis=1)

    def rows(self, states: np.ndarray, t: float) -> np.ndarray:
        """The (batch, n + 1) complex states of a buffer at time t."""
        r, batch = self.basis.shape[1], states.shape[1]
        delta = np.empty_like(states)
        delta[self.edges.layout] = states - self.start
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
    in a reduced buffer of ``space``; each yield is the batch as complex
    rows, shape (batch, dim). Step j is e^{-iH dt/2} R_j e^{-iH dt/2},
    R_j the rotations on noise row j. The main path merges the half-steps
    between consecutive steps into one product with e^{-iH dt}, so after
    n >= 1 steps it holds the states one half-step short, and a readout
    applies that half-step. A time that is a whole number n of steps
    yields the states so completed. Any other time, n dt + tau, takes a
    tail step e^{-iH tau/2} R e^{-iH tau/2} into the spare buffer, its
    first half merged with the pending one and R on noise row n as
    drawn, at the angle variance of tau; the main path takes row n at
    the full step. A trajectory run to that time alone draws the same
    row for its tail, so every time gets the bytes of an independent
    single-time run.
    """
    marks = sorted((*_split_horizon(t, dt), i) for i, t in enumerate(times))
    n_rows = max(n_full + (remainder > 0) for n_full, remainder, _ in marks)
    edges = space.edges
    noise = _noise_rows(rngs, n_rows, len(edges.order))
    full, half = space.propagator(dt), space.propagator(dt / 2)
    states = space.buffer(len(rngs))
    spare = np.empty_like(states)
    # `drawn` is the latest chunk of noise, from row `low` on
    low, drawn, step = 0, None, 0

    def noise_from(row: int) -> np.ndarray:
        nonlocal low, drawn
        while drawn is None or row >= low + drawn.shape[1]:
            low += 0 if drawn is None else drawn.shape[1]
            drawn = next(noise)
        return drawn[:, row - low :]

    for n_full, remainder, i in marks:
        while step < n_full:
            # a slab of rotations ends at the time, so that its tail and
            # its readout do not hold it
            cos, sin = edges.angles(noise_from(step)[:, : min(_SLAB, n_full - step)], dt)
            for k in range(len(cos)):
                np.matmul(full if step else half, states, out=spare)
                states, spare = spare, states
                edges.rotate(states, cos[k], sin[k])
                step += 1
            del cos, sin
        t = n_full * dt + remainder
        pending = dt / 2 if n_full else 0.0
        if remainder:
            tail_cos, tail_sin = edges.angles(noise_from(n_full)[:, :1], remainder)
            np.matmul(space.propagator(pending + remainder / 2), states, out=spare)
            edges.rotate(spare, tail_cos[0], tail_sin[0])
            # dropped before the readout and the steps after it
            del tail_cos, tail_sin
            yield i, space.rows(space.propagator(remainder / 2) @ spare, t)
        else:
            yield i, space.rows(half @ states if pending else states, t)


def check_step(spec: NoiseSpec, n: int, dt: float) -> None:
    """Reject a step dt too coarse for the noise or for the complete graph on n vertices.

    The bounds eta * dt <= 0.05, eta the largest rate of ``spec``, and
    ||H|| * dt <= 0.05, with ||H|| = n - 1, limit the time-step error of
    the split step, whose ensemble mean is second order in dt. With both
    at 0.05, the exact mean of the engine at t = 1 from the probe state
    differs from the master equation by at most 1.5e-5 at (n, m, eta) =
    (4, 2, 3), 1.4e-4 at (6, 4, 5) and 7.2e-4 at (11, 9, 10); the error
    falls fourfold per halving of dt.
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
            # the sweep steps on when the loop asks for the next time, so
            # the rows of this one are dropped first, not held as it steps
            del states, pops
    # the sums become the means and the standard errors in place
    first /= plan.n_traj
    second /= plan.n_traj
    for mean, variance in zip(first, second):
        variance -= np.abs(mean) ** 2
    np.maximum(second, 0.0, out=second)
    second /= plan.n_traj
    np.sqrt(second, out=second)
    return EnsembleResult(DenseStates(grid, first), second, plan.n_traj)
