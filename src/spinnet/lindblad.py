"""Noise-averaged master equation: dense and lumped engines, one channel readout.

Averaging the white-noise edge couplings gives a Lindblad equation
d rho/dt = -i[H, rho] + sum_edges r (L rho L - {L^2, rho}/2) with one
Hermitian hopping operator L = |k><l| + |l><k| per noisy pair {k, l}
at generator rate r = 2 eta_kl.

``LumpedLiouvillian`` serves every scalar-eta run (``fig1``-``fig3``,
``simulate --method lindblad`` with one rate, the curve helpers of
``analytics`` and ``perturbation``) and supplies the generators that
``perturbation.first_order_numeric`` differentiates in eta: by the
symmetry of the complete graph it evolves a 4-dimensional coherence
sector and an 18-dimensional population sector at any n.
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
        h = single_excitation_hamiltonian(self.n)
        eye = np.eye(dim)
        generator = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        # row[i, j] is the row of rho_ij in vec(rho)
        row = np.arange(dim)[:, None] + dim * np.arange(dim)
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
        # vec(rho) stacks the columns of rho, so each row reshapes to rho^T
        flat = _propagate(self.generator, np.outer(psi0, psi0.conj()).reshape(-1, order="F"), times)
        rho = flat.reshape(-1, dim, dim).transpose(0, 2, 1)
        # the exponential keeps Hermiticity only to rounding
        return DenseStates(times, 0.5 * (rho + rho.conj().transpose(0, 2, 1)))


# Kinds of single-excitation vertex: the input i, the output o, a clean
# vertex C and a noisy vertex N. An orbit of entries X_pq under the
# relabellings S_k x S_m is (row kind, column kind, same vertex).
_KINDS = "ioCN"
_ORBITS = (
    ("i", "i", True), ("i", "o", False), ("o", "i", False), ("o", "o", True),
    ("i", "C", False), ("C", "i", False), ("o", "C", False), ("C", "o", False),
    ("i", "N", False), ("N", "i", False), ("o", "N", False), ("N", "o", False),
    ("C", "C", True), ("C", "C", False), ("N", "N", True), ("N", "N", False),
    ("C", "N", False), ("N", "C", False),
)
_ORBIT = {orbit: j for j, orbit in enumerate(_ORBITS)}
_PARTNER = np.array([_ORBIT[q, p, same] for p, q, same in _ORBITS])
_OUT = _KINDS.index("o")
_IN_IN = _ORBIT["i", "i", True]
_OUT_OUT = _ORBIT["o", "o", True]


def _multiplicities(k: int, m: int) -> dict[str, int]:
    return {"i": 1, "o": 1, "C": k, "N": m}


def _rate(m: int, eta: float) -> float:
    # generator rate of each noisy edge, as in DenseLiouvillian; fewer
    # than two noisy vertices span no edge and leave no dissipator
    return 2.0 * eta if m >= 2 else 0.0


def _coherence_generator(k: int, m: int, eta: float) -> np.ndarray:
    """Generator of (c_i, c_o, c_C, c_N); see LumpedLiouvillian."""
    mult = np.array(list(_multiplicities(k, m).values()), dtype=float)
    a = np.ones((4, 1)) * mult - np.eye(4)
    return -1j * a - np.diag([0.0, 0.0, 0.0, _rate(m, eta) * (m - 1) / 2.0])


def _line_sum(kind: str, mult: dict[str, int], column: bool) -> np.ndarray:
    """Orbit coefficients of a column sum (or row sum) of X at a vertex of one kind."""
    out = np.zeros(len(_ORBITS))
    for other in _KINDS:
        if other == kind:
            out[_ORBIT[kind, kind, True]] += 1.0
            if kind in "CN":
                out[_ORBIT[kind, kind, False]] += mult[kind] - 1
        else:
            out[_ORBIT[(other, kind, False) if column else (kind, other, False)]] += mult[other]
    return out


def _population_generator(k: int, m: int, eta: float) -> np.ndarray:
    """Generator of the 18 orbit entries of X; see LumpedLiouvillian."""
    mult = _multiplicities(k, m)
    rate = _rate(m, eta)
    g = np.zeros((len(_ORBITS), len(_ORBITS)), dtype=complex)
    for j, (p, q, same) in enumerate(_ORBITS):
        g[j] = -1j * (_line_sum(q, mult, True) - _line_sum(p, mult, False))
        noisy = (p == "N") + (q == "N")
        g[j, j] -= rate * (m - 1) / 2.0 * noisy
        if noisy == 2:
            g[j, j] += rate * ((m - 1) if same else 1)
    return g


def _probe_sectors() -> tuple[np.ndarray, np.ndarray]:
    """Coherence and population vectors of PROBE = a|0> + b|input> at t = 0."""
    a, b = PROBE.amplitudes()
    c0 = np.zeros(4, dtype=complex)
    c0[0] = b * a.conjugate()
    x0 = np.zeros(len(_ORBITS), dtype=complex)
    x0[_IN_IN] = abs(b) ** 2
    return c0, x0


@dataclass(frozen=True, eq=False)
class LumpedStates:
    """Lumped density matrices at a list of times.

    ``vacuum`` is rho_00, ``coherence`` holds the rows (c_i, c_o, c_C,
    c_N) of c_j = rho_j0, and ``population`` the 18 orbit entries of the
    single-excitation block X in the order of ``_ORBITS``.
    """

    k: int
    m: int
    times: np.ndarray
    vacuum: float
    coherence: np.ndarray
    population: np.ndarray

    @property
    def rho_oo(self) -> np.ndarray:
        return self.population[:, _OUT_OUT].real

    @property
    def rho_o0(self) -> np.ndarray:
        return self.coherence[:, _OUT]

    def _entry(self, p: str, q: str, same: bool = False) -> np.ndarray:
        return self.population[:, _ORBIT[p, q, same]]

    def sector_matrices(self) -> np.ndarray:
        """rho on (vacuum, in, out, uniform clean, uniform noisy), one matrix per time.

        The uniform clean or noisy vector is left out when k or m is
        zero. The other eigenvectors of rho are clean or noisy vectors
        orthogonal to the uniform one (see ``spectrum``).
        """
        mult = _multiplicities(self.k, self.m)
        kinds = [p for p in _KINDS if mult[p]]
        root = np.sqrt([mult[p] for p in kinds])
        out = np.empty((self.times.size, len(kinds) + 1, len(kinds) + 1), dtype=complex)
        out[:, 0, 0] = self.vacuum
        out[:, 1:, 0] = root * self.coherence[:, [_KINDS.index(p) for p in kinds]]
        out[:, 0, 1:] = out[:, 1:, 0].conj()
        for a, p in enumerate(kinds):
            for b, q in enumerate(kinds):
                if p != q:
                    out[:, a + 1, b + 1] = root[a] * root[b] * self._entry(p, q)
                elif p in "CN":
                    out[:, a + 1, b + 1] = self._entry(p, p, True) + (mult[p] - 1) * self._entry(p, p)
                else:
                    out[:, a + 1, b + 1] = self._entry(p, p, True)
        return out

    def _repeated(self) -> tuple[np.ndarray, list[int]]:
        # d_C - o_C and d_N - o_N, one column per kind present twice or more, and their multiplicities
        kinds = [(kind, mult) for kind, mult in (("C", self.k), ("N", self.m)) if mult >= 2]
        values = np.array([self._entry(kind, kind, True) - self._entry(kind, kind) for kind, _ in kinds]).real
        return values.reshape(len(kinds), self.times.size).T, [mult - 1 for _, mult in kinds]

    def spectrum(self, rows: np.ndarray | slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of rho at every time, or at ``rows`` of the times, and their multiplicities.

        The sector matrix gives one eigenvalue per column; d_C - o_C
        repeats k - 1 times and d_N - o_N repeats m - 1 times.
        """
        sector = np.linalg.eigvalsh(self.sector_matrices()[rows])
        repeated, counts = self._repeated()
        return np.hstack([sector, repeated[rows]]), np.array([1] * sector.shape[1] + counts)

    def validate(self) -> None:
        """Check the dense invariants on the whole state; RuntimeError names the first bad t.

        Hermiticity is the largest |rho_pq - conj(rho_qp)| over the
        entries of rho, the trace is rho_00 + d_in + d_out + k d_C + m d_N,
        and the smallest eigenvalue comes from ``spectrum``, asked only
        about states the Cholesky certificate (see ``DenseStates``) leaves
        open. It factors the sector matrices as one stack, so if one
        fails, every state goes to ``spectrum``.
        """
        mult = _multiplicities(self.k, self.m)
        present = [
            j for j, (p, q, same) in enumerate(_ORBITS)
            if mult[p] and mult[q] and (same or p != q or mult[p] >= 2)
        ]
        x = self.population[:, present]
        herm = np.abs(x - self.population[:, _PARTNER[present]].conj()).max(axis=1)
        trace = self.vacuum + sum(mult[p] * self._entry(p, p, True) for p in _KINDS)
        above = np.all(self._repeated()[0] >= EIGENVALUE_FLOOR, axis=1)
        _check_states(
            self.times,
            herm,
            np.abs(trace - 1.0),
            lambda rows: above[rows] & _factors(self.sector_matrices()[rows]),
            lambda rows: self.spectrum(rows)[0].min(axis=1),
        )


@dataclass(frozen=True, eq=False)
class LumpedLiouvillian:
    """Master equation of the complete graph with scalar noise, lumped by symmetry.

    With the transfer pair (i, o), k = n - 2 - m clean vertices C and m
    noisy vertices N, relabelling clean vertices among themselves, or
    noisy ones, maps the generator and the start a|0> + b|i> to
    themselves, so every entry of rho stays equal across its orbit.

    Coherence sector. Every L is a hopping operator with L|0> = 0 and
    the vacuum row of H is zero, so rho_00 = |a|^2 stays constant and
    c_j = rho_j0 obeys c' = (-i H - (r/2)(m-1) P_N) c, with r = 2 eta the
    generator rate and sum L^2 = (m-1) P_N. For H = J - I,
    (H c)_p = sum_q mult_q c_q - c_p, so on (c_i, c_o, c_C, c_N)

        c' = (-i A - eta (m-1) diag(0, 0, 0, 1)) c,
        A = [[0, 1, k, m], [1, 0, k, m], [1, 1, k-1, m], [1, 1, k, m-1]].

    Population sector. The single-excitation block X has 18 orbit
    entries: the 2 x 2 block of (i, o); X_iC, X_Ci, X_oC, X_Co and the
    same four with N; the clean diagonal d_C and off-diagonal o_C; d_N
    and o_N; X_CN and X_NC. Since [I, X] = 0,

        -i [H, X]_pq = -i (sum_u X_uq - sum_v X_pv),

    a column sum minus a row sum. The column sum at a vertex of kind t
    is X_it + X_ot + k X_Ct + m X_Nt, except that the term of its own
    kind is X_tt for t in {i, o}, d_C + (k-1) o_C for t = C and
    d_N + (m-1) o_N for t = N; row sums are the transpose. The
    dissipator is r (sum L X L - (m-1)/2 {P_N, X}). The sum over noisy
    pairs of L X L is tr_N X - X_vv = (m-1) d_N on the noisy diagonal
    and X_uv = o_N on the noisy off-diagonal, and zero elsewhere. So an
    entry with one noisy index decays at r (m-1)/2, o_N at r (m-2), and
    d_N has no dissipator: r (m-1) d_N - r (m-1) d_N = 0.

    Every coefficient is thus a polynomial in k and m, times 1 or r.
    Absent kinds (k or m zero, o_C at k = 1, o_N at m = 1) evolve
    without feeding back, since every term they enter carries their
    multiplicity, and the rate is zero below two noisy vertices.
    """

    n: int
    m: int
    eta: float
    coherence_generator: np.ndarray = field(init=False, repr=False)
    population_generator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not 0 <= self.m <= self.n - 2:
            raise ValueError(f"m must lie in 0..n-2 = {self.n - 2}, got {self.m}")
        if not math.isfinite(self.eta) or self.eta < 0:
            raise ValueError(f"noise strength must be finite and nonnegative, got {self.eta}")
        k = self.n - 2 - self.m
        object.__setattr__(self, "coherence_generator", _coherence_generator(k, self.m, self.eta))
        object.__setattr__(self, "population_generator", _population_generator(k, self.m, self.eta))

    def evolve(self, times: Sequence[float]) -> LumpedStates:
        """Validated lumped states from PROBE = a|0> + b|input> at each time (any order)."""
        times = np.asarray(times, dtype=float).reshape(-1)
        if times.size == 0 or not np.all(times >= 0):
            raise ValueError("times must be a nonempty list of nonnegative numbers")
        k = self.n - 2 - self.m
        c0, x0 = _probe_sectors()
        # The population sector is stepped as y = T x, T the identity with
        # its d_in row replaced by w, the multiplicities (1, 1, k, m) on the
        # diagonal orbits, so y carries the trace of X as its d_in entry.
        # w^T G = 0, so that row of T G T^-1 is set to exactly 0 and no
        # exponential changes the trace; expm(G dt) itself keeps w^T only
        # to about 1e-9 once ||G dt|| is near 1e4.
        mult = _multiplicities(k, self.m)
        w = np.array([mult[p] if p == q and same else 0 for p, q, same in _ORBITS], dtype=float)
        to_y, to_x = np.eye(len(w)), np.eye(len(w))
        to_y[_IN_IN], to_x[_IN_IN] = w, -w
        to_x[_IN_IN, _IN_IN] = 1.0
        generator = to_y @ self.population_generator @ to_x
        generator[_IN_IN] = 0.0
        states = LumpedStates(
            k=k,
            m=self.m,
            times=times,
            vacuum=abs(PROBE.amplitudes()[0]) ** 2,
            coherence=_propagate(self.coherence_generator, c0, times),
            population=_propagate(generator, to_y @ x0, times) @ to_x.T,
        )
        states.validate()
        return states


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
