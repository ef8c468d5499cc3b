"""Noise-averaged master equation: dense and lumped engines, one channel readout.

Averaging the white-noise edge couplings gives a Lindblad equation
d rho/dt = -i[H, rho] + sum_edges r (L rho L - {L^2, rho}/2) with one
Hermitian hopping operator L per noisy pair and generator rate r from
:func:`spinnet.network.lindblad_edge_operators`.

``LumpedLiouvillian`` serves every scalar-eta run (``fig1``-``fig3``,
``simulate --method lindblad`` with one rate, the curve helpers of
``analytics`` and ``perturbation``) and supplies the generators that
``perturbation.first_order_numeric`` differentiates in eta: by the
symmetry of the complete graph it evolves a 4-dimensional coherence
sector and an 18-dimensional population sector at any n.
``Liouvillian`` is the dense generator on the column-stacked vec(rho), a
fixed (n+1)^2 x (n+1)^2 matrix; it serves per-edge rate maps, the
full-state comparison with trajectories, and the tests, where it is the
lumped engine's oracle. Both step exactly by matrix exponentials.
``fidelity_curve`` reads the channel off rho_oo and rho_o0 for either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .network import (
    INPUT_VERTEX,
    OUTPUT_VERTEX,
    lindblad_edge_operators,
    require_hermitian,
    single_excitation_hamiltonian,
    standard_noise_spec,
)
from .propagator import BlochInput, ChannelParams, optimal_avg_fidelity

__all__ = [
    "PROBE",
    "NetworkState",
    "Liouvillian",
    "LumpedLiouvillian",
    "LumpedStates",
    "FidelityCurve",
    "initial_network_state",
    "build_liouvillian",
    "complete_network_liouvillian",
    "evolve_at_times",
    "extract_channel",
    "fidelity_curve",
]

# Input state of every channel readout: the equator of the Bloch sphere,
# which carries both a vacuum and an excitation amplitude.
PROBE = BlochInput(math.pi / 2.0, 0.0)

# Tolerances of the state invariants, checked on every returned state.
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-8

# Rounding level of the output population of a unit-trace state, a few
# dozen ulps of 1. A population below it reads |z| under about 1e-7,
# which rounding alone can produce, so lambda * z is not split there.
POPULATION_FLOOR = 1e-14


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


@dataclass(frozen=True, eq=False)
class NetworkState:
    """Density matrix of the network in the vacuum + single-excitation basis.

    Construction validates Hermiticity, unit trace, and positivity (the
    smallest eigenvalue may sit slightly below zero from rounding, but
    no further than 1e-8).
    """

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        object.__setattr__(self, "rho", rho)
        problem = state_defect(rho)
        if problem is not None:
            raise ValueError(f"invalid network state: {problem}")

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


def state_defect(rho: np.ndarray) -> str | None:
    """Describe the worst violated density-matrix invariant, or None if clean."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return f"shape {rho.shape} is not square"
    herm = np.abs(rho - rho.conj().T).max()
    if herm > HERMITICITY_ATOL:
        return f"Hermiticity defect {herm:.3e}"
    trace_err = abs(rho.trace() - 1.0)
    if trace_err > TRACE_ATOL:
        return f"trace defect {trace_err:.3e}"
    low = np.linalg.eigvalsh(rho).min()
    if low < EIGENVALUE_FLOOR:
        return f"negative eigenvalue {low:.3e}"
    return None


def initial_network_state(n: int, input_vertex: int, state: BlochInput) -> NetworkState:
    """Pure product start a|vacuum> + b|input vertex| as a rank-1 density matrix."""
    if not 1 <= input_vertex <= n:
        raise ValueError(f"input vertex {input_vertex} outside 1..{n}")
    a, b = state.amplitudes()
    psi = np.zeros(n + 1, dtype=complex)
    psi[0] = a
    psi[input_vertex] = b
    return NetworkState(np.outer(psi, psi.conj()))


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Vectorized generator of the master equation.

    ``generator`` acts on column-stacked density matrices. Immutable;
    reuse one instance across an entire parameter-scan series.
    """

    generator: np.ndarray

    @property
    def dim(self) -> int:
        return int(round(math.sqrt(self.generator.shape[0])))


def build_liouvillian(
    hamiltonian: np.ndarray,
    operators: Iterable[tuple[np.ndarray, float]] = (),
) -> Liouvillian:
    """Assemble the vectorized generator from H and (operator, rate) pairs.

    Uses vec(A rho B) = kron(B^T, A) vec(rho) for column stacking. The
    dissipator enters with the physically damping sign: each pair
    contributes rate * (L rho L^dag - {L^dag L, rho}/2), so populations
    mix and coherences decay, never grow.
    """
    h = require_hermitian(hamiltonian)
    dim = h.shape[0]
    eye = np.eye(dim)
    generator = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in operators:
        op = np.asarray(op, dtype=complex)
        if op.shape != (dim, dim):
            raise ValueError(f"operator shape {op.shape} does not match dimension {dim}")
        if rate < 0:
            raise ValueError(f"negative rate {rate}")
        opsq = op.conj().T @ op
        generator += rate * (
            np.kron(op.conj(), op)
            - 0.5 * np.kron(eye, opsq)
            - 0.5 * np.kron(opsq.T, eye)
        )
    return Liouvillian(generator)


def complete_network_liouvillian(n: int, m: int, eta: float) -> Liouvillian:
    """Generator for the complete graph with noise on the m last vertices.

    Convenience wrapper over the standard placement (transfer pair
    (1, 2), noisy set {n-m+1, ..., n}) used by every scan in the
    package; heterogeneous strengths or exotic noisy sets go through
    build_liouvillian directly.
    """
    spec = standard_noise_spec(n, m, eta)
    ops = lindblad_edge_operators(n, spec, INPUT_VERTEX, OUTPUT_VERTEX)
    return build_liouvillian(single_excitation_hamiltonian(n), ops)


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


def evolve_at_times(
    liouvillian: Liouvillian,
    state: NetworkState,
    times: Sequence[float],
) -> list[NetworkState]:
    """Exact-stepping evolution sampled at many times.

    The time grid need not be sorted or uniform; each entry must be
    nonnegative. A uniform grid costs two matrix exponentials in all.
    Every returned state is validated; a violated invariant raises
    RuntimeError naming its time.
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    dim = state.dim
    if liouvillian.generator.shape[0] != dim**2:
        raise ValueError("generator and state dimensions do not match")
    vecs = _propagate(liouvillian.generator, _vec(state.rho).astype(complex), np.asarray(times))
    states = []
    for t, vt in zip(times, vecs):
        rho = _unvec(vt, dim)
        # the exponential keeps Hermiticity only to rounding
        try:
            states.append(NetworkState(0.5 * (rho + rho.conj().T)))
        except ValueError as err:
            raise RuntimeError(f"numeric failure at t={t}: {err}") from None
    return states


def extract_channel(
    state: NetworkState | np.ndarray,
    probe: BlochInput,
    input_vertex: int,
    output_vertex: int,
) -> ChannelParams:
    """Read the effective qubit channel (z, lambda) off an evolved state.

    With probe amplitudes a, b the evolved state stores |z|^2 in the
    output population <o|rho|o> / |b|^2 and the product lambda*z in the
    coherence <o|rho|0> / (b a*). Splitting the product needs the
    population above its rounding level, POPULATION_FLOOR; at or below
    it the channel carries no amplitude information and the convention
    z = 0, lambda = 1 applies. Probes at either pole are
    rejected: theta = 0 sends no excitation, and theta = pi leaves no
    vacuum component against which the coherence could be read.

    A raw density matrix is also accepted, skipping the NetworkState
    invariant checks. No package route passes one; the test suite's
    dense first-order oracle does, since its states are positive only
    to first order in eta.
    """
    rho = state.rho if isinstance(state, NetworkState) else np.asarray(state, dtype=complex)
    dim = rho.shape[0]
    if input_vertex == output_vertex:
        raise ValueError("input and output vertices must differ")
    for v in (input_vertex, output_vertex):
        if not 1 <= v < dim:
            raise ValueError(f"vertex {v} outside 1..{dim - 1}")
    a, b = probe.amplitudes()
    if abs(b) < 1e-12:
        raise ValueError("probe carries no excitation (theta = 0)")
    if abs(a) < 1e-12:
        raise ValueError("probe has no vacuum component (theta = pi); coherence readout needs one")
    return _channel(rho[output_vertex, output_vertex].real, rho[output_vertex, 0], a, b)


def _channel(rho_oo: float, rho_o0: complex, a: complex, b: complex) -> ChannelParams:
    prob = rho_oo / abs(b) ** 2
    if prob < -1e-10:
        raise RuntimeError(f"numeric failure: output population {prob:.3e} below zero")
    prob = max(prob, 0.0)
    lam_z = rho_o0 / (b * a.conjugate())
    if rho_oo > POPULATION_FLOOR:
        mod = math.sqrt(prob)
        lam = abs(lam_z) / mod
        z = lam_z / lam if lam > 0.0 else complex(mod)
    else:
        z, lam = 0j, 1.0
    return ChannelParams(complex(z), float(lam))


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
_OUT_OUT = _ORBIT["o", "o", True]


def _multiplicities(k: int, m: int) -> dict[str, int]:
    return {"i": 1, "o": 1, "C": k, "N": m}


def _rate(m: int, eta: float) -> float:
    # generator rate of lindblad_edge_operators; fewer than two noisy
    # vertices span no edge and leave no dissipator
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
    x0[_ORBIT["i", "i", True]] = abs(b) ** 2
    return c0, x0


def _output_entries(coherence: np.ndarray, population: np.ndarray) -> tuple[float, complex]:
    """rho_oo and rho_o0 of one coherence and one population vector."""
    return float(population[_OUT_OUT].real), complex(coherence[_OUT])


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

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of rho at every time (one row each) and their multiplicities.

        The sector matrix gives one eigenvalue per column; d_C - o_C
        repeats k - 1 times and d_N - o_N repeats m - 1 times.
        """
        values = [np.linalg.eigvalsh(self.sector_matrices())]
        counts = [1] * values[0].shape[1]
        for kind, mult in (("C", self.k), ("N", self.m)):
            if mult >= 2:
                values.append((self._entry(kind, kind, True) - self._entry(kind, kind)).real[:, None])
                counts.append(mult - 1)
        return np.hstack(values), np.array(counts)

    def validate(self) -> None:
        """Check the dense invariants on the whole state; RuntimeError names the first bad t.

        Hermiticity is the largest |rho_pq - conj(rho_qp)| over the
        entries of rho, the trace is rho_00 + d_in + d_out + k d_C + m d_N,
        and the smallest eigenvalue comes from ``spectrum``.
        """
        mult = _multiplicities(self.k, self.m)
        present = [
            j for j, (p, q, same) in enumerate(_ORBITS)
            if mult[p] and mult[q] and (same or p != q or mult[p] >= 2)
        ]
        x = self.population[:, present]
        herm = np.abs(x - self.population[:, _PARTNER[present]].conj()).max(axis=1)
        trace = self.vacuum + sum(mult[p] * self._entry(p, p, True) for p in _KINDS)
        trace_err = np.abs(trace - 1.0)
        low = self.spectrum()[0].min(axis=1)
        # negated tests, so that a non-finite entry fails too
        for j in range(self.times.size):
            if not herm[j] <= HERMITICITY_ATOL:
                problem = f"Hermiticity defect {herm[j]:.3e}"
            elif not trace_err[j] <= TRACE_ATOL:
                problem = f"trace defect {trace_err[j]:.3e}"
            elif not low[j] >= EIGENVALUE_FLOOR:
                problem = f"negative eigenvalue {low[j]:.3e}"
            else:
                continue
            raise RuntimeError(f"numeric failure at t={self.times[j]}: {problem}")


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
        c0, x0 = _probe_sectors()
        states = LumpedStates(
            k=self.n - 2 - self.m,
            m=self.m,
            times=times,
            vacuum=abs(PROBE.amplitudes()[0]) ** 2,
            coherence=_propagate(self.coherence_generator, c0, times),
            population=_propagate(self.population_generator, x0, times),
        )
        states.validate()
        return states


@dataclass(frozen=True, eq=False)
class FidelityCurve:
    """Channel and best Bloch-averaged fidelity at each time of a grid."""

    channels: tuple[ChannelParams, ...]
    fidelity: np.ndarray

    @classmethod
    def of(cls, channels: Iterable[ChannelParams]) -> FidelityCurve:
        channels = tuple(channels)
        return cls(channels, np.array([optimal_avg_fidelity(c)[0] for c in channels]))


def fidelity_curve(
    engine: LumpedLiouvillian | Liouvillian,
    times: Sequence[float],
    pair: tuple[int, int] = (INPUT_VERTEX, OUTPUT_VERTEX),
) -> FidelityCurve:
    """Evolve ``PROBE`` and read the channel off rho_oo and rho_o0 at each time.

    A lumped engine needs only those two entries. A dense engine starts
    at the input vertex of ``pair`` and is read at its output vertex;
    the lumped engine is the same for every pair.
    """
    if isinstance(engine, LumpedLiouvillian):
        states = engine.evolve(times)
        entries = zip(states.rho_oo, states.rho_o0)
    else:
        source, target = pair
        start = initial_network_state(engine.dim - 1, source, PROBE)
        evolved = evolve_at_times(engine, start, times)
        entries = ((s.rho[target, target].real, s.rho[target, 0]) for s in evolved)
    a, b = PROBE.amplitudes()
    return FidelityCurve.of(_channel(oo, o0, a, b) for oo, o0 in entries)
