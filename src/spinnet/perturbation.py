"""Weak-noise expansion of the transfer channel to first order in eta.

Two independent first-order routes live here. The closed-form route
assembles the published-style expressions built from the free
amplitudes beta (transfer) and beta' (return) and the eight time
integrals b1..b8; it is evaluated literally, defects included, and is
treated as a claim under test. Over a time grid the b integrals are
carried from one grid time to the next (b_coefficient_grid), so a grid
costs one quadrature over its horizon, not one per time. The numeric
route differentiates the lumped master equation in eta exactly, by one
block exponential of its generator, which cannot suffer from convention
or transcription slips, and serves as the ground truth the closed forms
are compared against; its cost and memory depend on neither n nor t.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import lindblad

__all__ = [
    "WeakNoiseIntegrals",
    "WeakNoiseChannel",
    "beta",
    "beta_prime",
    "b_coefficients",
    "b_coefficient_grid",
    "printed_weak_noise_channel",
    "printed_weak_noise_curve",
    "first_order_numeric",
]


def beta(n: int, t: float) -> complex:
    """Free transfer amplitude between two distinct complete-graph vertices.

    beta = (e^{it}/n)(e^{-int} - 1); vanishes at t = 0 and peaks in
    modulus at 2/n. It is the matrix element <out| exp(-iHt) |in> of
    H = J - I, whose spectrum is n - 1 once and -1 n - 1 times, and the
    package's one route to the noiseless amplitude: unitary rows and
    the report's noiseless references read it.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return cmath.exp(1j * t) / n * (cmath.exp(-1j * n * t) - 1.0)


def beta_prime(n: int, t: float) -> complex:
    """Free return amplitude of a complete-graph vertex: (e^{it}/n)(e^{-int} + n - 1)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return cmath.exp(1j * t) / n * (cmath.exp(-1j * n * t) + n - 1.0)


@dataclass(frozen=True)
class WeakNoiseIntegrals:
    """The eight time integrals b1..b8 entering the first-order coefficients.

    b2, b5, b6, b8 are real by construction; they are stored complex
    anyway so the assembly below is uniform.
    """

    b1: complex
    b2: complex
    b3: complex
    b4: complex
    b5: complex
    b6: complex
    b7: complex
    b8: complex


# Quadrature nodes summed at a time by b_coefficient_grid: any gap up to 65
# at the largest step is one block.
_BLOCK = 2**16


def b_coefficients(n: int, t: float, step: float = 1e-3) -> WeakNoiseIntegrals:
    """Evaluate the b1..b8 integrals over [0, t] by composite Simpson quadrature.

    The integrands are products of beta and beta' over [0, t], all
    carrying the common prefactor (n-3)^2, so n = 3 short-circuits to
    zeros. The step is capped at 1e-3; halving it moves the values by
    less than one part in 1e8, which the test suite asserts. The nodes
    are summed _BLOCK at a time, so memory does not grow with t.
    """
    [integrals] = b_coefficient_grid(n, [t], step)
    return integrals


def b_coefficient_grid(n: int, times: Sequence[float], step: float = 1e-3) -> list[WeakNoiseIntegrals]:
    """The b1..b8 integrals at every time of ``times``, in their order, in one pass.

    The sorted times split [0, max(times)] into gaps. Each gap gets the
    composite Simpson rule of b_coefficients over it (an even number of
    panels, each at most ``step`` wide), and eight running sums carry
    the integrals from one time to the next, so the cost is linear in
    the horizon, not in the sum over the grid. A grid time after the
    first differs from b_coefficients at that time, one rule over
    [0, t], only by the two rules' quadrature errors, within the same
    one part in 1e8.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    times = [float(t) for t in times]
    for t in times:
        if not math.isfinite(t) or t < 0:
            raise ValueError(f"t must be finite and >= 0, got {t}")
    if not 0 < step <= 1e-3:
        raise ValueError(f"step must lie in (0, 1e-3], got {step}")
    totals = np.zeros(8, dtype=complex)
    at = {0.0: totals.tolist()}
    start = 0.0
    for end in sorted(set(times) - {0.0}):
        # the prefactor (n-3)^2 vanishes at n = 3
        if n != 3:
            _simpson_add(totals, n, start, end, step)
        at[end] = totals.tolist()
        start = end
    return [WeakNoiseIntegrals(*at[t]) for t in times]


def _simpson_add(totals: np.ndarray, n: int, start: float, end: float, step: float) -> None:
    """Add the composite Simpson rule of the eight integrands over [start, end] to ``totals``."""
    span = end - start
    num = max(int(math.ceil(span / step)), 2)
    if num % 2:
        num += 1
    # the nodes start + j span / num, the last one exactly end, and the
    # composite Simpson weights 1, 4, 2, ..., 4, 1 times h/3, prefactor folded in
    factor = (n - 3) ** 2 * span / (3.0 * num)
    for first in range(0, num + 1, _BLOCK):
        j = np.arange(first, min(first + _BLOCK, num + 1))
        tau = start + j * (span / num)
        tau[j == num] = end
        weights = np.where(j % 2, 4.0, 2.0)
        weights[(j == 0) | (j == num)] = 1.0
        weights *= factor
        # one integrand at a time, each freed once summed
        totals += [weights @ y for y in _integrands(n, tau)]


def _integrands(n: int, tau: np.ndarray) -> Iterator[np.ndarray]:
    """The integrands of b1..b8 at the nodes ``tau``, without the prefactor (n-3)^2."""
    b = np.exp(1j * tau) / n * (np.exp(-1j * n * tau) - 1.0)
    bp = np.exp(1j * tau) / n * (np.exp(-1j * n * tau) + n - 1.0)
    ab2 = np.abs(b) ** 2
    abp2 = np.abs(bp) ** 2
    bbp = b * bp.conj()
    yield bbp
    yield ab2
    yield bbp * abp2
    yield b**2 * bp.conj() ** 2 + abp2 * ab2
    yield ab2 * abp2
    yield 2.0 * bbp.real * ab2
    yield b * ab2 * bp.conj()
    yield ab2**2


@dataclass(frozen=True)
class WeakNoiseChannel:
    """First-order channel data: zeroth-order |z|^2 plus the two eta slopes.

    Assembles |z|^2 = z_sq_0 + eta * xi1 and the coherence product
    lambda*z = z_sq_0 + eta * xi2, whose zeroth order is the real
    number |beta|^2; the dephasing factor is therefore read out as
    |lambda z| / |z|^2, which is exactly 1 when eta = 0.
    """

    z_sq_0: float
    xi1: float
    xi2: complex
    eta: float

    @property
    def z_sq(self) -> float:
        return self.z_sq_0 + self.eta * self.xi1

    @property
    def lambda_z(self) -> complex:
        return self.z_sq_0 + self.eta * self.xi2

    @property
    def abs_z(self) -> float:
        return math.sqrt(max(self.z_sq, 0.0))

    @property
    def dephasing(self) -> float:
        if self.z_sq > 1e-12:
            return abs(self.lambda_z) / self.z_sq
        return 1.0


def _require_noise_geometry(n: int, m: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 <= m <= n - 2:
        raise ValueError(f"m must lie in 0..n-2 = {n - 2}, got {m}")


def _require_eta_and_t(eta: float, t: float) -> None:
    for name, value in (("eta", eta), ("t", t)):
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


def printed_weak_noise_channel(n: int, m: int, eta: float, t: float) -> WeakNoiseChannel:
    """Literal assembly of the closed-form first-order coefficients.

    xi1 is the long b-combination plus its complex conjugate; xi2 is
    m (b1 beta + b2 beta' + b2 beta m). Both are transcribed verbatim,
    bracket groupings included, and carry known defects: the m = 1
    case yields nonzero xi even though one noisy vertex spans no edge,
    and one b8 grouping is ambiguous in the source. The numeric route
    is the arbiter; see the consistency report. Meaningful only while
    eta * t stays well under 1.
    """
    [channel] = printed_weak_noise_curve(n, m, eta, [t])
    return channel


def printed_weak_noise_curve(n: int, m: int, eta: float, times: Sequence[float]) -> list[WeakNoiseChannel]:
    """printed_weak_noise_channel at every time of ``times``, in their order.

    The b integrals come from one pass of b_coefficient_grid, so the
    cost is linear in the horizon; a single time gives
    printed_weak_noise_channel's bytes.
    """
    _require_noise_geometry(n, m)
    times = [float(t) for t in times]
    for t in times:
        _require_eta_and_t(eta, t)
    channels = []
    for t, co in zip(times, b_coefficient_grid(n, times)):
        b = beta(n, t)
        bp = beta_prime(n, t)
        ab2 = abs(b) ** 2
        abp2 = abs(bp) ** 2
        inner = (
            co.b3 * ab2
            + co.b4 * (bp.conjugate() * b + ab2 * m)
            + co.b5 * (bp * b.conjugate() + ab2 * m)
            + co.b6 * (abp2 + abp2 * ab2 * m**2 + ab2 * m**2)
            + co.b7 * (bp.conjugate() + ab2 * (m**2 + n - 1))
            + co.b8 * (abp2 + abp2 * ab2 * (m**2 + n - 1) * m**2 * (n - 2) + ab2 * m * (m**2 + n - 1))
        )
        xi1 = 2.0 * (m * inner).real
        xi2 = m * (co.b1 * b + co.b2 * bp + co.b2 * b * m)
        channels.append(WeakNoiseChannel(z_sq_0=ab2, xi1=xi1, xi2=xi2, eta=eta))
    return channels


def first_order_numeric(n: int, m: int, eta: float, t: float) -> WeakNoiseChannel:
    """First-order channel from the exact eta-derivative of the lumped state.

    Every coefficient of the lumped generator on (vec rho, q) is a
    function of k and m times 1 or the rate 2 eta (see
    lindblad.LumpedLiouvillian), so the generator is affine in eta:
    G = G0 + eta G1, with G0 the noiseless generator and G1 = G(1) - G(0)
    the unit dissipator. By Van Loan's identity (IEEE TAC 23, 395, 1978)
    the block exponential

        exp([[G0, G1], [0, G0]] t) = [[e^{G0 t}, D], [0, e^{G0 t}]],
        D = int_0^t e^{G0 (t-s)} G1 e^{G0 s} ds,

    holds in its top-right block D the exact derivative in eta of
    e^{G t} at eta = 0. One exponential of the 52 x 52 block, applied to
    the start (0, s0), thus gives the first-order correction and the
    zeroth-order state together, at a cost and memory independent of n
    and t. The channel is read off rho_oo and rho_o0 of rho0 + eta D s0
    by FidelityCurve.read, as every engine's is; the correction is exactly
    linear in eta by construction. Shares no closed-form input with
    printed_weak_noise_channel, so agreement between the two is
    evidence, not tautology.
    """
    _require_noise_geometry(n, m)
    _require_eta_and_t(eta, t)
    g0 = lindblad.LumpedLiouvillian(n, m, 0.0).generator
    g1 = lindblad.LumpedLiouvillian(n, m, 1.0).generator - g0
    # D is linear in G1: scaled to unit entries, G1 keeps the block's
    # norm near G0's and the exponential's error near that of e^{G0 t}
    scale = max(1.0, float(np.abs(g1).max()))
    block = np.block([[g0, g1 / scale], [np.zeros_like(g0), g0]])
    start = lindblad._lumped_start()
    dim = start.size
    evolved = lindblad._propagate(block, np.concatenate([np.zeros(dim), start]), np.array([t]))[0]
    state, derivative = evolved[dim:], scale * evolved[:dim]
    # rho0 and rho0 + eta D s0: the second is a state only to first order
    curve = lindblad._lumped_channel([t, t], np.array([state, state + eta * derivative]))
    z_sq_0, z_sq = (np.abs(curve.amplitude) ** 2).tolist()
    if eta == 0.0 or m < 2 or t == 0.0:
        return WeakNoiseChannel(z_sq_0=z_sq_0, xi1=0.0, xi2=0j, eta=0.0)
    lam_z_mod = float(curve.dephasing[1]) * z_sq
    return WeakNoiseChannel(
        z_sq_0=z_sq_0,
        xi1=(z_sq - z_sq_0) / eta,
        xi2=complex((lam_z_mod - z_sq_0) / eta),
        eta=eta,
    )
