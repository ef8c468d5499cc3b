"""Channel parameters and average-fidelity forms.

The sender prepares an arbitrary qubit state a|0> + b|1> encoded as
a|vacuum> + b|input vertex>; after evolution the receiver holds a qubit
whose quality is summarized by two channel numbers: the transfer
amplitude z carried from the input to the output vertex, and a
dephasing factor lambda multiplying the coherence. Averaging the
decoded fidelity over the Bloch sphere gives

    F(u) = 1/2 + lambda * Re(z u^2) / 3 + |z|^2 (2|u|^2 - 1) / 6

for a decoding rotation parameterized by u, and the receiver does best
with the phase u = exp(-i arg(z) / 2). Both the closed form and a direct
spherical quadrature of it live here so each can audit the other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelParams",
    "BlochInput",
    "complete_graph_peak_fidelity",
    "avg_fidelity_given_decode",
    "optimal_avg_fidelity",
    "bloch_sphere_average",
]


@dataclass(frozen=True)
class ChannelParams:
    """Transfer amplitude and dephasing factor of an effective qubit channel."""

    amplitude: complex
    dephasing: float = 1.0

    @property
    def transfer_prob(self) -> float:
        return abs(self.amplitude) ** 2


@dataclass(frozen=True)
class BlochInput:
    """Input qubit state by Bloch angles: a = cos(theta/2), b = e^{i phi} sin(theta/2)."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")

    def amplitudes(self) -> tuple[complex, complex]:
        a = math.cos(self.theta / 2.0)
        b = cmath.exp(1j * self.phi) * math.sin(self.theta / 2.0)
        return complex(a), b


def complete_graph_peak_fidelity(n: int) -> float:
    """Best noiseless average fidelity on the complete graph, 1/2 + 2/(3n) + 2/(3n^2).

    The readout of the peak amplitude |z| = 2/n. Strictly decreasing in
    n; equals 1 only at n = 2, the only size with perfect transfer.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return optimal_avg_fidelity(ChannelParams(2.0 / n))[0]


def _decode_matrix(u: complex) -> np.ndarray:
    # v is fixed real and nonnegative; the physically free phase of the
    # rotation sits entirely in u.
    mod = abs(u)
    if mod > 1.0 + 1e-12:
        raise ValueError(f"|u| = {mod:.6f} exceeds 1")
    v = math.sqrt(max(1.0 - mod * mod, 0.0))
    return np.array([[u.conjugate(), -v], [v, u]])


def avg_fidelity_given_decode(params: ChannelParams, u: complex = 1.0 + 0j) -> float:
    """Bloch-sphere averaged fidelity for a fixed decoding rotation u.

    Closed form of the spherical average; ``bloch_sphere_average``
    evaluates the same quantity by quadrature.
    """
    z = params.amplitude
    lam = params.dephasing
    mod2 = abs(u) ** 2
    return 0.5 + lam * (z * u * u).real / 3.0 + abs(z) ** 2 * (2.0 * mod2 - 1.0) / 6.0


def optimal_avg_fidelity(params: ChannelParams) -> tuple[float, complex]:
    """Best average fidelity over decoding rotations, with the optimizing u.

    The phase choice u = exp(-i arg(z)/2) aligns the coherence term,
    giving F = 1/2 + lambda |z|/3 + |z|^2/6. A vanishing amplitude makes
    every phase equivalent and u defaults to 1.
    """
    z = params.amplitude
    u = cmath.exp(-0.5j * cmath.phase(z)) if abs(z) > 0.0 else 1.0 + 0j
    return avg_fidelity_given_decode(params, u), u


def bloch_sphere_average(
    params: ChannelParams,
    u: complex = 1.0 + 0j,
    n_polar: int = 32,
    n_azimuth: int = 64,
) -> float:
    """Average the decoded fidelity over input states by direct quadrature.

    Gauss-Legendre in cos(theta) crossed with a trapezoid rule in phi
    (exact for the low azimuthal harmonics that appear). At each node
    the input a|0> + b|1> goes through the channel to rho, the decoding
    D turns it to D rho D^dag, and the fidelity is psi^dag D rho D^dag psi.
    Kept separate from the closed form on purpose, as an independent
    route to the same number.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n_polar)
    phis = np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False)
    decode = _decode_matrix(u)
    theta = np.arccos(nodes)[:, np.newaxis]
    # BlochInput(theta, phi)'s amplitudes on the (n_polar, n_azimuth) grid; a is real
    a = np.repeat(np.cos(theta / 2.0), n_azimuth, axis=1)
    b = np.exp(1j * phis) * np.sin(theta / 2.0)
    p = np.abs(b) ** 2 * params.transfer_prob
    coh = params.dephasing * params.amplitude * b * a
    rho = np.stack((np.stack((1.0 - p, coh.conj()), axis=-1), np.stack((coh, p), axis=-1)), axis=-2)
    psi = np.stack((a, b), axis=-1)
    decoded = decode @ rho @ decode.conj().T
    fidelity = np.einsum("...i,...ij,...j->...", psi.conj(), decoded, psi).real
    # leggauss weights integrate d(cos theta) over [-1, 1]; halving
    # normalizes the solid angle.
    return float(weights @ fidelity.mean(axis=1)) / 2.0
