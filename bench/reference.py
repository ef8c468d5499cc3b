"""Independent reference for the benchmark's output checks.

A master-equation solver written from the model's definition with plain
numpy and ``scipy.linalg.expm``. It imports nothing from spinnet and
shares none of its conventions beyond the physics:

- basis: index 0 is the vacuum, 1..n carry the single excitation;
- H is the adjacency matrix of the complete graph K_n on 1..n;
- every unordered pair {k, l} of noisy vertices carries the Hermitian
  jump operator L = |k><l| + |l><k| with dissipator coefficient 2 eta;
- the standard placement puts the transfer pair on (1, 2) and the noise
  on the m highest-numbered vertices;
- the probe is theta = pi/2, so the input amplitudes are a = b = 1/sqrt(2),
  and the channel readout F = 1/2 + lambda|z|/3 + |z|^2/6 is taken from
  the output population and the output-vacuum coherence.

The superoperator acts on row-major vec(rho), where
vec(A X B) = kron(A, B^T) vec(X); the program stacks columns instead.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import scipy.linalg

OUTPUT = 2
PROBE_A = PROBE_B = 1.0 / math.sqrt(2.0)


def noisy_set(n: int, m: int) -> tuple[int, ...]:
    """Standard placement: the m highest-numbered vertices."""
    return tuple(range(n - m + 1, n + 1))


def generator(n: int, noisy: tuple[int, ...], eta: float) -> np.ndarray:
    """Row-major Lindblad superoperator of the noisy complete graph."""
    dim = n + 1
    eye = np.eye(dim)
    h = np.zeros((dim, dim))
    h[1:, 1:] = 1.0 - np.eye(n)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for k, l in combinations(noisy, 2):
        jump = np.zeros((dim, dim))
        jump[k, l] = jump[l, k] = 1.0
        sq = jump @ jump
        gen += 2.0 * eta * (
            np.kron(jump, jump.T) - 0.5 * np.kron(sq, eye) - 0.5 * np.kron(eye, sq.T)
        )
    return gen


def initial_state(n: int) -> np.ndarray:
    psi = np.zeros(n + 1, dtype=complex)
    psi[0], psi[1] = PROBE_A, PROBE_B
    return np.outer(psi, psi.conj())


def evolve(n: int, m: int, eta: float, t: float, gen: np.ndarray | None = None) -> np.ndarray:
    """Density matrix at time t from the pure probe state on vertex 1."""
    gen = generator(n, noisy_set(n, m), eta) if gen is None else gen
    dim = n + 1
    vec = scipy.linalg.expm(gen * t) @ initial_state(n).reshape(-1)
    return vec.reshape(dim, dim)


def readout_fidelity(rho: np.ndarray) -> float:
    """Optimal average fidelity of the channel stored in the evolved probe state."""
    coherence = abs(rho[OUTPUT, 0]) / (PROBE_A * PROBE_B)
    population = max(rho[OUTPUT, OUTPUT].real, 0.0) / PROBE_B**2
    return 0.5 + coherence / 3.0 + population / 6.0


def fidelity(n: int, m: int, eta: float, t: float, gen: np.ndarray | None = None) -> float:
    return readout_fidelity(evolve(n, m, eta, t, gen))


def clean_fidelity(n: int, t: float) -> float:
    """Closed form on the clean complete graph: |z|^2 = (2/n^2)(1 - cos nt)."""
    z_sq = (2.0 / n**2) * (1.0 - math.cos(n * t))
    return 0.5 + math.sqrt(max(z_sq, 0.0)) / 3.0 + z_sq / 6.0


def peak_fidelity(n: int) -> float:
    """Best clean fidelity over all times: |z| = 2/n gives 1/2 + 2/(3n) + 2/(3n^2)."""
    return 0.5 + 2.0 / (3.0 * n) + 2.0 / (3.0 * n * n)


def trajectory_bound(rho: np.ndarray, n_traj: int, dt: float, eta: float, sigmas: float = 6.0) -> float:
    """Largest allowed |F_ensemble - F| for an n_traj-member trajectory mean.

    Each trajectory keeps the vacuum amplitude a and carries an output
    amplitude b u, so its population X = |b u|^2 lies in [0, |b|^2] and
    its coherence Y = b u a* has |Y|^2 = |a|^2 X. Hence
    Var X <= E X (|b|^2 - E X) and E|Y - E Y|^2 = |a|^2 E X - |E Y|^2,
    with both means taken from the reference state. The readout is
    Lipschitz: |dF| <= |dY| / (3|ab|) + |dX| / (6|b|^2). The bound allows
    ``sigmas`` standard errors of each term plus eta * dt for the bias of
    piecewise-constant noise steps.
    """
    pop = min(max(rho[OUTPUT, OUTPUT].real, 0.0), PROBE_B**2)
    var_x = pop * (PROBE_B**2 - pop)
    var_y = max(PROBE_A**2 * pop - abs(rho[OUTPUT, 0]) ** 2, 0.0)
    spread = math.sqrt(var_y / n_traj) / (3.0 * PROBE_A * PROBE_B) + math.sqrt(
        var_x / n_traj
    ) / (6.0 * PROBE_B**2)
    return sigmas * spread + eta * dt
