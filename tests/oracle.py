"""The tests' unitary oracle: exp(-i H t) through an eigendecomposition of H.

The package reads the noiseless transfer amplitude from its closed form,
``perturbation.beta``; this route diagonalizes H with numpy's ``eigh``
instead, as ``bench/reference.py`` solves the master equation without
the package's engines.
"""

from __future__ import annotations

import numpy as np

from spinnet.network import single_excitation_hamiltonian


def eigh_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for a Hermitian H, from its eigenvalues and eigenvectors.

    ``eigh`` reads one triangle of its input, so a non-Hermitian H would
    pass silently; it raises ValueError instead.
    """
    if np.abs(h - h.conj().T).max() > 1e-12:
        raise ValueError("eigh_propagator needs a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def cut_hamiltonian(n: int, removed: tuple[int, ...]) -> np.ndarray:
    """H of the complete graph on n vertices with the rows and columns of ``removed`` zeroed.

    Strong noise on a vertex set freezes every coherence into or out of
    it, so the surviving dynamics is this H.
    """
    h = single_excitation_hamiltonian(n)
    h[list(removed), :] = 0.0
    h[:, list(removed)] = 0.0
    return h
