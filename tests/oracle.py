"""The tests' oracles: exp(-i H t) through an eigendecomposition of H, a 2 x 2 block, a scalar readout, and the mean trajectory step.

The package reads the noiseless transfer amplitude from its closed form,
``perturbation.beta``; this route diagonalizes H with numpy's ``eigh``
instead, as ``bench/reference.py`` solves the master equation without
the package's engines. ``coherence_block`` gives the product lambda z
of the lumped engine at any n from a 2 x 2 matrix exponential. The
package reads channels from whole arrays of rho_oo and rho_o0;
``scalar_channel`` reads one cell at a time. ``split_step_map`` is
the exact mean of one step of the trajectory engine, so that the
engine's time-step error can be measured with no sampling, and its
samples can be held to their own mean.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np
import scipy.linalg

from spinnet.lindblad import POPULATION_FLOOR, PROBE
from spinnet.network import single_excitation_hamiltonian
from spinnet.propagator import ChannelParams, optimal_avg_fidelity


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


def coherence_block(n: int, m: int, eta: float, times) -> np.ndarray:
    """lambda z at each time, for m >= 2 noisy vertices of K_n at scalar strength eta.

    The coherence c_j = rho_j0 obeys c' = (-i H - eta (m - 1) P_N) c from
    c = |in> b a*. Over the N = n - m vertices outside the noisy set,
    |in> is u_S / sqrt(N), u_S their uniform vector, plus a rest with
    zero sum that H sends to -rest and the noise never reaches. u_S
    meets only the noisy uniform vector u_N, at strength sqrt(N m), so

        lambda z = ([e^{M t}]_SS - e^{i t}) / N,
        M = -i [[N - 1, sqrt(N m)], [sqrt(N m), m - 1]] - diag(0, eta (m - 1)).
    """
    size = n - m
    root = math.sqrt(size * m)
    block = -1j * np.array([[size - 1.0, root], [root, m - 1.0]]) - np.diag([0.0, eta * (m - 1)])
    return np.array([(scipy.linalg.expm(block * t)[0, 0] - np.exp(1j * t)) / size for t in times])


def scalar_channel(rho_oo: float, rho_o0: complex) -> tuple[ChannelParams, float]:
    """The channel of ``lindblad.PROBE`` from one rho_oo and rho_o0, and its best fidelity.

    The rules of ``lindblad.FidelityCurve.read`` applied to one cell in
    Python scalars: |z|^2 = rho_oo / |b|^2 and lambda z = rho_o0 / (b a*),
    split only above ``POPULATION_FLOOR`` (else z = 0, lambda = 1), with
    z = |z| at lambda = 0. F comes from the decoding rotation of
    ``propagator.optimal_avg_fidelity``, not from its closed form.
    """
    a, b = PROBE.amplitudes()
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
    params = ChannelParams(complex(z), float(lam))
    return params, optimal_avg_fidelity(params)[0]


def split_step_map(n: int, rates: Mapping[tuple[int, int], float], dt: float) -> np.ndarray:
    """The exact ensemble-mean map of one split trajectory step on K_n, on row-major vec(rho).

    A step conjugates by e^{-iH dt/2}, rotates each noisy pair (k, l) of
    ``rates`` by exp(-i theta V) with V = |k><l| + |l><k| and theta a
    normal of variance 2 eta dt, and conjugates by e^{-iH dt/2} again.
    Averaged over theta, the rotation's conjugation is
    E[exp(-i theta ad_V)] = exp(-eta dt ad_V^2), that pair's dissipator
    over dt; the angles are independent, so the mean of the step is the
    product of these maps, the pairs in the order of ``rates``. The
    conjugations come from ``eigh_propagator`` and the dissipators from
    scipy's ``expm``; none of it comes from the package's engines.
    """
    dim = n + 1
    half = eigh_propagator(single_excitation_hamiltonian(n), dt / 2)
    conjugation = np.kron(half, half.conj())
    eye = np.eye(dim)
    step = conjugation
    for (k, l), eta in rates.items():
        v = np.zeros((dim, dim))
        v[k, l] = v[l, k] = 1.0
        ad = np.kron(v, eye) - np.kron(eye, v)
        step = scipy.linalg.expm(-eta * dt * (ad @ ad)) @ step
    return conjugation @ step
