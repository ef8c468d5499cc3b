"""Self-test of the benchmark's independent reference solver.

    python3 -m pytest bench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference


@pytest.mark.parametrize("n", [3, 4, 7, 16])
def test_clean_network_gives_the_closed_form(n):
    gen = reference.generator(n, reference.noisy_set(n, n - 2), 0.0)
    for t in np.linspace(0.0, 2.0 * math.pi, 17):
        assert reference.fidelity(n, n - 2, 0.0, t, gen) == pytest.approx(
            reference.clean_fidelity(n, t), abs=1e-12
        )


def test_peak_fidelity_is_the_best_clean_fidelity():
    for n in (4, 9, 20):
        times = np.linspace(0.0, 2.0 * math.pi / n, 20001)
        best = max(reference.clean_fidelity(n, t) for t in times)
        assert best == pytest.approx(reference.peak_fidelity(n), abs=1e-9)


@pytest.mark.parametrize(
    "n, m, eta", [(4, 2, 1.0), (4, 2, 8.0), (6, 4, 1.0), (7, 3, 30.0), (16, 14, 0.01)]
)
def test_noisy_evolution_keeps_a_density_matrix(n, m, eta):
    gen = reference.generator(n, reference.noisy_set(n, m), eta)
    for t in (0.1, 1.0, 3.7, 12.0):
        rho = reference.evolve(n, m, eta, t, gen)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-12


def test_noise_moves_the_fidelity():
    # the same time on the clean and the noisy four-node network must differ,
    # or the dissipator would not be wired in
    t = 1.5 * math.pi
    assert reference.fidelity(4, 2, 0.0, t) == pytest.approx(0.5, abs=1e-12)
    assert reference.fidelity(4, 2, 4.0, t) > 0.7


def test_trajectory_bound_shrinks_with_the_ensemble():
    rho = reference.evolve(6, 4, 1.0, 1.0)
    small = reference.trajectory_bound(rho, 256, 1e-3, 1.0)
    large = reference.trajectory_bound(rho, 256 * 100, 1e-3, 1.0)
    assert 0.0 < large < small < 0.1
    assert (small - 1e-3) == pytest.approx(10.0 * (large - 1e-3))
