"""The complete graph's Hamiltonian, noise placement, and jump operators.

Vertices are numbered 1..n to match the physics convention for network
nodes; matrix index 0 is reserved for the vacuum (no excitation) state,
so every operator in the single-excitation representation is an
(n+1) x (n+1) array whose row and column 0 belong to the vacuum.

The hopping strength is fixed at 1, which also fixes the time unit: the
complete graph on n vertices has single-excitation spectrum
{n-1 (uniform mode), -1 (n-1 fold)} and all closed-form results in
:mod:`spinnet.analytics` and :mod:`spinnet.perturbation` are expressed
in this unit.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "NoiseSpec",
    "INPUT_VERTEX",
    "OUTPUT_VERTEX",
    "standard_noise_spec",
    "single_excitation_hamiltonian",
    "lindblad_edge_operators",
    "require_hermitian",
]

# Canonical transfer endpoints. On the complete graph every ordered
# pair is equivalent, so fixing (1, 2) is labeling, not physics.
INPUT_VERTEX = 1
OUTPUT_VERTEX = 2


def _normalize_edge(edge: tuple[int, int]) -> tuple[int, int]:
    k, l = edge
    if k == l:
        raise ValueError(f"self-loop {edge} is not allowed")
    return (k, l) if k < l else (l, k)


@dataclass(frozen=True)
class NoiseSpec:
    """Which vertices carry noise, and how strongly.

    ``strength`` is either one rate for every noisy pair or a mapping
    from vertex pairs to individual rates; the heterogeneous form covers
    the case of unequal couplings behind the same interface. The noise
    acts on every unordered pair inside ``noisy_vertices``, so a single
    noisy vertex produces no operators at all.
    """

    noisy_vertices: tuple[int, ...]
    strength: float | Mapping[tuple[int, int], float] = 0.0

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.noisy_vertices)))
        if len(ordered) != len(self.noisy_vertices):
            raise ValueError("noisy_vertices contains duplicates")
        object.__setattr__(self, "noisy_vertices", ordered)
        # a map is as large as the input and is checked pair by pair; a
        # scalar is checked once, without expanding the m(m-1)/2 pairs
        if isinstance(self.strength, Mapping):
            lowest = min(self.edge_strengths().values(), default=0.0)
        else:
            lowest = float(self.strength)
        if lowest < 0:
            raise ValueError("noise strengths must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.noisy_vertices)

    def max_strength(self) -> float:
        """Largest strength on any noisy pair, 0 when there is no pair."""
        if isinstance(self.strength, Mapping):
            return max(self.edge_strengths().values(), default=0.0)
        return float(self.strength) if self.m >= 2 else 0.0

    def edge_strengths(self) -> dict[tuple[int, int], float]:
        """Expand to a per-pair strength map over all pairs of noisy vertices."""
        pairs = list(combinations(self.noisy_vertices, 2))
        if isinstance(self.strength, Mapping):
            expanded = {_normalize_edge(p): float(s) for p, s in self.strength.items()}
            missing = [p for p in pairs if p not in expanded]
            if missing:
                raise ValueError(f"per-edge strengths missing pairs {missing}")
            extra = [p for p in expanded if p not in pairs]
            if extra:
                raise ValueError(f"per-edge strengths name pairs outside the noisy set: {extra}")
            return {p: expanded[p] for p in pairs}
        return {p: float(self.strength) for p in pairs}

    def validate_for(self, n: int, input_vertex: int, output_vertex: int) -> None:
        """Check the spec against an n-vertex network and a transfer pair.

        The noisy set must leave both endpoints of the transfer alone,
        which also caps its size at n - 2.
        """
        for v in self.noisy_vertices:
            if not 1 <= v <= n:
                raise ValueError(f"noisy vertex {v} outside 1..{n}")
        clash = set(self.noisy_vertices) & {input_vertex, output_vertex}
        if clash:
            raise ValueError(f"noisy vertices {sorted(clash)} overlap the transfer pair")
        if self.m > n - 2:
            raise ValueError(f"at most n-2={n - 2} vertices may be noisy, got {self.m}")


def standard_noise_spec(
    n: int,
    m: int,
    strength: float | Mapping[tuple[int, int], float],
) -> NoiseSpec:
    """Noise on the m highest-numbered vertices of an n-vertex network.

    With the conventional transfer pair (1, 2) this is the canonical
    placement; by the permutation symmetry of the complete graph any
    other admissible choice of m vertices gives identical physics.
    """
    if not 0 <= m <= max(n - 2, 0):
        raise ValueError(f"m must lie in 0..n-2 = {n - 2}, got {m}")
    return NoiseSpec(tuple(range(n - m + 1, n + 1)), strength)


def require_hermitian(matrix: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Validate Hermiticity within ``atol`` and return the matrix unchanged."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    defect = np.abs(matrix - matrix.conj().T).max() if matrix.size else 0.0
    if defect > atol:
        raise ValueError(f"matrix is not Hermitian: max defect {defect:.3e} > {atol:.1e}")
    return matrix


def single_excitation_hamiltonian(n: int) -> np.ndarray:
    """Hopping Hamiltonian of the complete graph on n vertices, vacuum included.

    Returns the real symmetric (n+1) x (n+1) matrix whose (k, l) entry is 1
    for every pair of distinct vertices k, l in 1..n. Row and column 0 are
    identically zero: the vacuum carries no excitation and never couples.
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    return np.pad(1.0 - np.eye(n), (1, 0))


def lindblad_edge_operators(
    n: int,
    spec: NoiseSpec,
    input_vertex: int,
    output_vertex: int,
) -> list[tuple[np.ndarray, float]]:
    """Build the edge-hopping Lindblad operators for a noise specification.

    One Hermitian operator ``|k><l| + |l><k|`` per unordered pair {k, l}
    of noisy vertices, paired with its generator rate. The rate is twice
    the noise strength: delta-correlated coupling noise of strength eta
    averages to an edge dissipator with coefficient 2*eta, and the
    stochastic sampler in :mod:`spinnet.stochastic` is normalized to the
    same convention so trajectory ensembles converge to this generator.
    """
    spec.validate_for(n, input_vertex, output_vertex)
    dim = n + 1
    out: list[tuple[np.ndarray, float]] = []
    for (k, l), eta in spec.edge_strengths().items():
        op = np.zeros((dim, dim))
        op[k, l] = op[l, k] = 1.0
        out.append((op, 2.0 * eta))
    return out
