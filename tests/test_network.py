"""The complete graph's Hamiltonian and noise placement."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from spinnet.network import (
    NoiseSpec,
    single_excitation_hamiltonian,
    standard_noise_spec,
)


class TestHamiltonian:
    def test_vacuum_row_and_column_are_zero(self):
        h = single_excitation_hamiltonian(4)
        assert h.shape == (5, 5)
        assert np.all(h[0, :] == 0) and np.all(h[:, 0] == 0)

    def test_excitation_block_is_ones_minus_identity(self):
        # an independent J - I, entry by entry, must match bit for bit
        for n in range(1, 9):
            want = np.zeros((n + 1, n + 1))
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    want[k, l] = 0.0 if k == l else 1.0
            h = single_excitation_hamiltonian(n)
            assert h.dtype == np.float64
            assert h.tobytes() == want.tobytes()

    def test_complete_graph_edge_count(self):
        for n in (2, 3, 4, 7):
            assert np.count_nonzero(np.triu(single_excitation_hamiltonian(n))) == n * (n - 1) // 2

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            single_excitation_hamiltonian(0)

    def test_hermitian(self):
        h = single_excitation_hamiltonian(5)
        assert np.array_equal(h, h.conj().T)


class TestNoiseSpec:
    def test_vertices_sorted_and_deduplicated_rejected(self):
        spec = NoiseSpec((4, 3), 1.0)
        assert spec.noisy_vertices == (3, 4)
        with pytest.raises(ValueError):
            NoiseSpec((3, 3), 1.0)

    def test_m_counts_vertices(self):
        assert NoiseSpec((3, 4, 5), 0.5).m == 3
        assert NoiseSpec((), 0.5).m == 0

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec((3, 4), -0.1)

    def test_scalar_strength_expands_to_all_pairs(self):
        spec = NoiseSpec((3, 4, 5), 2.0)
        strengths = spec.edge_strengths()
        assert set(strengths) == {(3, 4), (3, 5), (4, 5)}
        assert all(v == 2.0 for v in strengths.values())

    def test_per_edge_map_must_cover_exactly(self):
        with pytest.raises(ValueError):
            NoiseSpec((3, 4, 5), {(3, 4): 1.0}).edge_strengths()
        with pytest.raises(ValueError):
            NoiseSpec((3, 4), {(3, 4): 1.0, (3, 5): 1.0}).edge_strengths()
        ok = NoiseSpec((3, 4), {(4, 3): 0.7}).edge_strengths()
        assert ok == {(3, 4): 0.7}

    def test_pair_named_twice_rejected(self):
        # both keys name one unordered pair; neither may silently win
        with pytest.raises(ValueError, match=r"per-edge strengths name pair \(3, 4\) twice"):
            NoiseSpec((3, 4), {(3, 4): 1.0, (4, 3): 2.0})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            NoiseSpec((3, 4), {(3, 3): 1.0, (3, 4): 1.0})

    def test_scalar_strength_checked_without_expanding_pairs(self):
        tracemalloc.start()
        try:
            spec = standard_noise_spec(1002, 1000, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 499,500 pairs alone would take tens of MB
        assert peak < 1 << 20
        assert spec.m == 1000

    def test_max_strength(self):
        assert NoiseSpec((3, 4, 5), 2.0).max_strength() == 2.0
        assert NoiseSpec((3,), 2.0).max_strength() == 0.0
        assert NoiseSpec((3, 4, 5), {(3, 4): 0.5, (3, 5): 1.5, (4, 5): 1.0}).max_strength() == 1.5

    def test_validate_for_rejects_transfer_pair_overlap(self):
        with pytest.raises(ValueError):
            NoiseSpec((2, 3), 1.0).validate_for(4, 1, 2)

    def test_validate_for_rejects_oversized_set(self):
        with pytest.raises(ValueError):
            NoiseSpec((3, 4, 5), 1.0).validate_for(4, 1, 2)

    def test_standard_spec_places_highest_vertices(self):
        spec = standard_noise_spec(6, 3, 0.1)
        assert spec.noisy_vertices == (4, 5, 6)
        assert standard_noise_spec(6, 0, 0.1).noisy_vertices == ()

    def test_standard_spec_rejects_m_beyond_capacity(self):
        with pytest.raises(ValueError):
            standard_noise_spec(4, 3, 0.1)

