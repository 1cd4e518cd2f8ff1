"""Tests for the SubtablePeeler (Appendix B variant)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import peel
from repro.core import ParallelPeeler, SubtablePeeler
from repro.hypergraph import Hypergraph, kcore, partitioned_hypergraph


class TestValidation:
    def test_requires_partitioned_graph(self, tiny_graph):
        with pytest.raises(ValueError, match="partitioned"):
            SubtablePeeler(2).peel(tiny_graph)

    def test_partition_count_must_match_edge_size(self):
        # 2 partitions but 3-vertex edges.
        partition = np.array([0, 0, 1, 1])
        graph = Hypergraph(
            4, [[0, 1, 2]], vertex_partition=partition, num_partitions=2
        )
        with pytest.raises(ValueError, match="subtables"):
            SubtablePeeler(2).peel(graph)

    def test_invalid_k(self):
        with pytest.raises((ValueError, TypeError)):
            SubtablePeeler(0)


class TestCorrectness:
    def test_same_core_as_kcore(self, small_partitioned):
        result = SubtablePeeler(2).peel(small_partitioned)
        reference = kcore(small_partitioned, 2)
        assert np.array_equal(result.core_edge_mask, reference.edge_mask)
        assert result.success == reference.is_empty

    def test_same_core_as_parallel_peeler(self, small_partitioned):
        sub = SubtablePeeler(2).peel(small_partitioned)
        par = ParallelPeeler(2).peel(small_partitioned)
        assert np.array_equal(sub.core_edge_mask, par.core_edge_mask)

    @pytest.mark.parametrize("c", [0.5, 0.7, 0.9])
    def test_core_matches_at_various_densities(self, c):
        graph = partitioned_hypergraph(2000, c, 4, seed=int(c * 100))
        sub = SubtablePeeler(2).peel(graph)
        ref = kcore(graph, 2)
        assert np.array_equal(sub.core_edge_mask, ref.edge_mask)

    def test_k3(self):
        graph = partitioned_hypergraph(3000, 1.3, 3, seed=5)
        sub = SubtablePeeler(3).peel(graph)
        ref = kcore(graph, 3)
        assert np.array_equal(sub.core_edge_mask, ref.edge_mask)

    def test_empty_partitioned_graph(self):
        graph = partitioned_hypergraph(40, 0.5, 4, num_edges=0, seed=1)
        result = SubtablePeeler(2).peel(graph)
        assert result.success
        # All vertices are isolated; the first round's subrounds remove them.
        assert result.num_rounds <= 1


class TestSubroundAccounting:
    def test_subrounds_at_most_r_times_rounds(self, small_partitioned):
        result = SubtablePeeler(2).peel(small_partitioned)
        r = small_partitioned.num_partitions
        assert result.num_subrounds <= r * result.num_rounds
        assert result.num_subrounds >= result.num_rounds

    def test_subrounds_fewer_than_r_times_parallel_rounds(self):
        """The headline of Appendix B: subrounds ≪ r × plain parallel rounds."""
        graph = partitioned_hypergraph(40_000, 0.7, 4, seed=9)
        sub = SubtablePeeler(2).peel(graph)
        par = ParallelPeeler(2).peel(graph)
        assert sub.success and par.success
        # Paper: ratio of subrounds to plain rounds ≈ 2, certainly below r=4.
        assert sub.num_subrounds < 4 * par.num_rounds
        assert sub.num_subrounds <= 3 * par.num_rounds

    def test_subtable_rounds_not_more_than_parallel_rounds(self):
        # Each subtable round peels at least as much as a plain round, so the
        # number of full rounds can only be smaller or equal.
        graph = partitioned_hypergraph(20_000, 0.7, 4, seed=4)
        sub = SubtablePeeler(2).peel(graph)
        par = ParallelPeeler(2).peel(graph)
        assert sub.num_rounds <= par.num_rounds

    def test_stats_have_subtable_indices(self, small_partitioned):
        result = SubtablePeeler(2).peel(small_partitioned)
        assert all(s.subtable is not None for s in result.round_stats)
        assert {s.subtable for s in result.round_stats} <= set(range(4))

    def test_stats_survivors_monotone(self, small_partitioned):
        result = SubtablePeeler(2).peel(small_partitioned)
        survivors = [s.vertices_remaining for s in result.round_stats]
        assert all(a >= b for a, b in zip(survivors, survivors[1:]))

    def test_stats_length_matches_subrounds(self, small_partitioned):
        result = SubtablePeeler(2).peel(small_partitioned)
        assert len(result.round_stats) == result.num_subrounds

    def test_track_stats_false(self, small_partitioned):
        result = SubtablePeeler(2, track_stats=False).peel(small_partitioned)
        assert result.round_stats == []
        assert result.num_subrounds > 0

    def test_convenience_api(self, small_partitioned):
        result = peel(small_partitioned, "subtable", k=2)
        assert result.mode == "subtable"
