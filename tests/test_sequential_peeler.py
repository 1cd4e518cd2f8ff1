"""Tests for the SequentialPeeler baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro import peel
from repro.core import ParallelPeeler, SequentialPeeler
from repro.core.results import UNPEELED
from repro.hypergraph import Hypergraph, kcore, random_hypergraph


class TestCorrectness:
    def test_tiny_graph(self, tiny_graph):
        result = SequentialPeeler(2).peel(tiny_graph)
        assert not result.success
        assert result.core_size == 3
        assert result.core_edge_mask.tolist() == [False, True, True, True]

    def test_path_graph(self, path_like_graph):
        result = SequentialPeeler(2).peel(path_like_graph)
        assert result.success
        assert result.peel_order.size == path_like_graph.num_edges

    def test_empty_graph(self):
        graph = Hypergraph(5, np.empty((0, 3), dtype=np.int64))
        result = SequentialPeeler(2).peel(graph)
        assert result.success
        assert result.peel_order.size == 0

    def test_same_core_as_parallel(self, small_below_threshold, small_above_threshold):
        for graph in (small_below_threshold, small_above_threshold):
            seq = SequentialPeeler(2).peel(graph)
            par = ParallelPeeler(2).peel(graph)
            assert np.array_equal(seq.core_edge_mask, par.core_edge_mask)
            assert np.array_equal(seq.core_vertex_mask & (graph.degrees() > 0),
                                  par.core_vertex_mask & (graph.degrees() > 0))

    def test_same_core_as_kcore(self):
        for seed in range(3):
            graph = random_hypergraph(1500, 1.0, 3, seed=seed)
            seq = SequentialPeeler(2).peel(graph)
            ref = kcore(graph, 2)
            assert np.array_equal(seq.core_edge_mask, ref.edge_mask)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_various_k(self, k):
        graph = random_hypergraph(1000, 1.8, 3, seed=k)
        seq = SequentialPeeler(k).peel(graph)
        ref = kcore(graph, k)
        assert np.array_equal(seq.core_edge_mask, ref.edge_mask)


class TestPeelOrder:
    def test_peel_order_is_valid_permutation_of_removed_edges(self, small_below_threshold):
        result = SequentialPeeler(2).peel(small_below_threshold)
        removed = np.flatnonzero(result.edge_peel_round != UNPEELED)
        assert sorted(result.peel_order.tolist()) == sorted(removed.tolist())
        assert len(set(result.peel_order.tolist())) == result.peel_order.size

    def test_peel_order_respects_degree_invariant(self):
        # Replaying the recorded order must always find, at the moment an edge
        # is removed, at least one endpoint with residual degree < k.
        graph = random_hypergraph(400, 0.6, 3, seed=17)
        k = 2
        result = SequentialPeeler(k).peel(graph)
        degrees = graph.degrees().astype(int)
        alive = np.ones(graph.num_edges, dtype=bool)
        for e in result.peel_order:
            endpoints = graph.edge_vertices(int(e))
            assert alive[e]
            assert (degrees[endpoints] < k).any()
            alive[e] = False
            degrees[endpoints] -= 1

    def test_mode_and_rounds_fields(self, tiny_graph):
        result = SequentialPeeler(2).peel(tiny_graph)
        assert result.mode == "sequential"
        assert result.num_rounds in (0, 1)

    def test_track_stats_false(self, tiny_graph):
        result = SequentialPeeler(2, track_stats=False).peel(tiny_graph)
        assert result.round_stats == []

    def test_convenience_api(self, tiny_graph):
        result = peel(tiny_graph, "sequential", k=2)
        assert result.mode == "sequential"
