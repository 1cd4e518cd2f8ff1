"""Tests for the round-synchronous ParallelPeeler."""

from __future__ import annotations

import numpy as np
import pytest

from repro import peel
from repro.core import ParallelPeeler
from repro.core.results import UNPEELED
from repro.hypergraph import Hypergraph, kcore, random_hypergraph


class TestBasicBehaviour:
    def test_tiny_graph_rounds_and_core(self, tiny_graph):
        result = ParallelPeeler(2).peel(tiny_graph)
        # Round 1 removes vertices 0 and 5 (degrees 1 and 0); afterwards the
        # 2-core remains, so exactly one removing round occurs.
        assert result.num_rounds == 1
        assert not result.success
        assert result.core_size == 3
        assert result.vertex_peel_round[0] == 1
        assert result.vertex_peel_round[5] == 1
        assert result.vertex_peel_round[2] == UNPEELED

    def test_path_graph_peels_empty(self, path_like_graph):
        result = ParallelPeeler(2).peel(path_like_graph)
        assert result.success
        assert result.core_size == 0
        # Round 1 removes the degree-1 endpoints of the outer edges plus all
        # other degree-<2 vertices; the middle edge needs a second round.
        assert result.num_rounds == 2

    def test_empty_graph(self):
        graph = Hypergraph(10, np.empty((0, 3), dtype=np.int64))
        result = ParallelPeeler(2).peel(graph)
        assert result.success
        assert result.num_rounds == 1  # one round removes the isolated vertices
        assert (result.vertex_peel_round == 1).all()

    def test_zero_vertex_graph(self):
        graph = Hypergraph(0, np.empty((0, 2), dtype=np.int64))
        result = ParallelPeeler(2).peel(graph)
        assert result.success
        assert result.num_rounds == 0

    def test_matches_kcore(self, small_below_threshold, small_above_threshold):
        for graph in (small_below_threshold, small_above_threshold):
            result = ParallelPeeler(2).peel(graph)
            reference = kcore(graph, 2)
            assert np.array_equal(result.core_edge_mask, reference.edge_mask)
            assert result.success == reference.is_empty

    def test_k3_core(self):
        graph = random_hypergraph(3000, 1.4, 3, seed=8)
        result = ParallelPeeler(3).peel(graph)
        reference = kcore(graph, 3)
        assert np.array_equal(result.core_edge_mask, reference.edge_mask)

    def test_invalid_k(self):
        with pytest.raises((ValueError, TypeError)):
            ParallelPeeler(0)

    def test_invalid_update_mode(self):
        with pytest.raises(ValueError):
            ParallelPeeler(2, update="bogus")  # type: ignore[arg-type]

    def test_max_rounds_validated(self):
        with pytest.raises((ValueError, TypeError)):
            ParallelPeeler(2, max_rounds=0)


class TestRoundSemantics:
    def test_round_monotonicity(self, small_below_threshold):
        result = ParallelPeeler(2).peel(small_below_threshold)
        survivors = result.vertices_remaining_per_round
        assert (np.diff(survivors) <= 0).all()
        assert survivors[-1] == 0  # below threshold: peels to empty

    def test_edges_removed_no_later_than_all_their_vertices(self, small_below_threshold):
        result = ParallelPeeler(2).peel(small_below_threshold)
        graph = small_below_threshold
        edge_rounds = result.edge_peel_round
        vertex_rounds = result.vertex_peel_round
        for e in range(0, graph.num_edges, 97):  # sample for speed
            endpoints = graph.edge_vertices(e)
            endpoint_rounds = vertex_rounds[endpoints]
            # The edge dies in the round its first endpoint is peeled.
            peeled_endpoints = endpoint_rounds[endpoint_rounds != UNPEELED]
            if edge_rounds[e] != UNPEELED:
                assert edge_rounds[e] == peeled_endpoints.min()
            else:
                assert peeled_endpoints.size == 0

    def test_vertex_peel_round_consistent_with_survivor_counts(self, small_below_threshold):
        result = ParallelPeeler(2).peel(small_below_threshold)
        rounds = result.vertex_peel_round
        for t, stats in enumerate(result.round_stats, start=1):
            expected = int(np.sum((rounds == UNPEELED) | (rounds > t)))
            assert stats.vertices_remaining == expected

    def test_stats_work_full_mode(self, tiny_graph):
        result = ParallelPeeler(2, update="full").peel(tiny_graph)
        # Full mode inspects every live vertex each round.
        assert result.round_stats[0].work == tiny_graph.num_vertices

    def test_track_stats_disabled(self, tiny_graph):
        result = ParallelPeeler(2, track_stats=False).peel(tiny_graph)
        assert result.round_stats == []
        assert result.num_rounds == 1

    def test_survivors_after_round_bounds(self, small_below_threshold):
        result = ParallelPeeler(2).peel(small_below_threshold)
        assert result.survivors_after_round(0) == result.num_vertices
        assert result.survivors_after_round(result.num_rounds + 5) == 0
        with pytest.raises(ValueError):
            result.survivors_after_round(-1)


class TestFrontierEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("c", [0.5, 0.75, 0.9])
    def test_full_and_frontier_agree(self, seed, c):
        graph = random_hypergraph(2000, c, 4, seed=seed)
        full = ParallelPeeler(2, update="full").peel(graph)
        frontier = ParallelPeeler(2, update="frontier").peel(graph)
        assert full.num_rounds == frontier.num_rounds
        assert np.array_equal(full.vertex_peel_round, frontier.vertex_peel_round)
        assert np.array_equal(full.edge_peel_round, frontier.edge_peel_round)

    def test_frontier_does_less_work_below_threshold(self):
        graph = random_hypergraph(5000, 0.6, 4, seed=3)
        full = ParallelPeeler(2, update="full").peel(graph)
        frontier = ParallelPeeler(2, update="frontier").peel(graph)
        assert frontier.total_work < full.total_work


class TestDuplicateVertexEdges:
    """Full-vs-frontier parity when edges repeat a vertex (multiset degrees).

    Hashing applications can map one key to the same cell several times (the
    paper's remark after Theorem 1); a vertex appearing twice in one edge has
    its degree counted twice, loses *two* degrees when that edge dies, and
    must appear only once in the next frontier.  This is the easiest place
    for a frontier implementation to drift from the full re-scan.
    """

    @staticmethod
    def _graph_with_duplicates(n, m, r, seed):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=(m, r), dtype=np.int64)
        # Force a healthy fraction of duplicate-endpoint edges.
        dup_rows = rng.random(m) < 0.3
        edges[dup_rows, 1] = edges[dup_rows, 0]
        graph = Hypergraph(n, edges, allow_duplicate_vertices=True)
        assert (np.sort(edges, axis=1)[:, 1:] == np.sort(edges, axis=1)[:, :-1]).any()
        return graph

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3])
    def test_full_and_frontier_agree_with_duplicates(self, seed, k):
        graph = self._graph_with_duplicates(1500, 1100, 4, seed)
        full = ParallelPeeler(k, update="full").peel(graph)
        frontier = ParallelPeeler(k, update="frontier").peel(graph)
        assert full.num_rounds == frontier.num_rounds
        assert full.success == frontier.success
        assert np.array_equal(full.vertex_peel_round, frontier.vertex_peel_round)
        assert np.array_equal(full.edge_peel_round, frontier.edge_peel_round)
        # Same removals per round, only the examined work may differ.
        for f_stats, fr_stats in zip(full.round_stats, frontier.round_stats):
            assert f_stats.vertices_peeled == fr_stats.vertices_peeled
            assert f_stats.edges_peeled == fr_stats.edges_peeled

    def test_multiset_degree_counted_per_occurrence(self):
        # Vertex 1 appears twice in the single edge: degree 2, so it survives
        # k=2 peeling while the degree-1 endpoints trigger the edge's death.
        graph = Hypergraph(3, [[1, 1, 2]], allow_duplicate_vertices=True)
        assert graph.degree(1) == 2
        result = ParallelPeeler(2).peel(graph)
        assert result.success
        # Once the edge dies, vertex 1 loses both degrees at once.
        assert result.num_rounds == 2

    def test_duplicate_parity_across_kernels(self):
        from repro.kernels import available_kernels

        graph = self._graph_with_duplicates(1500, 1100, 4, seed=7)
        reference = ParallelPeeler(2, update="full", kernel="numpy").peel(graph)
        for kernel in available_kernels():
            for update in ("full", "frontier"):
                result = ParallelPeeler(2, update=update, kernel=kernel).peel(graph)
                assert np.array_equal(
                    result.vertex_peel_round, reference.vertex_peel_round
                ), f"kernel={kernel} update={update}"
                assert np.array_equal(result.edge_peel_round, reference.edge_peel_round)


class TestConvenienceAPI:
    def test_peel_parallel(self, tiny_graph):
        result = peel(tiny_graph, "parallel", k=2)
        assert result.mode == "parallel"

    def test_peel_invalid_engine(self, tiny_graph):
        with pytest.raises(ValueError):
            peel(tiny_graph, "quantum")

    def test_summary_mentions_rounds(self, tiny_graph):
        result = peel(tiny_graph, "parallel", k=2)
        assert "rounds" in result.summary()
