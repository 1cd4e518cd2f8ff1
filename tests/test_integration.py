"""Integration tests: theory vs. simulation, end-to-end pipelines, public API."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro
from repro import (
    IBLT,
    ParallelPeeler,
    SequentialPeeler,
    SubtablePeeler,
    SubtableParallelDecoder,
    iterate_recurrence,
    peel,
    peeling_threshold,
    predicted_survivors,
    random_hypergraph,
)
from repro.analysis.rounds import leading_constant_below, predict_rounds
from repro.hypergraph import partitioned_hypergraph


class TestPublicAPI:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_snippet(self):
        graph = random_hypergraph(10_000, 0.7, 4, seed=1)
        result = peel(graph, "parallel", k=2)
        assert result.success
        assert round(peeling_threshold(2, 4), 3) == 0.772


class TestTheoremScaling:
    """The headline theorems, checked against the actual engines."""

    def test_theorem1_loglog_scaling_below_threshold(self):
        """Rounds below threshold grow ~ log log n: going from n=2k to n=128k
        (a 64x increase) should change the round count by at most ~2."""
        rounds = []
        for n in (2_000, 128_000):
            graph = random_hypergraph(n, 0.7, 4, seed=n)
            rounds.append(ParallelPeeler(2).peel(graph).num_rounds)
        assert abs(rounds[1] - rounds[0]) <= 2

    def test_theorem3_log_scaling_above_threshold(self):
        """Rounds above threshold grow ~ log n: a 64x increase in n should add
        clearly more rounds than the below-threshold case (averaged over a few
        trials to damp per-instance noise)."""
        averages = []
        for n in (2_000, 128_000):
            rounds = [
                ParallelPeeler(2, track_stats=False)
                .peel(random_hypergraph(n, 0.85, 4, seed=n + i))
                .num_rounds
                for i in range(3)
            ]
            averages.append(sum(rounds) / len(rounds))
        assert averages[1] - averages[0] >= 3.0

    def test_below_faster_than_above_asymmetry(self):
        """The paper's 'fortunate asymmetry': at the same n, peeling to an
        empty core (below threshold) needs far fewer rounds than finding a
        non-empty core (above threshold)."""
        n = 160_000
        below = ParallelPeeler(2).peel(random_hypergraph(n, 0.7, 4, seed=1)).num_rounds
        above = ParallelPeeler(2).peel(random_hypergraph(n, 0.85, 4, seed=2)).num_rounds
        assert below < above

    def test_rounds_match_recurrence_prediction(self):
        n = 100_000
        graph = random_hypergraph(n, 0.7, 4, seed=3)
        measured = ParallelPeeler(2).peel(graph).num_rounds
        predicted = predict_rounds(n, 0.7, 2, 4).rounds
        assert abs(measured - predicted) <= 2

    def test_theorem1_constant_consistency(self):
        # The recurrence-extinction round divided by log log n should be in
        # the same ballpark as the Theorem 1 constant (up to the additive
        # term; generous bounds).
        n = 10**6
        constant = leading_constant_below(2, 4)
        trace = iterate_recurrence(0.7, 2, 4, 200)
        extinction = trace.rounds_to_extinction(tol=1.0 / n)
        assert extinction is not None
        assert extinction >= constant * math.log(math.log(n)) - 1

    def test_theorem7_subround_scaling(self):
        """Subtable subrounds ≈ ratio × plain rounds with ratio ≪ r."""
        n = 80_000
        plain = ParallelPeeler(2).peel(random_hypergraph(n, 0.7, 4, seed=5)).num_rounds
        sub = SubtablePeeler(2).peel(partitioned_hypergraph(n, 0.7, 4, seed=5)).num_subrounds
        ratio = sub / plain
        assert 1.0 < ratio < 3.0  # paper observes ≈ 2.1, naive bound is 4


class TestSurvivorAccuracy:
    def test_lambda_prediction_tracks_simulation(self):
        n, c = 50_000, 0.7
        graph = random_hypergraph(n, c, 4, seed=7)
        result = ParallelPeeler(2).peel(graph)
        predicted = predicted_survivors(n, c, 2, 4, 8)
        for t in range(1, 9):
            measured = result.survivors_after_round(t)
            assert measured == pytest.approx(predicted[t - 1], rel=0.05, abs=50)


class TestEndToEndIBLT:
    def test_iblt_threshold_matches_hypergraph_threshold(self):
        """IBLT recovery success tracks c*_{2,r}: comfortably below succeeds,
        comfortably above fails."""
        c_star = peeling_threshold(2, 3)
        num_cells = 9000
        below = IBLT(num_cells, 3, seed=1)
        below.insert(np.arange(1, int((c_star - 0.07) * num_cells) + 1, dtype=np.uint64))
        above = IBLT(num_cells, 3, seed=1)
        above.insert(np.arange(1, int((c_star + 0.07) * num_cells) + 1, dtype=np.uint64))
        assert SubtableParallelDecoder().decode(below).success
        assert not SubtableParallelDecoder().decode(above).success

    def test_parallel_decode_rounds_are_small_below_threshold(self):
        num_cells = 30_000
        table = IBLT(num_cells, 3, seed=2)
        table.insert(np.arange(1, int(0.75 * num_cells) + 1, dtype=np.uint64))
        result = SubtableParallelDecoder().decode(table)
        assert result.success
        # O(log log n): double-digit rounds at most at this scale.
        assert result.rounds <= 20

    def test_iblt_peeling_is_hypergraph_peeling(self):
        """The IBLT-induced hypergraph peels exactly like the IBLT decodes.

        The *flat* round-synchronous decoder performs exactly the parallel
        peeling process on the hypergraph whose vertices are cells and whose
        edges are items, so its round count must match the hypergraph
        engine's (up to the trailing round in which the engine removes
        now-isolated vertices while the decoder has nothing left to recover).
        The subtable decoder is the Appendix-B variant and needs fewer
        rounds, which the ratio assertion captures.
        """
        from repro.hypergraph import Hypergraph
        from repro.iblt import FlatParallelDecoder

        num_cells, r = 600, 3
        table = IBLT(num_cells, r, seed=3)
        keys = np.arange(1, 401, dtype=np.uint64)
        table.insert(keys)
        cells = table.hasher.cell_indices(keys)
        graph = Hypergraph(num_cells, cells, allow_duplicate_vertices=True, validate=False)
        graph_result = ParallelPeeler(2).peel(graph)
        flat_result = FlatParallelDecoder().decode(table)
        subtable_result = SubtableParallelDecoder().decode(table)
        assert graph_result.success == flat_result.success == subtable_result.success
        assert abs(graph_result.num_rounds - flat_result.rounds) <= 1
        # Appendix B: subtables finish in fewer (full) rounds, never more.
        assert subtable_result.rounds <= flat_result.rounds


class TestCrossEngineConsistency:
    @pytest.mark.parametrize("c", [0.5, 0.7, 0.8, 0.9])
    def test_all_engines_one_core(self, c):
        n = 8_000
        graph = partitioned_hypergraph(n, c, 4, seed=int(c * 1000))
        par = ParallelPeeler(2).peel(graph)
        seq = SequentialPeeler(2).peel(graph)
        sub = SubtablePeeler(2).peel(graph)
        assert np.array_equal(par.core_edge_mask, seq.core_edge_mask)
        assert np.array_equal(par.core_edge_mask, sub.core_edge_mask)
