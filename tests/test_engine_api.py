"""Tests for the engine registry, PeelingConfig and the peel/peel_many API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ParallelPeeler, SequentialPeeler, SubtablePeeler
from repro.engine import (
    PeelingConfig,
    PeelingEngine,
    available_engines,
    get_engine,
    peel,
    peel_many,
    register_engine,
    unregister_engine,
)
from repro.hypergraph import partitioned_hypergraph, random_hypergraph
from repro.parallel.backend import SerialBackend, available_backends


def assert_same_result(a, b):
    assert a.mode == b.mode
    assert a.k == b.k
    assert a.num_rounds == b.num_rounds
    assert a.num_subrounds == b.num_subrounds
    assert a.success == b.success
    np.testing.assert_array_equal(a.vertex_peel_round, b.vertex_peel_round)
    np.testing.assert_array_equal(a.edge_peel_round, b.edge_peel_round)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_engines_registered(self):
        assert set(available_engines()) == {"sequential", "parallel", "subtable", "batched"}

    def test_cli_rejects_unregistered_engine(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["peel", "--n", "100", "--engine", "shared-memory"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'shared-memory'" in capsys.readouterr().err

    def test_get_engine_returns_classes(self):
        assert get_engine("sequential") is SequentialPeeler
        assert get_engine("parallel") is ParallelPeeler
        assert get_engine("subtable") is SubtablePeeler

    def test_unknown_engine_lists_available(self):
        with pytest.raises(ValueError, match="unknown engine 'nope'.*'parallel'"):
            get_engine("nope")

    def test_register_and_unregister_custom_engine(self):
        class EagerPeeler(ParallelPeeler):
            pass

        register_engine("eager", EagerPeeler)
        try:
            assert "eager" in available_engines()
            assert get_engine("eager") is EagerPeeler
            with pytest.raises(ValueError, match="already registered"):
                register_engine("eager", ParallelPeeler)
            register_engine("eager", ParallelPeeler, overwrite=True)
            assert get_engine("eager") is ParallelPeeler
        finally:
            unregister_engine("eager")
        assert "eager" not in available_engines()

    def test_register_rejects_bad_arguments(self):
        with pytest.raises(TypeError):
            register_engine("", ParallelPeeler)
        with pytest.raises(TypeError):
            register_engine("thing", "not-callable")

    def test_engines_satisfy_protocol(self):
        assert isinstance(ParallelPeeler(2), PeelingEngine)
        assert isinstance(SequentialPeeler(2), PeelingEngine)


# --------------------------------------------------------------------- #
# PeelingConfig
# --------------------------------------------------------------------- #
class TestPeelingConfig:
    def test_dict_round_trip(self):
        config = PeelingConfig(engine="parallel", k=3, update="frontier", max_rounds=99)
        rebuilt = PeelingConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_dict_round_trip_with_options(self):
        config = PeelingConfig(engine="parallel", options={"update": "frontier"})
        assert PeelingConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown PeelingConfig keys"):
            PeelingConfig.from_dict({"engine": "parallel", "bogus": 1})

    def test_from_options_splits_fields(self):
        config = PeelingConfig.from_options("parallel", k=3, update="frontier", foo=1)
        assert config.k == 3
        assert config.update == "frontier"
        assert config.options == {"foo": 1}

    def test_build_constructs_configured_engine(self):
        engine = PeelingConfig(engine="parallel", k=3, update="frontier", track_stats=False).build()
        assert isinstance(engine, ParallelPeeler)
        assert engine.k == 3
        assert engine.update == "frontier"
        assert engine.track_stats is False

    def test_build_drops_inapplicable_shared_fields(self):
        # SequentialPeeler takes neither update nor max_rounds; both are
        # silently ignored.
        engine = PeelingConfig(engine="sequential", k=2, update="frontier", max_rounds=7).build()
        assert isinstance(engine, SequentialPeeler)

    def test_build_rejects_unknown_options(self):
        with pytest.raises(TypeError, match="does not accept option"):
            PeelingConfig(engine="sequential", options={"warp_speed": True}).build()

    def test_validation(self):
        with pytest.raises(ValueError):
            PeelingConfig(k=0)
        with pytest.raises(TypeError):
            PeelingConfig(engine="")

    def test_replace(self):
        config = PeelingConfig(engine="parallel", k=2)
        assert config.replace(k=5).k == 5
        assert config.k == 2


# --------------------------------------------------------------------- #
# peel()
# --------------------------------------------------------------------- #
class TestPeel:
    def test_parallel_matches_engine_class(self, small_below_threshold):
        assert_same_result(
            peel(small_below_threshold, "parallel", k=2),
            ParallelPeeler(2).peel(small_below_threshold),
        )

    def test_sequential_matches_engine_class(self, small_below_threshold):
        assert_same_result(
            peel(small_below_threshold, "sequential", k=2),
            SequentialPeeler(2).peel(small_below_threshold),
        )

    def test_subtable_matches_engine_class(self, small_partitioned):
        assert_same_result(
            peel(small_partitioned, "subtable", k=2),
            SubtablePeeler(2).peel(small_partitioned),
        )

    def test_default_engine_is_parallel(self, path_like_graph):
        assert peel(path_like_graph, k=2).mode == "parallel"

    def test_engine_specific_options_forwarded(self, small_below_threshold):
        full = peel(small_below_threshold, "parallel", k=2, update="full")
        frontier = peel(small_below_threshold, "parallel", k=2, update="frontier")
        assert_same_result(full, frontier)
        # Frontier scans strictly less work after round 1 on a sparse graph.
        assert sum(s.work for s in frontier.round_stats) < sum(s.work for s in full.round_stats)

    def test_peel_with_config(self, path_like_graph):
        config = PeelingConfig(engine="sequential", k=2)
        assert peel(path_like_graph, config=config).mode == "sequential"

    def test_config_and_options_are_exclusive(self, path_like_graph):
        config = PeelingConfig(engine="sequential", k=2)
        with pytest.raises(TypeError, match="not both"):
            peel(path_like_graph, "parallel", config=config)
        with pytest.raises(TypeError, match="not both"):
            peel(path_like_graph, config=config, k=3)

    def test_unknown_engine_raises(self, path_like_graph):
        with pytest.raises(ValueError, match="unknown engine"):
            peel(path_like_graph, "quantum")


# --------------------------------------------------------------------- #
# peel_many()
# --------------------------------------------------------------------- #
class TestPeelMany:
    @pytest.fixture(scope="class")
    def graphs(self):
        return [random_hypergraph(600, 0.7, 4, seed=s) for s in range(4)]

    @pytest.fixture(scope="class")
    def partitioned_graphs(self):
        return [partitioned_hypergraph(600, 0.7, 4, seed=s) for s in range(3)]

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    @pytest.mark.parametrize("engine", ["sequential", "parallel"])
    def test_matches_per_graph_peel_on_every_backend(self, graphs, engine, backend):
        batched = peel_many(graphs, engine, k=2, backend=backend, max_workers=2)
        assert len(batched) == len(graphs)
        for got, graph in zip(batched, graphs):
            assert_same_result(got, peel(graph, engine, k=2))

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_subtable_matches_on_every_backend(self, partitioned_graphs, backend):
        batched = peel_many(partitioned_graphs, "subtable", k=2, backend=backend, max_workers=2)
        for got, graph in zip(batched, partitioned_graphs):
            assert_same_result(got, peel(graph, "subtable", k=2))

    def test_accepts_backend_instance(self, graphs):
        backend = SerialBackend()
        batched = peel_many(graphs, "parallel", k=2, backend=backend)
        assert [r.num_rounds for r in batched] == [
            peel(g, "parallel", k=2).num_rounds for g in graphs
        ]

    def test_unknown_backend_lists_available(self, graphs):
        with pytest.raises(ValueError, match="unknown backend 'gpu'.*'serial'"):
            peel_many(graphs, "parallel", k=2, backend="gpu")

    def test_empty_batch(self):
        assert peel_many([], "parallel", k=2) == []

    def test_processes_backend_preserves_input_order(self):
        # Pin the documented "results come back in input order" guarantee
        # where it can actually break: a pool whose completion order differs
        # from submission order.  The first graph is much larger than the
        # rest, so later graphs finish first on the workers.
        graphs = [random_hypergraph(20_000, 0.7, 4, seed=90)] + [
            random_hypergraph(150 + 10 * i, 0.7, 4, seed=91 + i) for i in range(6)
        ]
        results = peel_many(graphs, "parallel", k=2, backend="processes", max_workers=2)
        assert [r.num_vertices for r in results] == [g.num_vertices for g in graphs]
        for graph, got in zip(graphs, results):
            assert_same_result(got, peel(graph, "parallel", k=2))


# --------------------------------------------------------------------- #
# top-level exports
# --------------------------------------------------------------------- #
class TestTopLevelExports:
    def test_old_constructors_importable_from_top_level(self):
        import repro

        assert repro.ParallelPeeler is ParallelPeeler
        assert repro.SequentialPeeler is SequentialPeeler
        assert repro.SubtablePeeler is SubtablePeeler
