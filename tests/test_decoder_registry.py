"""Tests for the IBLT decoder registry and ``IBLT.decode(decoder=...)``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.iblt import (
    IBLT,
    FlatParallelDecoder,
    IBLTDecodeResult,
    ParallelDecodeResult,
    SerialDecoder,
    SubtableParallelDecoder,
    available_decoders,
    get_decoder,
    register_decoder,
    unregister_decoder,
)


@pytest.fixture
def loaded_table() -> tuple:
    table = IBLT(3_000, 3, layout="subtables", seed=5)
    keys = np.arange(1, 2_001, dtype=np.uint64)
    table.insert(keys)
    return table, keys


class TestRegistry:
    def test_builtin_decoders(self):
        assert set(available_decoders()) == {
            "serial", "flat", "subtable", "batched",
        }

    def test_get_decoder_by_name(self):
        assert get_decoder("serial") is SerialDecoder
        assert get_decoder("flat") is FlatParallelDecoder
        assert get_decoder("subtable") is SubtableParallelDecoder

    def test_unknown_decoder_lists_available(self):
        with pytest.raises(ValueError, match="unknown decoder 'gpu'.*'subtable'"):
            get_decoder("gpu")

    def test_register_decoder(self):
        class NoisyFlat(FlatParallelDecoder):
            pass

        register_decoder("noisy", NoisyFlat)
        try:
            assert "noisy" in available_decoders()
            with pytest.raises(ValueError, match="already registered"):
                register_decoder("noisy", FlatParallelDecoder)
        finally:
            unregister_decoder("noisy")
        assert "noisy" not in available_decoders()

    def test_historical_aliases_resolve_but_are_not_listed(self):
        assert get_decoder("parallel") is SubtableParallelDecoder
        assert get_decoder("flat-parallel") is FlatParallelDecoder
        assert "parallel" not in available_decoders()
        assert "flat-parallel" not in available_decoders()

    def test_register_rejects_bad_arguments(self):
        with pytest.raises(TypeError):
            register_decoder("", FlatParallelDecoder)
        with pytest.raises(TypeError):
            register_decoder("thing", 42)


class TestDecodeDispatch:
    def test_default_is_serial(self, loaded_table):
        table, keys = loaded_table
        result = table.decode()
        assert isinstance(result, IBLTDecodeResult)
        assert result.success
        assert sorted(result.recovered.tolist()) == keys.tolist()

    def test_subtable_matches_decoder_class(self, loaded_table):
        table, _ = loaded_table
        via_name = table.decode(decoder="subtable")
        via_class = SubtableParallelDecoder().decode(table)
        assert isinstance(via_name, ParallelDecodeResult)
        assert via_name.success == via_class.success
        assert via_name.rounds == via_class.rounds
        assert via_name.subrounds == via_class.subrounds
        np.testing.assert_array_equal(
            np.sort(via_name.recovered), np.sort(via_class.recovered)
        )

    def test_flat_matches_decoder_class(self, loaded_table):
        table, _ = loaded_table
        via_name = table.decode(decoder="flat")
        via_class = FlatParallelDecoder().decode(table)
        assert via_name.rounds == via_class.rounds
        np.testing.assert_array_equal(
            np.sort(via_name.recovered), np.sort(via_class.recovered)
        )

    def test_all_decoders_recover_the_same_set(self, loaded_table):
        table, keys = loaded_table
        for name in available_decoders():
            result = table.decode(decoder=name)
            assert result.success, name
            assert sorted(np.asarray(result.recovered).tolist()) == keys.tolist(), name

    def test_decoder_options_forwarded(self, loaded_table):
        table, _ = loaded_table
        result = table.decode(decoder="subtable", track_conflicts=False)
        assert result.conflict_depths == []

    def test_unknown_decoder_raises(self, loaded_table):
        table, _ = loaded_table
        with pytest.raises(ValueError, match="unknown decoder"):
            table.decode(decoder="gpu")

    def test_decode_does_not_mutate_by_default(self, loaded_table):
        table, _ = loaded_table
        before = table.count.copy()
        table.decode(decoder="subtable")
        np.testing.assert_array_equal(table.count, before)

    def test_in_place_forwarded(self, loaded_table):
        table, _ = loaded_table
        scratch = table.copy()
        result = scratch.decode(decoder="subtable", in_place=True)
        assert result.success
        assert scratch.is_empty()

    def test_signed_decoding_of_difference_digest(self):
        a = IBLT(1_200, 3, seed=9)
        b = IBLT(1_200, 3, seed=9)
        a.insert(np.asarray([1, 2, 3, 4], dtype=np.uint64))
        b.insert(np.asarray([3, 4, 5, 6], dtype=np.uint64))
        for name in available_decoders():
            outcome = a.subtract(b).decode(decoder=name)
            assert outcome.success, name
            assert sorted(outcome.recovered.tolist()) == [1, 2], name
            assert sorted(outcome.removed.tolist()) == [5, 6], name

    def test_num_recovered_uniform_across_result_types(self, loaded_table):
        table, keys = loaded_table
        assert table.decode().num_recovered == keys.size
        assert table.decode(decoder="subtable").num_recovered == keys.size

    def test_decode_accepts_historical_aliases(self, loaded_table):
        table, keys = loaded_table
        for alias in ("parallel", "flat-parallel"):
            result = table.decode(decoder=alias)
            assert result.success
            assert result.num_recovered == keys.size


class TestTable34DecoderValidation:
    def test_rejects_decoders_without_round_stats(self):
        from repro.experiments.table34 import run_iblt_experiment

        with pytest.raises(ValueError, match="round statistics"):
            run_iblt_experiment(3, 0.5, num_cells=600, decoder="serial")

    def test_rejects_unknown_decoder_with_name_listing(self):
        from repro.experiments.table34 import run_iblt_experiment

        with pytest.raises(ValueError, match="unknown decoder"):
            run_iblt_experiment(3, 0.5, num_cells=600, decoder="gpu")
