"""Incremental IBLT decoding: the resident session and its checkpoints.

The golden contract: after any interleaving of inserts and deletes,
``decode(incremental=True)`` returns exactly the key sets a from-scratch
decode of the mutated table would — at *every* checkpoint, for every
decoder name — while re-peeling only the dirty neighbourhood.  The
decoder choice governs the bootstrap only; checkpoints run one shared
decoder-independent re-peel, so cross-decoder identity is structural and
these tests pin it stays that way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.sparse_recovery import random_distinct_keys
from repro.iblt import IBLT, IncrementalDecodeResult, IncrementalDecodeSession

DECODERS = ("serial", "flat", "batched")


def make_table(num_cells=600, r=3, *, seed=5, layout="subtables"):
    return IBLT(num_cells, r, layout=layout, seed=seed)


def canonical(result):
    """(recovered, removed) as sorted int lists, decoder-order-independent."""
    return (
        sorted(map(int, np.asarray(result.recovered, dtype=np.uint64))),
        sorted(map(int, np.asarray(result.removed, dtype=np.uint64))),
    )


def scratch_decode(table, *, signed=True):
    """From-scratch decode of a byte-copy (never touches ``table``'s session)."""
    return IBLT.from_bytes(table.to_bytes()).decode(decoder="flat", signed=signed)


class TestBootstrap:
    @pytest.mark.parametrize("decoder", DECODERS)
    def test_bootstrap_recovers_everything(self, decoder):
        keys = random_distinct_keys(200, seed=1)
        table = make_table()
        table.insert(keys)
        result = table.decode(decoder=decoder, signed=True, incremental=True)
        assert isinstance(result, IncrementalDecodeResult)
        assert result.success
        assert result.resumed_from_round == 0
        assert result.rounds_incremental == result.rounds
        assert canonical(result)[0] == sorted(map(int, keys))

    def test_bootstrap_output_is_canonical_sorted(self):
        keys = random_distinct_keys(150, seed=2)
        table = make_table()
        table.insert(keys)
        result = table.decode(decoder="flat", signed=True, incremental=True)
        recovered = np.asarray(result.recovered, dtype=np.uint64)
        assert (recovered[:-1] <= recovered[1:]).all()

    def test_incremental_in_place_rejected(self):
        table = make_table()
        with pytest.raises(ValueError, match="in_place"):
            table.decode(incremental=True, in_place=True)

    def test_signed_mode_pinned_per_session(self):
        table = make_table()
        table.insert(random_distinct_keys(50, seed=3))
        table.decode(incremental=True, signed=True)
        with pytest.raises(ValueError, match="signed"):
            table.decode(incremental=True, signed=False)

    def test_in_place_decode_discards_session(self):
        keys = random_distinct_keys(50, seed=3)
        table = make_table()
        table.insert(keys)
        table.decode(incremental=True, signed=True)
        assert table._session is not None
        table.decode(in_place=True)  # drains the table; session can't observe it
        assert table._session is None


class TestCheckpointIdentity:
    @pytest.mark.parametrize("decoder", DECODERS)
    def test_every_checkpoint_matches_from_scratch(self, decoder):
        rng = np.random.default_rng(7)
        pool = random_distinct_keys(400, seed=4)
        current = pool[:200]
        table = make_table()
        table.insert(current)
        table.decode(decoder=decoder, signed=True, incremental=True)
        cursor = 200
        for _ in range(5):
            drop = rng.choice(current.size, size=6, replace=False)
            fresh = pool[cursor:cursor + 8]
            cursor += 8
            table.delete(current[drop])
            table.insert(fresh)
            current = np.concatenate([np.delete(current, drop), fresh])
            incr = table.decode(decoder=decoder, signed=True, incremental=True)
            want = scratch_decode(table)
            assert incr.success == want.success
            assert canonical(incr) == canonical(want)
            assert canonical(incr)[0] == sorted(map(int, current))

    def test_decoders_agree_at_every_checkpoint(self):
        # Same churn script against three sessions, one per decoder name:
        # the checkpoint sequences must be element-for-element identical.
        pool = random_distinct_keys(300, seed=5)
        tables = {d: make_table() for d in DECODERS}
        for t in tables.values():
            t.insert(pool[:150])
            t.decode(decoder=("serial" if t is tables["serial"] else "flat"), signed=True)
        sessions = {
            d: t.decode(decoder=d, signed=True, incremental=True)
            for d, t in tables.items()
        }
        assert len({tuple(canonical(r)[0]) for r in sessions.values()}) == 1
        rng = np.random.default_rng(9)
        current = pool[:150]
        cursor = 150
        for _ in range(3):
            drop = rng.choice(current.size, size=5, replace=False)
            fresh = pool[cursor:cursor + 5]
            cursor += 5
            deleted = current[drop]
            current = np.concatenate([np.delete(current, drop), fresh])
            checkpoints = []
            for d, t in tables.items():
                t.delete(deleted)
                t.insert(fresh)
                checkpoints.append(t.decode(decoder=d, signed=True, incremental=True))
            assert len({tuple(canonical(c)[0]) for c in checkpoints}) == 1
            assert len({tuple(canonical(c)[1]) for c in checkpoints}) == 1

    def test_net_delete_appears_as_removed(self):
        # Deleting a key that was never inserted leaves count -1 cells: the
        # signed session must report it in `removed`, same as from-scratch.
        keys = random_distinct_keys(80, seed=6)
        ghost = np.array([0xDEADBEEF], dtype=np.uint64)
        table = make_table()
        table.insert(keys)
        table.decode(decoder="flat", signed=True, incremental=True)
        table.delete(ghost)
        incr = table.decode(decoder="flat", signed=True, incremental=True)
        want = scratch_decode(table)
        assert canonical(incr) == canonical(want)
        assert int(ghost[0]) in canonical(incr)[1]

    def test_delete_of_recovered_key_cancels(self):
        # Churn-deleting an already-recovered key must drop it from the
        # recovered set, exactly as a decode that never saw it.
        keys = random_distinct_keys(100, seed=7)
        table = make_table()
        table.insert(keys)
        table.decode(decoder="serial", signed=True, incremental=True)
        table.delete(keys[:3])
        incr = table.decode(decoder="serial", signed=True, incremental=True)
        assert canonical(incr)[0] == sorted(map(int, keys[3:]))
        assert canonical(incr) == canonical(scratch_decode(table))

    def test_noop_checkpoint_is_cheap_and_stable(self):
        keys = random_distinct_keys(120, seed=8)
        table = make_table()
        table.insert(keys)
        first = table.decode(decoder="flat", signed=True, incremental=True)
        again = table.decode(decoder="flat", signed=True, incremental=True)
        assert canonical(again) == canonical(first)
        assert again.rounds_incremental == 0
        assert again.cells_scanned == 0
        assert again.resumed_from_round == first.rounds

    def test_incremental_rounds_scale_with_churn_not_size(self):
        num_cells = 30_000
        pool = random_distinct_keys(int(0.7 * num_cells) + 50, seed=9)
        current = pool[:int(0.7 * num_cells)]
        table = make_table(num_cells=num_cells)
        table.insert(current)
        bootstrap = table.decode(decoder="flat", signed=True, incremental=True)
        table.delete(current[:25])
        table.insert(pool[current.size:current.size + 25])
        incr = table.decode(decoder="flat", signed=True, incremental=True)
        assert incr.success
        # 50 churned keys touch a few hundred cells; a from-scratch re-peel
        # would scan every cell over `bootstrap.rounds` rounds.
        assert incr.cells_scanned < num_cells
        assert incr.rounds_incremental <= bootstrap.rounds

    def test_discard_session_forces_fresh_bootstrap(self):
        keys = random_distinct_keys(60, seed=10)
        table = make_table()
        table.insert(keys)
        table.decode(decoder="flat", signed=True, incremental=True)
        table.discard_session()
        fresh = table.decode(decoder="flat", signed=True, incremental=True)
        assert fresh.resumed_from_round == 0
        assert canonical(fresh)[0] == sorted(map(int, keys))


class TestSessionInternals:
    def test_residual_empties_once_everything_recovered(self):
        keys = random_distinct_keys(100, seed=11)
        table = make_table()
        table.insert(keys)
        table.decode(decoder="flat", signed=True, incremental=True)
        session = table._session
        assert isinstance(session, IncrementalDecodeSession)
        assert session.residual_is_empty()

    def test_mirror_tracks_mutations_applied_through_the_table(self):
        keys = random_distinct_keys(100, seed=12)
        table = make_table()
        table.insert(keys)
        table.decode(decoder="flat", signed=True, incremental=True)
        session = table._session
        assert not session._dirty
        table.insert(random_distinct_keys(5, seed=13))
        assert session._dirty
        assert not session.residual_is_empty()

    def test_apply_cell_delta_equivalent_to_mirror(self):
        # Shipping a table diff as raw cell deltas (the serve session path)
        # must land on the same answer as mirroring the key mutations.
        keys = random_distinct_keys(100, seed=14)
        fresh = random_distinct_keys(7, seed=15)
        mirrored, shipped = make_table(), make_table()
        for t in (mirrored, shipped):
            t.insert(keys)
            t.decode(decoder="flat", signed=True, incremental=True)
        mirrored.insert(fresh)
        mutated = make_table()
        mutated.insert(keys)
        mutated.insert(fresh)
        dirty = np.flatnonzero(
            (mutated.count != shipped.count)
            | (mutated.key_sum != shipped.key_sum)
            | (mutated.check_sum != shipped.check_sum)
        )
        shipped._session.apply_cell_delta(
            dirty,
            mutated.count[dirty] - shipped.count[dirty],
            mutated.key_sum[dirty] ^ shipped.key_sum[dirty],
            mutated.check_sum[dirty] ^ shipped.check_sum[dirty],
        )
        shipped.count[dirty] = mutated.count[dirty]
        shipped.key_sum[dirty] = mutated.key_sum[dirty]
        shipped.check_sum[dirty] = mutated.check_sum[dirty]
        a = mirrored.decode(decoder="flat", signed=True, incremental=True)
        b = shipped.decode(decoder="flat", signed=True, incremental=True)
        assert canonical(a) == canonical(b)
        assert canonical(a)[0] == sorted(map(int, np.concatenate([keys, fresh])))


class TestDecodeCommand:
    @pytest.mark.parametrize("load", [0.7, 0.9])
    def test_incremental_flow_verifies_the_contract(self, load, capsys):
        # Below the threshold every decode succeeds; past it every decode
        # stalls.  Both sides must pass the command's contract check.
        from repro.cli import main

        code = main([
            "decode", "--num-cells", "3000", "--load", str(load),
            "--decoder", "flat", "--incremental", "--churn", "0.02",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "verified: checkpoint honours the decode contract" in out
