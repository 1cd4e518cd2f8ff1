"""Property-based tests (hypothesis) for decoding under churn.

Random interleavings of inserts and deletes, checkpointed at random
points, are checked against the ground truth — the keys actually live in
the table and the keys deleted without ever being inserted ("ghosts") —
for every decoder name, including signed difference digests and tables
whose layout maps a key to duplicate cell endpoints.  The contract:

* any decode that reports ``success`` returns the true difference:
  ``recovered`` equals the live keys and ``removed`` the ghosts;
* a successful from-scratch decode implies a successful incremental
  checkpoint with the identical canonical result;
* a failed checkpoint re-bootstraps, so it reports exactly the partial
  result of a from-scratch decode by the same decoder.

An incremental checkpoint may succeed where a from-scratch decode of the
same table fails.  The session can recover a key before a second key with
the very same cells arrives; the table alone then holds a genuine 2-core
that only the session's history resolves.  The ``@example`` cases pin
such tables.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.iblt import IBLT

DECODERS = ("serial", "flat", "batched")

key_pools = st.lists(
    st.integers(min_value=1, max_value=2**62), min_size=10, max_size=80, unique=True
)
# A churn script: at each step insert some fraction of the unused pool and
# delete some of the live keys, then checkpoint.
churn_scripts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),  # inserts this step
        st.integers(min_value=0, max_value=4),  # deletes this step
    ),
    min_size=1,
    max_size=5,
)


def canonical(result):
    return (
        sorted(map(int, np.asarray(result.recovered, dtype=np.uint64))),
        sorted(map(int, np.asarray(result.removed, dtype=np.uint64))),
    )


def scratch(table, *, decoder="flat"):
    return IBLT.from_bytes(table.to_bytes()).decode(decoder=decoder, signed=True)


def check_checkpoint(table, got, *, decoder, live, ghosts=()):
    """Hold one incremental checkpoint of ``table`` to the contract."""
    truth = (sorted(live), sorted(ghosts))
    if got.success:
        assert canonical(got) == truth
    want = scratch(table)
    if want.success:
        assert canonical(want) == truth
        assert got.success
    if not got.success:
        assert canonical(got) == canonical(scratch(table, decoder=decoder))


def run_churn_script(table, pool, script, *, decoder, seed):
    """Apply ``script`` step by step, checking the checkpoint after each step."""
    rng = np.random.default_rng(seed)
    live = list(pool[: len(pool) // 2])
    unused = list(pool[len(pool) // 2:])
    table.insert(np.asarray(live, dtype=np.uint64))
    table.decode(decoder=decoder, signed=True, incremental=True)
    for num_ins, num_del in script:
        inserts = [unused.pop() for _ in range(min(num_ins, len(unused)))]
        deletes = [
            live.pop(int(rng.integers(len(live))))
            for _ in range(min(num_del, len(live)))
        ]
        if inserts:
            table.insert(np.asarray(inserts, dtype=np.uint64))
            live.extend(inserts)
        if deletes:
            table.delete(np.asarray(deletes, dtype=np.uint64))
        checkpoint = table.decode(decoder=decoder, signed=True, incremental=True)
        check_checkpoint(table, checkpoint, decoder=decoder, live=live)


class TestChurnProperties:
    @given(pool=key_pools, script=churn_scripts, seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    # IBLT(300, 3, seed=13) sends 100000 and 2**62 to the same three cells.
    # Here the session recovers 100000 before 2**62 arrives, so the
    # checkpoint succeeds while a from-scratch decode stalls on the pair.
    @example(
        pool=[1, 2, 4, 8, 100000, 3, 5, 6, 7, 2**62], script=[(1, 0)], seed=268
    )
    # Both keys of the colliding pair arrive in one batch: every decode fails.
    @example(
        pool=[1, 2, 3, 4, 5, 6, 7, 8, 100000, 2**62], script=[(2, 0)], seed=285
    )
    def test_interleaved_churn_round_trips_across_decoders(self, pool, script, seed):
        for decoder in DECODERS:
            table = IBLT(300, 3, seed=seed % 17)
            run_churn_script(table, pool, script, decoder=decoder, seed=seed)

    @given(pool=key_pools, seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_signed_digest_with_net_deletes(self, pool, seed):
        # Delete keys never inserted: the signed session must keep reporting
        # them as removed at every later checkpoint.
        half = len(pool) // 2
        inserted = np.asarray(pool[:half], dtype=np.uint64)
        ghosts = np.asarray(pool[half:], dtype=np.uint64)
        table = IBLT(300, 3, seed=seed % 17)
        table.insert(inserted)
        table.decode(decoder="serial", signed=True, incremental=True)
        table.delete(ghosts)
        first = table.decode(decoder="serial", signed=True, incremental=True)
        assert first.success
        check_checkpoint(
            table, first, decoder="serial",
            live=map(int, inserted), ghosts=map(int, ghosts),
        )
        # Re-inserting the ghosts cancels the negatives entirely.
        table.insert(ghosts)
        second = table.decode(decoder="serial", signed=True, incremental=True)
        assert canonical(second)[1] == []
        check_checkpoint(table, second, decoder="serial", live=map(int, inserted))

    @given(
        keys=st.lists(
            st.integers(min_value=1, max_value=2**62),
            min_size=4, max_size=30, unique=True,
        ),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=30, deadline=None)
    # The session recovered 2**62-1 before the rest arrived; the table alone
    # holds a genuine 2-core that from-scratch decodes cannot peel.
    @example(keys=[1, 2, 2**62 - 1, 3, 3261, 202360], seed=0)
    def test_duplicate_endpoint_keys_in_flat_layout(self, keys, seed):
        # The flat layout draws r cells independently, so a key can hash two
        # of its endpoints into the same cell; churn over such keys must
        # still honour the contract (the small cell count makes collisions
        # common).
        table = IBLT(24, 3, layout="flat", seed=seed)
        arr = np.asarray(keys, dtype=np.uint64)
        half = arr.size // 2
        table.insert(arr[:half])
        table.decode(decoder="flat", signed=True, incremental=True)
        table.insert(arr[half:])
        table.delete(arr[:2])
        got = table.decode(decoder="flat", signed=True, incremental=True)
        check_checkpoint(table, got, decoder="flat", live=map(int, arr[2:]))

    @given(
        keys=st.lists(
            st.integers(min_value=1, max_value=2**62),
            min_size=2, max_size=60, unique=True,
        ),
        num_ghosts=st.integers(0, 20),
        num_cells=st.sampled_from([24, 60, 300]),
        layout=st.sampled_from(["subtables", "flat"]),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=60, deadline=None)
    @example(keys=[100000, 2**62], num_ghosts=1, num_cells=300, layout="subtables", seed=13)
    def test_decode_success_is_never_wrong(
        self, keys, num_ghosts, num_cells, layout, seed
    ):
        # From scratch, near and past the threshold: a decoder may fail, but
        # a decode that reports success returns exactly the true difference.
        ghosts = keys[: min(num_ghosts, len(keys) - 1)]
        live = keys[len(ghosts):]
        table = IBLT(num_cells, 3, layout=layout, seed=seed)
        table.insert(np.asarray(live, dtype=np.uint64))
        if ghosts:
            table.delete(np.asarray(ghosts, dtype=np.uint64))
        for decoder in DECODERS:
            result = table.decode(decoder=decoder, signed=True)
            if result.success:
                assert canonical(result) == (sorted(live), sorted(ghosts))
