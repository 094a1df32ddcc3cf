"""Property-based tests for ShardedSampler's elastic invariants.

PR 2's tests pinned the disjoint / equal-length / cover guarantees at
hand-picked sizes; these hypothesis strategies sweep (dataset_size,
world_size, epoch, drop_last) and -- the elastic part -- arbitrary
``reshard()`` sequences, asserting the invariants hold before and after
every membership change and that everything is deterministic under the seed.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.data.samplers import RandomSampler, ShardedSampler  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)


def shards_for(n, world, seed, drop_last, epoch_offset=0, layout="stride"):
    return [
        ShardedSampler(
            n,
            rank=rank,
            world_size=world,
            seed=seed,
            drop_last=drop_last,
            epoch_offset=epoch_offset,
            layout=layout,
        )
        for rank in range(world)
    ]


layouts = st.sampled_from(ShardedSampler.LAYOUTS)


def assert_invariants(shards, n, epoch):
    """The disjoint-equal-cover contract for one world's shards."""
    world = len(shards)
    slices = [s.epoch(epoch) for s in shards]
    drop_last = shards[0].drop_last
    expected = n // world if drop_last else (n + world - 1) // world
    # equal length on every rank, and __len__ agrees with the slice
    assert [len(piece) for piece in slices] == [expected] * world
    assert [len(s) for s in shards] == [expected] * world
    combined = [i for piece in slices for i in piece]
    if drop_last:
        # exactly disjoint; covers all but at most world-1 samples
        assert len(combined) == len(set(combined))
        assert n - len(set(combined)) <= max(world - 1, 0)
    else:
        # covers everything; at most world-1 wrap-around duplicates
        assert set(combined) == set(range(n)) if n else not combined
        assert len(combined) - len(set(combined)) <= max(world - 1, 0)
    if n % world == 0:
        # the two tail policies coincide: exact partition
        assert sorted(combined) == sorted(set(combined))


@SETTINGS
@given(
    n=st.integers(min_value=0, max_value=400),
    world=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    epoch=st.integers(min_value=0, max_value=12),
    drop_last=st.booleans(),
    layout=layouts,
)
def test_shard_invariants_hold_everywhere(n, world, seed, epoch, drop_last, layout):
    shards = shards_for(n, world, seed, drop_last, layout=layout)
    assert_invariants(shards, n, epoch)


@SETTINGS
@given(
    n=st.integers(min_value=0, max_value=400),
    world=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    epoch=st.integers(min_value=0, max_value=8),
    drop_last=st.booleans(),
    layout=layouts,
)
def test_shard_epochs_are_deterministic_under_seed(
    n, world, seed, epoch, drop_last, layout
):
    first = shards_for(n, world, seed, drop_last, layout=layout)
    second = shards_for(n, world, seed, drop_last, layout=layout)
    for a, b in zip(first, second):
        assert a.epoch(epoch) == b.epoch(epoch)


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=400),
    world=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    epoch=st.integers(min_value=1, max_value=8),
    drop_last=st.booleans(),
)
def test_block_layout_fixes_the_index_set_across_epochs(
    n, world, seed, epoch, drop_last
):
    """The block layout's cache-warmth guarantee: a rank revisits the same
    indices every epoch (in a fresh within-block order), so its page cache
    working set never changes between membership changes."""
    for shard in shards_for(n, world, seed, drop_last, layout="block"):
        assert set(shard.epoch(epoch)) == set(shard.epoch(0))
        assert shard.shard_indices() == frozenset(shard.epoch(epoch))


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**16),
    drop_last=st.booleans(),
    worlds=st.lists(
        st.integers(min_value=1, max_value=8), min_size=1, max_size=5
    ),
    layout=layouts,
)
def test_reshard_sequences_preserve_invariants(n, seed, drop_last, worlds, layout):
    """Fold an arbitrary membership-change sequence through reshard():
    every intermediate world still satisfies the contract, and a resharded
    sampler is indistinguishable from one built fresh for the new world."""
    current = ShardedSampler(
        n, rank=0, world_size=worlds[0], seed=seed, drop_last=drop_last,
        layout=layout,
    )
    assert_invariants(
        [current.reshard(worlds[0], r) for r in range(worlds[0])], n, epoch=0
    )
    for step, world in enumerate(worlds[1:], start=1):
        reshards = [current.reshard(world, rank, epoch_offset=step) for rank in range(world)]
        assert all(r.layout == layout for r in reshards)
        fresh = shards_for(n, world, seed, drop_last, epoch_offset=step, layout=layout)
        for epoch in (0, 1):
            assert_invariants(reshards, n, epoch)
            for resharded, rebuilt in zip(reshards, fresh):
                assert resharded.epoch(epoch) == rebuilt.epoch(epoch)
        current = reshards[0]


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=300),
    world=st.integers(min_value=1, max_value=6),
    new_world=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
    drop_last=st.booleans(),
)
def test_reshard_preserves_identity_fields(n, world, new_world, seed, drop_last):
    sampler = ShardedSampler(
        n, rank=world - 1, world_size=world, seed=seed, drop_last=drop_last
    )
    resharded = sampler.reshard(new_world, 0)
    assert resharded.dataset_size == n
    assert resharded.seed == seed
    assert resharded.drop_last == drop_last
    assert resharded.world_size == new_world
    assert resharded.rank == 0
    assert resharded.epoch_offset == sampler.epoch_offset


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=300),
    world=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
    offset=st.integers(min_value=0, max_value=10),
    epoch=st.integers(min_value=0, max_value=10),
)
def test_epoch_offset_shifts_the_global_shuffle(n, world, seed, offset, epoch):
    """epoch(i) under an offset slices global shuffle i+offset -- the elastic
    runner's guarantee that re-sharding keeps walking forward through fresh
    shuffles instead of replaying shuffle 0."""
    base = ShardedSampler(n, rank=0, world_size=world, seed=seed)
    shifted = base.reshard(world, 0, epoch_offset=offset)
    assert shifted.epoch(epoch) == base.epoch(epoch + offset)
    # all ranks of an offset world still slice one shared shuffle
    combined = [
        i
        for rank in range(world)
        for i in base.reshard(world, rank, epoch_offset=offset).epoch(epoch)
    ]
    assert set(combined) == set(RandomSampler(n, seed=seed).epoch(epoch + offset))


@SETTINGS
@given(
    n=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=2**16),
    epoch=st.integers(min_value=0, max_value=10),
    gpus=st.integers(min_value=1, max_value=8),
)
def test_a_world_of_one_is_the_full_shuffle(n, seed, epoch, gpus):
    """The two equalities ``BaseSimLoader.bind`` rests on: a loader that was
    not rebound samples ``ShardedSampler(n, 0, 1, seed)``, which is the full
    seeded shuffle, and DALI's per-GPU subdivision of it is the per-GPU
    shard it used to build by hand."""
    one = ShardedSampler(n, rank=0, world_size=1, seed=seed)
    assert len(one) == n
    assert one.epoch(epoch) == RandomSampler(n, seed=seed).epoch(epoch)
    for gpu in range(gpus):
        assert one.reshard(gpus, gpu).epoch(epoch) == ShardedSampler(
            n, rank=gpu, world_size=gpus, seed=seed
        ).epoch(epoch)
