"""Sharded data-parallel loading semantics, across both substrates.

Covers the DistributedSampler-style guarantees the lockstep DDP consumers
rely on (equal-length ranks, per-epoch coverage, disjointness when the
dataset divides evenly), the threaded ``MinatoLoader``'s termination with a
sharded sampler (previously a deadlock: quotas were sized from the dataset
while the feeder only fed the shard), and multi-rank agreement between the
threaded engine and the discrete-event simulator.
"""

from dataclasses import replace

import pytest

from repro.clock import ThreadLocalClock
from repro.core import MinatoConfig, MinatoLoader
from repro.data.samplers import ShardedSampler
from repro.sim.cluster import ClusterMembership
from repro.sim.distributed import run_elastic
from repro.sim.kernel import Environment
from repro.sim.loaders import SimContext, SimMinatoLoader
from repro.sim.workloads import CONFIG_A, WorkloadSpec, make_workload

from .helpers import StubDataset, run_with_watchdog, stub_pipeline

DEADLOCK_TIMEOUT = 30.0  # wall seconds; generous, the runs take < 1 s


# ---------------------------------------------------------------------------
# ShardedSampler semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,world", [(100, 4), (103, 4), (7, 3), (5, 8)])
def test_shards_equal_length_across_ranks_and_epochs(n, world):
    shards = [ShardedSampler(n, rank=r, world_size=world, seed=3) for r in range(world)]
    expected = (n + world - 1) // world
    for epoch in range(3):
        lengths = [len(s.epoch(epoch)) for s in shards]
        assert lengths == [expected] * world
        assert [len(s) for s in shards] == lengths


@pytest.mark.parametrize("epoch", [0, 1, 5])
def test_shards_disjoint_and_covering_when_evenly_divisible(epoch):
    n, world = 120, 4
    shards = [ShardedSampler(n, rank=r, world_size=world, seed=7) for r in range(world)]
    slices = [s.epoch(epoch) for s in shards]
    combined = [i for piece in slices for i in piece]
    # disjoint: no index appears on two ranks; covering: all indices appear
    assert len(combined) == len(set(combined)) == n
    assert set(combined) == set(range(n))


def test_padding_covers_and_duplicates_at_most_world_minus_one():
    n, world = 103, 4
    shards = [ShardedSampler(n, rank=r, world_size=world, seed=5) for r in range(world)]
    combined = [i for s in shards for i in s.epoch(1)]
    assert set(combined) == set(range(n))
    duplicates = len(combined) - len(set(combined))
    assert 0 < duplicates <= world - 1


def test_drop_last_mode_is_exactly_disjoint_but_may_not_cover():
    n, world = 103, 4
    shards = [
        ShardedSampler(n, rank=r, world_size=world, seed=5, drop_last=True)
        for r in range(world)
    ]
    assert [len(s) for s in shards] == [n // world] * world
    combined = [i for s in shards for i in s.epoch(0)]
    assert len(combined) == len(set(combined))  # no duplicates
    assert set(combined) < set(range(n))  # tail dropped
    assert len(combined) == (n // world) * world


def test_shards_share_the_global_shuffle():
    """All ranks slice the *same* epoch shuffle, so the union of rank slices
    taken in stride order reconstructs it."""
    n, world = 12, 3
    shards = [ShardedSampler(n, rank=r, world_size=world, seed=11) for r in range(world)]
    slices = [s.epoch(4) for s in shards]
    rebuilt = [slices[i % world][i // world] for i in range(n)]
    from repro.data.samplers import RandomSampler

    assert rebuilt == RandomSampler(n, seed=11).epoch(4)


def test_shard_reshuffles_between_epochs():
    s = ShardedSampler(64, rank=1, world_size=2, seed=1)
    assert s.epoch(0) != s.epoch(1)
    assert s.epoch(0) == s.epoch(0)


# ---------------------------------------------------------------------------
# Block layout + locality-preserving slot assignment
# ---------------------------------------------------------------------------


def block_sets(n, world, seed=0):
    return {
        rank: ShardedSampler(
            n, rank=rank, world_size=world, seed=seed, layout="block"
        ).shard_indices()
        for rank in range(world)
    }


def test_block_layout_partitions_and_reshuffles_within():
    shards = [
        ShardedSampler(96, rank=r, world_size=4, seed=5, layout="block")
        for r in range(4)
    ]
    sets = [s.shard_indices() for s in shards]
    assert set().union(*sets) == set(range(96))
    assert sum(len(x) for x in sets) == 96  # disjoint on even division
    for s in shards:
        assert s.epoch(0) != s.epoch(1)  # fresh within-block order...
        assert set(s.epoch(0)) == set(s.epoch(1))  # ...over the same set


def test_block_layout_rejects_bad_name():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ShardedSampler(10, rank=0, world_size=2, layout="diagonal")


def test_stride_assignment_is_positional():
    from repro.data.samplers import ShardAssignment

    policy = ShardAssignment("stride")
    assert policy.layout == "stride"
    assert policy.assign([5, 2, 9], {}, n=96) == {2: 0, 5: 1, 9: 2}


def test_locality_assignment_beats_positional_on_a_head_leave():
    """Node 0 of [0..3] leaves.  Positional slots would shift every
    survivor one block left (overlap 8/16/24 of 40); the order-preserving
    optimal matching keeps each survivor on its own region (24/16/8 on the
    *matching* slots, total 48 either way here, but per-node stable) --
    crucially node 3 keeps the tail block instead of being re-cut."""
    from repro.data.samplers import ShardAssignment

    n, seed = 96, 0
    old = block_sets(n, 4, seed)
    previous = {node: old[node] for node in (1, 2, 3)}
    assignment = ShardAssignment("locality").assign(
        [1, 2, 3], previous, n, seed=seed
    )
    new = block_sets(n, 3, seed)
    # order-preserving: survivors keep their relative block order
    assert [assignment[node] for node in (1, 2, 3)] == [0, 1, 2]
    total = sum(len(previous[node] & new[assignment[node]]) for node in (1, 2, 3))
    # optimal for these intervals: 8 + 16 + 24
    assert total == 48


def test_locality_assignment_keeps_survivors_on_their_blocks_on_join():
    """2 -> 3 nodes: both survivors' new (smaller) blocks nest inside
    their old ones -- full overlap -- and the joiner takes the leftover
    middle slot."""
    from repro.data.samplers import ShardAssignment

    n, seed = 96, 0
    previous = block_sets(n, 2, seed)
    assignment = ShardAssignment("locality").assign(
        [0, 1, 7], previous, n, seed=seed
    )
    new = block_sets(n, 3, seed)
    for node in (0, 1):
        got = new[assignment[node]]
        assert len(got & previous[node]) == len(got)  # fully nested
    assert assignment[7] == (set(range(3)) - {assignment[0], assignment[1]}).pop()


def test_locality_assignment_is_optimal_where_greedy_is_not():
    """Greedy by best single overlap would give node 3 the tail block
    (24), then node 1 the middle (16), starving node 2 entirely (total
    40); the DP's non-crossing matching reaches 48."""
    from repro.data.samplers import ShardAssignment

    n, seed = 96, 0
    old = block_sets(n, 4, seed)
    previous = {node: old[node] for node in (1, 2, 3)}
    assignment = ShardAssignment("locality").assign(
        [1, 2, 3], previous, n, seed=seed
    )
    new = block_sets(n, 3, seed)
    total = sum(len(previous[node] & new[assignment[node]]) for node in (1, 2, 3))
    assert total > 40


def test_locality_assignment_without_history_is_positional():
    from repro.data.samplers import ShardAssignment

    policy = ShardAssignment("locality")
    assert policy.layout == "block"
    assert policy.assign([3, 1], {}, n=96) == {1: 0, 3: 1}


def test_shard_assignment_rejects_unknown_policy():
    from repro.data.samplers import ShardAssignment
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ShardAssignment("round-robin")


def test_sim_loaders_honor_shard_layout():
    """A sim loader rebound onto a block-layout shard samples exactly that
    shard; DALI's per-GPU subdivision keeps the layout so GPU streams are
    sub-blocks."""
    from repro.sim.loaders import SimDALILoader
    from repro.sim.runner import make_sim_loader

    workload = make_workload("speech_3s", dataset_size=96).scaled(0.02)
    env = Environment()
    ctx = SimContext(env, workload, CONFIG_A, 1)
    loader = make_sim_loader("minato").rebind_shard(
        ShardedSampler(96, rank=1, world_size=2, layout="block"),
        total_batches_override=1,
    )
    loader.start(ctx)
    assert loader.sampler.layout == "block"
    assert loader.sampler.shard_indices() == ShardedSampler(
        96, rank=1, world_size=2, layout="block"
    ).shard_indices()

    dali = SimDALILoader().rebind_shard(
        ShardedSampler(96, rank=0, world_size=2, layout="block"),
        total_batches_override=2,
    )
    dali.ctx = SimContext(Environment(), workload, CONFIG_A, 2)
    node_block = ShardedSampler(96, rank=0, world_size=2, layout="block").shard_indices()
    for gpu in range(2):
        stream = dali._shard_stream(gpu)
        one_pass = {next(stream) for _ in range(24)}  # (node 0, gpu) shard
        assert one_pass <= node_block  # per-GPU sub-block nests in the node block


# ---------------------------------------------------------------------------
# Threaded MinatoLoader with a ShardedSampler (deadlock regression)
# ---------------------------------------------------------------------------


def _run_sharded_loader(rank, world, n_samples, epochs=2, batch_size=4):
    """Consume a sharded loader under the watchdog; fail instead of hang."""
    dataset = StubDataset([0.01] * n_samples)
    sampler = ShardedSampler(n_samples, rank=rank, world_size=world, seed=2)
    cfg = MinatoConfig(
        batch_size=batch_size,
        num_workers=2,
        warmup_samples=4,
        adaptive_workers=False,
        seed=2,
    )
    loader = MinatoLoader(
        dataset,
        stub_pipeline(),
        cfg,
        epochs=epochs,
        clock=ThreadLocalClock(),
        sampler=sampler,
    )
    def consume():
        with loader:
            return [s.spec.index for batch in loader.batches(0) for s in batch.samples]

    try:
        indices = run_with_watchdog(consume, DEADLOCK_TIMEOUT)
    finally:
        loader.shutdown(timeout=1.0)
    return indices, sampler


@pytest.mark.parametrize("n_samples", [23, 24])
def test_minato_loader_with_sharded_sampler_terminates(n_samples):
    """Regression: _total_expected was sized from the dataset, so a sharded
    feeder (which yields ~n/world samples) never satisfied the builders'
    quota and consumption hung forever -- on odd and even sizes alike."""
    indices, sampler = _run_sharded_loader(rank=0, world=2, n_samples=n_samples)
    assert len(indices) == 2 * len(sampler)  # epochs * shard length


def test_minato_loader_len_reflects_shard():
    dataset = StubDataset([0.01] * 23)
    sampler = ShardedSampler(23, rank=1, world_size=2, seed=2)
    loader = MinatoLoader(
        dataset,
        stub_pipeline(),
        MinatoConfig(batch_size=4, seed=2),
        epochs=2,
        clock=ThreadLocalClock(),
        sampler=sampler,
    )
    # 2 epochs x 12 padded shard samples = 24 samples -> 6 batches of 4
    assert len(loader) == 6


def test_minato_ranks_cover_dataset_per_epoch():
    n, world = 24, 2
    per_rank = [
        _run_sharded_loader(rank=r, world=world, n_samples=n, epochs=1)[0]
        for r in range(world)
    ]
    combined = [i for indices in per_rank for i in indices]
    assert len(combined) == len(set(combined)) == n
    assert set(combined) == set(range(n))


# ---------------------------------------------------------------------------
# Multi-rank cross-substrate agreement
# ---------------------------------------------------------------------------


def _sim_rank_indices(rank, world, costs, batch_size=4):
    env = Environment()
    workload = WorkloadSpec(
        name="shard-agreement",
        dataset=StubDataset(costs),
        pipeline=stub_pipeline(),
        model=None,
        batch_size=batch_size,
        epochs=1,
    )
    ctx = SimContext(env, workload, CONFIG_A, num_gpus=1)
    loader = SimMinatoLoader(
        workers_per_gpu=1,
        slow_workers=1,
        timeout_override=0.05,
        adaptive_workers=False,
    ).rebind_shard(ShardedSampler(len(costs), rank=rank, world_size=world, seed=2))
    loader.start(ctx)
    got = []

    def consumer():
        while True:
            batch = yield from loader.get_batch(0)
            if batch is None:
                return
            got.extend(s.index for s in batch.specs)

    env.run(until=env.process(consumer()))
    return got


def test_multi_rank_cross_substrate_agreement():
    """Both substrates, run as `world` independent ranks over the same seed,
    produce shard streams that are equal-length, disjoint and cover the
    dataset -- and each rank processes the identical index *set* on both
    substrates (the sampler layer is substrate-neutral)."""
    n, world = 24, 2
    costs = [0.01] * n
    threaded = [
        set(_run_sharded_loader(rank=r, world=world, n_samples=n, epochs=1)[0])
        for r in range(world)
    ]
    simulated = [set(_sim_rank_indices(r, world, costs)) for r in range(world)]
    assert threaded == simulated
    for ranks in (threaded, simulated):
        assert all(len(s) == n // world for s in ranks)
        assert set().union(*ranks) == set(range(n))
        assert not ranks[0] & ranks[1]


# ---------------------------------------------------------------------------
# Static-cluster sharding invariants
# ---------------------------------------------------------------------------


def test_static_run_elastic_ranks_get_disjoint_equal_shards():
    wl = make_workload("speech_3s", dataset_size=120).scaled(0.02)
    result = run_elastic(
        "minato", wl, CONFIG_A, ClusterMembership(3), gpus_per_node=1
    )
    assert len(result.shard_sizes) == 3
    assert len(set(result.shard_sizes)) == 1  # equal-length
    assert sum(result.shard_sizes) == 120  # disjoint cover (120 % 3 == 0)
    # the shards the runner reports match ShardedSampler's own arithmetic
    assert result.shard_sizes[0] == len(ShardedSampler(120, rank=0, world_size=3))


def test_run_elastic_rejects_shard_keys_in_loader_kwargs():
    """A sim loader is sharded by `rebind_shard` alone: a shard key in
    `loader_kwargs` is the same TypeError as any unknown keyword (it used
    to be dropped in silence)."""
    wl = make_workload("speech_3s", dataset_size=120).scaled(0.02)
    for loader in ("pytorch", "dali", "minato"):
        with pytest.raises(TypeError, match="shard_rank"):
            run_elastic(
                loader, wl, CONFIG_A, ClusterMembership(2),
                loader_kwargs={"shard_rank": 0},
            )


def test_torch_sim_rejects_shard_smaller_than_one_batch():
    """Regression: a shard smaller than the batch size under drop_last
    yielded zero batches per epoch and the orchestrator spun forever
    instead of surfacing the unsatisfiable budget."""
    from repro.errors import ConfigurationError

    wl = make_workload("speech_3s", dataset_size=120).scaled(0.02)
    # 8 nodes -> 15-sample shards < batch_size 24 -> no full batch, ever
    with pytest.raises(ConfigurationError):
        run_elastic(
            "pytorch", wl, CONFIG_A, ClusterMembership(8), gpus_per_node=1
        )


def test_static_run_elastic_shares_cluster_step_budget():
    """Iteration-budgeted workloads split the cluster-wide step budget
    across ranks instead of every node redundantly running all of it."""
    wl = make_workload("speech_3s", dataset_size=120).scaled(0.02)  # 20 iterations
    result = run_elastic(
        "minato", wl, CONFIG_A, ClusterMembership(2), gpus_per_node=2
    )
    assert result.steps == 20  # ceil(20 / 4) per GPU x 4 GPUs
    assert result.samples == 20 * wl.batch_size


@pytest.mark.parametrize("nodes, steps", [(2, 52), (3, 54)])
def test_static_budget_rounds_up_to_whole_steps_per_gpu(nodes, steps):
    """A cluster-wide iteration budget that the world does not divide runs
    ``ceil(iterations / world)`` steps on every GPU: 50 iterations on
    2 x 2 GPUs is 13 per GPU (52 steps), on 3 x 2 it is 9 (54)."""
    wl = replace(
        make_workload("speech_3s", dataset_size=120).scaled(0.02),
        iterations=50,
    )
    result = run_elastic(
        "minato", wl, CONFIG_A, ClusterMembership(nodes), gpus_per_node=2
    )
    assert result.steps == steps
    assert result.samples == steps * wl.batch_size
