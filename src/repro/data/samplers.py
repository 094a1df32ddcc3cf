"""Index samplers, mirroring the PyTorch DataLoader's sampling layer.

Like the PyTorch DataLoader (and MinatoLoader, per paper §4.1), loaders
request samples in a random order fixed per epoch; what differs between
loaders is what happens *after* the indices are drawn.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from ..contracts import count
from ..errors import ConfigurationError

__all__ = [
    "SequentialSampler",
    "RandomSampler",
    "ShardedSampler",
    "ShardAssignment",
    "BatchSampler",
]


class SequentialSampler:
    """Yields ``0..n-1`` in order, every epoch."""

    def __init__(self, n: int) -> None:
        self._n = count("dataset size", n, lo=0)

    def __len__(self) -> int:
        return self._n

    def epoch(self, epoch_index: int) -> List[int]:
        return list(range(self._n))

    def __iter__(self) -> Iterator[int]:
        return iter(self.epoch(0))


class RandomSampler:
    """Yields a fresh seeded shuffle each epoch (deterministic per epoch)."""

    def __init__(self, n: int, seed: int = 0) -> None:
        self._n = count("dataset size", n, lo=0)
        self._seed = count("seed", seed, lo=0)

    def __len__(self) -> int:
        return self._n

    def epoch(self, epoch_index: int) -> List[int]:
        rng = np.random.default_rng((self._seed * 7_919 + epoch_index) & 0x7FFFFFFF)
        order = np.arange(self._n)
        rng.shuffle(order)
        return order.tolist()

    def __iter__(self) -> Iterator[int]:
        return iter(self.epoch(0))


def _shard_length(n: int, world_size: int, drop_last: bool) -> int:
    """The per-rank shard length rule: ``n // world_size`` under
    ``drop_last``, else the ceiling (the tail padded by :func:`_pad_or_drop`)."""
    return n // world_size if drop_last else (n + world_size - 1) // world_size


def _pad_or_drop(order: List[int], total: int, drop_last: bool) -> List[int]:
    """The shard tail rule: the first ``total`` entries of ``order`` under
    ``drop_last``, else ``order`` extended in place with wrap-around
    repeats up to ``total``."""
    if drop_last:
        return order[:total]
    while len(order) < total:
        order.extend(order[: total - len(order)])
    return order


class ShardedSampler:
    """Random sampler restricted to one data-parallel rank's shard.

    Matches ``torch.utils.data.DistributedSampler`` semantics: the epoch's
    global shuffle is shared by all ranks and each rank takes a strided
    slice.  Every rank sees the *same* number of samples per epoch -- a
    lockstep DDP consumer deadlocks the moment one rank's epoch is one
    sample longer than another's -- via one of two tail policies:

    * ``drop_last=False`` (default): the shuffle is padded with wrap-around
      repeats of its own head until it divides evenly, so every sample is
      covered and up to ``world_size - 1`` samples appear twice;
    * ``drop_last=True``: the tail is dropped so the shards partition a
      subset exactly (no duplicates, up to ``world_size - 1`` samples
      uncovered).

    When ``n`` divides evenly by ``world_size`` the two modes coincide and
    the shards are disjoint, equal-length and cover the dataset.

    ``epoch_offset`` shifts which global shuffle ``epoch(i)`` resolves to
    (``i + epoch_offset``): an elastic cluster that re-creates its samplers
    mid-training uses it so the re-derived shards keep walking forward
    through fresh shuffles instead of replaying shuffle 0.

    ``layout`` selects how the epoch sequence is sliced across ranks:

    * ``"stride"`` (default, DistributedSampler behaviour): each epoch's
      *global* shuffle is padded/dropped to ``total_size`` and rank ``r``
      takes ``order[r::world_size]``.  Maximal inter-epoch randomness, zero
      cache locality: a rank's index set is a fresh random subset every
      epoch and after every re-shard.
    * ``"block"``: a single *base permutation* (derived from ``seed`` only,
      never from the epoch) is padded/dropped to ``total_size`` and rank
      ``r`` owns the contiguous block ``order[r*m:(r+1)*m]``; each epoch
      reshuffles *within* the block.  A rank's index set is therefore fixed
      across epochs (its page cache stays warm), and after a re-shard the
      new blocks are contiguous cuts of the same base permutation, so a
      locality-aware slot assignment (:class:`ShardAssignment`) can keep
      most of a survivor's old shard in its new one.

    Both layouts keep the equal-length / disjoint / cover contract: blocks
    and strides are different partitions of the same padded sequence.
    """

    LAYOUTS = ("stride", "block")

    def __init__(
        self,
        n: int,
        rank: int,
        world_size: int,
        seed: int = 0,
        drop_last: bool = False,
        epoch_offset: int = 0,
        layout: str = "stride",
    ) -> None:
        count("world_size", world_size)
        count("rank", rank, lo=0)
        if not 0 <= rank < world_size:
            raise ConfigurationError(f"rank {rank} out of range for {world_size}")
        count("epoch_offset", epoch_offset, lo=0)
        if layout not in self.LAYOUTS:
            raise ConfigurationError(
                f"layout must be one of {self.LAYOUTS}, got {layout!r}"
            )
        self._n = n
        self._seed = seed
        self._inner = RandomSampler(n, seed=seed)
        self._rank = rank
        self._world_size = world_size
        self._drop_last = drop_last
        self._epoch_offset = epoch_offset
        self._layout = layout
        self._block_cache: Optional[List[int]] = None
        self._num_samples = _shard_length(n, world_size, drop_last)

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def world_size(self) -> int:
        return self._world_size

    @property
    def drop_last(self) -> bool:
        return self._drop_last

    @property
    def dataset_size(self) -> int:
        """Size of the underlying dataset (before pad/drop)."""
        return self._n

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def epoch_offset(self) -> int:
        return self._epoch_offset

    @property
    def layout(self) -> str:
        return self._layout

    @property
    def total_size(self) -> int:
        """Global samples per epoch across all ranks (after pad/drop)."""
        return self._num_samples * self._world_size

    def __len__(self) -> int:
        """Per-rank samples per epoch -- identical on every rank."""
        return self._num_samples

    def reshard(
        self,
        world_size: int,
        rank: int,
        epoch_offset: Optional[int] = None,
    ) -> "ShardedSampler":
        """Re-derive this sampler for a new cluster membership.

        Elastic training re-shards at epoch boundaries: every surviving
        (or joining) rank gets a sampler over the *same* dataset, seed and
        tail policy but a new ``(rank, world_size)`` slot.  Because all
        ranks of the new world still slice the same seeded global shuffle,
        the disjoint / equal-length / cover invariants hold for the new
        membership exactly as they did for the old one.

        ``epoch_offset`` (default: keep the current offset) realigns
        ``epoch(0)`` to the cluster's next global epoch so shuffles are not
        replayed after the re-shard.  The layout is preserved: block-layout
        shards re-cut the same base permutation, which is what makes a
        locality-preserving slot assignment possible at all.
        """
        return ShardedSampler(
            self._n,
            rank=rank,
            world_size=world_size,
            seed=self._seed,
            drop_last=self._drop_last,
            epoch_offset=(
                self._epoch_offset if epoch_offset is None else epoch_offset
            ),
            layout=self._layout,
        )

    def _block(self) -> List[int]:
        """This rank's contiguous slice of the fixed base permutation
        (block layout; independent of epoch and epoch_offset, so computed
        once per sampler instance)."""
        if self._block_cache is None:
            order = _pad_or_drop(
                self._inner.epoch(0), self.total_size, self._drop_last
            )
            self._block_cache = order[
                self._rank * self._num_samples : (self._rank + 1) * self._num_samples
            ]
        return self._block_cache

    def epoch(self, epoch_index: int) -> List[int]:
        if self._layout == "block":
            block = np.array(self._block(), dtype=np.int64)
            rng = np.random.default_rng(
                (
                    (self._seed * 7_919 + epoch_index + self._epoch_offset)
                    * 104_729
                    + self._rank
                )
                & 0x7FFFFFFF
            )
            rng.shuffle(block)
            return block.tolist()
        order = _pad_or_drop(
            self._inner.epoch(epoch_index + self._epoch_offset),
            self.total_size,
            self._drop_last,
        )
        return order[self._rank :: self._world_size]

    def shard_indices(self) -> frozenset:
        """The distinct dataset indices this shard covers in ``epoch(0)``.

        For the block layout this set is the rank's fixed block -- identical
        for every epoch -- which is exactly the working set its page cache
        converges to; locality-aware re-sharding maximizes the overlap of
        these sets across membership changes.  For the stride layout it is
        epoch-dependent (``epoch(0)`` resolves through ``epoch_offset``).
        """
        return frozenset(self.epoch(0))

    def __iter__(self) -> Iterator[int]:
        return iter(self.epoch(0))


class ShardAssignment:
    """Node -> rank-slot assignment policy across membership changes.

    An elastic cluster re-shards at epoch boundaries.  *Which* slot each
    surviving node gets decides how much of its page cache survives the
    re-shard:

    * ``policy="stride"``: slots follow ``sorted(active)`` position and the
      shards use the stride layout -- the pre-existing behaviour, where a
      membership change (and in fact every epoch) hands each node an
      essentially fresh random index set;
    * ``policy="locality"``: shards use the contiguous-block layout and, at
      each membership change, surviving nodes keep slots whose new blocks
      maximize overlap with their previous shard.  Because blocks are
      intervals over one fixed base permutation, the overlap matrix
      satisfies the Monge condition, so an *order-preserving* matching
      (survivors sorted by old block position, slots increasing) is optimal;
      :meth:`assign` computes it with an O(W^2) DP instead of a greedy pass
      (greedy is suboptimal: a high-overlap pair can starve two
      medium-overlap neighbors).  Joining nodes fill the leftover slots.
    """

    POLICIES = ("stride", "locality")

    def __init__(self, policy: str = "stride") -> None:
        if policy not in self.POLICIES:
            raise ConfigurationError(
                f"policy must be one of {self.POLICIES}, got {policy!r}"
            )
        self.policy = policy

    @property
    def layout(self) -> str:
        """The shard layout this policy requires."""
        return "block" if self.policy == "locality" else "stride"

    def assign(
        self,
        active: Sequence[int],
        previous_shards: Mapping[int, frozenset],
        n: int,
        seed: int = 0,
        drop_last: bool = False,
    ) -> Dict[int, int]:
        """Map every active node to a rank slot in ``0..len(active)-1``.

        ``previous_shards`` holds each surviving node's index set from the
        round before the change (joiners are simply absent).
        """
        nodes = sorted(active)
        world = len(nodes)
        if self.policy == "stride":
            return {node: position for position, node in enumerate(nodes)}
        survivors = [node for node in nodes if previous_shards.get(node)]
        if not survivors:
            return {node: position for position, node in enumerate(nodes)}
        # every slot's block is a contiguous cut of one shared padded base
        # permutation: compute that order once and slice it, instead of
        # building a ShardedSampler (and paying its RNG work) per slot
        base = RandomSampler(n, seed=seed).epoch(0)
        per_slot = _shard_length(n, world, drop_last)
        total = per_slot * world
        order = _pad_or_drop(list(base), total, drop_last)
        slot_sets = [
            frozenset(order[slot * per_slot : (slot + 1) * per_slot])
            for slot in range(world)
        ]
        # survivors ordered by where their old shard sits in the base
        # permutation: blocks are intervals over base-permutation
        # *positions* (index values are shuffled), so order by the mean
        # position of each shard's members (robust to the few wrap-around
        # padding duplicates in the tail block)
        position = {}
        for pos, index in enumerate(base):
            position.setdefault(index, pos)
        survivors.sort(
            key=lambda node: (
                sum(position[index] for index in previous_shards[node])
                / len(previous_shards[node]),
                node,
            )
        )
        overlap = [
            [len(previous_shards[node] & slot_sets[slot]) for slot in range(world)]
            for node in survivors
        ]
        k = len(survivors)
        # DP over (survivor prefix, slot prefix): best[i][j] = max overlap
        # assigning the first i survivors to increasing slots among 0..j-1
        NEG = float("-inf")
        best = [[0.0] * (world + 1) for _ in range(k + 1)]
        for i in range(1, k + 1):
            for j in range(world + 1):
                take = (
                    best[i - 1][j - 1] + overlap[i - 1][j - 1]
                    if j >= i
                    else NEG
                )
                skip = best[i][j - 1] if j > i - 1 and j >= 1 else NEG
                best[i][j] = max(take, skip) if j >= i else NEG
        assignment: Dict[int, int] = {}
        i, j = k, world
        while i > 0:
            if j > i - 1 and j >= 1 and best[i][j] == best[i][j - 1]:
                j -= 1
            else:
                assignment[survivors[i - 1]] = j - 1
                i -= 1
                j -= 1
        taken = set(assignment.values())
        free = [slot for slot in range(world) if slot not in taken]
        for node in nodes:
            if node not in assignment:
                assignment[node] = free.pop(0)
        return assignment


class BatchSampler:
    """Groups a sampler's indices into fixed-size batches."""

    def __init__(self, sampler, batch_size: int, drop_last: bool = False) -> None:
        self.sampler = sampler
        self.batch_size = count("batch_size", batch_size)
        self.drop_last = drop_last

    def epoch(self, epoch_index: int) -> List[List[int]]:
        indices = self.sampler.epoch(epoch_index)
        batches = [
            indices[i : i + self.batch_size]
            for i in range(0, len(indices), self.batch_size)
        ]
        if self.drop_last and batches and len(batches[-1]) < self.batch_size:
            batches.pop()
        return batches

    def __len__(self) -> int:
        n = len(self.sampler)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[List[int]]:
        return iter(self.epoch(0))
