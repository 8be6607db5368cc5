"""Paged KV-cache accounting: uncapped blocks of a fixed size, one owner each.

Blocks are bookkeeping entries only; no tensors are stored.  Every block
has one owner, the tree node its last slot falls in, so the blocks a node
owns follow from its bounds and the block size alone:

- a node that starts at slot ``start`` owns the blocks from
  ``start // block_size`` on; the root starts at slot 0, as it holds the
  prompt;
- once a fork closes the node at ``end``, it owns the blocks before
  ``end // block_size``: its full ones, while the partial block the fork
  cut passes to the parent's continuation node;
- while a live thread of length L sits on it, it owns the blocks before
  ``ceil(L / block_size)``;
- a fork gives the child one block holding ``fork_len % block_size + 1``
  slots: the copy of the parent's partial last block, or a fresh block,
  plus the [Child].

A child node starts where its parent ends, so the nodes a finished thread
was the last to hold, from its current node up, own one run of blocks
between the first block of the topmost and the thread's end: that run is
what release_sequence frees.  The pool keeps counters only, and nothing
per block or per thread.
"""

from __future__ import annotations

DEFAULT_BLOCK_SIZE = 16

__all__ = ["KvBlockPool", "DEFAULT_BLOCK_SIZE"]


class KvBlockPool:
    """Uncapped pool of cache blocks, counted, not tracked one by one.

    The pool has no cap: a caller that models a bounded cache keeps its own
    count, as the simulator does.  A pool belongs to one decode or one
    simulator profile, and takes no lock.
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size <= 0:
            raise ValueError("block_size must be > 0")
        self.block_size = block_size
        # Used blocks, and the filled slots in them.  Public for the decode
        # step, which counts its own appends.
        self.used_blocks = 0
        self.used_slots = 0
        self.peak_used: int = 0
        self.allocations = 0  # blocks handed out so far, freed or not

    def take_block(self) -> None:
        """Hand out one fresh block, with no slot filled yet."""
        self.allocations += 1
        self.used_blocks += 1
        if self.used_blocks > self.peak_used:
            self.peak_used = self.used_blocks

    def append_slot(self, length: int) -> None:
        """Fill slot ``length`` of a thread, in a fresh block if it starts one."""
        if length % self.block_size == 0:
            self.take_block()
        self.used_slots += 1

    def fork_table(self, fork_len: int) -> None:
        """Give a child forked at ``fork_len`` tokens its one block: the copy
        of the parent's partial last block, or a fresh one, plus [Child]."""
        self.take_block()
        self.used_slots += fork_len % self.block_size + 1

    def release_sequence(self, start: int, end: int) -> int:
        """Free the blocks a finished thread of ``end`` tokens frees, those of
        the nodes it was the last to hold, the topmost starting at slot
        ``start``; return blocks freed."""
        first = start // self.block_size
        freed = -(-end // self.block_size) - first
        self.used_blocks -= freed
        self.used_slots -= end - first * self.block_size
        return freed

    def usage_snapshot(self) -> tuple[int, int, int]:
        """(used blocks, used slots, peak used blocks); slots count exact fills.  No
        program path calls it; it stays only because perfbench's ``layers.SPANS`` traces it."""
        return self.used_blocks, self.used_slots, self.peak_used
