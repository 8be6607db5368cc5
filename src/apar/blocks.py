"""Paged KV-cache accounting: uncapped refcounted blocks of a fixed size.

Blocks are bookkeeping entries only; no tensors are stored.  Forking a
sequence shares every full block of the parent and copies the trailing
partial block, so a fork allocates at most one fresh block, and a partial
last block always has exactly one owner.

append_slot reserves one slot for one table, with the refcount check.
A lockstep decode step (engine.apar_step) calls it only on the steps
where every table's last block is full, so that each append takes a fresh
block.  On every other step the step moves each table's fill itself and
adds its slots to used_slots once: each append lands in a partial last
block, which has one owner, so it needs neither a block nor the check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ProtocolError

DEFAULT_BLOCK_SIZE = 16

__all__ = ["KvBlockPool", "BlockTable", "DEFAULT_BLOCK_SIZE"]


@dataclass
class BlockTable:
    """Per-sequence logical to physical mapping."""

    owner: int
    blocks: list[int] = field(default_factory=list)
    slots_used_in_last_block: int = 0
    released: bool = False


class KvBlockPool:
    """Uncapped pool of cache blocks with per-block refcounts.

    Block ids are handed out in allocation order and never reused: a
    block's id is the number of blocks allocated before it (0, 1, 2, ...).
    The pool has no cap: a caller that models a bounded cache keeps its own
    count, as the simulator does.

    A pool belongs to one decode or one simulator profile, and takes no lock.
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size <= 0:
            raise ValueError("block_size must be > 0")
        self.block_size = block_size
        self.refcount: dict[int, int] = {}
        # Filled slots over all used blocks.  Every block but a table's last
        # is full, and a partial last block has exactly one owner.  Public
        # for the decode step, which counts its in-place appends here.
        self.used_slots = 0
        self.peak_used: int = 0
        self.allocations = 0  # blocks handed out so far, freed or not; the next id

    # -- internal helpers --

    def _alloc(self) -> int:
        block = self.allocations
        self.allocations += 1
        self.refcount[block] = 1
        used = len(self.refcount)
        if used > self.peak_used:
            self.peak_used = used
        return block

    def _decref(self, block: int, slots: int) -> bool:
        """Drop one reference; a block freed here held ``slots`` filled slots."""
        self.refcount[block] -= 1
        if self.refcount[block] == 0:
            del self.refcount[block]
            self.used_slots -= slots
            return True
        return False

    # -- public operations --

    def append_slot(self, table: BlockTable) -> None:
        """Reserve one more slot for the owning sequence."""
        if not table.blocks or table.slots_used_in_last_block == self.block_size:
            block = self._alloc()
            table.blocks.append(block)
            table.slots_used_in_last_block = 1
            self.used_slots += 1
        else:
            last = table.blocks[-1]
            if self.refcount[last] != 1:
                raise ProtocolError(
                    f"append into shared block {last} (refcount {self.refcount[last]})"
                )
            table.slots_used_in_last_block += 1
            self.used_slots += 1

    def fork_table(self, parent: BlockTable, child_owner: int) -> BlockTable:
        """Map a forked child onto the parent's cache.

        All full blocks are shared; the trailing partial block, if any, is
        copied into a fresh block so either table can keep appending.
        """
        if parent.released:
            raise ProtocolError("fork from a released table")
        child = BlockTable(owner=child_owner)
        if not parent.blocks:
            return child
        partial = parent.slots_used_in_last_block < self.block_size
        shared = parent.blocks[:-1] if partial else parent.blocks
        if partial:
            copy = self._alloc()
            self.used_slots += parent.slots_used_in_last_block
        for block in shared:
            self.refcount[block] += 1
        child.blocks = list(shared)
        if partial:
            child.blocks.append(copy)
        child.slots_used_in_last_block = parent.slots_used_in_last_block
        return child

    def release_sequence(self, table: BlockTable) -> int:
        """Drop the finished sequence's references; return blocks freed."""
        if table.released:
            raise ProtocolError(f"table of sequence {table.owner} released twice")
        freed = 0
        last = len(table.blocks) - 1
        for i, block in enumerate(table.blocks):
            slots = table.slots_used_in_last_block if i == last else self.block_size
            if self._decref(block, slots):
                freed += 1
        table.released = True
        return freed

    def usage_snapshot(self) -> tuple[int, int, int]:
        """(used blocks, used slots, peak used blocks); slots count exact fills."""
        return len(self.refcount), self.used_slots, self.peak_used
