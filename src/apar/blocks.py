"""Paged KV-cache accounting: fixed-size refcounted blocks.

Blocks are bookkeeping entries only; no tensors are stored.  Forking a
sequence shares every full block of the parent and copies the trailing
partial block, so a fork allocates at most one fresh block.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .errors import CapacityError, ProtocolError

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
    """Fixed-capacity pool of cache blocks with per-block refcounts.

    Block ids are handed out newest-freed first; with nothing freed, the
    next never-used id in ascending order (0, 1, 2, ...).  No free list is
    built up front, so creating a pool costs the same at any capacity.

    Every public method takes the pool lock, so a pool may be shared by
    engines running on different threads.
    """

    def __init__(self, capacity: int, block_size: int = DEFAULT_BLOCK_SIZE):
        if capacity < 0 or block_size <= 0:
            raise ValueError("capacity must be >= 0 and block_size > 0")
        self.block_size = block_size
        self.capacity = capacity
        self.refcount: dict[int, int] = {}
        self._freed: list[int] = []  # a stack: the last freed id goes out first
        self._next_fresh = 0  # ids from here to capacity - 1 were never handed out
        # Filled slots over all used blocks.  Every block but a table's last
        # is full, and a partial last block has exactly one owner.
        self._used_slots = 0
        self.peak_used: int = 0
        self._lock = threading.Lock()

    # -- internal helpers (callers hold the lock) --

    def _alloc(self) -> int:
        if self._freed:
            block = self._freed.pop()
        elif self._next_fresh < self.capacity:
            block = self._next_fresh
            self._next_fresh += 1
        else:
            raise CapacityError("block pool exhausted")
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
            self._used_slots -= slots
            self._freed.append(block)
            return True
        return False

    # -- public operations --

    def append_slot(self, table: BlockTable) -> None:
        """Reserve one more slot for the owning sequence."""
        with self._lock:
            if not table.blocks or table.slots_used_in_last_block == self.block_size:
                block = self._alloc()
                table.blocks.append(block)
                table.slots_used_in_last_block = 1
                self._used_slots += 1
            else:
                last = table.blocks[-1]
                if self.refcount[last] != 1:
                    raise ProtocolError(
                        f"append into shared block {last} (refcount {self.refcount[last]})"
                    )
                table.slots_used_in_last_block += 1
                self._used_slots += 1

    def fork_table(self, parent: BlockTable, child_owner: int) -> BlockTable:
        """Map a forked child onto the parent's cache.

        All full blocks are shared; the trailing partial block, if any, is
        copied into a fresh block so either table can keep appending.
        """
        with self._lock:
            if parent.released:
                raise ProtocolError("fork from a released table")
            child = BlockTable(owner=child_owner)
            if not parent.blocks:
                return child
            partial = parent.slots_used_in_last_block < self.block_size
            shared = parent.blocks[:-1] if partial else parent.blocks
            if partial:
                copy = self._alloc()  # may raise before any refcount changes
                self._used_slots += parent.slots_used_in_last_block
            for block in shared:
                self.refcount[block] += 1
            child.blocks = list(shared)
            if partial:
                child.blocks.append(copy)
            child.slots_used_in_last_block = parent.slots_used_in_last_block
            return child

    def release_sequence(self, table: BlockTable) -> int:
        """Drop the finished sequence's references; return blocks freed."""
        with self._lock:
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
        with self._lock:
            return len(self.refcount), self._used_slots, self.peak_used

    @property
    def used_blocks(self) -> int:
        return len(self.refcount)

    @property
    def free_blocks(self) -> int:
        return len(self._freed) + self.capacity - self._next_fresh
