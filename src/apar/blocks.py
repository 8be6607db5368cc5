"""Paged KV-cache accounting: uncapped blocks of a fixed size, one owner each.

Blocks are bookkeeping entries only; no tensors are stored.  Every block
has one owner, the tree node its last slot falls in, and the pool keeps
no per-block state.  A thread's table holds only the blocks it has written
since its last fork.  Forking detaches the parent's full blocks, which
the sequence group gives to the node the fork closes, and copies the
trailing partial block into a fresh block for the child, so a fork
allocates at most one block and no block is in two tables.  Releasing a
table frees its blocks plus the node blocks the caller names.

append_slot reserves one slot for one table.  A lockstep decode step
(engine.apar_step) calls it only on the steps where every table's last
block is full, so that each append takes a fresh block.  On every other
step the step moves each table's fill itself and adds its slots to
used_slots once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ProtocolError

DEFAULT_BLOCK_SIZE = 16

__all__ = ["KvBlockPool", "BlockTable", "DEFAULT_BLOCK_SIZE"]


@dataclass
class BlockTable:
    """The blocks one sequence has written since its last fork, in order;
    every block but the last is full.  The blocks before them belong to
    the tree nodes the sequence descends from."""

    owner: int
    blocks: list[int] = field(default_factory=list)
    slots_used_in_last_block: int = 0
    released: bool = False


class KvBlockPool:
    """Uncapped pool of cache blocks, counted, not tracked one by one.

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
        # Used blocks, and the filled slots in them: every block but a
        # table's last is full.  Public for the decode step, which counts
        # its in-place appends in used_slots.
        self.used_blocks = 0
        self.used_slots = 0
        self.peak_used: int = 0
        self.allocations = 0  # blocks handed out so far, freed or not; the next id

    def _alloc(self) -> int:
        block = self.allocations
        self.allocations += 1
        self.used_blocks += 1
        if self.used_blocks > self.peak_used:
            self.peak_used = self.used_blocks
        return block

    def append_slot(self, table: BlockTable) -> None:
        """Reserve one more slot for the owning sequence."""
        if not table.blocks or table.slots_used_in_last_block == self.block_size:
            table.blocks.append(self._alloc())
            table.slots_used_in_last_block = 1
        else:
            table.slots_used_in_last_block += 1
        self.used_slots += 1

    def fork_table(self, parent: BlockTable, child_owner: int) -> tuple[BlockTable, int]:
        """Map a forked child onto the parent's cache; return the child's
        table and the number of full blocks detached from the parent's.

        The detached blocks leave every table: the caller owns them and
        names them when it releases a table.  The trailing partial block,
        if any, stays with the parent and is copied into a fresh block,
        the child's only one, so either table can keep appending.
        """
        if parent.released:
            raise ProtocolError("fork from a released table")
        blocks, fill = parent.blocks, parent.slots_used_in_last_block
        partial = bool(blocks) and fill < self.block_size
        detached = len(blocks) - partial
        del blocks[:detached]
        child = BlockTable(owner=child_owner)
        if partial:
            child.blocks.append(self._alloc())
            child.slots_used_in_last_block = fill
            self.used_slots += fill
        return child, detached

    def release_sequence(self, table: BlockTable, detached: int = 0) -> int:
        """Free the finished sequence's blocks and ``detached`` full blocks
        the caller owned; return blocks freed."""
        if table.released:
            raise ProtocolError(f"table of sequence {table.owner} released twice")
        table.released = True
        own = len(table.blocks)
        self.used_blocks -= own + detached
        self.used_slots -= detached * self.block_size
        if own:
            self.used_slots -= (own - 1) * self.block_size + table.slots_used_in_last_block
        return own + detached

    def usage_snapshot(self) -> tuple[int, int, int]:
        """(used blocks, used slots, peak used blocks); slots count exact fills."""
        return self.used_blocks, self.used_slots, self.peak_used
