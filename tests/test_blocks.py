import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from oracles import cached_tokens  # noqa: E402

from apar.blocks import BlockTable, KvBlockPool
from apar.errors import ProtocolError


def filled_table(pool, n, owner=0):
    table = BlockTable(owner=owner)
    for _ in range(n):
        pool.append_slot(table)
    return table


class TestAppendSlot:
    def test_first_append(self):
        pool = KvBlockPool(block_size=16)
        table = filled_table(pool, 1)
        assert len(table.blocks) == 1
        assert table.slots_used_in_last_block == 1

    def test_boundary(self):
        pool = KvBlockPool(block_size=16)
        table = filled_table(pool, 16)
        assert len(table.blocks) == 1
        pool.append_slot(table)
        assert len(table.blocks) == 2
        assert table.slots_used_in_last_block == 1

    def test_33_appends(self):
        pool = KvBlockPool(block_size=16)
        table = filled_table(pool, 33)
        assert len(table.blocks) == 3
        assert table.slots_used_in_last_block == 1
        assert cached_tokens(table, 16) == 33

    def test_no_cap(self):
        # Ids go out in allocation order, as many as asked for.
        pool = KvBlockPool(block_size=2)
        table = filled_table(pool, 2 * 5000)
        assert table.blocks == list(range(5000))
        assert pool.usage_snapshot() == (5000, 10000, 5000)


class TestForkTable:
    def test_full_blocks_all_shared(self):
        pool = KvBlockPool(block_size=16)
        parent = filled_table(pool, 32)
        child = pool.fork_table(parent, child_owner=1)
        assert child.blocks == parent.blocks
        assert pool.refcount[parent.blocks[0]] == 2
        assert pool.refcount[parent.blocks[1]] == 2
        assert pool.usage_snapshot()[0] == 2

    def test_partial_block_copied(self):
        pool = KvBlockPool(block_size=16)
        parent = filled_table(pool, 33)
        child = pool.fork_table(parent, child_owner=1)
        assert child.blocks[:2] == parent.blocks[:2]
        assert child.blocks[2] != parent.blocks[2]
        assert pool.refcount[parent.blocks[0]] == 2
        assert pool.refcount[parent.blocks[1]] == 2
        assert pool.refcount[parent.blocks[2]] == 1
        assert pool.refcount[child.blocks[2]] == 1
        assert child.slots_used_in_last_block == 1

    def test_three_successive_forks(self):
        pool = KvBlockPool(block_size=16)
        parent = filled_table(pool, 33)
        copies = set()
        for owner in (1, 2, 3):
            child = pool.fork_table(parent, child_owner=owner)
            copies.add(child.blocks[2])
        assert pool.refcount[parent.blocks[0]] == 4
        assert pool.refcount[parent.blocks[1]] == 4
        assert len(copies) == 3

    def test_empty_parent(self):
        pool = KvBlockPool(block_size=16)
        parent = BlockTable(owner=0)
        child = pool.fork_table(parent, child_owner=1)
        assert child.blocks == []

    def test_copy_takes_the_next_unused_id(self):
        pool = KvBlockPool(block_size=4)
        parent = filled_table(pool, 3)
        pool.release_sequence(filled_table(pool, 8, owner=1))  # frees 1 and 2
        child = pool.fork_table(parent, child_owner=2)
        assert child.blocks == [3]  # freed ids are never handed out again
        assert pool.allocations == 4
        assert pool.usage_snapshot() == (2, 6, 3)


class TestRelease:
    def test_shared_and_unique(self):
        pool = KvBlockPool(block_size=16)
        parent = filled_table(pool, 33)
        child = pool.fork_table(parent, child_owner=1)
        for _ in range(16):  # grow the child into one more block
            pool.append_slot(child)
        assert len(child.blocks) == 4
        freed = pool.release_sequence(child)
        assert freed == 2  # the copy and the new block; B0, B1 stay shared
        assert pool.refcount[parent.blocks[0]] == 1
        assert pool.refcount[parent.blocks[1]] == 1

    def test_sole_sequence_frees_all(self):
        pool = KvBlockPool(block_size=16)
        table = filled_table(pool, 33)
        assert pool.release_sequence(table) == 3
        assert pool.usage_snapshot()[0] == 0

    def test_double_release(self):
        pool = KvBlockPool(block_size=16)
        table = filled_table(pool, 5)
        pool.release_sequence(table)
        with pytest.raises(ProtocolError):
            pool.release_sequence(table)


class TestUsageSnapshot:
    def test_fresh(self):
        assert KvBlockPool().usage_snapshot() == (0, 0, 0)

    def test_after_33(self):
        pool = KvBlockPool(block_size=16)
        filled_table(pool, 33)
        assert pool.usage_snapshot() == (3, 33, 3)

    def test_after_fork(self):
        pool = KvBlockPool(block_size=16)
        parent = filled_table(pool, 33)
        pool.fork_table(parent, child_owner=1)
        assert pool.usage_snapshot() == (4, 34, 4)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=160))
def test_fork_allocates_at_most_one_block(parent_len):
    pool = KvBlockPool(block_size=16)
    parent = filled_table(pool, parent_len)
    used_before = pool.usage_snapshot()[0]
    child = pool.fork_table(parent, child_owner=1)
    new_blocks = pool.usage_snapshot()[0] - used_before
    partial = parent_len % 16 != 0 and parent_len > 0
    assert new_blocks == (1 if partial else 0)
    assert cached_tokens(child, 16) == cached_tokens(parent, 16)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_no_leaks_random_schedules(seed):
    rng = random.Random(seed)
    pool = KvBlockPool(block_size=8)
    tables = [filled_table(pool, rng.randint(0, 40), owner=0)]
    next_owner = 1
    for _ in range(rng.randint(1, 30)):
        action = rng.random()
        if action < 0.4 and tables:
            parent = rng.choice(tables)
            tables.append(pool.fork_table(parent, child_owner=next_owner))
            next_owner += 1
        elif action < 0.7 and tables:
            for _ in range(rng.randint(1, 12)):
                pool.append_slot(rng.choice(tables))
        elif tables:
            victim = tables.pop(rng.randrange(len(tables)))
            pool.release_sequence(victim)
    for table in tables:
        pool.release_sequence(table)
    assert pool.usage_snapshot()[:2] == (0, 0)


class EagerPool:
    """Reference pool: every block's filled slots, summed on demand.

    Ids go out in allocation order from a counter of its own, and a freed
    id is never handed out again.  Like the lazy pool, it has no cap.
    """

    def __init__(self, block_size):
        self.block_size = block_size
        self.refcount = {}
        self.next_id = 0
        self.slots_filled = {}
        self.peak_used = 0

    def _alloc(self):
        block = self.next_id
        self.next_id += 1
        self.refcount[block] = 1
        self.slots_filled[block] = 0
        self.peak_used = max(self.peak_used, len(self.refcount))
        return block

    def append_slot(self, table):
        if not table.blocks or table.slots_used_in_last_block == self.block_size:
            table.blocks.append(self._alloc())
            table.slots_used_in_last_block = 0
        table.slots_used_in_last_block += 1
        self.slots_filled[table.blocks[-1]] += 1

    def fork_table(self, parent, child_owner):
        child = BlockTable(owner=child_owner)
        if parent.blocks:
            partial = parent.slots_used_in_last_block < self.block_size
            child.blocks = list(parent.blocks[:-1] if partial else parent.blocks)
            if partial:
                copy = self._alloc()
                self.slots_filled[copy] = parent.slots_used_in_last_block
            for block in child.blocks:
                self.refcount[block] += 1
            if partial:
                child.blocks.append(copy)
            child.slots_used_in_last_block = parent.slots_used_in_last_block
        return child

    def release_sequence(self, table):
        freed = 0
        for block in table.blocks:
            self.refcount[block] -= 1
            if self.refcount[block] == 0:
                del self.refcount[block]
                del self.slots_filled[block]
                freed += 1
        table.released = True
        return freed

    def usage_snapshot(self):
        return len(self.refcount), sum(self.slots_filled.values()), self.peak_used


def _apply(pool, tables, op, pick, count):
    """Run one operation on ``pool``; return its result or the error type."""
    try:
        if op == "new":
            tables.append(BlockTable(owner=len(tables)))
            for _ in range(count):
                pool.append_slot(tables[-1])
        elif op == "append" and tables:
            for _ in range(count):
                pool.append_slot(tables[pick % len(tables)])
        elif op == "fork" and tables:
            tables.append(pool.fork_table(tables[pick % len(tables)], child_owner=len(tables)))
        elif op == "release" and tables:
            return pool.release_sequence(tables.pop(pick % len(tables)))
    except ProtocolError as exc:
        return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 2, 4]),
    st.lists(
        st.tuples(
            st.sampled_from(["new", "append", "fork", "release"]),
            st.integers(min_value=0, max_value=1 << 16),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=60,
    ),
)
def test_lazy_pool_matches_eager_reference(block_size, ops):
    pool, ref = KvBlockPool(block_size=block_size), EagerPool(block_size)
    tables, ref_tables = [], []
    for op, pick, count in ops + [("release", 0, 1)] * (len(ops) + 1):
        assert _apply(pool, tables, op, pick, count) == _apply(ref, ref_tables, op, pick, count)
        assert [t.blocks for t in tables] == [t.blocks for t in ref_tables]
        assert pool.usage_snapshot() == ref.usage_snapshot()
    assert pool.usage_snapshot()[:2] == (0, 0)
    assert pool.allocations == ref.next_id
