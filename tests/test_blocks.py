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
        child, detached = pool.fork_table(parent, child_owner=1)
        assert detached == 2  # both leave the parent's table for its caller
        assert parent.blocks == child.blocks == []
        assert pool.usage_snapshot() == (2, 32, 2)

    def test_partial_block_copied(self):
        pool = KvBlockPool(block_size=16)
        parent = filled_table(pool, 33)
        child, detached = pool.fork_table(parent, child_owner=1)
        assert detached == 2
        assert parent.blocks == [2]  # the partial block stays with the parent
        assert child.blocks == [3]  # and the child starts from a copy of it
        assert child.slots_used_in_last_block == 1
        assert pool.usage_snapshot() == (4, 34, 4)

    def test_three_successive_forks(self):
        pool = KvBlockPool(block_size=16)
        parent = filled_table(pool, 33)
        copies = set()
        detached = []
        for owner in (1, 2, 3):
            child, count = pool.fork_table(parent, child_owner=owner)
            copies.add(child.blocks[0])
            detached.append(count)
        assert detached == [2, 0, 0]
        assert parent.blocks == [2]
        assert len(copies) == 3

    def test_empty_parent(self):
        pool = KvBlockPool(block_size=16)
        parent = BlockTable(owner=0)
        child, detached = pool.fork_table(parent, child_owner=1)
        assert child.blocks == []
        assert detached == 0

    def test_copy_takes_the_next_unused_id(self):
        pool = KvBlockPool(block_size=4)
        parent = filled_table(pool, 3)
        pool.release_sequence(filled_table(pool, 8, owner=1))  # frees 1 and 2
        child, _ = pool.fork_table(parent, child_owner=2)
        assert child.blocks == [3]  # freed ids are never handed out again
        assert pool.allocations == 4
        assert pool.usage_snapshot() == (2, 6, 3)


class TestRelease:
    def test_shared_and_unique(self):
        pool = KvBlockPool(block_size=16)
        parent = filled_table(pool, 33)
        child, detached = pool.fork_table(parent, child_owner=1)
        for _ in range(16):  # grow the child into one more block
            pool.append_slot(child)
        assert len(child.blocks) == 2
        freed = pool.release_sequence(child)
        assert freed == 2  # the copy and the new block; B0, B1 stay detached
        assert pool.usage_snapshot()[:2] == (3, 33)
        assert pool.release_sequence(parent, detached) == 3  # B2, then B0 and B1
        assert pool.usage_snapshot()[:2] == (0, 0)

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
    child, detached = pool.fork_table(parent, child_owner=1)
    new_blocks = pool.usage_snapshot()[0] - used_before
    partial = parent_len % 16 != 0 and parent_len > 0
    assert new_blocks == (1 if partial else 0)
    assert detached * 16 + cached_tokens(parent, 16) == parent_len
    assert cached_tokens(child, 16) == parent_len % 16
