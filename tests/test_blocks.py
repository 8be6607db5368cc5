import pytest
from hypothesis import given, settings, strategies as st

from apar.blocks import KvBlockPool


def filled_pool(n, block_size=16):
    """A pool holding one thread of ``n`` tokens."""
    pool = KvBlockPool(block_size=block_size)
    for i in range(n):
        pool.append_slot(i)
    return pool


@pytest.mark.parametrize("block_size", [0, -16])
def test_block_size_must_be_positive(block_size):
    with pytest.raises(ValueError, match="block_size must be > 0"):
        KvBlockPool(block_size=block_size)


class TestAppendSlot:
    def test_first_append(self):
        assert filled_pool(1).usage_snapshot() == (1, 1, 1)

    def test_boundary(self):
        pool = filled_pool(16)
        assert pool.usage_snapshot() == (1, 16, 1)
        pool.append_slot(16)
        assert pool.usage_snapshot() == (2, 17, 2)

    def test_33_appends(self):
        pool = filled_pool(33)
        assert pool.usage_snapshot() == (3, 33, 3)
        assert pool.allocations == 3

    def test_no_cap(self):
        # As many blocks as asked for.
        pool = filled_pool(2 * 5000, block_size=2)
        assert pool.allocations == 5000
        assert pool.usage_snapshot() == (5000, 10000, 5000)


class TestForkTable:
    def test_full_blocks_all_shared(self):
        # The parent's full blocks stay where they are; the child's one
        # block is fresh and holds only its [Child].
        pool = filled_pool(32)
        pool.fork_table(32)
        assert pool.usage_snapshot() == (3, 33, 3)

    def test_partial_block_copied(self):
        pool = filled_pool(33)
        pool.fork_table(33)  # the copy of the one-slot last block, plus [Child]
        assert pool.usage_snapshot() == (4, 35, 4)

    def test_three_successive_forks(self):
        pool = filled_pool(33)
        for _ in range(3):
            pool.fork_table(33)
        assert pool.allocations == 6
        assert pool.usage_snapshot() == (6, 39, 6)

    def test_copy_takes_the_next_unused_id(self):
        # Freed blocks still count as handed out: a fork after a release
        # is the pool's next allocation.
        pool = filled_pool(3, block_size=4)
        for i in range(8):
            pool.append_slot(i)
        assert pool.release_sequence(0, 8) == 2
        pool.fork_table(3)
        assert pool.allocations == 4
        assert pool.usage_snapshot() == (2, 7, 3)


class TestRelease:
    def test_shared_and_unique(self):
        # Thread 0 forks thread 1 at 33 tokens; thread 1 grows 16 more and
        # finishes first, freeing its copy block and its new one.  The
        # parent's finish then frees its node's two full blocks too.
        pool = filled_pool(33)
        pool.fork_table(33)
        for length in range(34, 50):
            pool.append_slot(length)
        assert pool.usage_snapshot()[:2] == (5, 51)
        assert pool.release_sequence(33, 50) == 2
        assert pool.usage_snapshot()[:2] == (3, 33)
        assert pool.release_sequence(0, 33) == 3
        assert pool.usage_snapshot()[:2] == (0, 0)

    def test_sole_sequence_frees_all(self):
        pool = filled_pool(33)
        assert pool.release_sequence(0, 33) == 3
        assert pool.usage_snapshot() == (0, 0, 3)


class TestUsageSnapshot:
    def test_fresh(self):
        assert KvBlockPool().usage_snapshot() == (0, 0, 0)

    def test_after_33(self):
        assert filled_pool(33).usage_snapshot() == (3, 33, 3)

    def test_after_fork(self):
        pool = filled_pool(33)
        pool.fork_table(33)
        assert pool.usage_snapshot() == (4, 35, 4)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=160), st.integers(min_value=1, max_value=17))
def test_fork_allocates_at_most_one_block(parent_len, block_size):
    pool = filled_pool(parent_len, block_size)
    used, slots, _ = pool.usage_snapshot()
    pool.fork_table(parent_len)
    # Exactly one block, never more, whatever the fill of the last one.
    assert pool.usage_snapshot()[:2] == (used + 1, slots + parent_len % block_size + 1)
    # Released by the bounds rule, the parent's and the child's spans give
    # back every block and slot.
    pool.release_sequence(parent_len, parent_len + 1)
    pool.release_sequence(0, parent_len)
    assert pool.usage_snapshot()[:2] == (0, 0)
