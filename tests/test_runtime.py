import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import check_invariants  # noqa: E402

from apar.blocks import KvBlockPool
from apar.errors import ProtocolError
from apar.runtime import new_group
from apar.tokens import CHILD, EOS, FORK


def make_group(prompt=("Q",), block_size=16, **kw):
    pool = KvBlockPool(block_size=block_size)
    return new_group(list(prompt), pool, **kw), pool


class TestNewGroup:
    def test_single_token_prompt(self):
        group, _ = make_group(("Q",))
        assert len(group.sequences) == 1
        assert len(group.sequences[0].tokens) == 1
        assert group.tree.nodes[group.tree.root].start == 1

    def test_ten_token_prompt(self):
        group, _ = make_group(tuple(f"p{i}" for i in range(10)))
        assert group.tree.nodes[group.tree.root].start == 10
        assert len(group.sequences) == 1

    def test_control_token_rejected(self):
        pool = KvBlockPool()
        with pytest.raises(ProtocolError):
            new_group(["hi", FORK], pool)

    def test_empty_prompt_rejected(self):
        pool = KvBlockPool()
        with pytest.raises(ProtocolError):
            new_group([], pool)

    def test_prompt_prefilled(self):
        group, pool = make_group(("a", "b", "c"))
        assert pool.usage_snapshot()[1] == 3
        assert group.logical_slots == 3


class TestFork:
    def fork_ready_group(self):
        group, pool = make_group(("Q",))
        for tok in ("a1", "a2", FORK):
            group.append_token(0, tok)
        return group, pool

    def test_fig3_fork_bookkeeping(self):
        group, _ = self.fork_ready_group()
        child_id = group.fork_sequence(0)
        child = group.sequences[child_id]
        assert child.tokens == ["Q", "a1", "a2", FORK, CHILD]
        old = group.tree.nodes[0]
        assert old.end == 4
        assert old.next_sibling is not None and old.first_child is not None
        cont = group.tree.nodes[old.next_sibling]
        detail = group.tree.nodes[old.first_child]
        assert (cont.seq, cont.start) == (0, 4)
        assert (detail.seq, detail.start) == (child_id, 4)
        assert group.sequences[0].current_node == cont.id
        assert child.current_node == detail.id
        check_invariants(group)

    def test_two_successive_forks(self):
        group, _ = self.fork_ready_group()
        group.fork_sequence(0)
        group.append_token(0, FORK)
        group.fork_sequence(0)
        assert len(group.sequences) == 3
        # sibling chain: root -> cont1 -> cont2
        chain = [group.tree.root]
        while group.tree.nodes[chain[-1]].next_sibling is not None:
            chain.append(group.tree.nodes[chain[-1]].next_sibling)
        assert len(chain) == 3

    def test_fork_requires_trailing_fork_token(self):
        group, _ = make_group(("Q",))
        group.append_token(0, "a2")
        with pytest.raises(ProtocolError):
            group.fork_sequence(0)

    def test_prefix_shared_after_fork(self):
        group, _ = self.fork_ready_group()
        child_id = group.fork_sequence(0)
        parent, child = group.sequences[0], group.sequences[child_id]
        n = len(parent.tokens)
        assert child.tokens[:n] == parent.tokens
        assert child.tokens[n:] == [CHILD]


class TestAppend:
    def test_slots_track_length(self):
        group, pool = make_group(("Q",))
        group.append_token(0, "a1")
        assert len(group.sequences[0].tokens) == 2
        assert pool.usage_snapshot()[1] == 2

    def test_eos_finishes_and_releases(self):
        group, pool = make_group(("Q",))
        group.append_token(0, "a1")
        assert pool.usage_snapshot()[0] == 1
        group.append_token(0, EOS)
        assert 0 not in group.live
        assert pool.usage_snapshot()[:2] == (0, 0)

    def test_append_after_eos(self):
        group, _ = make_group(("Q",))
        group.append_token(0, EOS)
        with pytest.raises(ProtocolError):
            group.append_token(0, "x")

    def test_not_live_errors_name_the_sequence(self):
        group, _ = make_group(("Q",))
        group.append_token(0, EOS)
        with pytest.raises(ProtocolError, match="^append to finished sequence 0$"):
            group.append_token(0, "x")
        with pytest.raises(ProtocolError, match="^fork from finished sequence 0$"):
            group.fork_sequence(0)
        for call in (lambda: group.append_token(5, "x"), lambda: group.fork_sequence(5)):
            with pytest.raises(ProtocolError, match="^unknown sequence 5$"):
                call()

    def test_sequence_count_tracks_forks(self):
        group, _ = make_group(("Q",))
        group.append_token(0, "a")
        group.append_token(0, FORK)
        group.fork_sequence(0)
        group.append_token(0, FORK)
        group.fork_sequence(0)
        assert len(group.sequences) == 3


class TestLogicalAccounting:
    def test_fig3_timeline(self):
        group, _ = make_group(("Q",))
        for tok in ("a1", "a2", FORK):
            group.append_token(0, tok)
        assert group.logical_slots == 4
        child = group.fork_sequence(0)
        assert group.logical_slots == 5  # only the injected [Child] is new
        group.append_token(0, "b1")
        assert group.logical_slots == 6
        group.append_token(0, EOS)  # parent thread done: b1 and [EOS] freed
        assert group.logical_slots == 5
        group.append_token(child, "d1")
        group.append_token(child, "d2")
        assert group.logical_slots == 7
        group.append_token(child, EOS)
        assert group.logical_slots == 0
        assert group.logical_peak == 8
