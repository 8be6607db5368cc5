import numpy as np
import pytest

from apar.attention import (
    attended_count,
    build_loss_mask,
    build_training_mask,
    linearize_group,
    linearize_script,
    read_mask,
    write_mask,
)
from apar.engine import apar_decode
from apar.errors import TreeError
from apar.script import ReplayModel, ScriptNode, ScriptTree, random_script
from apar.tokens import CHILD, EOS, FORK
from apar.tree import path_to_root


def brute_force_mask(sample, tree):
    """Ancestor-closure oracle: per token, enumerate the path to root."""
    n = len(sample.tokens)
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1):
            if j < sample.prompt_len:
                out[i, j] = True
                continue
            ni, nj = sample.node_of[i], sample.node_of[j]
            if ni == -1 or nj == -1:
                continue
            if ni == nj or nj in path_to_root(tree, ni)[1:]:
                out[i, j] = True
    return out


class TestLinearize:
    def test_fig3_layout(self, fig3_script):
        sample, tree = linearize_script(fig3_script)
        assert sample.tokens == [
            "Q", "a1", "a2", FORK, CHILD, "d1", "d2", EOS, "b1", EOS
        ]
        assert sample.node_of == [-1, 0, 0, 0, 1, 1, 1, 1, 2, 2]
        assert sample.prompt_len == 1

    def test_group_linearization_matches_script(self, fig3_script):
        result = apar_decode(list(fig3_script.prompt), ReplayModel(fig3_script))
        sample = linearize_group(result.tree, result.sequences_map())
        script_sample, _ = linearize_script(fig3_script)
        assert sample.tokens == script_sample.tokens


class TestTrainingMask:
    def test_single_node_is_causal(self):
        script = ScriptTree(
            root=0, nodes={0: ScriptNode(0, ("x", "y", "z"))}, prompt=("p", "q")
        )
        sample, tree = linearize_script(script)
        mask = build_training_mask(sample, tree)
        n = len(sample.tokens)
        expected = np.tril(np.ones((n, n), dtype=bool))
        assert np.array_equal(mask, expected)

    def test_fig3_rows(self, fig3_script):
        sample, tree = linearize_script(fig3_script)
        mask = build_training_mask(sample, tree)
        assert set(np.nonzero(mask[8])[0]) == {0, 1, 2, 3, 8}
        assert set(np.nonzero(mask[5])[0]) == {0, 1, 2, 3, 4, 5}

    def test_matches_brute_force_oracle(self):
        for seed in range(40):
            script = random_script(seed, max_nodes=9, max_node_len=5)
            sample, tree = linearize_script(script)
            mask = build_training_mask(sample, tree)
            assert np.array_equal(mask, brute_force_mask(sample, tree)), seed

    def test_reflexive_and_no_future_within_node(self):
        for seed in range(10):
            script = random_script(seed, max_nodes=9, max_node_len=5)
            sample, tree = linearize_script(script)
            mask = build_training_mask(sample, tree)
            assert mask.diagonal().all()
            assert not np.triu(mask, k=1).any()

    def test_inconsistent_node_of_rejected(self, fig3_script):
        sample, tree = linearize_script(fig3_script)
        sample.node_of[5] = 777
        with pytest.raises(TreeError):
            build_training_mask(sample, tree)


class TestLossMask:
    def test_fig3(self, fig3_script):
        sample, _ = linearize_script(fig3_script)
        loss = build_loss_mask(sample)
        assert loss.tolist() == [
            False, True, True, True, False, True, True, True, True, True
        ]

    def test_no_fork_sample(self):
        script = ScriptTree(
            root=0, nodes={0: ScriptNode(0, ("x", "y"))}, prompt=("p",)
        )
        sample, _ = linearize_script(script)
        loss = build_loss_mask(sample)
        assert not loss[0] and loss[1:].all()

    def test_three_forks_mask_three_child_positions(self):
        for seed in range(200):
            script = random_script(seed, max_nodes=7)
            if sum(1 for n in script.nodes.values() if n.first_child is not None) == 3:
                break
        else:
            pytest.skip("no 3-fork script found")
        sample, _ = linearize_script(script)
        loss = build_loss_mask(sample)
        blocked = [i for i in range(sample.prompt_len, len(sample.tokens)) if not loss[i]]
        assert len(blocked) == 3
        assert all(sample.tokens[i] == CHILD for i in blocked)


class TestAttendedCount:
    def test_ar_counts_all_preceding(self):
        script = ScriptTree(
            root=0, nodes={0: ScriptNode(0, tuple("abcde"))}, prompt=("p",)
        )
        result = apar_decode(list(script.prompt), ReplayModel(script))
        seqs = result.sequences_map()
        for i in range(1, 6):
            assert attended_count(result.tree, seqs, 0, i) == i

    def test_fig3_examples(self, fig3_script):
        result = apar_decode(list(fig3_script.prompt), ReplayModel(fig3_script))
        seqs = result.sequences_map()
        b1_pos = seqs[0].index("b1")
        assert attended_count(result.tree, seqs, 0, b1_pos) == 4
        d2_pos = seqs[1].index("d2")
        assert attended_count(result.tree, seqs, 1, d2_pos) == 6

    def test_out_of_range(self, fig3_script):
        result = apar_decode(list(fig3_script.prompt), ReplayModel(fig3_script))
        with pytest.raises(TreeError):
            attended_count(result.tree, result.sequences_map(), 0, 999)

    def test_row_support_is_attended_plus_self(self):
        for seed in range(15):
            script = random_script(seed, max_nodes=9, max_node_len=5)
            result = apar_decode(list(script.prompt), ReplayModel(script))
            seqs = result.sequences_map()
            sample = linearize_group(result.tree, seqs)
            mask = build_training_mask(sample, result.tree)
            for node in result.tree.nodes.values():
                seq = seqs[node.seq]
                start, end = node.slice_bounds(len(seq))
                lin_positions = [
                    k for k, nid in enumerate(sample.node_of) if nid == node.id
                ]
                for seq_pos, lin_pos in zip(range(start, end), lin_positions):
                    support = int(mask[lin_pos].sum())
                    assert support == attended_count(result.tree, seqs, node.seq, seq_pos) + 1


def test_counting_inequality_two_threads_long_details():
    from apar.metrics import flatten_mean_attended, mean_attended_tokens

    for seed in range(40):
        script = random_script(seed, max_nodes=9, max_node_len=16)
        if all(n.first_child is None for n in script.nodes.values()):
            continue
        if any(
            len(script.nodes[n.first_child].tokens) < 12
            for n in script.nodes.values()
            if n.first_child is not None
        ):
            continue
        result = apar_decode(list(script.prompt), ReplayModel(script))
        seqs = result.sequences_map()
        assert mean_attended_tokens(result.tree, seqs) < flatten_mean_attended(
            result.tree, seqs
        ), seed


class TestKernels:
    def test_export_round_trip(self, tmp_path, fig3_script):
        sample, tree = linearize_script(fig3_script)
        mask = build_training_mask(sample, tree)
        path = str(tmp_path / "mask.bin")
        write_mask(mask, sample.prompt_len, path)
        back, plen = read_mask(path)
        assert np.array_equal(back, mask)
        assert plen == 1
