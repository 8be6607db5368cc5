import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import linearize_group  # noqa: E402

from apar.attention import LinearizedSample, build_training_mask, linearize_script
from apar.cli import main
from apar.errors import TreeError
from apar.script import ScriptNode, ScriptTree, flatten_script, random_script, script_to_json
from apar.tree import (
    ParagraphNode,
    ParagraphTree,
    path_to_root,
    preorder,
    restore,
    tree_to_dict,
    validate,
)


def single_node_tree(tokens, prompt_len=1):
    tree = ParagraphTree(root=0, prompt_len=prompt_len)
    tree.nodes[0] = ParagraphNode(id=0, seq=0, start=prompt_len)
    return tree, {0: ["p"] * prompt_len + tokens}


def fig3_tree():
    tree = ParagraphTree(root=0, prompt_len=1)
    tree.nodes[0] = ParagraphNode(id=0, seq=0, start=1, end=4, first_child=2, next_sibling=1)
    tree.nodes[1] = ParagraphNode(id=1, seq=0, start=4)
    tree.nodes[2] = ParagraphNode(id=2, seq=1, start=4)
    sequences = {
        0: ["Q", "a1", "a2", "[Fork]", "b1", "[EOS]"],
        1: ["Q", "a1", "a2", "[Fork]", "[Child]", "d1", "d2", "[EOS]"],
    }
    return tree, sequences


class TestValidate:
    def test_single_root_no_pointers(self):
        tree, seqs = single_node_tree(["a"])
        assert validate(tree, seqs) == []

    def test_one_pointer_forbidden(self):
        tree, _ = single_node_tree(["a"])
        tree.nodes[1] = ParagraphNode(id=1, seq=0, start=2)
        tree.nodes[0].first_child = 1
        violations = validate(tree)
        assert any("exactly 1 pointer" in v for v in violations)

    def test_cycle_detected_in_mutated_random_trees(self):
        hits = 0
        for seed in range(30):
            script = random_script(seed, max_nodes=21, max_node_len=4)
            if len(script.nodes) < 3:
                continue
            _, tree = linearize_script(script)
            # Point some leaf's sibling back at the root: a cycle.
            leaf = max(
                n.id for n in tree.nodes.values() if n.first_child is None
            )
            tree.nodes[leaf].next_sibling = tree.root
            tree.nodes[leaf].first_child = tree.root
            violations = validate(tree)
            assert violations, f"seed {seed} mutation accepted"
            assert any("cycle" in v for v in violations), violations
            hits += 1
        assert hits > 10

    def test_root_start_mismatch(self):
        tree, seqs = single_node_tree(["a"], prompt_len=2)
        tree.prompt_len = 3
        assert any("prompt length" in v for v in validate(tree, seqs))

    def test_overlapping_slices(self):
        tree, seqs = fig3_tree()
        tree.nodes[0].end = None
        assert any("overlap" in v for v in validate(tree, seqs))

    @pytest.mark.parametrize(
        "edit, violations",
        [
            (lambda tree: setattr(tree, "root", 7), ["root 7 is not a known node"]),
            (
                lambda tree: setattr(tree.nodes[0], "next_sibling", 9),
                ["node 0 points at unknown node 9", "node 1 unreachable from root"],
            ),
            (lambda tree: setattr(tree.nodes[2], "end", 3), ["node 2 has end 3 < start 4"]),
            (
                lambda tree: setattr(tree.nodes[2], "end", 99),
                ["node 2 slice [4,99) exceeds sequence 1 length 8"],
            ),
        ],
        ids=["unknown-root", "unknown-target", "end-before-start", "slice-past-end"],
    )
    def test_violation_named(self, edit, violations):
        tree, seqs = fig3_tree()
        edit(tree)
        assert validate(tree, seqs) == violations


class TestPreorder:
    def test_order_and_pointing_ids(self):
        tree, _ = fig3_tree()
        walk = [(node.id, parent) for node, parent in preorder(tree.root, tree.nodes)]
        assert walk == [(0, None), (2, 0), (1, 0)]

    def test_unknown_id_named(self):
        tree, _ = fig3_tree()
        tree.nodes[2].next_sibling = 9
        with pytest.raises(TreeError, match="unknown node id 9"):
            list(preorder(tree.root, tree.nodes))

    def test_cycle_named(self):
        tree, _ = fig3_tree()
        tree.nodes[2].first_child = tree.nodes[2].next_sibling = 0
        with pytest.raises(TreeError, match="node 0 is reached twice"):
            list(preorder(tree.root, tree.nodes))

    def test_node_reached_twice_rejected_by_every_walk(self, tmp_path, capsys):
        # Node 1 is both the first_child and the next_sibling of node 0: no
        # cycle, but its content would be emitted twice.
        script = ScriptTree(
            root=0,
            nodes={
                0: ScriptNode(0, ("a",), first_child=1, next_sibling=1),
                1: ScriptNode(1, ("b",)),
            },
            prompt=("Q",),
        )
        tree = ParagraphTree(root=0, prompt_len=1)
        tree.nodes[0] = ParagraphNode(id=0, seq=0, start=1, end=3, first_child=1, next_sibling=1)
        tree.nodes[1] = ParagraphNode(id=1, seq=0, start=3)
        seqs = {0: ["Q", "a", "[Fork]", "b", "[EOS]"]}
        sample = LinearizedSample(seqs[0], [-1, 0, 0, 1, 1], prompt_len=1)
        for walk in (
            lambda: flatten_script(script),
            lambda: linearize_script(script),
            lambda: linearize_group(tree, seqs),
            lambda: restore(tree, seqs),
            lambda: build_training_mask(sample, tree),
        ):
            with pytest.raises(TreeError, match="node 1 is reached twice"):
                walk()
        path = tmp_path / "shared.json"
        path.write_text(script_to_json(script))
        assert main(["decode", "--script", str(path)]) == 1
        assert "node 1 is reached twice" in capsys.readouterr().err

    def test_pointer_cycle_rejected_by_mask_and_restore(self):
        # Node 2's first_child points back at the root: the pointers form a
        # cycle through the root.
        tree, seqs = fig3_tree()
        tree.nodes[2].first_child = 0
        sample = LinearizedSample(seqs[0], [-1, 0, 0, 0, 1, 1], prompt_len=1)
        for walk in (
            lambda: build_training_mask(sample, tree),
            lambda: restore(tree, seqs),
        ):
            with pytest.raises(TreeError, match="node 0 is reached twice"):
                walk()


class TestRestore:
    def test_linear_strip(self):
        tree, seqs = single_node_tree(["a", "b", "c", "[EOS]"])
        assert restore(tree, seqs) == ["a", "b", "c"]

    def test_fig3_order(self):
        tree, seqs = fig3_tree()
        assert restore(tree, seqs) == ["a1", "a2", "d1", "d2", "b1"]

    def test_keep_control(self):
        tree, seqs = fig3_tree()
        out = restore(tree, seqs, strip_control=False)
        assert out == ["a1", "a2", "[Fork]", "[Child]", "d1", "d2", "[EOS]", "b1", "[EOS]"]

    def test_matches_recursive_oracle(self):
        def oracle(tree, seqs, nid):
            node = tree.nodes[nid]
            seq = seqs[node.seq]
            start, end = node.slice_bounds(len(seq))
            out = list(seq[start:end])
            if node.first_child is not None:
                out += oracle(tree, seqs, node.first_child)
            if node.next_sibling is not None:
                out += oracle(tree, seqs, node.next_sibling)
            return out

        for seed in range(40):
            script = random_script(seed, max_nodes=15, max_node_len=6)
            sample, tree = linearize_script(script)
            seqs = {0: sample.tokens}
            got = restore(tree, seqs, strip_control=False)
            assert got == oracle(tree, seqs, tree.root)

    def test_out_of_range_names_node(self):
        tree, seqs = fig3_tree()
        tree.nodes[2].end = 99
        with pytest.raises(TreeError, match="node 2"):
            restore(tree, seqs)

    def test_unknown_sequence_names_node(self):
        tree, seqs = fig3_tree()
        tree.nodes[2].seq = 5
        with pytest.raises(TreeError, match="node 2 references unknown sequence 5"):
            restore(tree, seqs)

    def test_visits_each_node_once(self):
        for seed in range(20):
            script = random_script(seed, max_nodes=17, max_node_len=3)
            sample, tree = linearize_script(script)
            out = restore(tree, {0: sample.tokens}, strip_control=False)
            assert out == sample.tokens[sample.prompt_len:]


class TestFlatten:
    def test_fig3(self):
        tree, seqs = fig3_tree()
        flat = restore(tree, seqs, strip_control=True)
        assert flat == ["a1", "a2", "d1", "d2", "b1"]
        assert len(flat) == 5

    def test_empty_generation(self):
        tree, seqs = single_node_tree([])
        assert restore(tree, seqs, strip_control=True) == []

    def test_equals_strip_restore(self):
        for seed in range(100):
            script = random_script(seed, max_nodes=9, max_node_len=5)
            sample, tree = linearize_script(script)
            seqs = {0: sample.tokens}
            # The flatten baseline of the decoded tree is the script's content.
            assert restore(tree, seqs, strip_control=True) == flatten_script(script)


class TestPathToRoot:
    def test_root_only(self):
        tree, _ = single_node_tree(["a"])
        assert path_to_root(tree, 0) == [0]

    def test_fig3_detail_and_sibling(self):
        tree, _ = fig3_tree()
        assert path_to_root(tree, 2) == [2, 0]
        assert path_to_root(tree, 1) == [1, 0]

    def test_unknown_node(self):
        tree, _ = fig3_tree()
        with pytest.raises(TreeError):
            path_to_root(tree, 99)

    def test_unreachable_node(self):
        tree, _ = fig3_tree()
        tree.nodes[3] = ParagraphNode(id=3, seq=0, start=6)
        with pytest.raises(TreeError, match="node 3 is not reachable from root 0"):
            path_to_root(tree, 3)

    def test_cycle_off_the_root(self):
        tree, _ = fig3_tree()
        tree.nodes[3] = ParagraphNode(id=3, seq=2, start=0, first_child=4, next_sibling=4)
        tree.nodes[4] = ParagraphNode(id=4, seq=3, start=0, first_child=3, next_sibling=3)
        with pytest.raises(TreeError, match="cycle detected at node 3"):
            path_to_root(tree, 3)


def test_json_round_trip():
    tree, _ = fig3_tree()
    payload = json.loads(json.dumps(tree_to_dict(tree)))
    nodes = payload["nodes"]
    assert nodes[0]["end"] == 4
    assert nodes[1]["end"] is None
    # the JSON form holds the whole tree: rebuilding it gives the same tree
    back = ParagraphTree(
        root=payload["root"],
        nodes={entry["id"]: ParagraphNode(**entry) for entry in nodes},
        prompt_len=payload["prompt_len"],
    )
    assert back == tree
