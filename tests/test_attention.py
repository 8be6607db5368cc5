import copy
import dataclasses
import sys
import tracemalloc
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from corpus_data import conversations  # noqa: E402
from oracles import (  # noqa: E402
    linearize_group,
    reference_child_positions,
    reference_loss_mask,
    reference_subtree_last,
    reference_training_mask,
)

from apar import _kernels
from apar._kernels import build_mask_array
from apar.attention import (
    LinearizedSample,
    build_loss_mask,
    build_training_mask,
    linearize_script,
)
from apar.engine import apar_decode
from apar.errors import TreeError
from apar.extract import Conversation, extract_conversation
from apar.script import ReplayModel, ScriptNode, ScriptTree, random_script
from apar.sim import list_script
from apar.tokens import CHILD, EOS, FORK
from apar.tree import path_to_root, subtree_last


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


def dense_reference_mask(node_of, ancestor, prompt_len):
    """Reference kernel: the earlier all-pairs formula over n-by-n temporaries."""
    node_of = np.ascontiguousarray(node_of, dtype=np.int64)
    ancestor = np.ascontiguousarray(ancestor, dtype=np.bool_)
    n = node_of.shape[0]
    idx = np.arange(n)
    causal = idx[None, :] <= idx[:, None]
    prompt_col = (idx < prompt_len)[None, :]
    generated = node_of >= 0
    safe = np.where(generated, node_of, 0)
    same = node_of[:, None] == node_of[None, :]
    anc = ancestor[safe[:, None], safe[None, :]]
    pair_ok = generated[:, None] & generated[None, :] & (same | anc)
    return causal & (prompt_col | pair_ok)


@st.composite
def kernel_inputs(draw):
    """A random pointer tree laid out in preorder, 0-6 tokens a node, and
    prompt_len from 0 to past n; prompt positions keep their node or read -1.

    Returns (node_of, ancestor, last, prompt_len) over dense preorder
    indices: ancestor[a, b] says b is a strict ancestor of a, and last[v] is
    the last index of v's subtree.
    """
    m = draw(st.integers(min_value=1, max_value=8))
    pointers = [[None, None]]  # first_child, next_sibling
    for k in range(1, m):
        free = [(v, s) for v in range(k) for s in (0, 1) if pointers[v][s] is None]
        v, s = draw(st.sampled_from(free))
        pointers[v][s] = k
        pointers.append([None, None])
    order, parent = [], {0: None}
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for c in reversed(pointers[v]):
            if c is not None:
                parent[c] = v
                stack.append(c)
    dense = {v: i for i, v in enumerate(order)}
    ancestor = np.zeros((m, m), dtype=bool)
    for v in order:
        p = parent[v]
        while p is not None:
            ancestor[dense[v], dense[p]] = True
            p = parent[p]
    last = [max(b for b in range(m) if b == a or ancestor[b, a]) for a in range(m)]
    sizes = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=m, max_size=m))
    node_of = np.repeat(np.arange(m), sizes)
    n = len(node_of)
    prompt_len = draw(st.sampled_from([0, n, n + 2]) | st.integers(min_value=0, max_value=n))
    if draw(st.booleans()):
        node_of[:prompt_len] = -1
    return node_of, ancestor, last, prompt_len


@settings(max_examples=400, deadline=None)
@given(kernel_inputs())
@example((np.zeros(0, dtype=np.int64), np.zeros((1, 1), dtype=bool), [0], 0))
@example((np.zeros(1, dtype=np.int64), np.zeros((1, 1), dtype=bool), [0], 0))
@example((np.array([0, 0, 1, 1]), np.array([[False, False], [True, False]]), [1, 1], 6))
# node_of as a Python list, the form build_training_mask passes: node 0 forks
# child 1 and continues as sibling 2, so only node 1's subtree ends early.
@example(
    (
        [-1, 0, 0, 1, 1, 2],
        np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0]], dtype=bool),
        [2, 1, 2],
        1,
    )
)
# A chain 0 -> 1 -> 2: every subtree runs to the end, so nothing is cleared.
@example(
    (
        np.array([0, 0, 1, 2, 2]),
        np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0]], dtype=bool),
        [2, 2, 2],
        0,
    )
)
def test_subtree_kernel_matches_dense_reference(args):
    node_of, ancestor, last, prompt_len = args
    mask = build_mask_array(node_of, last, prompt_len)
    assert mask.dtype == np.bool_
    assert np.array_equal(mask, dense_reference_mask(node_of, ancestor, prompt_len))


def tree_kernel_inputs(parent, sizes, prompt_len):
    """Kernel inputs for a tree given in dense preorder as each node's parent
    (-1 for the root) and token count: (node_of, ancestor, last), with the
    prompt's positions read -1."""
    m = len(parent)
    ancestor = np.zeros((m, m), dtype=bool)
    for v in range(m):
        p = parent[v]
        while p >= 0:
            ancestor[v, p] = True
            p = parent[p]
    last = [max(b for b in range(m) if b == a or ancestor[b, a]) for a in range(m)]
    node_of = [-1] * prompt_len + [v for v, k in enumerate(sizes) for _ in range(k)]
    return node_of, ancestor, last


def test_kernel_cuts_several_nodes_at_one_row():
    # Nodes 1, 2 and 3 are a chain under the root, so all three subtrees end
    # where node 3's tokens do; nodes 4 and 5 (a node and its last
    # descendant) both end where node 5's do; the root runs to the end.
    parent = [-1, 0, 1, 2, 0, 4, 0]
    node_of, ancestor, last = tree_kernel_inputs(parent, [2, 3, 1, 2, 2, 3, 2], 2)
    assert last == [6, 3, 3, 3, 5, 5, 6]
    mask = build_mask_array(node_of, last, 2)
    assert np.array_equal(mask, dense_reference_mask(node_of, ancestor, 2))


def test_kernel_template_regrown_then_sliced(monkeypatch):
    monkeypatch.setattr(_kernels, "_causal", np.ones((0, 0), dtype=bool))
    assert _kernels._causal_template(30).shape == (30, 30)
    parent = [-1, 0, 1, 0, 3, 0]
    grown = 31
    for n in (grown, grown - 3, 7):
        sizes = [n // 6] * 5 + [n - 5 * (n // 6)]
        node_of, ancestor, last = tree_kernel_inputs(parent, sizes, 0)
        mask = build_mask_array(node_of, last, 0)
        assert np.array_equal(mask, dense_reference_mask(node_of, ancestor, 0))
        # The template grows to the largest n seen: 2 * n bytes, no more.
        assert _kernels._causal.shape == (grown, grown)


def test_kernel_returns_an_owned_writable_mask():
    node_of, ancestor, last = tree_kernel_inputs([-1, 0, 0], [3, 4, 2], 1)
    expected = dense_reference_mask(node_of, ancestor, 1)
    mask = build_mask_array(node_of, last, 1)
    assert mask.flags.c_contiguous and mask.flags.owndata and mask.base is None
    mask[:] = ~mask
    assert np.array_equal(build_mask_array(node_of, last, 1), expected)


def test_kernel_prompt_past_n_and_empty():
    node_of, ancestor, last = tree_kernel_inputs([-1, 0, 0], [3, 4, 2], 0)
    n = len(node_of)
    mask = build_mask_array(node_of, last, n + 3)
    assert np.array_equal(mask, dense_reference_mask(node_of, ancestor, n + 3))
    assert np.array_equal(mask, np.tri(n, dtype=bool))
    empty = build_mask_array([], [0], 0)
    assert empty.dtype == np.bool_
    assert np.array_equal(empty, dense_reference_mask([], np.zeros((1, 1), dtype=bool), 0))
    sample, tree = linearize_script(list_script(items=3, detail_len=2))
    sample.prompt_len = len(sample.tokens) + 3
    assert build_training_mask(sample, tree).tobytes() == (
        reference_training_mask(sample, tree).tobytes()
    )


@pytest.mark.parametrize(
    "script",
    [list_script(items=30, detail_len=65), random_script(3, max_nodes=41, max_node_len=30)],
    ids=["list_n2229", "random_nested"],
)
def test_kernel_long_samples_match_numpy_reference(script):
    sample, tree = linearize_script(script)
    assert len(sample.tokens) in (2229, 701)
    assert max(len(path_to_root(tree, v)) for v in tree.nodes) >= 3
    mask = build_training_mask(sample, tree)
    assert mask.tobytes() == reference_training_mask(sample, tree).tobytes()


_EXTRACTED = [
    sample
    for payload in conversations()
    for _, sample in extract_conversation(Conversation.from_dict(payload))
]


@st.composite
def corrupted_samples(draw):
    """A laid-out sample and its tree, from ``random_script``, ``list_script``
    or the extraction corpus (its tree deep-copied), with the tree's nodes
    stored in a drawn order and at most one corruption: an unknown node id,
    -1 at a generated position, two node runs swapped, ``prompt_len`` set to
    0, n or n + 2, one tree node's pointers swapped, dropped or aimed
    anywhere, or one node's id set to -1, 777 or another node's id."""
    source = draw(st.sampled_from(["random", "list", "extracted"]))
    if source == "random":
        seed = draw(st.integers(min_value=0, max_value=10_000))
        sample, tree = linearize_script(random_script(seed, max_nodes=9, max_node_len=5))
    elif source == "list":
        items = draw(st.integers(min_value=1, max_value=6))
        detail_len = draw(st.integers(min_value=0, max_value=5))
        sample, tree = linearize_script(list_script(items=items, detail_len=detail_len))
    else:
        extracted = draw(st.sampled_from(_EXTRACTED))
        sample, tree = extracted.sample, copy.deepcopy(extracted.tree)
    tree.nodes = {nid: tree.nodes[nid] for nid in draw(st.permutations(list(tree.nodes)))}
    node_of, plen = list(sample.node_of), sample.prompt_len
    n = len(node_of)
    corruption = draw(
        st.sampled_from(["none", "unknown", "no_node", "swap", "prompt_len", "pointers", "id"])
    )
    if corruption == "unknown":
        i = draw(st.integers(min_value=0, max_value=n - 1))
        node_of[i] = draw(st.sampled_from([max(tree.nodes) + 1, 777, -3]))
    elif corruption == "no_node" and plen < n:
        node_of[draw(st.integers(min_value=plen, max_value=n - 1))] = -1
    elif corruption == "swap":
        runs = [list(run) for _, run in groupby(node_of[plen:])]
        if len(runs) > 1:
            i = draw(st.integers(min_value=0, max_value=len(runs) - 2))
            j = draw(st.integers(min_value=i + 1, max_value=len(runs) - 1))
            runs[i], runs[j] = runs[j], runs[i]
            node_of[plen:] = [nid for run in runs for nid in run]
    elif corruption == "prompt_len":
        plen = draw(st.sampled_from([0, n, n + 2]))
    elif corruption == "pointers":
        node = tree.nodes[draw(st.sampled_from(sorted(tree.nodes)))]
        target = st.sampled_from([None, *tree.nodes, max(tree.nodes) + 1])
        node.first_child, node.next_sibling = draw(
            st.sampled_from([(node.next_sibling, node.first_child), (None, None)])
            | st.tuples(target, target)
        )
    elif corruption == "id":
        node = tree.nodes[draw(st.sampled_from(sorted(tree.nodes)))]
        node.id = draw(st.sampled_from([-1, 777, *sorted(tree.nodes)]))
    return dataclasses.replace(sample, node_of=node_of, prompt_len=plen), tree


@settings(max_examples=300, deadline=None)
@given(corrupted_samples())
def test_training_mask_matches_numpy_reference(args):
    sample, tree = args
    try:
        expected = reference_training_mask(sample, tree)
    except TreeError as err:
        with pytest.raises(TreeError) as raised:
            build_training_mask(sample, tree)
        assert str(raised.value) == str(err)
    else:
        mask = build_training_mask(sample, tree)
        assert mask.dtype == expected.dtype and mask.shape == expected.shape
        assert mask.tobytes() == expected.tobytes()


@st.composite
def loss_mask_samples(draw):
    """A laid-out sample from ``random_script``, ``list_script`` or the
    extraction corpus, or a free token list where [Child] may sit anywhere,
    prompt included; ``prompt_len`` from 0 to past n."""
    source = draw(st.sampled_from(["random", "list", "extracted", "free"]))
    if source == "random":
        seed = draw(st.integers(min_value=0, max_value=10_000))
        sample, _ = linearize_script(random_script(seed, max_nodes=9, max_node_len=5))
    elif source == "list":
        items = draw(st.integers(min_value=1, max_value=6))
        sample, _ = linearize_script(list_script(items=items, detail_len=3))
    elif source == "extracted":
        sample = draw(st.sampled_from(_EXTRACTED)).sample
    else:
        words = st.sampled_from([CHILD, FORK, EOS, "x", "\\[Child]", "[Child]x"])
        tokens = draw(st.lists(words, max_size=30))
        sample = LinearizedSample(tokens, [0] * len(tokens), 0)
    n = len(sample.tokens)
    plen = draw(st.sampled_from([sample.prompt_len, 0, n, n + 2]))
    return LinearizedSample(sample.tokens, sample.node_of, plen)


@settings(max_examples=300, deadline=None)
@given(loss_mask_samples())
def test_loss_mask_matches_object_array_reference(sample):
    loss = build_loss_mask(sample)
    expected = reference_loss_mask(sample)
    assert loss.dtype == expected.dtype and loss.shape == expected.shape
    assert loss.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000).map(
        lambda seed: random_script(seed, max_nodes=41, max_node_len=4)
    )
    | st.sampled_from(_EXTRACTED)
)
def test_linearized_tree_matches_reference_walk_and_child_positions(source):
    # Over random scripts and extracted samples: the linearized tree's
    # nodes, as stored, and their subtree ends equal a reference walk plus
    # a reverse pass, and each fork's first child, the next node, starts at
    # a [Child].
    if isinstance(source, ScriptTree):
        sample, tree = linearize_script(source)
    else:
        sample, tree = source.sample, source.tree
    nodes = list(tree.nodes.values())
    forks = [v for v, node in enumerate(nodes) if node.first_child is not None]
    assert (list(tree.nodes), subtree_last(nodes)) == (
        reference_subtree_last(tree.root, tree.nodes)
    )
    assert [nodes[v + 1].start for v in forks] == reference_child_positions(sample.tokens)


def test_training_mask_follows_the_tree_and_node_of_it_is_given(fig3_script):
    sample, tree = linearize_script(fig3_script)
    # Another tree object of the same script gives the same mask.
    _, other = linearize_script(fig3_script)
    assert build_training_mask(sample, other).tobytes() == (
        build_training_mask(sample, tree).tobytes()
    )
    # The same ids with the pointers swapped: node 2 now comes before
    # node 1, so the sample's order is rejected.
    fig3_script.nodes[0] = ScriptNode(0, ("a1", "a2"), first_child=2, next_sibling=1)
    _, swapped = linearize_script(fig3_script)
    with pytest.raises(TreeError, match="position 8 is out of preorder: node 2 follows node 1"):
        build_training_mask(sample, swapped)
    # A valid node_of other than the laid-out one gives the reference mask.
    sample.node_of[4] = 0
    assert build_training_mask(sample, tree).tobytes() == (
        reference_training_mask(sample, tree).tobytes()
    )


def test_training_mask_refuses_a_tree_edited_after_layout(fig3_script):
    # The tree linearize_script returned, with node 2 now pointing back at
    # the root, or node 1 stored under id 7: the mask walks the edited tree
    # and refuses it.
    sample, tree = linearize_script(fig3_script)
    tree.nodes[2].first_child = tree.nodes[2].next_sibling = 0
    with pytest.raises(TreeError, match="node 0 is reached twice"):
        build_training_mask(sample, tree)
    sample, tree = linearize_script(fig3_script)
    tree.nodes[1].id = 7
    with pytest.raises(TreeError, match="position 4 maps to unknown node 1"):
        build_training_mask(sample, tree)


def test_training_mask_of_lone_pointer_trees_matches_reference():
    # Scripts given a lone pointer after their check: the mask of their
    # linearized trees, which break the both-or-neither pointer rule, equals
    # the reference, and each tree edited to both-or-neither pointers is
    # refused.  Root 0 with next sibling 1 alone lays out both as leaves;
    # node 1 with first child 3 alone ends with node 3.
    lone_sibling = ScriptTree(0, {0: ScriptNode(0, ("a",)), 1: ScriptNode(1, ("b",))}, ("Q",))
    lone_sibling.nodes[0].next_sibling = 1
    lone_child = ScriptTree(
        0,
        {
            0: ScriptNode(0, ("a",), 1, 2),
            1: ScriptNode(1, ("b",), 3, 4),
            2: ScriptNode(2, ("c",)),
            3: ScriptNode(3, ("d",)),
            4: ScriptNode(4, ("e",)),
        },
        ("Q",),
    )
    lone_child.nodes[1].next_sibling = None
    del lone_child.nodes[4]
    cases = [
        (lone_sibling, 0, None, "position 3 maps to unknown node 1"),
        (lone_child, 1, 2, "node 2 is reached twice"),
    ]
    for script, nid, sibling, message in cases:
        sample, tree = linearize_script(script)
        assert build_training_mask(sample, tree).tobytes() == (
            reference_training_mask(sample, tree).tobytes()
        )
        tree.nodes[nid].next_sibling = sibling
        with pytest.raises(TreeError, match=message):
            build_training_mask(sample, tree)


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

    def test_node_of_length_must_match_tokens(self, fig3_script):
        sample, tree = linearize_script(fig3_script)
        sample.node_of.pop()
        with pytest.raises(TreeError, match="sample token and node_of lengths differ"):
            build_training_mask(sample, tree)

    def test_generated_position_without_node_rejected(self, fig3_script):
        sample, tree = linearize_script(fig3_script)
        sample.node_of[6] = -1
        sample.node_of[8] = 777
        with pytest.raises(TreeError, match="generated position 6 has no node"):
            build_training_mask(sample, tree)
        sample.node_of[4] = 777
        with pytest.raises(TreeError, match="position 4 maps to unknown node 777"):
            build_training_mask(sample, tree)
        sample, tree = linearize_script(fig3_script)
        sample.node_of[1] = -1
        with pytest.raises(TreeError, match="generated position 1 has no node"):
            build_training_mask(sample, tree)
        sample.node_of[1] = 0
        sample.node_of[0] = 777
        with pytest.raises(TreeError, match="position 0 maps to unknown node 777"):
            build_training_mask(sample, tree)
        # A root with id -1, the id of prompt positions: its tokens have no node.
        root_minus_one = ScriptTree(-1, {-1: ScriptNode(-1, ("a",))}, ("Q",))
        sample, tree = linearize_script(root_minus_one)
        with pytest.raises(TreeError, match="generated position 1 has no node"):
            build_training_mask(sample, tree)

    def test_out_of_preorder_node_of_rejected(self, fig3_script):
        # Node 2's tokens moved ahead of node 1's: a valid tree, but the
        # generated positions no longer follow its preorder.
        sample, tree = linearize_script(fig3_script)
        sample.tokens[4:] = sample.tokens[8:] + sample.tokens[4:8]
        sample.node_of[4:] = sample.node_of[8:] + sample.node_of[4:8]
        assert sample.node_of == [-1, 0, 0, 0, 2, 2, 1, 1, 1, 1]
        with pytest.raises(
            TreeError, match=r"position 6 is out of preorder: node 1 follows node 2"
        ):
            build_training_mask(sample, tree)

    def test_negative_prompt_len_rejected(self, fig3_script):
        sample, tree = linearize_script(fig3_script)
        sample.prompt_len = -2
        with pytest.raises(TreeError, match="prompt_len -2 is negative"):
            build_training_mask(sample, tree)

    def test_peak_memory_is_one_mask(self):
        sample, tree = linearize_script(list_script(items=5, detail_len=400))
        n = len(sample.tokens)
        assert n == 2054
        tracemalloc.start()
        try:
            build_training_mask(sample, tree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n


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

    def test_negative_prompt_len_rejected(self):
        sample = LinearizedSample(["p", "x", "y", "z"], [-1, 0, 0, 0], -2)
        with pytest.raises(TreeError, match="prompt_len -2 is negative"):
            build_loss_mask(sample)

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
    """A token attends to its thread's prefix: mask row support is that plus itself."""

    @staticmethod
    def support(script, token):
        result = apar_decode(list(script.prompt), ReplayModel(script))
        sample = linearize_group(result.tree, result.sequences_map())
        mask = build_training_mask(sample, result.tree)
        return int(mask[sample.tokens.index(token)].sum())

    def test_ar_counts_all_preceding(self):
        script = ScriptTree(
            root=0, nodes={0: ScriptNode(0, tuple("abcde"))}, prompt=("p",)
        )
        for i, token in enumerate("abcde", start=1):
            assert self.support(script, token) == i + 1

    def test_fig3_examples(self, fig3_script):
        assert self.support(fig3_script, "b1") == 4 + 1  # Q a1 a2 [Fork]
        assert self.support(fig3_script, "d2") == 6 + 1  # Q a1 a2 [Fork] [Child] d1

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
                    assert support == seq_pos + 1


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

