"""Linearized training samples, their attention masks and loss masks.

A sample is its script's training layout (``script.lay_out``), so the
training mask of a token equals exactly what the token could see at decode
time, and a node's subtree is one stretch of positions: a mask needs each
subtree's last node, not an ancestor relation.  The layout's one walk
records the node order, each node's run of positions and the subtree ends;
``linearize_script`` hands that record on with the sample as its ``Walk``,
and the training mask reads it, once node_of is checked against it,
instead of walking the tree and mapping node_of token by token.  A
hand-built sample has no walk, so its tree is walked
(``tree.preorder_subtrees``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, repeat

import numpy as np

from ._kernels import build_mask_array
from .errors import TreeError
from .script import ScriptTree, lay_out
from .tokens import CHILD
from .tree import ParagraphNode, ParagraphTree, preorder_subtrees

__all__ = [
    "LinearizedSample",
    "Walk",
    "linearize_script",
    "build_training_mask",
    "build_loss_mask",
]


@dataclass
class Walk:
    """What the layout walk recorded about the tree ``linearize_script`` built.

    ``tree.nodes`` holds the nodes in preorder.  Node v starts at
    ``starts[v]`` and ends where node v + 1 starts, the last one at the
    sample's end, and its subtree is nodes v to ``last[v]``.
    """

    tree: ParagraphTree
    starts: list[int]
    last: list[int]


@dataclass
class LinearizedSample:
    tokens: list[str]
    node_of: list[int]  # node id per token; -1 for prompt positions
    prompt_len: int
    walk: Walk | None = field(default=None, compare=False, repr=False)  # None if hand-built


def linearize_script(script: ScriptTree) -> tuple[LinearizedSample, ParagraphTree]:
    """Linearize a content script into a training sample plus an aligned tree.

    The sample is the script's ``lay_out`` and carries its ``Walk``.  The
    returned tree's nodes slice into that stream itself (sequence id 0),
    which keeps mask construction and restore checks on a single coordinate
    system.
    """
    layout = lay_out(script)
    tokens, starts = layout.tokens, layout.starts
    plen = len(script.prompt)
    node_of: list[int] = [-1] * plen
    tree = ParagraphTree(root=script.root, prompt_len=plen)
    for node, start, end in zip(layout.nodes, starts, [*starts[1:], len(tokens)]):
        nid = node.id
        node_of += [nid] * (end - start)
        # Positional fields: with keywords this call takes twice as long.
        tree.nodes[nid] = ParagraphNode(nid, 0, start, end, node.first_child, node.next_sibling)
    return LinearizedSample(tokens, node_of, plen, Walk(tree, starts, layout.last)), tree


def build_training_mask(sample: LinearizedSample, tree: ParagraphTree) -> np.ndarray:
    """Boolean (n, n) mask: row = query token, column = key token.

    A token sees the prompt, every token of its strict ancestors, and its
    own node causally.  Generated positions must follow ``preorder``, as
    ``linearize_script`` lays them out; a position whose node comes before
    the previous position's node raises TreeError, and so does a negative
    ``prompt_len`` (one above n makes every position prompt).

    The kernel takes each position's preorder index and each node's subtree
    end.  A sample passed with the tree object ``linearize_script`` built
    for it has both in its ``Walk`` once node_of still equals the recorded
    runs, and then the only position that can break a rule is the first
    one past a shortened ``prompt_len``; that tree's pointers are taken as
    the walk found them.  Any other sample, or a copy of the tree, has
    ``tree`` walked, and node_of mapped and checked token by token.
    """
    n = len(sample.tokens)
    if len(sample.node_of) != n:
        raise TreeError("sample token and node_of lengths differ")
    plen = min(_prompt_len(sample), n)
    walk = sample.walk
    node_of = None
    if walk is not None and walk.tree is tree:
        node_of = _recorded_node_of(sample, walk, n)
    if node_of is not None:
        last = walk.last
        if plen < walk.starts[0]:
            _raise_first_bad(sample, node_of, plen)
    else:
        nodes, last = preorder_subtrees(tree.root, tree.nodes)
        dense = {node.id: v for v, node in enumerate(nodes)}
        dense[-1] = -1  # prompt positions; unknown ids map to -2
        node_of = list(map(dense.get, sample.node_of, repeat(-2)))
        gen = node_of[plen:]
        if (plen and min(node_of[:plen]) < -1) or (
            gen and (gen[0] < 0 or gen != sorted(gen))
        ):
            _raise_first_bad(sample, node_of, plen)
    return build_mask_array(node_of, last, plen)


def _recorded_node_of(sample: LinearizedSample, walk: Walk, n: int) -> list[int] | None:
    """Each position's preorder index, from the walk's runs, if node_of
    still equals them; None if not.  Each run is one list repeat and the
    check one list compare."""
    starts = walk.starts
    runs = [-1] * starts[0]
    node_of = runs.copy()
    for v, nid, start, end in zip(count(), walk.tree.nodes, starts, [*starts[1:], n]):
        runs += [nid] * (end - start)
        node_of += [v] * (end - start)
    return node_of if sample.node_of == runs else None


def _raise_first_bad(sample: LinearizedSample, node_of: list[int], plen: int) -> None:
    """Raise TreeError for the first position build_training_mask rejects."""
    prev = -1
    for i, v in enumerate(node_of):
        if v == -2:
            raise TreeError(f"position {i} maps to unknown node {sample.node_of[i]}")
        if i < plen:
            continue
        if v == -1:
            raise TreeError(f"generated position {i} has no node")
        if v < prev:
            raise TreeError(
                f"position {i} is out of preorder: node {sample.node_of[i]}"
                f" follows node {sample.node_of[i - 1]}"
            )
        prev = v


def _prompt_len(sample: LinearizedSample) -> int:
    """The sample's prompt length; a negative one raises TreeError."""
    if sample.prompt_len < 0:
        raise TreeError(f"prompt_len {sample.prompt_len} is negative")
    return sample.prompt_len


def build_loss_mask(sample: LinearizedSample) -> np.ndarray:
    """True where a position contributes training loss.

    Prompt positions and injected [Child] positions carry no loss; [Fork]
    and [EOS] are trained like content.  A negative ``prompt_len`` raises
    TreeError.  The [Child]s are searched for in the tokens, so the mask
    follows tokens edited after ``linearize_script``.
    """
    tokens = sample.tokens
    mask = np.ones(len(tokens), dtype=np.bool_)
    mask[: _prompt_len(sample)] = False
    i = -1
    for _ in range(tokens.count(CHILD)):
        i = tokens.index(CHILD, i + 1)
        mask[i] = False
    return mask
