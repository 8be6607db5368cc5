"""Linearized training samples, their attention masks and loss masks.

A sample is its script's training layout (``script.lay_out``), so the
training mask of a token equals exactly what the token could see at decode
time, and a node's subtree is one stretch of positions: a mask needs each
subtree's last node, not an ancestor relation.

The tree rule.  ``linearize_script`` stores the tree's nodes in preorder,
each under its own id.  ``build_training_mask`` reads a tree in one pass
over its stored nodes while node v is the one a preorder walk from the root
reaches v-th, no node has id -1 (node_of's prompt id), each node has both
pointers or neither, the bounds run on from the tree's ``prompt_len`` to n,
and node_of is -1 over the prompt and each node's id over its bounds.  A
walk finds the same order, so both ways give the same mask or TreeError.
Any other tree is walked (``tree.preorder_subtrees``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise, repeat

import numpy as np

from ._kernels import build_mask_array
from .errors import TreeError
from .script import ScriptTree, lay_out
from .tokens import CHILD
from .tree import ParagraphNode, ParagraphTree, preorder_subtrees, subtree_last

__all__ = [
    "LinearizedSample",
    "linearize_script",
    "build_training_mask",
    "build_loss_mask",
]


@dataclass
class LinearizedSample:
    tokens: list[str]
    node_of: list[int]  # node id per token; -1 for prompt positions
    prompt_len: int


def linearize_script(script: ScriptTree) -> tuple[LinearizedSample, ParagraphTree]:
    """Linearize a content script into a training sample plus an aligned tree.

    The sample is the script's ``lay_out``.  The returned tree's nodes slice
    into that stream itself (sequence id 0), which keeps mask construction
    and restore checks on a single coordinate system, and are stored in
    preorder, as the tree rule of the module docstring reads them.
    """
    tokens, starts = lay_out(script)
    plen = len(script.prompt)
    node_of: list[int] = [-1] * plen
    tree = ParagraphTree(root=script.root, prompt_len=plen)
    for nid, (start, end) in zip(starts, pairwise([*starts.values(), len(tokens)])):
        node = script.nodes[nid]
        node_of += [nid] * (end - start)
        # Positional fields: with keywords this call takes twice as long.
        tree.nodes[nid] = ParagraphNode(nid, 0, start, end, node.first_child, node.next_sibling)
    return LinearizedSample(tokens, node_of, plen), tree


def build_training_mask(sample: LinearizedSample, tree: ParagraphTree) -> np.ndarray:
    """Boolean (n, n) mask: row = query token, column = key token.

    A token sees the prompt, every token of its strict ancestors, and its
    own node causally.  Generated positions must follow ``preorder``
    (``_raise_first_bad``), and a negative ``prompt_len`` raises TreeError
    (one above n makes every position prompt).

    The kernel takes each position's preorder index and each subtree's end
    from ``tree``: read in one pass while the tree rule of the module
    docstring holds, else walked.  Read in one pass, only a shortened
    ``prompt_len`` can break a rule.
    """
    n = len(sample.tokens)
    if len(sample.node_of) != n:
        raise TreeError("sample token and node_of lengths differ")
    plen = min(_prompt_len(sample), n)
    read = _read_preorder(sample, tree)
    if read is not None:
        node_of, last = read
        if plen < tree.prompt_len:
            _raise_first_bad(sample, node_of, plen)
    else:
        nodes, last = preorder_subtrees(tree.root, tree.nodes)
        dense = {node.id: v for v, node in enumerate(nodes)}
        dense[-1] = -1  # prompt positions; unknown ids map to -2
        node_of = list(map(dense.get, sample.node_of, repeat(-2)))
        _raise_first_bad(sample, node_of, plen)
    return build_mask_array(node_of, last, plen)


def _read_preorder(
    sample: LinearizedSample, tree: ParagraphTree
) -> tuple[list[int], list[int]] | None:
    """Each position's preorder index and each subtree's last index, read
    off a tree that keeps the tree rule; None for any other tree.  ``due``
    is the walk's stack of ids, and ``pos`` where the next node starts."""
    pos, n = tree.prompt_len, len(sample.node_of)
    if not 0 <= pos <= n:
        return None
    due = [tree.root]
    forks: list[int] = []
    runs = [-1] * pos
    node_of = runs.copy()
    for v, (nid, node) in enumerate(tree.nodes.items()):
        if not (due and due.pop() == nid == node.id != -1) or node.end is None:
            return None
        if not pos == node.start <= node.end <= n:
            return None
        if node.first_child is not None and node.next_sibling is not None:
            due += node.next_sibling, node.first_child
            forks.append(v)
        elif node.first_child is not None or node.next_sibling is not None:
            return None
        runs += [nid] * (node.end - pos)
        node_of += [v] * (node.end - pos)
        pos = node.end
    if due or sample.node_of != runs:
        return None
    return node_of, subtree_last(list(tree.nodes.values()), forks)


def _raise_first_bad(sample: LinearizedSample, node_of: list[int], plen: int) -> None:
    """Raise TreeError for the first position, if any, that breaks the
    preorder rule: ``node_of`` holds preorder indices (-1 for no node, -2 for
    an unknown id); no position names an unknown node, and from ``plen`` on
    each position has a node whose index is at least the one before."""
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
